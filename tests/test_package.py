import importlib
import json
import subprocess
import sys

import pytest

import tracepair


def test_public_names_resolve_to_their_modules():
    for module, names in tracepair._MODULES.items():
        mod = importlib.import_module(f"tracepair.{module}")
        for name in names:
            assert getattr(tracepair, name) is getattr(mod, name)
    assert sorted(tracepair._SOURCE) == tracepair.__all__


def test_dir_lists_all_before_first_use():
    # a fresh interpreter, where no public name has been resolved yet
    code = "import json, tracepair; print(json.dumps(dir(tracepair)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    names = set(json.loads(proc.stdout))
    assert set(tracepair.__all__) <= names
    assert set(tracepair._MODULES) <= names
    assert "__version__" in names


def test_submodules_resolve_after_bare_import():
    # a fresh interpreter, where no submodule has been imported yet
    code = ("import sys, tracepair\n"
            "assert 'tracepair.local' not in sys.modules\n"
            "for module in tracepair._MODULES:\n"
            "    assert getattr(tracepair, module) is sys.modules['tracepair.' + module]\n"
            "assert tracepair.local.s_direct is tracepair.s_direct\n")
    subprocess.run([sys.executable, "-c", code], timeout=60, check=True)


def test_star_import_binds_all():
    namespace = {}
    exec("from tracepair import *", namespace)
    for name in tracepair.__all__:
        assert namespace[name] is getattr(tracepair, name)


def test_named_imports():
    from tracepair import __version__, pair_constant
    from tracepair.constants import pair_constant as direct

    assert pair_constant is direct
    assert __version__ == "0.1.0"


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        tracepair.no_such_name
    assert not hasattr(tracepair, "verify_suites")  # public in verify, not in the package
    with pytest.raises(ImportError):
        from tracepair import no_such_name  # noqa: F401
