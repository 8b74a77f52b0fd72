import ast
from pathlib import Path

import tracepair


def _private_reaches(source):
    """(line, text) of each use in one module's source of another tracepair module's private names.

    Flags an import of an underscore-prefixed module, or of an
    underscore-prefixed name from a tracepair module, and the read of an
    underscore-prefixed attribute of a name bound to a tracepair module.
    """
    tree = ast.parse(source)
    modules = set()  # local names bound to tracepair modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith(
                "tracepair")):
            parts = (node.module or "").split(".")
            if any(part.startswith("_") for part in parts):
                found.append((node.lineno, f"from {node.module} import ..."))
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, f"import {alias.name}"))
                if node.module is None or node.module == "tracepair":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "tracepair":
                    continue
                if any(part.startswith("_") for part in alias.name.split(".")):
                    found.append((node.lineno, f"import {alias.name}"))
                if alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_modules_use_no_private_names_of_other_modules():
    package = Path(tracepair.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 10
    reaches = {path.name: _private_reaches(path.read_text()) for path in sources}
    assert {name: found for name, found in reaches.items() if found} == {}


def test_private_reach_detector():
    source = ("from . import _hidden, arith\n"
              "from ._hidden import f\n"
              "from .matcount import PrimePower, _case\n"
              "import tracepair._hidden\n"
              "x = arith._SEGMENT + arith.SIEVE_HARD_LIMIT\n"
              "y = PrimePower._x + (1).__abs__() + np._mean\n")
    assert [line for line, _ in _private_reaches(source)] == [1, 2, 3, 4, 5]


_PRIME_RULE = {"is_prime", "TRIAL_DIVISION_BOUND"}


def _prime_rule_reaches(source):
    """(line, name) of each import, name or attribute in one module's source that
    reaches ``arith.is_prime`` or ``arith.TRIAL_DIVISION_BOUND``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in _PRIME_RULE]
        elif isinstance(node, ast.Name) and node.id in _PRIME_RULE:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in _PRIME_RULE:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_prime_check_lives_in_arith():
    # every other module refuses a bad ell or p through arith.check_prime;
    # verify's oracles call is_prime to check the sieve
    package = Path(tracepair.__file__).parent
    reaches = {path.name: _prime_rule_reaches(path.read_text())
               for path in sorted(package.glob("*.py"))
               if path.name not in ("arith.py", "verify.py")}
    assert len(reaches) > 8
    assert {name: found for name, found in reaches.items() if found} == {}


def test_prime_rule_detector():
    source = ("from .arith import TRIAL_DIVISION_BOUND, check_prime, is_prime\n"
              "from . import arith\n"
              "ok = is_prime(7) and 7 < arith.TRIAL_DIVISION_BOUND\n"
              "check_prime(7, 'p')\n")
    assert _prime_rule_reaches(source) == [
        (1, "TRIAL_DIVISION_BOUND"), (1, "is_prime"), (3, "TRIAL_DIVISION_BOUND"), (3, "is_prime"),
    ]


_UNUSED_LIBRARIES = {"dataclasses", "mpmath"}


def _library_imports(source):
    """(line, module) of each import of ``dataclasses`` or ``mpmath`` in one module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] in _UNUSED_LIBRARIES]
    return sorted(found)


def test_no_module_imports_dataclasses_or_mpmath():
    # the records are NamedTuples and the Euler products run on ints and floats;
    # the tests keep mpmath as their oracle
    package = Path(tracepair.__file__).parent
    imports = {path.name: _library_imports(path.read_text())
               for path in sorted(package.glob("*.py"))}
    assert len(imports) > 10
    assert {name: found for name, found in imports.items() if found} == {}


def test_library_import_detector():
    source = ("import mpmath\n"
              "from dataclasses import dataclass\n"
              "def f():\n"
              "    import mpmath.libmp as libmp\n"
              "from . import dataclasses\n"
              "import dataclasses_json, numpy\n")
    assert _library_imports(source) == [(1, "mpmath"), (2, "dataclasses"), (4, "mpmath.libmp")]
