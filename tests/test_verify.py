"""Every verify check runs in tier-1: each one that test_acceptance.py does not
already run is run here through the report's runner and must pass."""

import types
from fractions import Fraction

import pytest
import test_acceptance

from tracepair import verify


def _global_names(code):
    """The global names that compiled code reads, its nested lambdas' included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


# the checks that test_acceptance.py runs, read from its test functions
IN_ACCEPTANCE = {
    getattr(verify, name)
    for test_name, test in vars(test_acceptance).items() if test_name.startswith("test_")
    for name in _global_names(test.__code__) if name.startswith("check_")
}
ENTRIES = [entry for entries in verify.SUITES.values() for entry in entries
           if entry[1] not in IN_ACCEPTANCE]


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry[0] for entry in ENTRIES])
def test_check_passes(entry):
    check = verify._run(*entry)
    assert check["status"] == "pass", (check["lhs"], check["rhs"], check.get("detail"))


def test_report_entries_keep_the_json_layout():
    keys = ["id", "status", "lhs", "rhs", "tolerance", "elapsed", "conjectural"]
    entry = verify._run("x:pass", lambda: (True, 1, Fraction(1, 2), ""), "exact", False)
    assert list(entry) == keys
    assert (entry["status"], entry["lhs"], entry["rhs"]) == ("pass", "1", "1/2")
    assert entry["elapsed"] == round(entry["elapsed"], 4)
    entry = verify._run("x:fail", lambda: (False, "a", "b", "why"), "1%", True)
    assert list(entry) == keys + ["detail"]
    assert (entry["status"], entry["conjectural"], entry["detail"]) == ("fail", True, "why")
    entry = verify._run("x:raise", lambda: 1 // 0, "exact", False)
    assert list(entry) == keys
    assert (entry["status"], entry["lhs"]) == ("fail", "exception")
    assert entry["rhs"] == "ZeroDivisionError('integer division or modulo by zero')"


def test_report_overall_fails_with_any_check(monkeypatch):
    monkeypatch.setitem(verify.SUITES, "arith", (
        ("x:pass", lambda: (True, 0, 0), "exact", False),
        ("x:fail", lambda: (False, 0, 1), "exact", False),
    ))
    report = verify.verify_suites(["arith"])
    assert list(report) == ["overall", "environment", "suites"]
    assert report["overall"] == "fail"
    assert [c["id"] for c in report["suites"]["arith"]] == ["x:pass", "x:fail"]
    assert report["environment"]["precision_digits_default"] == 50
