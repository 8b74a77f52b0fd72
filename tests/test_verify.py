"""Every verify check runs once in tier-1, through the runner that the CLI uses.

The acceptance criteria are seventeen of these checks; each prints one
``ACCEPTANCE PASS|FAIL [...]`` line, past pytest's capture, in any run.
"""

import sys
from fractions import Fraction

import pytest

from tracepair import verify

# check id -> acceptance label
ACCEPTANCE = {
    "matcount:threeway-grid": "A01 three-way matrix counts",
    "local:theorem-same-trace": "A02 equal-trace closed form",
    # the printed alternate is off by exactly 2 ell^2 (126 vs 144 at (0,1), ell=3)
    "local:one-divides-adjudication": "A03 one-divides adjudication",
    "conj71:grid": "A04 distinct-trace conjecture grid",
    "constants:c00-reference": "A05 c(0,0) = 35/96 within 1e-3",
    "constants:universal-product": "A06 universal product within 1e-6",
    "local:volume-table": "A07 volume table exact",
    "classnum:kronecker-hurwitz-identity": "A08 class-number identity",
    "gekeler:product-heuristic": "A09 product-formula heuristic",
    "primestats:average-f-product": "A10 prime-average densities",
    # loglog slope at desk scale within a factor of 2 of 35/96 (loose by design)
    "primestats:class-sum-trend": "A11 class-sum loglog slope",
    "curves:trace-oracle": "A12a trace oracle (40 seeded curves, p <= 200)",
    "curves:hasse-bound": "A12b Hasse bound to 1e5",
    "curves:cm-properties": "A12c CM trace properties to 1e4",
    "modelsim:principle1": "A13a model Chebotarev cells",
    "modelsim:principle2": "A13b model Sato-Tate rectangles",
    "modelsim:growth-ratio": "A13c model growth ratio",
}
ENTRIES = [entry for entries in verify.SUITES.values() for entry in entries]


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry[0] for entry in ENTRIES])
def test_check_passes(entry, capfd):
    check = verify.run_check(entry)
    ok = check["status"] == "pass"
    if entry[0] in ACCEPTANCE:
        line = (f"ACCEPTANCE {'PASS' if ok else 'FAIL'} [{ACCEPTANCE[entry[0]]}] "
                f"{check['lhs']} | expected: {check['rhs']}")
        with capfd.disabled():
            print(line, file=sys.stderr, flush=True)
    assert ok, (check["lhs"], check["rhs"], check.get("detail"))


def test_runner_runs_every_check_once():
    ids = [cid for entries in verify.SUITES.values() for cid, *_ in entries]
    (mark,) = test_check_passes.pytestmark
    assert [entry[0] for entry in mark.args[1]] == ids
    assert len(set(ids)) == len(ids)
    assert set(ACCEPTANCE) <= set(ids)
    assert len(set(ACCEPTANCE.values())) == len(ACCEPTANCE) == 17


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
