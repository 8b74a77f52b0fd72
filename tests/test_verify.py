"""Every verify check runs in tier-1: each one that test_acceptance.py does not
already run is run here through the report's runner and must pass."""

import pytest

from tracepair import verify

# the checks that test_acceptance.py runs
IN_ACCEPTANCE = {
    verify.check_average_f_product, verify.check_c00_reference, verify.check_class_sum_trend,
    verify.check_cm_properties, verify.check_conjecture_grid, verify.check_growth_ratio,
    verify.check_hasse, verify.check_kronecker_hurwitz, verify.check_principle1,
    verify.check_principle2, verify.check_prop_distinct_adjudication,
    verify.check_product_heuristic, verify.check_theorem_same_trace, verify.check_threeway,
    verify.check_trace_oracle, verify.check_universal_reference, verify.check_volume_table,
}
ENTRIES = [entry for entries in verify.SUITES.values() for entry in entries
           if entry[1] not in IN_ACCEPTANCE]


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry[0] for entry in ENTRIES])
def test_check_passes(entry):
    check = verify._run(*entry)
    assert check.status == "pass", (check.lhs, check.rhs, check.detail)
