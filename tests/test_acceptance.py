"""Acceptance criteria, one test per criterion, one printed line per result.

Lines bypass pytest capture (capfd.disabled) so every run shows them; the
same check functions back the ``tracepair verify`` CLI, so CLI and CI agree
by construction.
"""

import sys

import pytest

from tracepair.verify import (
    check_average_f_product,
    check_c00_reference,
    check_class_sum_trend,
    check_cm_properties,
    check_conjecture_grid,
    check_growth_ratio,
    check_hasse,
    check_kronecker_hurwitz,
    check_principle1,
    check_principle2,
    check_prop_distinct_adjudication,
    check_product_heuristic,
    check_theorem_same_trace,
    check_threeway,
    check_trace_oracle,
    check_universal_reference,
    check_volume_table,
)


@pytest.fixture
def report(capfd):
    def _report(criterion, fn):
        ok, lhs, rhs, *_ = fn()
        line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'} [{criterion}] {lhs} | expected: {rhs}"
        with capfd.disabled():
            print(line, file=sys.stderr, flush=True)
        assert ok, line

    return _report


def test_criterion_01_matrix_count_threeway(report):
    # exact agreement of all three counting routes, exhaustive at 13 moduli
    report("A01 three-way matrix counts", check_threeway)


def test_criterion_02_same_trace_closed_form(report):
    # direct sums equal the five-case closed form on the full validity grid
    report("A02 equal-trace closed form", check_theorem_same_trace)


def test_criterion_03_one_divides_adjudication(report):
    # accepted one-divides closed form matches direct sums; the printed
    # alternate is off by exactly 2 ell^2 (126 vs 144 at (0,1), ell=3)
    report("A03 one-divides adjudication", check_prop_distinct_adjudication)


def test_criterion_04_distinct_trace_grid(report):
    # zero mismatches on the reduced grid: t <= 30, primes <= 17, k <= alpha+3
    report("A04 distinct-trace conjecture grid", lambda: check_conjecture_grid(False))


def test_criterion_05_pair_constant_reference(report):
    report("A05 c(0,0) = 35/96 within 1e-3", check_c00_reference)


def test_criterion_06_universal_product_reference(report):
    report("A06 universal product within 1e-6", check_universal_reference)


def test_criterion_07_volume_table(report):
    report("A07 volume table exact", check_volume_table)


def test_criterion_08_kronecker_hurwitz(report):
    # classical divisor-sum identity validates the class-number stack, n <= 500
    report("A08 class-number identity", check_kronecker_hurwitz)


def test_criterion_09_product_formula_heuristic(report):
    # 100 seeded samples, lmax = 1e5: median error <= 2%, max <= 10%
    report("A09 product-formula heuristic", check_product_heuristic)


def test_criterion_10_average_density_products(report):
    # desk check at x = 1e6 against the exact local factors, within 1%
    report("A10 prime-average densities", check_average_f_product)


def test_criterion_11_class_sum_slope(report):
    # loglog slope at desk scale within a factor of 2 of 35/96 (loose by design)
    report("A11 class-sum loglog slope", check_class_sum_trend)


def test_criterion_12_curve_traces(report):
    report("A12a trace oracle (20 curves, p <= 200)", check_trace_oracle)
    report("A12b Hasse bound to 1e5", check_hasse)
    report("A12c CM trace properties to 1e4", check_cm_properties)


def test_criterion_13_model_simulator(report):
    report("A13a model Chebotarev cells", check_principle1)
    report("A13b model Sato-Tate rectangles", check_principle2)
    report("A13c model growth ratio", check_growth_ratio)
