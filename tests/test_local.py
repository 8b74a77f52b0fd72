import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracepair import arith
from tracepair.closed_forms import (
    PROVENANCE_CONJECTURE,
    PROVENANCE_PROPOSITION,
    PROVENANCE_THEOREM,
    local_limit,
    s_closed,
    volume,
)
from tracepair.local import (
    RationalFunction,
    UnstableLocalFactor,
    interpolate_rational,
    local_limit_direct,
    s_direct,
    s_normalized,
    s_stratified,
)
from tracepair.matcount import PrimePower, delta_group_size


def test_s_direct_spot_values():
    # 6^2 + 12^2 and 9^2 + 6^2 over the two units mod 3
    assert s_direct(0, 0, PrimePower(3, 1)) == 180
    assert s_direct(1, 1, PrimePower(3, 1)) == 117
    # adjudicated one-divides value: 6*9 + 12*6
    assert s_direct(0, 1, PrimePower(3, 1)) == 126
    # 80^2 + 48^2 + 80^2 + 48^2 over units mod 8
    assert s_direct(2, 2, PrimePower(2, 3)) == 17408


def test_s_direct_budget():
    with pytest.raises(ValueError):
        s_direct(0, 0, PrimePower(2, 40))


# every (ell, k) with ell <= 13 and ell^k <= 2^14
_SMALL_MODULI = [(ell, k) for ell in (2, 3, 5, 7, 11, 13)
                 for k in range(1, 15) if ell ** k <= 2 ** 14]


@st.composite
def _trace_pairs(draw):
    """(t1, t2, ell, k): any ints, drawn so that t1 = +-t2, shared factors of ell,
    and deep agreement of t1^2 and t2^2 mod ell^k all occur."""
    ell, k = draw(st.sampled_from(_SMALL_MODULI))
    t2 = draw(st.one_of(st.integers(-20, 20), st.integers(), st.integers(2 ** 63, 2 ** 130)))
    t2 *= draw(st.sampled_from((1, -1)))
    how = draw(st.sampled_from(("equal", "opposite", "near", "multiple", "any")))
    if how == "equal":
        t1 = t2
    elif how == "opposite":
        t1 = -t2
    elif how == "near":  # t1 = +-t2 + c ell^e, so alpha = e when ell does not divide c
        t1 = draw(st.sampled_from((1, -1))) * t2 + draw(st.integers(-3, 3)) * ell ** draw(
            st.integers(0, k + 3))
    elif how == "multiple":
        t1 = ell * draw(st.integers())
    else:
        t1 = draw(st.integers())
    return t1, t2, ell, k


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_trace_pairs())
def test_s_stratified_matches_s_direct(case):
    t1, t2, ell, k = case
    pp = PrimePower(ell, k)
    assert s_stratified(t1, t2, pp) == s_direct(t1, t2, pp)


@pytest.mark.parametrize("ell,k", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3)])
def test_s_stratified_matches_s_direct_on_every_residue_pair(ell, k):
    pp = PrimePower(ell, k)
    q = pp.modulus
    for t1 in range(q):
        for t2 in range(q):
            assert s_stratified(t1, t2, pp) == s_direct(t1, t2, pp), (t1, t2)


def _best_time(fn, *args, repeat=5):
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_s_stratified_at_a_large_prime_is_exact_and_no_slower():
    # ~1e5 units for s_direct; a plain loop over the digits of this ell took ~0.8 s
    pp = PrimePower(99991, 1)
    assert s_stratified(1, 2, pp) == s_direct(1, 2, pp)
    assert _best_time(s_stratified, 1, 2, pp) <= _best_time(s_direct, 1, 2, pp)


@pytest.mark.parametrize("t1,t2,ell,k", [(1, 2, 99991, 1), (0, 2, 2, 64), (2, 6, 2, 64),
                                         (1, 2, 3, 64), (5, -5, 2147483647, 64)])
def test_s_stratified_needs_no_unit_cap(t1, t2, ell, k):
    pp = PrimePower(ell, k)
    assert _best_time(s_stratified, t1, t2, pp) < 0.05
    closed = s_closed(t1, t2, pp)
    assert s_normalized(t1, t2, pp) == closed[0]


def _closed(t1, t2, ell, k):
    return s_closed(t1, t2, PrimePower(ell, k))


def test_s_closed_same_cases():
    assert _closed(1, 1, 2, 1) == (4, PROVENANCE_THEOREM)
    assert _closed(1, 1, 2, 7) == (4, PROVENANCE_THEOREM)
    assert _closed(0, 0, 3, 2) == (180, PROVENANCE_THEOREM)
    assert _closed(2, 2, 2, 3) == (17, PROVENANCE_THEOREM)
    assert _closed(0, 0, 2, 3) == (Fraction(35, 2), PROVENANCE_THEOREM)
    # opposite traces take the equal-trace theorem too
    assert _closed(2, -2, 2, 3) == (17, PROVENANCE_THEOREM)
    # ell odd, coprime trace: k-dependent tail
    assert _closed(1, 1, 3, 1) == (117, PROVENANCE_THEOREM)
    assert _closed(1, 1, 3, 2)[0] == Fraction(9 * (81 - 18 - 9 - 1), 4) - Fraction(81, 81 * 4)
    assert _closed(2, 2, 2, 2) is None  # even trace at ell = 2 needs k >= 3


def _old_refusal(t1, t2, ell, k):
    """Where the separate equal- and distinct-trace closed forms had no value."""
    if t1 == t2 or t1 == -t2:
        return ell == 2 and t1 % 2 == 0 and k < 3
    return k < local_limit(t1, t2, ell).stabilized_at


def test_s_closed_same_matches_direct():
    for ell in (2, 3, 5):
        for t1 in range(-6, 7):
            for t2 in range(-6, 7):
                for k in (1, 2, 3, 4):
                    closed = _closed(t1, t2, ell, k)
                    if closed is None:
                        assert _old_refusal(t1, t2, ell, k), (t1, t2, ell, k)
                        continue
                    assert closed[0] == s_normalized(t1, t2, PrimePower(ell, k)), (t1, t2, ell, k)


def test_s_closed_distinct_cases():
    val, prov = _closed(0, 1, 3, 1)
    assert val == 126 and prov == PROVENANCE_PROPOSITION
    # both odd at ell = 2
    val, prov = _closed(1, 3, 2, 1)
    assert val == 4 and prov == PROVENANCE_PROPOSITION
    # exactly one even
    val, prov = _closed(2, 3, 2, 3)
    assert val == 8 and prov == PROVENANCE_PROPOSITION
    assert _closed(2, 3, 2, 2) is None  # below stabilization depth
    # conjectural alpha = 0 case
    val, prov = _closed(1, 2, 5, 1)
    assert val == 2200 and prov == PROVENANCE_CONJECTURE
    # conjectural ell = 2 branches
    val, _ = _closed(2, 4, 2, 2)
    assert val == 15
    val, _ = _closed(2, 6, 2, 4)
    assert val == Fraction(103, 6) - Fraction(7, 24)
    # equal traces are the theorem's, not a distinct-trace error
    assert _closed(3, 3, 5, 1) == (Fraction(25 * (625 - 50 - 15 - 1), 6) - Fraction(625, 6 * 25),
                                   PROVENANCE_THEOREM)


def test_distinct_closed_matches_direct():
    cases = [(0, 1, 3), (3, 6, 3), (1, 2, 5), (1, 4, 3), (2, 3, 2), (1, 3, 2),
             (2, 4, 2), (2, 6, 2), (4, 8, 2), (4, 12, 2), (5, 10, 5)]
    for t1, t2, ell in cases:
        lf = local_limit(t1, t2, ell)
        k = lf.stabilized_at
        assert k is not None
        for kk in (k, k + 1):
            assert s_normalized(t1, t2, PrimePower(ell, kk)) == lf.limit


def test_local_limit_same_trace():
    lf = local_limit(0, 0, 3)
    assert lf.limit == 180 and lf.c_ell == Fraction(45, 32)
    assert lf.provenance == PROVENANCE_THEOREM
    lf = local_limit(1, 1, 3)
    assert lf.limit == Fraction(9 * 53, 4)
    assert lf.stabilized_at is None
    lf2 = local_limit(1, -1, 3)
    assert lf2 == lf


def test_local_limit_sign_invariance():
    for t1, t2, ell in ((1, 2, 5), (0, 1, 3), (2, 4, 2)):
        base = local_limit(t1, t2, ell)
        for s1, s2 in ((-1, 1), (1, -1), (-1, -1)):
            assert local_limit(s1 * t1, s2 * t2, ell) == base


@pytest.mark.parametrize("call, ell", [
    (local_limit, 9), (volume, 4), (local_limit, 1), (local_limit, 0), (volume, -3),
])
def test_local_limit_and_volume_reject_non_prime_ell(call, ell):
    # the closed forms read any int as a prime: ell = 9 would give c_ell 12717/12800
    with pytest.raises(ValueError, match="ell must be prime"):
        call(1, 2, ell)


def test_local_limit_checks_the_bound_before_primality(monkeypatch):
    def no_trial_division(n):
        raise AssertionError("trial division ran above the bound")

    monkeypatch.setattr(arith, "is_prime", no_trial_division)
    for call in (local_limit, volume):
        with pytest.raises(ValueError, match="2\\^31"):
            call(1, 2, 2 ** 31 + 11)


def test_local_limit_direct_route():
    lf = local_limit_direct(1, 2, 5)
    assert lf.limit == 2200
    assert lf.provenance == "direct-with-stability-check"
    assert lf.stabilized_at == 1
    with pytest.raises(ValueError):
        local_limit_direct(1, 1, 3)  # equal traces have no finite alpha


def test_local_limit_direct_depth_cap():
    assert local_limit_direct(2 ** 7, 0, 2).limit == local_limit(2 ** 7, 0, 2).limit
    with pytest.raises(ValueError):
        local_limit_direct(2 ** 63, 0, 2)  # alpha + 2 = 65 exceeds PrimePower's k <= 64


def test_unstable_error_carries_values():
    err = UnstableLocalFactor(3, 2, Fraction(1), 3, Fraction(2))
    assert err.k1 == 2 and err.s2 == 2


def test_delta_group_size():
    assert delta_group_size(PrimePower(2, 1)) == 36
    assert delta_group_size(PrimePower(3, 1)) == 1152
    assert delta_group_size(PrimePower(3, 2)) == 2519424


def test_interpolate_line():
    fit = interpolate_rational([(0, 1), (1, 3), (2, 5)], max_degree=1)
    assert fit.numerator == (Fraction(1), Fraction(2))
    assert fit.denominator == (Fraction(1),)
    assert fit(10) == 21


def test_interpolate_minimal_degree():
    # constant data fits at degree (0, 0) even when allowed more
    fit = interpolate_rational([(1, 7), (2, 7), (3, 7), (5, 7)], max_degree=3)
    assert fit.numerator == (Fraction(7),)
    assert fit.denominator == (Fraction(1),)


def test_interpolate_rational_function():
    # 1/(1+x) through exact points
    pts = [(x, Fraction(1, 1 + x)) for x in (0, 1, 2, 3, 4)]
    fit = interpolate_rational(pts, max_degree=2)
    assert fit.numerator == (Fraction(1),)
    assert fit.denominator == (Fraction(1), Fraction(1))


def test_interpolate_reproduces_closed_forms():
    pts = [(ell, _closed(0, 0, ell, 1)[0]) for ell in (3, 5, 7, 11, 13, 17)]
    fit = interpolate_rational(pts, max_degree=5)
    assert fit.numerator == (0, 0, -1, 1, -1, 1)
    assert fit.denominator == (1,)
    assert fit(19) == _closed(0, 0, 19, 1)[0]


def _poly(coeffs, x):
    return sum(c * x ** j for j, c in enumerate(coeffs))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_interpolate_recovers_random_rational_functions(data):
    # two functions of degree <= d that agree at 2d + 2 points are equal
    deg = data.draw(st.integers(0, 2))
    coeff = st.integers(-20, 20)
    num = data.draw(st.lists(coeff, min_size=deg + 1, max_size=deg + 1))
    den = data.draw(st.lists(coeff, min_size=deg + 1, max_size=deg + 1))
    assume(any(den))
    xs = data.draw(st.lists(st.fractions(-30, 30, max_denominator=4), min_size=2 * deg + 2,
                            max_size=2 * deg + 2, unique=True))
    assume(all(_poly(den, x) != 0 for x in xs))
    fit = interpolate_rational([(x, Fraction(_poly(num, x)) / _poly(den, x)) for x in xs], deg)
    assert fit.denominator[-1] == 1
    # num * fit.denominator - den * fit.numerator has degree <= 4 and 9 roots, so it is 0
    for x in range(-4, 5):
        assert _poly(fit.numerator, x) * _poly(den, x) == _poly(num, x) * _poly(fit.denominator, x)


def test_interpolate_inconsistent():
    with pytest.raises(ValueError):
        interpolate_rational([(0, 0), (1, 1), (2, 4), (3, 9), (4, 17)], max_degree=1)
    with pytest.raises(ValueError):
        interpolate_rational([(0, 0), (0, 1)], max_degree=1)


def test_rational_function_eval():
    f = RationalFunction((Fraction(1), Fraction(1)), (Fraction(2),))
    assert f(3) == 2
