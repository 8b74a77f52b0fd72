import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepair import prime_stats
from tracepair.arith import is_prime, sieve_primes
from tracepair.class_numbers import hurwitz_weighted
from tracepair.gekeler import f_ell
from tracepair.prime_stats import (
    CheckpointSeries,
    _split_sum,
    average_f_product,
    class_sum,
    hurwitz_table,
    slope_fit,
)


def test_average_f_product_reference_attached():
    avg, ref = average_f_product(0, 0, 3, 20_000)
    assert ref == Fraction(45, 32)
    assert abs(avg - 45 / 32) / (45 / 32) < 0.02


def _average_f_product_loop(t1, t2, ell, x):
    """Per-prime exact f_ell, summed in prime order: the float oracle."""
    primes = sieve_primes(x)
    total = 0.0
    for p in primes.tolist():
        if p != ell:
            total += float(f_ell(t1, p, ell)) * float(f_ell(t2, p, ell))
    return total / len(primes)


@pytest.mark.parametrize("ell, t1, t2", [
    (3, 0, 0), (2, 0, 0), (5, 1, 2),  # verify's grid
    (2, 1, 4), (3, 3, -6), (7, 0, 5), (2, 2, 6),
])
def test_average_f_product_matches_loop(ell, t1, t2):
    assert average_f_product(t1, t2, ell, 50_000)[0] == _average_f_product_loop(t1, t2, ell, 50_000)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.sampled_from([2, 3, 5, 7]),
       st.integers(10, 5_000))
def test_average_f_product_matches_loop_anywhere(t1, t2, ell, x):
    assert average_f_product(t1, t2, ell, x)[0] == _average_f_product_loop(t1, t2, ell, x)


def test_average_f_product_rejects_small_x():
    with pytest.raises(ValueError):
        average_f_product(0, 0, 3, 5)


def test_class_sum_small_exact():
    series = class_sum(0, 0, 30, checkpoints=(10, 30))
    # primes 5..29 by hand: sum of H(-4p)^2 / p^2
    expected10 = hurwitz_weighted(-20) ** 2 / 25 + hurwitz_weighted(-28) ** 2 / 49
    assert series.exact_partials[0] == expected10
    manual = sum(
        hurwitz_weighted(-4 * p) ** 2 / Fraction(p * p)
        for p in (5, 7, 11, 13, 17, 19, 23, 29)
    )
    assert series.exact_partials[-1] == manual
    assert [x for x, _, _ in series.checkpoints] == [10, 30]


def test_class_sum_positive_increasing():
    series = class_sum(0, 0, 5000)
    sums = [s for _, s, _ in series.checkpoints]
    assert all(b > a for a, b in zip(sums, sums[1:]))
    assert sums[0] > 0


def test_class_sum_threshold():
    with pytest.raises(ValueError):
        class_sum(100, 0, 50)  # x below the primed-range threshold
    with pytest.raises(ValueError):
        class_sum(0, 0, 100, checkpoints=(10, 200))  # checkpoint beyond x


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    st.integers(-12, 12),
    st.integers(-12, 12),
    st.integers(40, 3000),
    st.lists(st.integers(40, 3000), max_size=4),
)
def test_class_sum_matches_per_discriminant_sum(t1, t2, x, ladder):
    lo = max(3, t1 * t1 / 4, t2 * t2 / 4)
    ladder = [c for c in ladder if lo < c <= x]
    series = class_sum(t1, t2, x, checkpoints=ladder)
    terms = {
        p: hurwitz_weighted(t1 * t1 - 4 * p) * hurwitz_weighted(t2 * t2 - 4 * p) / (p * p)
        for p in range(5, x + 1) if p > lo and is_prime(p)
    }
    want = [sum((v for p, v in terms.items() if p <= cx), Fraction(0))
            for cx in sorted(set(ladder) | {x})]
    assert series.exact_partials == want


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(-12, 12), st.integers(-12, 12), st.integers(40, 12_000))
def test_class_sum_floats_are_the_exact_partials_rounded(t1, t2, x):
    # each float is the quotient of an unreduced pair; it must round as the Fraction does
    series = class_sum(t1, t2, x)
    assert [s for _, s, _ in series.checkpoints] == [float(f) for f in series.exact_partials]


def _running_fractions(t1, t2, x, checkpoints):
    """The partial sums at each checkpoint as a plain running Fraction sum over
    the primed range, with the weights read from the Hurwitz table."""
    table = hurwitz_table(4 * x)
    lo = max(3, t1 * t1 / 4, t2 * t2 / 4)
    total, out, ladder = Fraction(0), [], iter(checkpoints)
    cx = next(ladder)
    for p in sieve_primes(x).tolist():
        while p > cx:
            out.append(total)
            cx = next(ladder)
        if p > lo:
            total += Fraction(int(table[4 * p - t1 * t1]) * int(table[4 * p - t2 * t2]), 144 * p * p)
    return out + [total] * (len(checkpoints) - len(out))


_FALLBACK_CASES = [(0, 0, 20_000), (1, 1, 20_000), (5, 4, 13_123), (2, -3, 7_535), (-6, 6, 50_000)]


@pytest.mark.parametrize("t1, t2, x", _FALLBACK_CASES)
def test_class_sum_exact_fallback_matches_running_sum(monkeypatch, t1, t2, x):
    # at 4 fixed-point bits no interval is narrow enough: every checkpoint adds its exact sum
    monkeypatch.setattr(prime_stats, "FIXED_POINT_BITS", 4)
    calls = []
    split_sum = prime_stats._split_sum

    def counted(num, den):
        calls.append(len(num))
        return split_sum(num, den)

    monkeypatch.setattr(prime_stats, "_split_sum", counted)
    series = class_sum(t1, t2, x)
    assert len(calls) == len(series.checkpoints)
    want = _running_fractions(t1, t2, x, [cx for cx, _, _ in series.checkpoints])
    assert [s for _, s, _ in series.checkpoints] == [float(f) for f in want]
    assert series.exact_partials == want


@pytest.mark.parametrize("t1, t2, x", _FALLBACK_CASES)
def test_class_sum_floats_form_no_exact_sum(monkeypatch, t1, t2, x):
    want = class_sum(t1, t2, x).checkpoints

    def fail(*args):
        raise AssertionError("exact sum formed")

    monkeypatch.setattr(prime_stats, "_split_sum", fail)
    series = class_sum(t1, t2, x)
    assert series.checkpoints == want
    with pytest.raises(AssertionError):
        series.exact_partials


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 10 ** 12)), max_size=70))
def test_split_sum_matches_running_sum(terms):
    P, Q = _split_sum([a for a, _ in terms], [b for _, b in terms])
    assert Fraction(P, Q) == sum((Fraction(a, b) for a, b in terms), Fraction(0))
    assert Q == math.prod(b for _, b in terms)


def test_slope_fit_recovers_synthetic():
    xs = (100, 1000, 10_000)
    series = CheckpointSeries(
        0, 0,
        [(x, 1.25 + 2.0 * math.log(math.log(x)), math.log(math.log(x))) for x in xs],
        None, None, [],
    )
    fit = slope_fit(series)
    assert abs(fit.c_hat - 2.0) < 1e-12
    assert abs(fit.intercept - 1.25) < 1e-12
    assert fit.residual < 1e-12


def test_slope_fit_constant_series():
    xs = (100, 1000, 10_000)
    series = CheckpointSeries(0, 0, [(x, 3.0, math.log(math.log(x))) for x in xs], None, None, [])
    assert abs(slope_fit(series).c_hat) < 1e-12


def test_slope_fit_needs_three_points():
    series = CheckpointSeries(0, 0, [(10, 1.0, 0.1), (100, 2.0, 0.2)], None, None, [])
    with pytest.raises(ValueError):
        slope_fit(series)
