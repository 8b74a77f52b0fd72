from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepair import arith
from tracepair.arith import legendre_symbol, sieve_primes
from tracepair.gekeler import (
    delta_exponent,
    f_ell,
    f_ell_floats,
    f_infinity,
    f_level_k,
    product_check,
)


def test_delta_exponent():
    assert delta_exponent(1, 3, 11) == 0
    assert delta_exponent(3, 7, 3) == 0
    # D = -20 = 4 * (-5): -5 is 3 mod 4, so the constrained 2-adic delta is 0
    assert delta_exponent(0, 5, 2) == 0
    # D = -16: /4 = -4 ok, /16 = -1 fails; delta = 1
    assert delta_exponent(2, 5, 2) == 1
    assert delta_exponent(0, 5, 5) == 0  # D = -20 = 5 * -4: odd valuation
    with pytest.raises(ValueError):
        delta_exponent(2, 1, 3)  # t^2 = 4p


def test_f_ell_spot():
    assert f_ell(0, 7, 3) == Fraction(3, 4)
    # split case simplifies to ell/(ell - 1)
    assert f_ell(0, 11, 3) == Fraction(3, 2)  # -44 = 1 mod 3
    assert f_ell(1, 3, 2) == Fraction(2, 3)   # odd trace
    assert f_ell(0, 5, 2) == 1


def test_f_ell_at_own_prime():
    # determinant p at ell = p: p/(p-1) when p does not divide t, else 1
    assert f_ell(1, 5, 5) == Fraction(5, 4)
    assert f_ell(5, 5, 5) == 1
    assert f_ell(0, 7, 7) == 1


def test_f_level_spot():
    assert f_level_k(1, 3, 2, 1) == Fraction(2, 3)
    assert f_level_k(0, 7, 3, 1) == Fraction(3, 4)
    with pytest.raises(ValueError):
        f_level_k(0, 3, 3, 2)


def test_f_ell_unit_case_is_ell_over_ell_minus_symbol():
    # product_check multiplies ell / (ell - (d/ell)) in place of f_ell at odd ell not dividing d
    odd = [int(ell) for ell in sieve_primes(200)[1:]]
    for t in range(11):
        for p in sieve_primes(2000).tolist():
            d = t * t - 4 * p
            for ell in odd:
                if d % ell:
                    assert f_ell(t, p, ell) == Fraction(ell, ell - legendre_symbol(d, ell))


def test_product_check_spot():
    r = product_check(0, 5, 50_000)
    assert r["lhs"] == 1
    assert abs(r["rhs"] - 1.0) < 0.05
    r = product_check(1, 5, 50_000)
    assert r["lhs"] == Fraction(1, 2)
    assert abs(r["rhs"] - 0.5) < 0.03


def test_product_check_preconditions():
    with pytest.raises(ValueError):
        product_check(7, 5, 100)  # t^2 > 4p
    with pytest.raises(ValueError):
        product_check(0, 3, 100)  # p too small


def _plain_product(t, p, lmax):
    rhs = p * f_infinity(t, p)
    for ell in sieve_primes(lmax):
        rhs *= float(f_ell(t, p, int(ell)))
    return rhs


_SMALL_PRIMES = [int(p) for p in sieve_primes(10_000) if p > 3]


# lmax past 4p > |t^2 - 4p| reads the symbols of later ell from their class mod |d|
_P_LMAX = st.sampled_from(_SMALL_PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(0, 20_000) | st.integers(4 * p, 4 * p + 20_000)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 4), _P_LMAX)
def test_product_check_matches_plain_loop(t, p_lmax):
    p, lmax = p_lmax
    assert product_check(t, p, lmax)["rhs"] == _plain_product(t, p, lmax)


@pytest.mark.parametrize("t, p", [(1, 7), (1, 19), (0, 5)])
def test_product_check_matches_plain_loop_at_square_factors(t, p):
    # d = -27 and d = -75 carry the squares 9 and 25; d = -20 has ell = p = 5
    assert product_check(t, p, 20_000)["rhs"] == _plain_product(t, p, 20_000)


@pytest.mark.parametrize("t, p, lmax", [(1, 7, 20), (1, 19, 50), (2, 1801, 1000)])
def test_product_check_matches_plain_loop_below_square_factors(t, p, lmax):
    # d = -27, -75 and -7200 = -2^5 3^2 5^2: ell^2 | d with ell < lmax < |d|
    assert product_check(t, p, lmax)["rhs"] == _plain_product(t, p, lmax)


# 97 and 1009 key their classes by many unit residues mod ell
@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(-150, 150), st.sampled_from([2, 3, 5, 7, 11, 13, 97, 1009]))
def test_f_ell_floats_match_f_ell(t, ell):
    primes = sieve_primes(5_000)
    assert f_ell_floats(t, primes, ell).tolist() == [
        float(f_ell(t, p, ell)) for p in primes.tolist()
    ]


def test_composite_ell_refused():
    # the formulas read any ell as a prime: f_ell(1, 5, 9) gave 9/8, f_ell(1, 5, 15) 15/16
    for call, args in ((f_ell, (1, 5, 9)), (f_ell, (1, 5, 15)), (delta_exponent, (1, 5, 9)),
                       (f_ell_floats, (0, sieve_primes(100), 9))):
        with pytest.raises(ValueError, match="ell must be prime"):
            call(*args)


def test_f_ell_floats_checks_ell_once(monkeypatch):
    checked = []
    monkeypatch.setattr(arith, "is_prime", lambda n: checked.append(n) or True)
    f_ell_floats(1, sieve_primes(2_000), 1009)  # dozens of classes
    assert checked == [1009]


def test_f_ell_floats_bounds():
    primes = sieve_primes(100)
    with pytest.raises(ValueError):
        f_ell_floats(0, primes, 2**31 + 11)  # ell < 2^31, the bound check_prime enforces
    with pytest.raises(ValueError):
        f_ell_floats(0, primes, 1)  # no valuation at 1
    with pytest.raises(ValueError):
        f_ell_floats(2**32, primes, 3)  # t^2 - 4p outside int64
