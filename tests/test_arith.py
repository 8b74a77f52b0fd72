import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracepair
from tracepair import arith
from tracepair.arith import (
    INFINITY,
    alpha,
    check_prime,
    divisors,
    euler_criterion,
    is_prime,
    legendre_symbol,
    nu_lk,
    odd_prime_segments,
    odd_primes,
    padic_valuation,
    prime_factors,
    sieve_primes,
)


def test_legendre_spot_values():
    assert legendre_symbol(0, 5) == 0
    assert legendre_symbol(4, 7) == 1
    # 2^((3-1)/2) = 2 = -1 mod 3
    assert legendre_symbol(2, 3) == -1


def test_legendre_matches_euler_criterion():
    for ell in (3, 5, 7, 11, 13, 31, 97):
        for a in range(-2 * ell, 2 * ell + 1):
            assert legendre_symbol(a, ell) == euler_criterion(a, ell)


def test_legendre_multiplicative():
    for ell in (3, 5, 7, 11):
        for a in range(-30, 31):
            for b in range(-30, 31):
                assert legendre_symbol(a * b, ell) == legendre_symbol(a, ell) * legendre_symbol(b, ell)


def test_legendre_balance():
    for ell in (3, 5, 7, 11, 13):
        syms = [legendre_symbol(a, ell) for a in range(1, ell)]
        assert syms.count(1) == syms.count(-1) == (ell - 1) // 2


def test_legendre_rejects_two_and_even():
    with pytest.raises(ValueError):
        legendre_symbol(3, 2)
    with pytest.raises(ValueError):
        legendre_symbol(3, 10)


def test_padic_valuation():
    assert padic_valuation(3, 18) == 2
    assert padic_valuation(2, 0) == INFINITY
    assert padic_valuation(5, 7) == 0
    assert padic_valuation(2, -24) == 3
    for ell in (2, 3, 7):
        for e in range(5):
            assert padic_valuation(ell, ell ** e * 5 * (ell + 2)) >= e


@pytest.mark.parametrize("ell", [1, 0, -1])
def test_padic_valuation_rejects_ell_below_two(ell):
    # ell = +-1 divides every n forever and ell = 0 divides by zero
    for n in (0, 5, -12):
        with pytest.raises(ValueError):
            padic_valuation(ell, n)
    with pytest.raises(ValueError):
        tracepair.f_ell(0, 5, ell)


def test_nu_lk():
    assert nu_lk(1, 1, 3, 1) == 1       # D = -3
    assert nu_lk(2, 1, 2, 3) == 5       # D = 0, capped at k + 2
    assert nu_lk(0, 1, 5, 2) == 0       # D = -4
    assert nu_lk(1, 1, 2, 4) == 0       # odd trace at ell = 2: cap is k
    assert nu_lk(0, 1, 2, 1) == 2       # even trace: D = -4, n = 2 <= k + 2


def test_nu_lk_residue_determined():
    for ell, k in ((3, 2), (5, 1), (2, 2)):
        mod = ell ** (k + 2) if ell == 2 else ell ** k
        for t in range(-5, 6):
            for u in range(1, 9):
                assert nu_lk(t, u, ell, k) == nu_lk(t + mod, u + mod, ell, k)


def test_alpha():
    assert alpha(1, 2, 3) == 1
    assert alpha(5, 5, 7) == INFINITY
    assert alpha(1, 2, 5) == 0
    assert alpha(3, -3, 2) == INFINITY
    assert alpha(2, 6, 2) == 3


@pytest.mark.parametrize("n", [0, 1, -3, 4, 9, 2 ** 31 - 3])  # 2^31 - 3 = 5 * 429496729
def test_check_prime_refuses_non_primes(n):
    with pytest.raises(ValueError, match=f"^ell must be prime, got {n}$"):
        check_prime(n, "ell")


def test_check_prime_tests_the_bound_before_trial_division(monkeypatch):
    def no_trial_division(n):
        raise AssertionError("trial division ran above the bound")

    monkeypatch.setattr(arith, "is_prime", no_trial_division)
    with pytest.raises(ValueError, match=f"^p must be below 2\\^31, got {2 ** 31 + 11}$"):
        check_prime(2 ** 31 + 11, "p")


def test_check_prime_accepts_primes():
    for n in (2, 3, 2 ** 31 - 1):  # 2^31 - 1 is a Mersenne prime
        assert check_prime(n, "p") is None


def test_sieve_small():
    assert sieve_primes(10).tolist() == [2, 3, 5, 7]
    assert sieve_primes(1).tolist() == []
    assert sieve_primes(2).tolist() == [2]


def test_sieve_count_oracle():
    # independent trial-division count
    brute = [n for n in range(2, 2000) if is_prime(n)]
    assert sieve_primes(1999).tolist() == brute
    assert len(sieve_primes(100)) == 25


def test_sieve_segmented_consistency(monkeypatch):
    # force segment boundaries with a small segment size
    from tracepair import arith

    want = sieve_primes(10_000).tolist()
    monkeypatch.setattr(arith, "_SEGMENT", 256)
    assert sieve_primes(10_000).tolist() == want


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_sieve_matches_trial_division_across_seams(data):
    segment = data.draw(st.sampled_from([2, 4, 6, 8, 16, 30, 64]), label="segment")
    run = data.draw(st.sampled_from([1, 2, 3, 5, 4096]), label="run")  # flags per offset list
    # a limit on a seam (1 + k * segment) or one or two off it, or anywhere in [0, 300]
    on_seam = st.builds(lambda k, d: max(0, 1 + k * segment + d),
                        st.integers(0, 300 // segment), st.integers(-2, 2))
    limit = data.draw(st.one_of(on_seam, st.integers(0, 300)), label="limit")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arith, "_SEGMENT", segment)
        patch.setattr(arith, "_RUN", run)
        got = sieve_primes(limit).tolist()
        ints = list(odd_primes(limit))
        segments = list(odd_prime_segments(limit))
    assert got == [n for n in range(limit + 1) if is_prime(n)]
    assert ints == got[1:] and all(type(p) is int for p in ints)
    assert [lo for lo, _ in segments] == list(range(1, limit + 1, segment))


def test_sieve_rejects_absurd_limit():
    with pytest.raises(ValueError):
        sieve_primes(10 ** 12)


def test_sieve_kernel_checks_limit_when_called():
    # before a segment is read, so that a caller sees the error at once
    for limit in (-1, arith.SIEVE_HARD_LIMIT + 1):
        with pytest.raises(ValueError):
            odd_prime_segments(limit)
        with pytest.raises(ValueError):
            odd_primes(limit)


def test_divisors_sigma():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    for n in range(1, 200):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert all(n % d == 0 for d in ds)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]


def test_prime_factors_match_divisors():
    for n in range(1, 2001):
        want = [(p, int(padic_valuation(p, n))) for p in divisors(n) if is_prime(p)]
        assert prime_factors(n) == want, n
    with pytest.raises(ValueError):
        prime_factors(0)
