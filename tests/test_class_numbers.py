import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepair import class_numbers
from tracepair.arith import divisors, sieve_primes
from tracepair.class_numbers import (
    ClassData,
    class_number_h,
    hurwitz_kronecker,
    hurwitz_weighted,
    unit_count_w,
)
from tracepair.verify import hurwitz_eichler_lhs


def test_split_discriminant():
    s = hurwitz_kronecker(-12)
    assert (s.D0, s.f) == (-3, 2)
    s = hurwitz_kronecker(-4)
    assert (s.D0, s.f) == (-4, 1)
    s = hurwitz_kronecker(-48)
    assert (s.D0, s.f) == (-3, 4)
    s = hurwitz_kronecker(-36)  # -36/4 = -9 is 3 mod 4, so f = 3 wins
    assert (s.D0, s.f) == (-4, 3)


def test_split_rejects_invalid():
    for bad in (-2, -5, 0, 4, -6):
        with pytest.raises(ValueError):
            hurwitz_kronecker(bad)


def test_class_number_spot():
    # reduced-form lists: (1,1,1); (1,0,3); (1,1,6), (2,+-1,3)
    assert class_number_h(-3) == 1
    assert class_number_h(-12) == 1
    assert class_number_h(-23) == 3
    assert class_number_h(-4) == 1
    assert class_number_h(-20) == 2


def test_unit_count():
    assert unit_count_w(-3) == 6
    assert unit_count_w(-4) == 4
    assert unit_count_w(-7) == 2


def test_hurwitz_kronecker_values():
    cd = hurwitz_kronecker(-12)
    assert cd.hk == 2
    assert cd.hw == Fraction(2, 3)
    assert hurwitz_kronecker(-4).hw == Fraction(1, 4)
    assert hurwitz_kronecker(-3).hw == Fraction(1, 6)
    assert hurwitz_weighted(-20) == 1
    assert hurwitz_weighted(-19) == Fraction(1, 2)


def test_fundamental_collapse():
    for d in (-3, -4, -7, -8, -11, -19, -43, -67, -163):
        cd = hurwitz_kronecker(d)
        assert cd.f == 1
        assert cd.hk == cd.h
        assert cd.hw == Fraction(cd.h, cd.w)


def test_kronecker_hurwitz_identity_sample():
    # the n = 1 and n = 2 instances, by hand:
    # 1/2 + 2*(1/3) + 2*(-1/12) = 1;  1 + 2*1 + 2*(1/2) = 4 = 2 + 2
    assert hurwitz_eichler_lhs(1) == 1
    assert hurwitz_eichler_lhs(2) == 4
    for n in range(1, 120):
        assert hurwitz_eichler_lhs(n) == sum(max(d, n // d) for d in divisors(n))


def test_order_independence():
    # descending-order reference enumeration of reduced forms
    import math

    def h_reference(D):
        absd = -D
        count = 0
        for b in range(math.isqrt(absd // 3), -1, -1):
            if (b - D) % 2:
                continue
            n4 = (b * b + absd) // 4
            for a in range(math.isqrt(n4), max(b, 1) - 1, -1):
                if n4 % a:
                    continue
                c = n4 // a
                if math.gcd(math.gcd(a, b), c) != 1:
                    continue
                count += 1 if (b == 0 or a == b or a == c) else 2
        return count

    for d in range(-500, 0):
        if d % 4 in (0, 1):
            assert class_numbers._reduced_forms(d)[0] == h_reference(d)


def test_discriminant_domain_checked_before_kernel(monkeypatch):
    def fail(D):
        raise AssertionError("kernel started")

    monkeypatch.setattr(class_numbers, "_reduced_forms", fail)
    for bad in (-(2 ** 34), -(2 ** 62), -99999999999999999999):
        with pytest.raises(ValueError, match=r"2\^34"):
            class_number_h(bad)
        with pytest.raises(ValueError, match=r"2\^34"):
            hurwitz_kronecker(bad)
    monkeypatch.setattr(class_numbers, "_reduced_forms", lambda D: (7, 7, 1))
    monkeypatch.setattr(class_numbers, "_H_CACHE", {})  # keep the stub's 7 out of the memo
    assert class_number_h(-(2 ** 34) + 4) == 7  # the largest |D| allowed


def _class_number_by_b(D):
    """h(D) by counting reduced forms, one b at a time over numpy arrays of a:
    the O(|D|) kernel the a-first one replaced, kept as its oracle."""
    absd = -D
    h = 0
    bmax = math.isqrt(absd // 3)
    for b in range(absd % 2, bmax + 1, 2):
        n4 = (b * b + absd) // 4
        amax = math.isqrt(n4)
        a = np.arange(max(b, 1), amax + 1, dtype=np.int64)
        if a.size == 0:
            continue
        divs = a[n4 % a == 0]
        if divs.size == 0:
            continue
        c = n4 // divs
        prim = np.gcd(np.gcd(divs, b), c) == 1
        divs, c = divs[prim], c[prim]
        weights = np.where((b == 0) | (divs == b) | (divs == c), 1, 2)
        h += int(weights.sum())
    return h


def _split_by_walk(D):
    """(D0, f): the largest f with f^2 | D and D/f^2 = 0 or 1 mod 4, walked down
    from sqrt|D|, with no use of the forms' contents."""
    for f in range(math.isqrt(-D), 0, -1):
        if D % (f * f) == 0 and (D // (f * f)) % 4 in (0, 1):
            return D // (f * f), f
    raise AssertionError("unreachable: f = 1 always qualifies")


_H_BY_B = {}


def _class_data_by_b(D):
    """(D0, f, h, w, hk, hw) by the conductor walk and the sums of h(f'^2 D0) and
    h(f'^2 D0)/w over the divisors f' of f, each h from ``_class_number_by_b``."""
    D0, f = _split_by_walk(D)
    hk, hw = 0, Fraction(0)
    for fp in divisors(f):
        d = fp * fp * D0
        if d not in _H_BY_B:
            _H_BY_B[d] = _class_number_by_b(d)
        hk += _H_BY_B[d]
        hw += Fraction(_H_BY_B[d], unit_count_w(d))
    return D0, f, _H_BY_B[D], unit_count_w(D), hk, hw


def _record(cd):
    return cd.D0, cd.f, cd.h, cd.w, cd.hk, cd.hw


def test_class_number_matches_b_first_kernel():
    for d in range(-20_000, -2):
        if d % 4 in (0, 1):
            assert _record(hurwitz_kronecker(d)) == _class_data_by_b(d), d


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(1, 25_000_000), st.sampled_from((0, 1)))
def test_class_number_matches_b_first_kernel_at_large_d(k, r):
    d = -4 * k + r
    assert _record(hurwitz_kronecker(d)) == _class_data_by_b(d)


def test_class_data_at_square_multiples_of_minus_3_and_minus_4():
    # g(1, 1, 1) and g(1, 0, 1) weigh 1/6 and 1/4 in H, where every other form weighs 1/2
    rng = random.Random(25)
    for base in (-3, -4):
        for g in rng.sample(range(1, 5001), 6):
            d = base * g * g
            cd = hurwitz_kronecker(d)
            assert _record(cd) == _class_data_by_b(d), d
            assert (cd.D0, cd.f) == (base, g)


def test_sqrt_mod_prime_at_every_residue():
    # at p = 1 mod 8, 2 is a residue, so the search for a non-residue runs past 2
    for p in sieve_primes(2000).tolist()[1:]:
        for n in {x * x % p for x in range(1, p)}:
            assert class_numbers._sqrt_mod_prime(n, p) ** 2 % p == n, (n, p)


def test_sqrt_mod_prime_of_zero_returns():
    # in a subprocess with a timeout, so that a regression fails rather than hangs
    code = ("from tracepair.class_numbers import _sqrt_mod_prime\n"
            "print([_sqrt_mod_prime(0, p) for p in (3, 5, 7, 13, 17)])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, check=True)
    assert proc.stdout == "[0, 0, 0, 0, 0]\n"


def test_class_number_spot_large():
    assert class_numbers._reduced_forms(-1073741828) == (15200, 15200, 1)


def test_class_data_pins_and_one_kernel_call(monkeypatch):
    calls = []

    def counted(D):
        calls.append(D)
        return kernel(D)

    kernel = class_numbers._reduced_forms
    monkeypatch.setattr(class_numbers, "_reduced_forms", counted)
    monkeypatch.setattr(class_numbers, "_H_CACHE", {})
    D = -10821610800  # -3 * 60060^2: 96 conductor divisors
    assert hurwitz_kronecker(D) == ClassData(D, -3, 60060, 31104, 2, 110414, Fraction(165620, 3))
    assert class_number_h(D) == 31104
    assert calls == [D]
    D = -17179869180  # the largest |D| allowed
    assert hurwitz_kronecker(D) == ClassData(D, -4294967295, 2, 42240, 2, 84480, Fraction(42240))


def test_hurwitz_kronecker_memo_cleared_with_class_numbers(monkeypatch):
    monkeypatch.setattr(class_numbers, "_H_CACHE", {})
    assert hurwitz_kronecker(-108).hk == 6  # h(-3) + h(-12) + h(-27) + h(-108) = 1 + 1 + 1 + 3
    assert class_number_h(-108) == 3
    assert class_numbers._H_CACHE == {-108: hurwitz_kronecker(-108)}  # one record per D
    monkeypatch.setattr(class_numbers, "_reduced_forms", lambda D: (7, 28, 6))
    class_numbers._H_CACHE.clear()
    assert hurwitz_kronecker(-108).hk == 28
    assert class_number_h(-108) == 7
    assert hurwitz_kronecker(-108) is hurwitz_kronecker(-108)
