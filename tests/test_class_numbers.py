import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepair import class_numbers
from tracepair.arith import divisors
from tracepair.class_numbers import (
    class_number_h,
    hurwitz_kronecker,
    hurwitz_weighted,
    split_discriminant,
    unit_count_w,
)
from tracepair.verify import hurwitz_eichler_lhs


def test_split_discriminant():
    s = split_discriminant(-12)
    assert (s.D0, s.f) == (-3, 2)
    s = split_discriminant(-4)
    assert (s.D0, s.f) == (-4, 1)
    s = split_discriminant(-48)
    assert (s.D0, s.f) == (-3, 4)
    s = split_discriminant(-36)  # -36/4 = -9 is 3 mod 4, so f = 3 wins
    assert (s.D0, s.f) == (-4, 3)


def test_split_rejects_invalid():
    for bad in (-2, -5, 0, 4, -6):
        with pytest.raises(ValueError):
            split_discriminant(bad)


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
        assert cd.split.f == 1
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
            assert class_numbers._class_number(d) == h_reference(d)


def test_discriminant_domain_checked_before_kernel(monkeypatch):
    def fail(D):
        raise AssertionError("kernel started")

    monkeypatch.setattr(class_numbers, "_class_number", fail)
    for bad in (-(2 ** 34), -(2 ** 62), -99999999999999999999):
        with pytest.raises(ValueError, match=r"2\^34"):
            class_number_h(bad)
        with pytest.raises(ValueError, match=r"2\^34"):
            hurwitz_kronecker(bad)
    monkeypatch.setattr(class_numbers, "_class_number", lambda D: 7)
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


def test_class_number_matches_b_first_kernel():
    for d in range(-20_000, -2):
        if d % 4 in (0, 1):
            assert class_number_h(d) == _class_number_by_b(d), d


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(1, 25_000_000), st.sampled_from((0, 1)))
def test_class_number_matches_b_first_kernel_at_large_d(k, r):
    d = -4 * k + r
    assert class_numbers._class_number(d) == _class_number_by_b(d)


def test_class_number_spot_large():
    assert class_numbers._class_number(-1073741828) == 15200


def test_hurwitz_kronecker_memo_cleared_with_class_numbers(monkeypatch):
    monkeypatch.setattr(class_numbers, "_H_CACHE", {})
    assert hurwitz_kronecker(-108).hk == 6  # h(-3) + h(-12) + h(-27) + h(-108) = 1 + 1 + 1 + 3
    assert class_number_h(-108) == 3  # the two memos share a dict but not a key
    monkeypatch.setattr(class_numbers, "_class_number", lambda D: 7)
    class_numbers._H_CACHE.clear()
    assert hurwitz_kronecker(-108).hk == 28
    assert hurwitz_kronecker(-108) is hurwitz_kronecker(-108)
