"""Class numbers of imaginary quadratic orders and their Kronecker-weighted sums.

h(D) counts primitive reduced binary quadratic forms (a, b, c) of discriminant
D < 0: b = D mod 2, |b| <= a <= c, gcd(a, b, c) = 1, and b >= 0 when |b| = a
or a = c.  The weighted invariants sum h over the divisors of the conductor,
plainly and divided by the unit-group order w.

This is the per-discriminant route, for D > -2^34 (the kernel does O(|D|)
work; larger |D| is rejected before any work).  It serves the class-number
and gekeler commands and the verify checks, with a process-wide memo keyed by
D.  The prime sums of ``prime_stats`` read a table of all Hurwitz numbers
instead (``prime_stats.hurwitz_table``), checked against this route.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import divisors

# |D| must be below this.  int64 would allow 2^62, but the reduced-form loop
# does O(|D|) work: 9 s at |D| = 2^34 on a 2-core machine, so a bound near
# 2^62 admits inputs that never finish.  Every gekeler discriminant t^2 - 4p
# lies inside, since |t^2 - 4p| < 4p < 2^33.
CLASS_NUMBER_D_BOUND = 1 << 34

_H_CACHE = {}


@dataclass(frozen=True)
class DiscriminantSplit:
    D: int
    D0: int  # fundamental discriminant
    f: int   # conductor, D = f^2 * D0


@dataclass(frozen=True)
class ClassData:
    split: DiscriminantSplit
    h: int
    w: int
    hk: int           # sum of h over conductor divisors
    hw: Fraction      # same sum weighted by 1/w


def _check_discriminant(D):
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"D must be negative and 0 or 1 mod 4, got {D}")
    if -D >= CLASS_NUMBER_D_BOUND:
        raise ValueError(f"|D| must be below 2^34, got {D}")


def split_discriminant(D):
    """Split D = f^2 * D0 with D0 fundamental (largest admissible conductor f)."""
    _check_discriminant(D)
    for f in range(math.isqrt(-D), 0, -1):
        if D % (f * f) == 0 and (D // (f * f)) % 4 in (0, 1):
            return DiscriminantSplit(D, D // (f * f), f)
    raise AssertionError("unreachable: f = 1 always qualifies")


def _class_number(D):
    """h(D) by counting reduced forms, one b at a time over numpy arrays of a."""
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


def class_number_h(D):
    """Number of primitive reduced forms of discriminant D < 0."""
    _check_discriminant(D)
    if D not in _H_CACHE:
        _H_CACHE[D] = _class_number(D)
    return _H_CACHE[D]


def unit_count_w(D):
    """Order of the unit group: 6 at D = -3, 4 at D = -4, else 2."""
    _check_discriminant(D)
    if D == -3:
        return 6
    if D == -4:
        return 4
    return 2


def hurwitz_kronecker(D):
    """ClassData with both conductor-divisor sums computed together."""
    split = split_discriminant(D)
    hk = 0
    hw = Fraction(0)
    for fp in divisors(split.f):
        d = fp * fp * split.D0
        h = class_number_h(d)
        hk += h
        hw += Fraction(h, unit_count_w(d))
    return ClassData(split, class_number_h(D), unit_count_w(D), hk, hw)


def hurwitz_weighted(D):
    """The unit-weighted conductor sum H(D) alone, as an exact Fraction."""
    return hurwitz_kronecker(D).hw
