"""Class numbers of imaginary quadratic orders and their Kronecker-weighted sums.

h(D) counts primitive reduced binary quadratic forms (a, b, c) of discriminant
D < 0: b = D mod 2, |b| <= a <= c, gcd(a, b, c) = 1, and b >= 0 when |b| = a
or a = c.  The weighted invariants sum h over the divisors of the conductor,
plainly and divided by the unit-group order w.

This is the per-discriminant route, for D > -2^34 (the kernel does O(|D|)
work; larger |D| is rejected before any work).  It serves the class-number
and gekeler commands and the verify checks, with a process-wide memo keyed by
D.  The prime sums of ``prime_stats`` read a table of all Hurwitz numbers
instead (``_kernels.hurwitz_table``), checked against this route.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .arith import divisors

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
    if -D >= _kernels.CLASS_NUMBER_D_BOUND:
        raise ValueError(f"|D| must be below 2^34, got {D}")


def split_discriminant(D):
    """Split D = f^2 * D0 with D0 fundamental (largest admissible conductor f)."""
    _check_discriminant(D)
    for f in range(math.isqrt(-D), 0, -1):
        if D % (f * f) == 0 and (D // (f * f)) % 4 in (0, 1):
            return DiscriminantSplit(D, D // (f * f), f)
    raise AssertionError("unreachable: f = 1 always qualifies")


def class_number_h(D):
    """Number of primitive reduced forms of discriminant D < 0."""
    _check_discriminant(D)
    if D not in _H_CACHE:
        _H_CACHE[D] = _kernels.class_number(D)
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
