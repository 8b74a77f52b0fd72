"""Local densities of matrices with fixed trace among those of determinant p,
their archimedean companion, and the truncated product against H(t^2 - 4p).

The 2-adic normalization: delta(t, p) is the largest i >= 0 with 4^i | D and
D/4^i congruent to 0 or 1 mod 4, and the symbol at 2 reads the reduced value
mod 8 (1 -> +1, 5 -> -1, even -> 0).  This is the unique reading under which
the finite-level quotients stabilize to f_ell (checked on a grid in verify);
a reduced value of 3 mod 4 cannot occur at that delta.  The one case the
three-branch formula cannot express is ell = 2 with odd t, where the count is
2^(2k-1) outright, density 2/3.

This reading is coded once, in ``delta_exponent`` and ``f_ell``; the array
route ``f_ell_floats`` checks ell once and calls ``f_ell``'s body per class.
At an odd ell not dividing D = t^2 - 4p that formula is ell/(ell - (D/ell)),
and ``product_check`` takes that one expression there, with (D/ell) from
``arith``, and ``f_ell`` at every other ell.  It runs on Python ints and
floats, and only ``f_ell_floats`` imports numpy, when it runs.  ``matcount``
is imported by the two functions that use it, ``f_level_k`` and
``f_ell_floats``.  Every ell, and the p of
``product_check``, must be a prime below 2^31 (``arith.check_prime``).
"""

import math
from fractions import Fraction

from .arith import check_prime, euler_criterion, legendre_symbol, odd_primes, padic_valuation
from .class_numbers import hurwitz_weighted

# product_check takes one symbol call per prime below |t^2 - 4p| and a symbol
# memo of min(|t^2 - 4p|, lmax) bytes: a job at lmax = 1e7 and p = 2^31 - 1
# takes 1.4-1.6 s and peaks at 30 MB (2 cores), so the sieve's 2e9 would take
# minutes and 2 GB
LMAX_BOUND = 10 ** 7


def delta_exponent(t, p, ell):
    """Largest i >= 0 with ell^(2i) | t^2 - 4p (mod-4 constraint at ell = 2)."""
    check_prime(ell, "ell")
    return _delta_exponent(t, p, ell)


def _delta_exponent(t, p, ell):
    d = t * t - 4 * p
    if d == 0:
        raise ValueError("t^2 = 4p has no finite valuation")
    v = int(padic_valuation(ell, d))
    if ell > 2:
        return v // 2
    i = v // 2
    while (d >> (2 * i)) % 4 not in (0, 1):
        i -= 1
    return i


def f_ell(t, p, ell):
    """Limiting trace-t density among determinant-p matrices at ell, exact."""
    check_prime(ell, "ell")
    return _f_ell(t, p, ell)


def _f_ell(t, p, ell):
    if ell == 2 and t % 2 == 1:
        return Fraction(2, 3)
    delta = _delta_exponent(t, p, ell)  # refuses t^2 = 4p
    reduced = (t * t - 4 * p) // ell ** (2 * delta)
    if ell > 2:
        sym = legendre_symbol(reduced, ell)
    elif reduced % 2 == 0:
        sym = 0
    else:
        assert reduced % 4 == 1
        sym = 1 if reduced % 8 == 1 else -1
    core = 1 + Fraction(1, ell)
    if sym == -1:
        core -= Fraction(2, ell ** (delta + 1))
    elif sym == 0:
        core -= Fraction(ell + 1, ell ** (delta + 2))
    return Fraction(ell ** 2, ell ** 2 - 1) * core


def f_ell_floats(t, primes, ell):
    """float(f_ell(t, p, ell)) for each p of an int64 prime array, p = ell included.

    f_ell depends on p only through the class of D = t^2 - 4p at ell: v_ell(D)
    and D/ell^v mod w, with w = 8 at ell = 2 and w = ell otherwise.  The classes
    come from ``matcount.valuations`` in int64, and each class takes ``_f_ell``
    (``f_ell`` without its ell check) at its first prime.  ``f_ell`` itself is
    the per-prime oracle.
    """
    import numpy as np

    from .matcount import valuations

    check_prime(ell, "ell")
    if primes.size and t * t + 4 * int(primes.max()) >= 1 << 63:
        raise ValueError("t^2 - 4p must fit in int64")
    d = t * t - 4 * primes.astype(np.int64)
    width = 8 if ell == 2 else ell
    # d != 0, as t^2 = 4p has no prime p; valuations() leaves the unit part in d
    key = valuations(d, ell, 63) * width + d % width
    _, first, index = np.unique(key, return_index=True, return_inverse=True)
    values = np.array([float(_f_ell(t, p, ell)) for p in primes[first].tolist()])
    return values[index]


def f_infinity(t, p):
    """Semicircle density (1/(pi sqrt p)) sqrt(1 - t^2/4p); 0 outside |t| <= 2 sqrt p."""
    if t * t > 4 * p:
        return 0.0
    return math.sqrt(1.0 - t * t / (4.0 * p)) / (math.pi * math.sqrt(p))


def f_level_k(t, p, ell, k):
    """Finite-level density m(t, p; ell^k) / (ell^(2k-2) (ell^2 - 1)), exact."""
    from .matcount import PrimePower, m_closed

    if p % ell == 0:
        raise ValueError("p must be a unit mod ell for the finite-level density")
    count = m_closed(t, p, PrimePower(ell, k))
    return Fraction(count, ell ** (2 * k - 2) * (ell ** 2 - 1))


def product_check(t, p, lmax):
    """Compare H(t^2 - 4p) with p * f_inf * prod_{ell <= lmax} f_ell.

    The product converges only conditionally, so the right side is an
    approximation; factors are multiplied plainly in ascending ell, over the
    sieve's primes.  For odd ell not dividing d = t^2 - 4p, f_ell is
    ell/(ell - (d/ell)), taken as a float division of integers below 2^53,
    which rounds as ``float(f_ell)`` does.  (d/ell) comes from
    ``arith.euler_criterion`` and depends only on ell mod |d|, so each class
    takes one call, and ell past |d| mostly a lookup.  ell = 2 and the few
    ell dividing d ((d/ell) = 0) use the exact ``f_ell``.  lmax must be in
    [0, ``LMAX_BOUND``], and p a prime with 3 < p < 2^31 (``arith.check_prime``).
    """
    if not 0 <= lmax <= LMAX_BOUND:
        raise ValueError(f"lmax must be in [0, {LMAX_BOUND}], got {lmax}")
    d = t * t - 4 * p
    if d >= 0:
        raise ValueError("product check needs t^2 - 4p < 0")
    if p <= 3:
        raise ValueError("product check needs p > 3")
    check_prime(p, "p")
    lhs = hurwitz_weighted(d)
    rhs = p * f_infinity(t, p)
    if lmax >= 2:
        rhs *= float(f_ell(t, p, 2))
    absd = -d
    # (d/ell) is a character mod |d|, as d = 0 or 1 mod 4: the memo keeps
    # (d/ell) + 2 by ell mod |d|, 0 for a class not yet seen
    symbols = bytearray(min(absd, lmax + 1))
    for ell in odd_primes(lmax):
        r = ell % absd
        s = symbols[r]
        if not s:
            s = symbols[r] = euler_criterion(d, ell) + 2
        rhs *= ell / (ell + 2 - s) if s != 2 else float(f_ell(t, p, ell))
    rel = abs(rhs - float(lhs)) / float(lhs)
    return {"lhs": lhs, "rhs": rhs, "rel_error": rel, "lmax": lmax}
