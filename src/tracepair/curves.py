"""Frobenius traces for short-Weierstrass curves and trace-pair prime counts.

Traces come from Shanks-Mestre baby-step giant-step point counting, run on
blocks of primes in lockstep (O(p^(1/4)) group operations per prime, numpy
kernel), with the O(p) quadratic-character sum for p <= 229 and for the rare
prime no start point settles.  Primes must be below 2^31; p = 2 and 3 are
excluded throughout, which changes counting functions by O(1).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .arith import sieve_primes


@dataclass(frozen=True)
class Curve:
    a: int
    b: int

    def __post_init__(self):
        if self.disc == 0:
            raise ValueError("singular curve: discriminant is zero")

    @property
    def disc(self):
        return -16 * (4 * self.a ** 3 + 27 * self.b ** 2)

    def good_reduction(self, p):
        return p > 3 and self.disc % p != 0


def _check_prime(curve, p):
    if p >= _kernels.TRACE_P_BOUND:
        raise ValueError(f"p = {p} is outside the trace kernel's range p < 2^31")
    if not curve.good_reduction(p):
        raise ValueError(f"p = {p} is not a good prime for {curve}")


def trace_ap(curve, p):
    """a_p = p + 1 - #E(F_p) for a good prime 5 <= p < 2^31."""
    _check_prime(curve, p)
    ap = int(_kernels.trace_batch(curve.a, curve.b, [p])[0])
    assert ap * ap <= 4 * p
    return ap


def trace_table(curve, primes):
    """a_p for every good prime below 2^31 in the given array; others are rejected."""
    primes = [int(p) for p in primes]
    for p in primes:
        _check_prime(curve, p)
    return _kernels.trace_batch(curve.a, curve.b, np.array(primes, dtype=np.int64))


def point_count_brute(curve, p):
    """#E(F_p) by direct point enumeration, including infinity; test oracle."""
    cnt = 1
    squares = {}
    for y in range(p):
        squares.setdefault(y * y % p, 0)
        squares[y * y % p] += 1
    for x in range(p):
        rhs = (x * x * x + curve.a * x + curve.b) % p
        cnt += squares.get(rhs, 0)
    return cnt


def good_primes(x, *curves):
    """Primes 5 <= p <= x of good reduction for every given curve, as int64.

    A prime divides some discriminant iff it divides their product, which is
    tested on Python ints, so the discriminants may have any size.
    """
    primes = sieve_primes(x)
    primes = primes[primes >= 5]
    disc = math.prod(c.disc for c in curves)
    return primes[[disc % p != 0 for p in primes.tolist()]]


def pair_count(e1, e2, t1, t2, x, list_primes=False, prediction_lmax=None):
    """#{5 <= p <= x : good for both, a_p(e1) = t1 and a_p(e2) = t2}.

    Optionally attaches the generic-image prediction c * loglog x; that value
    assumes the joint mod-m image is as large as possible, which this module
    never checks, so it carries an explicit caveat flag.
    """
    if x < 5:
        raise ValueError("x must be >= 5")
    if x >= _kernels.TRACE_P_BOUND:
        raise ValueError("x must be below 2^31, the trace kernel's range")
    if prediction_lmax is not None:
        from .constants import pair_constant

        c = pair_constant(t1, t2, prediction_lmax)  # rejects a bad lmax before the sweep
    primes = good_primes(x, e1, e2)
    tr1 = _kernels.trace_batch(e1.a, e1.b, primes)
    sel = primes[tr1 == t1]
    if sel.size:
        tr2 = _kernels.trace_batch(e2.a, e2.b, sel)
        matched = sel[tr2 == t2]
    else:
        matched = sel
    out = {"count": int(matched.size), "x": int(x)}
    if list_primes:
        out["matched_primes"] = [int(p) for p in matched]
    if prediction_lmax is not None:
        out["prediction"] = float(c.value) * math.log(math.log(x))
        out["prediction_assumes_generic_image"] = True
    return out
