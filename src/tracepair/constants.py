"""Truncated Euler products for the trace-pair and single-trace constants.

The four constants share one engine, ``_euler_product``: it checks the
domain, sieves once to 8 * lmax and splits the primes at lmax.  The primes up
to lmax carry the exact local factors, the primes above it the tail sums.
Each constant supplies only its prefactor and its rational factor at ell.

Every local factor is an exact rational; only the final product is floating,
taken in mpmath at ``digits + 15`` working digits (default 50 significant
digits) with pi from mpmath, so high-precision runs mean what they say.
Factors are multiplied in ascending ell for determinism, on raw libmp
tuples: each step makes the calls that ``acc *= mpf(num) / den`` makes on
the reduced Fraction, with the same roundings (the numerator rounded to the
working precision, divided by the denominator, then multiplied in), so the
value is the mpf loop's bit for bit without an mpf object per step.

Two tail figures are reported: a conservative bound sum(8/ell^1.5) over the
omitted primes, safe for every trace pair, and an empirical sum(4/ell^3)
matching the generic factor shape 1 - 4/ell^3 + O(1/ell^4).  The empirical
figure is not a bound when a trace is 0: those factors are 1 + O(1/ell^2),
and ``pair_constant(0, 0, 100_000)`` states 1.7e-11 while its true error
against 35/96 is 8.8e-7 (ROADMAP, item 1).  Both sums over the primes in
(lmax, 8 * lmax] come from ``tail_sums``, bit for bit the floats
of a plain ``+=`` loop (and of Python 3.11's ``sum``; 3.12's ``sum``
compensates).

``lmax`` must be in [2, ``LMAX_BOUND``] and ``digits`` in [1,
``DIGITS_BOUND``]; both are checked before the sieve.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath.libmp import from_int, mpf_div, mpf_mul, mpf_pos, round_nearest

from .arith import SIEVE_HARD_LIMIT, prime_factors, sieve_primes

DEFAULT_DIGITS = 50
DIGITS_BOUND = 10_000  # 10^4 digits at lmax = 1e5 take ~10 s
LMAX_BOUND = SIEVE_HARD_LIMIT // 8  # the tail sums run over primes up to 8 * lmax


@dataclass(frozen=True)
class EulerProductEstimate:
    value: mpmath.mpf
    digits: int
    truncation_prime: int
    tail_conservative: float
    tail_empirical: float
    conjectural_factors: int


def check_domain(lmax, digits):
    """Refuse an lmax or a digit count that the Euler products do not take."""
    if not 2 <= lmax <= LMAX_BOUND:
        raise ValueError(f"lmax must be in [2, {LMAX_BOUND}], got {lmax}")
    if not 1 <= digits <= DIGITS_BOUND:
        raise ValueError(f"digits must be in [1, {DIGITS_BOUND}], got {digits}")


_EXACT_SQUARE = math.isqrt(2 ** 53)  # p^2 is exact in float64 up to this p


def tail_sums(primes):
    """(sum of 8.0 / p ** 1.5, sum of 4.0 / p ** 3) over a non-empty ascending int64 array.

    The primes must be below 2^53, so that float64 holds them exactly.

    Bit for bit the floats of a plain ``+=`` loop over Python ints: each term
    is the float Python's expression gives, and one in-place ``cumsum`` adds
    the terms left to right.  p ** 1.5 comes from libm's pow, as Python's
    ``**`` calls it; numpy's own power can take a SIMD route that differs in
    the last bit (at p = 7 with AVX-512).  p ** 3 is the exact cube rounded
    once: p * p is exact up to ``_EXACT_SQUARE`` and one float product
    rounds the cube, and above it the cube is formed on Python ints.
    """
    p = primes.astype(np.float64)  # exact: every prime is below 2^53
    powers = np.fromiter(map(math.pow, p, itertools.repeat(1.5)), np.float64, p.size)
    cons = _left_to_right_sum(8.0, powers)
    cubes = np.square(p, out=p)  # exact up to _EXACT_SQUARE
    cubes *= primes  # one rounding of the exact cube
    cut = primes.searchsorted(_EXACT_SQUARE, side="right")
    cubes[cut:] = [float(x ** 3) for x in primes[cut:].tolist()]
    return cons, _left_to_right_sum(4.0, cubes)


def _left_to_right_sum(c, denominators):
    """sum of c / d over the denominators, added in order; overwrites them."""
    np.divide(c, denominators, out=denominators)
    return float(np.cumsum(denominators, out=denominators)[-1])


def _euler_product(lmax, digits, prefactor, factor):
    """prefactor() * prod of factor(ell) over primes ell <= lmax, with its tails.

    ``factor(ell)`` returns the exact Fraction at ell and whether it is
    conjectural.
    """
    check_domain(lmax, digits)
    primes = sieve_primes(8 * lmax)
    split = primes.searchsorted(lmax, side="right")
    head = primes[:split].tolist()
    conjectural = 0
    with mpmath.workdps(digits + 15):
        prec = mpmath.mp.prec
        acc = prefactor()._mpf_
        for ell in head:
            frac, conj = factor(ell)
            conjectural += conj
            term = mpf_pos(from_int(frac.numerator), prec, round_nearest)
            term = mpf_div(term, from_int(frac.denominator), prec, round_nearest)
            acc = mpf_mul(acc, term, prec, round_nearest)
        value = mpmath.mpf(acc)
    # |log tail| bounds: exact partial sums to 8*lmax plus an integral bound
    # for the rest (prime density 1/log x, decreasing integrands).  Both are
    # floats, taken at mpmath's default precision outside the product's.
    cons, emp = tail_sums(primes[split:])
    log_l = mpmath.log(8 * lmax)
    cons += float(16 / (mpmath.sqrt(8 * lmax) * log_l))
    emp += float(2 / ((8 * lmax) ** 2 * log_l))
    return EulerProductEstimate(value, digits, head[-1], cons, emp, conjectural)


def pair_constant(t1, t2, lmax, digits=DEFAULT_DIGITS):
    """(1/pi^2) * prod of local factors c_ell over ell <= lmax."""
    from .local import PROVENANCE_CONJECTURE, local_limit  # only this constant needs them

    def factor(ell):
        lf = local_limit(t1, t2, ell)
        return lf.c_ell, lf.provenance == PROVENANCE_CONJECTURE

    return _euler_product(lmax, digits, lambda: 1 / mpmath.pi ** 2, factor)


def _two_adic_same_trace(t):
    if t % 2 == 1:
        return Fraction(4, 9)
    if t % 4 == 0:
        return Fraction(35, 18)
    return Fraction(103, 54)


def same_trace_constant(t, lmax, digits=DEFAULT_DIGITS):
    """Equal-trace constant by its explicit product over odd primes.

    Splits odd primes by divisibility of t and applies the 2-adic factor by
    t mod 4; agrees with pair_constant(t, t) within the tail bounds.
    """
    def factor(ell):
        if ell == 2:
            return _two_adic_same_trace(t), False
        if t % ell == 0:
            return Fraction(ell ** 2 * (ell ** 2 + 1), (ell ** 2 - 1) ** 2), False
        num = ell ** 2 * (ell ** 4 - 2 * ell ** 2 - 3 * ell - 1)
        return Fraction(num, (ell ** 2 - 1) ** 3), False

    return _euler_product(lmax, digits, lambda: 1 / mpmath.pi ** 2, factor)


def universal_product(lmax, digits=DEFAULT_DIGITS):
    """prod over ell of (ell^4 - 2 ell^2 - 3 ell - 1)/(ell^2 - 1)^2, truncated."""
    def factor(ell):
        return Fraction(ell ** 4 - 2 * ell ** 2 - 3 * ell - 1, (ell ** 2 - 1) ** 2), False

    return _euler_product(lmax, digits, lambda: mpmath.mpf(1), factor)


def same_trace_ratio(t):
    """Exact rational q with c_{t,t} = q * universal_product limit, t != 0."""
    if t == 0:
        raise ValueError("the t = 0 constant is exactly 35/96, not a ratio")
    q = Fraction(9, 8) * _two_adic_same_trace(t)
    for ell, _ in prime_factors(abs(t)):
        if ell > 2:
            q *= Fraction(ell ** 4 - 1, ell ** 4 - 2 * ell ** 2 - 3 * ell - 1)
    return q


def single_curve_constant(t, lmax, digits=DEFAULT_DIGITS):
    """(2/pi) * prod of the single-trace local densities, truncated at lmax."""
    def factor(ell):
        if t % ell == 0:
            return Fraction(ell ** 2, ell ** 2 - 1), False
        return Fraction(ell ** 3 - ell ** 2 - ell, (ell ** 2 - 1) * (ell - 1)), False

    return _euler_product(lmax, digits, lambda: 2 / mpmath.pi, factor)
