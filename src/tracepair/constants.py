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
(lmax, 8 * lmax] come from ``_kernels.tail_sums``, bit for bit the floats
of a plain ``+=`` loop (and of Python 3.11's ``sum``; 3.12's ``sum``
compensates).

``lmax`` must be in [2, ``LMAX_BOUND``] and ``digits`` in [1,
``DIGITS_BOUND``]; both are checked before the sieve.
"""

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import from_int, mpf_div, mpf_mul, mpf_pos, round_nearest

from . import _kernels
from .arith import _SIEVE_HARD_LIMIT, is_prime, sieve_primes

DEFAULT_DIGITS = 50
DIGITS_BOUND = 10_000  # 10^4 digits at lmax = 1e5 take ~10 s
LMAX_BOUND = _SIEVE_HARD_LIMIT // 8  # the tail sums run over primes up to 8 * lmax


@dataclass(frozen=True)
class EulerProductEstimate:
    value: mpmath.mpf
    digits: int
    truncation_prime: int
    tail_conservative: float
    tail_empirical: float
    conjectural_factors: int


def _check_domain(lmax, digits):
    if not 2 <= lmax <= LMAX_BOUND:
        raise ValueError(f"lmax must be in [2, {LMAX_BOUND}], got {lmax}")
    if not 1 <= digits <= DIGITS_BOUND:
        raise ValueError(f"digits must be in [1, {DIGITS_BOUND}], got {digits}")


def _euler_product(lmax, digits, prefactor, factor):
    """prefactor() * prod of factor(ell) over primes ell <= lmax, with its tails.

    ``factor(ell)`` returns the exact Fraction at ell and whether it is
    conjectural.
    """
    _check_domain(lmax, digits)
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
    cons, emp = _kernels.tail_sums(primes[split:])
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
    for ell in {p for p in range(3, abs(t) + 1) if abs(t) % p == 0 and is_prime(p)}:
        q *= Fraction(ell ** 4 - 1, ell ** 4 - 2 * ell ** 2 - 3 * ell - 1)
    return q


def single_curve_constant(t, lmax, digits=DEFAULT_DIGITS):
    """(2/pi) * prod of the single-trace local densities, truncated at lmax."""
    def factor(ell):
        if t % ell == 0:
            return Fraction(ell ** 2, ell ** 2 - 1), False
        return Fraction(ell ** 3 - ell ** 2 - ell, (ell ** 2 - 1) * (ell - 1)), False

    return _euler_product(lmax, digits, lambda: 2 / mpmath.pi, factor)
