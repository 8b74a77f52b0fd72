"""Truncated Euler products for the trace-pair and single-trace constants.

Every local factor is an exact rational from ``local``; only the final
product is floating, taken in mpmath at a configurable precision (default 50
significant digits) with pi from mpmath, so high-precision runs mean what
they say.  Factors are multiplied in ascending ell for determinism.

Two tail figures are reported: a conservative bound sum(8/ell^1.5) over the
omitted primes, safe for every trace pair, and an empirical sum(4/ell^3)
matching the generic factor shape 1 - 4/ell^3 + O(1/ell^4).  The empirical
figure is not a bound when a trace is 0: those factors are 1 + O(1/ell^2),
and ``pair_constant(0, 0, 100_000)`` states 1.7e-11 while its true error
against 35/96 is 8.8e-7 (ROADMAP, item 1).

``lmax`` must be at least 2 and ``digits`` in [1, ``DIGITS_BOUND``]; both
are checked before the sieve.
"""

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .arith import is_prime, sieve_primes
from .local import local_limit

DEFAULT_DIGITS = 50
DIGITS_BOUND = 10_000  # 10^4 digits at lmax = 1e5 take ~10 s


@dataclass(frozen=True)
class EulerProductEstimate:
    value: mpmath.mpf
    digits: int
    truncation_prime: int
    tail_conservative: float
    tail_empirical: float
    conjectural_factors: int
    factor_trace: tuple | None


def _check_domain(lmax, digits):
    if lmax < 2:
        raise ValueError("lmax must be >= 2")
    if not 1 <= digits <= DIGITS_BOUND:
        raise ValueError(f"digits must be in [1, {DIGITS_BOUND}], got {digits}")


def _tails(primes, lmax):
    # |log tail| bounds: exact partial sums to 8*lmax plus an integral bound
    # for the rest (prime density 1/log x, decreasing integrands).
    extra = sieve_primes(8 * lmax)
    extra = extra[extra > lmax]
    log_l = mpmath.log(8 * lmax)
    cons = sum(8.0 / int(p) ** 1.5 for p in extra) + float(16 / (mpmath.sqrt(8 * lmax) * log_l))
    emp = sum(4.0 / int(p) ** 3 for p in extra) + float(2 / ((8 * lmax) ** 2 * log_l))
    return cons, emp


def _product(factors, digits, prefactor_fn):
    with mpmath.workdps(digits + 15):
        acc = prefactor_fn()
        for frac in factors:
            acc *= mpmath.mpf(frac.numerator) / frac.denominator
        return +acc


def pair_constant(t1, t2, lmax, digits=DEFAULT_DIGITS, with_factors=False):
    """(1/pi^2) * prod of local factors c_ell over ell <= lmax."""
    _check_domain(lmax, digits)
    primes = [int(p) for p in sieve_primes(lmax)]
    factors = []
    conjectural = 0
    for ell in primes:
        lf = local_limit(t1, t2, ell)
        if lf.provenance == "closed-form-conjecture":
            conjectural += 1
        factors.append(lf.c_ell)
    value = _product(factors, digits, lambda: 1 / mpmath.pi ** 2)
    cons, emp = _tails(primes, lmax)
    trace = tuple(zip(primes, factors)) if with_factors else None
    return EulerProductEstimate(value, digits, primes[-1], cons, emp, conjectural, trace)


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
    _check_domain(lmax, digits)
    primes = [int(p) for p in sieve_primes(lmax)]
    factors = [_two_adic_same_trace(t)]
    for ell in primes:
        if ell == 2:
            continue
        if t % ell == 0:
            factors.append(Fraction(ell ** 2 * (ell ** 2 + 1), (ell ** 2 - 1) ** 2))
        else:
            factors.append(
                Fraction(ell ** 2 * (ell ** 4 - 2 * ell ** 2 - 3 * ell - 1), (ell ** 2 - 1) ** 3)
            )
    value = _product(factors, digits, lambda: 1 / mpmath.pi ** 2)
    cons, emp = _tails(primes, lmax)
    return EulerProductEstimate(value, digits, primes[-1], cons, emp, 0, None)


def universal_product(lmax, digits=DEFAULT_DIGITS):
    """prod over ell of (ell^4 - 2 ell^2 - 3 ell - 1)/(ell^2 - 1)^2, truncated."""
    _check_domain(lmax, digits)
    primes = [int(p) for p in sieve_primes(lmax)]
    factors = [
        Fraction(ell ** 4 - 2 * ell ** 2 - 3 * ell - 1, (ell ** 2 - 1) ** 2)
        for ell in primes
    ]
    value = _product(factors, digits, lambda: mpmath.mpf(1))
    cons, emp = _tails(primes, lmax)
    return EulerProductEstimate(value, digits, primes[-1], cons, emp, 0, None)


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
    _check_domain(lmax, digits)
    primes = [int(p) for p in sieve_primes(lmax)]
    factors = []
    for ell in primes:
        if t % ell == 0:
            factors.append(Fraction(ell ** 2, ell ** 2 - 1))
        else:
            factors.append(Fraction(ell ** 3 - ell ** 2 - ell, (ell ** 2 - 1) * (ell - 1)))
    value = _product(factors, digits, lambda: 2 / mpmath.pi)
    cons, emp = _tails(primes, lmax)
    return EulerProductEstimate(value, digits, primes[-1], cons, emp, 0, None)
