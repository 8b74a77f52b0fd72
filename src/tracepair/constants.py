"""Truncated Euler products for the trace-pair and single-trace constants.

The four constants share one engine, ``_euler_product``: it checks the
domain, then walks the primes to 8 * lmax as Python ints, read from the
sieve's segments as they are sieved (``arith.odd_primes``), so that no numpy
loads.  The primes up to lmax carry the exact local factors, the primes
above it stream into the tail sums.  Each constant supplies only its
prefactor c * pi^k, as the pair (c, k), and its rational factor at ell, as
a numerator and a denominator in any terms.

Every local factor is an exact rational; only the product is rounded, at
``working_precision(digits)`` bits (``digits + 15`` decimal digits, default
50 significant digits), so high-precision runs mean what they say.  The
product runs on Python ints, bit for bit the mpf loop
``acc = prefactor; acc *= mpf(num) / den`` over the reduced Fractions in
ascending ell.  A factor is reduced only when its numerator is wider than the
working precision: a narrower one is not rounded, and the correctly rounded
quotient depends on the value alone.  Each rounding is to the working
precision, half to even:
- the prefactor: pi from floor(pi * 2^(prec + 20)) (Machin's formula, with
  guard bits widened until the floor is certain), as mpmath's ``mpf_pi``
  rounds it; then pi^2 and c / pi^-k, each once, as ``c / mpmath.pi ** 2``
  and ``c / mpmath.pi`` round them;
- per prime, the numerator; its quotient by the denominator, correctly
  rounded, the remainder kept as a sticky bit; the product into the
  accumulator.
``EulerProductEstimate`` holds the result as an exact mantissa * 2^exponent,
a ``typing.NamedTuple``.  ``float(est)`` rounds it once to 53 bits, half to
even, as mpmath's ``float`` of that value does, and ``digit_string`` prints it
as ``mpmath.nstr`` does, on Python ints, so that no package path loads mpmath.

Two tail figures are reported: a conservative bound sum(8/ell^1.5) over the
omitted primes, safe for every trace pair, and an empirical sum(4/ell^3)
matching the generic factor shape 1 - 4/ell^3 + O(1/ell^4).  The empirical
figure is not a bound when a trace is 0: those factors are 1 + O(1/ell^2),
and ``pair_constant(0, 0, 100_000)`` states 1.7e-11 while its true error
against 35/96 is 8.8e-7 (ROADMAP, item 1).  Both sums over the primes in
(lmax, 8 * lmax] come from ``tail_sums``, a plain ``+=`` loop, left to right
(as Python 3.11's ``sum`` adds; 3.12's ``sum`` compensates), and the primes
above 8 * lmax from the integral terms of ``_integral_tails``.

``lmax`` must be in [2, ``LMAX_BOUND``] and ``digits`` in [1,
``DIGITS_BOUND``]; both are checked before the sieve.
"""

import itertools
import math
from decimal import Context, Decimal
from fractions import Fraction
from typing import NamedTuple

from .arith import odd_primes, prime_factors

DEFAULT_DIGITS = 50
# 10^4 digits at lmax = 1e5 take 5.3 s and 16 MB (2 cores, median of 3 fresh CLI runs)
DIGITS_BOUND = 10_000
# Time grows linearly with lmax, memory hardly: `constant --kind universal`
# takes 0.43 s and 20.2 MB at lmax = 1e6, 1.2 s and 20.5 MB at 3e6, and 3.2 s
# and 20.5 MB at 1e7 (2 cores, medians of 3-4 fresh CLI runs): ~0.32 s per 1e6,
# so the sieve's own limit, 2e9 = 8 * 2.5e8, would take ~80 s (extrapolated, not run).
LMAX_BOUND = 10 ** 7
# math.log(10, 2), the factor of mpmath's dps_to_prec and to_str; math.log2(10) is one ulp below
_LOG2_10 = 3.3219280948873626


def working_precision(digits):
    """Bits of the product's working precision: ``digits + 15`` decimal
    digits, converted as mpmath's ``dps_to_prec`` converts them."""
    return max(1, int(round((digits + 16) * _LOG2_10)))


def _round(man, exp, prec):
    """man * 2^exp (man >= 0) rounded to prec bits, half to even, as (mantissa, exponent)."""
    shift = man.bit_length() - prec
    if shift <= 0:
        return man, exp
    q = man >> shift
    rest = man - (q << shift)
    half = 1 << (shift - 1)
    if rest > half or (rest == half and q & 1):
        q += 1
    return q, exp + shift


def _round_quotient(num, den, exp, prec):
    """num / den * 2^exp (num >= 0, den > 0) correctly rounded to prec bits, half to even.

    The quotient is taken to at least prec + 2 bits, and one more bit below
    them is set when the remainder is nonzero, so that rounding sees on which
    side of each halfway point the exact quotient lies.
    """
    shift = prec + 2 + den.bit_length() - num.bit_length()
    if shift >= 0:
        q, r = divmod(num << shift, den)
    else:
        q, r = divmod(num, den << -shift)
    return _round((q << 1) | (r != 0), exp - shift - 1, prec)


def _arctan_inv(one, x):
    """(sum, terms): arctan(1/x) * one from floored terms, within terms + 1 of the exact value.

    Each term floor(one / x^(2j+1)) // (2j+1) is the floor of its exact value,
    and the series stops where the terms vanish, which leaves an alternating
    tail below 1.
    """
    power = one // x
    total, terms, x2, j = power, 1, x * x, 1
    while power:
        power //= x2
        term = power // (2 * j + 1)
        total += -term if j & 1 else term
        terms += 1
        j += 1
    return total, terms


def _machin_pi_floor(bits):
    """floor(pi * 2^bits), by Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239)
    on integers, with guard bits widened until the error bound settles the floor."""
    guard = 32
    while True:
        one = 1 << (bits + guard)
        s5, n5 = _arctan_inv(one, 5)
        s239, n239 = _arctan_inv(one, 239)
        approx = 16 * s5 - 4 * s239
        err = 16 * (n5 + 1) + 4 * (n239 + 1)
        low, high = (approx - err) >> guard, (approx + err) >> guard
        if low == high:
            return low
        guard *= 2


_PI_MEMO = [2, 12]  # the widest (bits, floor(pi * 2^bits)) computed so far


def _pi_floor(bits):
    """floor(pi * 2^bits), shifted down from the widest floor computed so far."""
    if bits > _PI_MEMO[0]:
        _PI_MEMO[:] = bits, _machin_pi_floor(bits)
    memo_bits, memo = _PI_MEMO
    return memo >> (memo_bits - bits)


def _prefactor(c, k, prec):
    """c * pi^k for k in {0, -1, -2}, rounded at prec bits as ``mpf(c)``,
    ``c / mpmath.pi`` and ``c / mpmath.pi ** 2`` round it."""
    if k == 0:
        return _round(c, 0, prec)
    wp = prec + 20
    man, exp = _round(_pi_floor(wp), -wp, prec)
    if k == -2:
        man, exp = _round(man * man, 2 * exp, prec)
    return _round_quotient(c, man, -exp, prec)


class EulerProductEstimate(NamedTuple):
    """A truncated Euler product, exactly mantissa * 2^exponent (mantissa odd), and its tails.

    ``tail_conservative`` and ``tail_empirical`` are the two |log tail|
    figures: the sums over the primes in (truncation prime, 8 * lmax] plus
    the integral terms above 8 * lmax.
    """
    mantissa: int
    exponent: int
    digits: int
    truncation_prime: int
    conjectural_factors: int
    tail_conservative: float
    tail_empirical: float

    def __float__(self):
        """The value rounded once to 53 bits, half to even, as mpmath's ``float`` rounds it."""
        return math.ldexp(*_round(self.mantissa, self.exponent, 53))


def digit_string(mantissa, exponent, digits):
    """mantissa * 2^exponent (mantissa > 0, digits >= 1) as the string that
    ``mpmath.nstr(value, digits)`` prints, on Python ints.

    mpmath's ``to_str`` step for step: the value is floored to digits + 3
    decimal digits through a binary fixed point; digit ``digits`` rounds half
    up, a carry turning ...999 into 100... and raising the decimal exponent;
    the layout is fixed-point when that exponent lies strictly between
    min(-(digits // 3), -5) and digits, else e+n or e-n; trailing zeros go.
    A value with |exponent + bit length| > 3500, where mpmath scales by a
    power of ten first, is refused; no Euler product comes near it.
    """
    bits = mantissa.bit_length()
    if abs(exponent + bits) > 3500:
        raise ValueError(f"2^{exponent + bits} is outside the digit string's range")
    bitprec = int((digits + 3) * _LOG2_10) + 10
    fixprec = max(bitprec - exponent - bits, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exponent + fixprec
    fixed = mantissa << shift if shift >= 0 else mantissa >> -shift
    text = str(Decimal(fixed * 10 ** fixdps >> fixprec))  # str refuses an int past 4,300 digits
    point = len(text) - fixdps - 1  # the decimal exponent of the leading digit
    if len(text) > digits and text[digits] in "56789":
        head = text[:digits].rstrip("9")
        if head:
            text = head[:-1] + str(int(head[-1]) + 1) + "0" * (digits - len(head))
        else:
            text = "1" + "0" * (digits - 1)
            point += 1
    else:
        text = text[:digits]
    split = 1
    if min(-(digits // 3), -5) < point < digits:
        if point < 0:
            text = "0" * -point + text
        else:
            split = point + 1
            if split > digits:
                text += "0" * (split - digits)
        point = 0
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text[-1] == ".":
        text += "0"
    return f"{text}e{point:+d}" if point else text


# 8 * lmax at the 5 lmax in [2, LMAX_BOUND] where ln(8 * lmax) lies ~2^-21 ulp
# above a 53-bit midpoint and mpmath's log, which rounds a 73-bit fixed-point
# log, returns the float one ulp below the correctly rounded one
_MPMATH_LOW_LOGS = frozenset(8 * lmax for lmax in (1332935, 4182031, 4608279, 5685027, 6973398))


def _integral_tails(top):
    """(16 / (sqrt(top) ln top), 2 / (top^2 ln top)): integral bounds on the
    conservative and empirical sums over the primes above top (prime density
    1/ln x, decreasing integrands), bit for bit as mpmath forms them at 53 bits.

    Each float operation is the mpf operation at 53 bits, rounded to
    nearest: top and top^2 are below 2^53, so exact, and IEEE sqrt, products
    and quotients are correctly rounded.  ln top is Decimal's ``ln``,
    correctly rounded to 40 digits, then rounded to 53 bits, and taken one
    ulp down at the tops of ``_MPMATH_LOW_LOGS``: then it equals mpmath's
    53-bit ``log(top)`` at every lmax in [2, 10^7] (all of them checked).
    libm's ``math.log`` differs from mpmath's at 186 of them (63416 and
    90171 the first, the only two <= 2e5), and the integral terms with it
    at 183.
    """
    log_top = float(Decimal(top).ln(Context(prec=40)))
    if top in _MPMATH_LOW_LOGS:
        log_top = math.nextafter(log_top, 0)
    return 16 / (math.sqrt(top) * log_top), 2 / (top * top * log_top)


def check_domain(lmax, digits):
    """Refuse an lmax or a digit count that the Euler products do not take."""
    if not 2 <= lmax <= LMAX_BOUND:
        raise ValueError(f"lmax must be in [2, {LMAX_BOUND}], got {lmax}")
    if not 1 <= digits <= DIGITS_BOUND:
        raise ValueError(f"digits must be in [1, {DIGITS_BOUND}], got {digits}")


_EXACT_SQUARE = math.isqrt(2 ** 53)  # p^2 is exact in float64 up to this p


def tail_sums(primes):
    """(sum of 8.0 / p ** 1.5, sum of 4.0 / p ** 3) over ascending Python int primes.

    The plain ``+=`` loop, left to right.  p ** 1.5 is libm's pow of the
    exact float of p, as Python's ``**`` gives it.  Up to ``_EXACT_SQUARE``
    the float square is exact, so one float product rounds the exact cube
    once, as ``float(p ** 3)`` does; above it the cube is formed on ints.
    """
    cons = emp = 0.0
    for p in primes:
        q = float(p)
        cons += 8.0 / q ** 1.5
        emp += 4.0 / (q * q * q if p <= _EXACT_SQUARE else float(p ** 3))
    return cons, emp


def _euler_product(lmax, digits, prefactor, factor):
    """c * pi^k * prod of factor(ell) over primes ell <= lmax, with its tails.

    ``prefactor`` is the pair (c, k); ``factor(ell)`` returns the positive
    rational factor at ell as ``(num, den, conjectural)`` ints, in any terms.
    Only a numerator wider than the working precision is rounded, and only
    it is reduced first: a correctly rounded quotient depends on the value
    alone, so the product is that of the reduced Fractions.
    """
    check_domain(lmax, digits)
    primes = itertools.chain((2,), odd_primes(8 * lmax))
    prec = working_precision(digits)
    man, exp = _prefactor(*prefactor, prec)
    truncation = conjectural = 0
    for ell in primes:
        if ell > lmax:  # a prime lies in (lmax, 2 * lmax], so the loop always ends here
            break
        truncation = ell
        num, den, conj = factor(ell)
        conjectural += conj
        num_exp = 0
        if num.bit_length() > prec:  # only a wider numerator is rounded, and reduced first
            g = math.gcd(num, den)
            num, num_exp = _round(num // g, 0, prec)
            den //= g
        num, num_exp = _round_quotient(num, den, num_exp, prec)
        man, exp = _round(man * num, exp + num_exp, prec)
    zeros = (man & -man).bit_length() - 1
    cons, emp = tail_sums(itertools.chain((ell,), primes))
    top_cons, top_emp = _integral_tails(8 * lmax)
    return EulerProductEstimate(man >> zeros, exp + zeros, digits, truncation, conjectural,
                                cons + top_cons, emp + top_emp)


def pair_constant(t1, t2, lmax, digits=DEFAULT_DIGITS):
    """(1/pi^2) * prod of local factors c_ell over ell <= lmax."""
    # only this constant needs them; the sieve's ell need no primality test
    from .local import PROVENANCE_CONJECTURE, local_limit_unchecked

    def factor(ell):
        lf = local_limit_unchecked(t1, t2, ell)
        return lf.c_ell.numerator, lf.c_ell.denominator, lf.provenance == PROVENANCE_CONJECTURE

    return _euler_product(lmax, digits, (1, -2), factor)


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
            two = _two_adic_same_trace(t)
            return two.numerator, two.denominator, False
        if t % ell == 0:
            return ell ** 2 * (ell ** 2 + 1), (ell ** 2 - 1) ** 2, False
        return ell ** 2 * (ell ** 4 - 2 * ell ** 2 - 3 * ell - 1), (ell ** 2 - 1) ** 3, False

    return _euler_product(lmax, digits, (1, -2), factor)


def universal_product(lmax, digits=DEFAULT_DIGITS):
    """prod over ell of (ell^4 - 2 ell^2 - 3 ell - 1)/(ell^2 - 1)^2, truncated."""
    def factor(ell):
        return ell ** 4 - 2 * ell ** 2 - 3 * ell - 1, (ell ** 2 - 1) ** 2, False

    return _euler_product(lmax, digits, (1, 0), factor)


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
            return ell ** 2, ell ** 2 - 1, False
        return ell ** 3 - ell ** 2 - ell, (ell ** 2 - 1) * (ell - 1), False

    return _euler_product(lmax, digits, (2, -1), factor)
