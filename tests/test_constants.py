import math
import random
import signal
from decimal import Context, Decimal
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import dps_to_prec, from_int, mpf_div, mpf_mul, round_nearest

from tracepair import arith, constants
from tracepair.arith import SIEVE_HARD_LIMIT, is_prime, sieve_primes
from tracepair.constants import (
    DIGITS_BOUND,
    LMAX_BOUND,
    pair_constant,
    same_trace_constant,
    same_trace_ratio,
    single_curve_constant,
    universal_product,
)
from tracepair.local import PROVENANCE_CONJECTURE, local_limit


def _mpf(est):
    """The estimate's exact value, mantissa * 2^exponent, as an mpf for the mpmath oracles."""
    return mpmath.mpf((est.mantissa, est.exponent), prec=est.mantissa.bit_length())


def test_pair_constant_reference():
    est = pair_constant(0, 0, 20_000)
    assert abs(float(_mpf(est)) - 35 / 96) < 1e-3
    assert est.truncation_prime <= 20_000
    assert est.tail_conservative > 0
    assert est.tail_empirical < est.tail_conservative


def test_pair_constant_deterministic():
    a = pair_constant(1, 2, 500)
    b = pair_constant(1, 2, 500)
    assert mp_equal(_mpf(a), _mpf(b))


def mp_equal(x, y):
    return float(x) == float(y) and str(x) == str(y)


def test_universal_product():
    est = universal_product(10_000)
    assert abs(float(_mpf(est)) - 0.08789878383) < 1e-6
    # factor at ell = 2 alone: (16 - 8 - 6 - 1)/(2^2 - 1)^2 = 1/9
    first = universal_product(2)
    assert float(_mpf(first)) == 1 / 9
    vals = [float(_mpf(universal_product(L))) for L in (10, 100, 1000)]
    assert vals[0] > vals[1] > vals[2]


def test_sign_invariance():
    for ell in sieve_primes(200).tolist():
        base = local_limit(3, 5, ell).c_ell
        for t1, t2 in ((-3, 5), (3, -5), (-3, -5)):
            assert local_limit(t1, t2, ell).c_ell == base
    base = pair_constant(3, 5, 200)
    for t1, t2 in ((-3, 5), (3, -5), (-3, -5)):
        assert _mpf(pair_constant(t1, t2, 200)) == _mpf(base)


def test_same_trace_routes_agree():
    for t in (0, 1, 2, 4, 6):
        a = pair_constant(t, t, 1500)
        b = same_trace_constant(t, 1500)
        gap = abs(float(_mpf(a)) - float(_mpf(b)))
        assert gap <= float(_mpf(a)) * (math.exp(a.tail_conservative + b.tail_conservative) - 1)


def test_same_trace_two_adic_factors():
    # odd trace -> 4/9; t = 2 mod 4 -> 103/54; 4 | t -> 35/18
    from tracepair.constants import _two_adic_same_trace

    assert _two_adic_same_trace(1) == Fraction(4, 9)
    assert _two_adic_same_trace(2) == Fraction(103, 54)
    assert _two_adic_same_trace(4) == Fraction(35, 18)


def test_same_trace_ratio():
    assert same_trace_ratio(1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        same_trace_ratio(0)
    est = pair_constant(1, 1, 4000)
    uni = universal_product(4000)
    assert abs(float(_mpf(est)) / float(_mpf(uni)) - 0.5) < 1e-4


def test_same_trace_ratio_matches_prime_loop():
    # the odd primes dividing t, found by testing every p <= |t|
    for t in range(-300, 301):
        if t == 0:
            continue
        q = Fraction(9, 8) * constants._two_adic_same_trace(t)
        for ell in (p for p in range(3, abs(t) + 1) if t % p == 0 and is_prime(p)):
            q *= Fraction(ell ** 4 - 1, ell ** 4 - 2 * ell ** 2 - 3 * ell - 1)
        assert same_trace_ratio(t) == q, t


def test_same_trace_ratio_large_trace_returns_at_once():
    def expire(signum, frame):
        raise TimeoutError("same_trace_ratio(10**12) took over 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        q = same_trace_ratio(10 ** 12)  # 2^12 5^12
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert q == Fraction(9, 8) * Fraction(35, 18) * Fraction(5 ** 4 - 1, 5 ** 4 - 50 - 15 - 1)


def test_single_curve_constant():
    est = single_curve_constant(0, 20_000)
    assert abs(float(_mpf(est)) - math.pi / 3) < 1e-4
    assert float(_mpf(single_curve_constant(7, 300))) == float(_mpf(single_curve_constant(-7, 300)))
    v1 = float(_mpf(single_curve_constant(1, 1000)))
    v2 = float(_mpf(single_curve_constant(1, 10_000)))
    assert abs(v1 - v2) < 1e-6


def test_conjectural_factor_count():
    # distinct traces away from +- each other use conjectural factors at most primes
    est = pair_constant(1, 2, 100)
    flagged = [local_limit(1, 2, ell).provenance == PROVENANCE_CONJECTURE
               for ell in sieve_primes(100).tolist()]
    assert est.conjectural_factors == sum(flagged) > 0
    same = pair_constant(1, 1, 100)
    assert same.conjectural_factors == 0


def test_lmax_validation(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("sieve started")

    monkeypatch.setattr(arith, "odd_prime_segments", no_sieve)
    with pytest.raises(ValueError, match="lmax"):
        pair_constant(0, 0, 1)
    with pytest.raises(ValueError, match="lmax"):
        universal_product(0)
    with pytest.raises(ValueError, match="lmax"):
        single_curve_constant(0, LMAX_BOUND + 1)
    # the cost bound: ~0.32 s per 1e6 of lmax
    with pytest.raises(ValueError, match="lmax"):
        pair_constant(1, 2, 10_000_001)
    with pytest.raises(ValueError, match="lmax"):
        universal_product(10_000_001)
    # the tail sums sieve to 8 * lmax, which stays within the sieve's limit
    assert 8 * LMAX_BOUND <= SIEVE_HARD_LIMIT


def test_digits_plumbed():
    est = pair_constant(0, 0, 50, digits=30)
    assert est.digits == 30


# Outputs of the four constants, recorded as mpmath.nstr(value, digits) and
# conjectural_factors, keyed by (kind, t1, t2, lmax, digits); the tails and
# the truncation prime depend on lmax alone.  Any change to the factors, their
# order, the working precision or the tail sums shows here.
PINNED_VALUES = {
    ("pair", 0, 0, 2, 15): ("0.197013412637879", 0),
    ("pair", 1, 2, 2, 15): ("0.0900632743487447", 0),
    ("pair", -1, 2, 2, 15): ("0.0900632743487447", 0),
    ("pair", 2, -2, 2, 15): ("0.193260776206681", 0),
    ("same-trace", 0, None, 2, 15): ("0.197013412637879", 0),
    ("same-trace", 2, None, 2, 15): ("0.193260776206681", 0),
    ("same-trace", -2, None, 2, 15): ("0.193260776206681", 0),
    ("single", 0, None, 2, 15): ("0.848826363156775", 0),
    ("single", 1, None, 2, 15): ("0.424413181578388", 0),
    ("single", -1, None, 2, 15): ("0.424413181578388", 0),
    ("universal", None, None, 2, 15): ("0.111111111111111", 0),
    ("pair", 0, 0, 2, 50): ("0.19701341263787900002976562290780374231403095075159", 0),
    ("pair", 1, 2, 2, 50): ("0.090063274348744685727892856186424567914985577486441", 0),
    ("pair", -1, 2, 2, 50): ("0.090063274348744685727892856186424567914985577486441", 0),
    ("pair", 2, -2, 2, 50): ("0.19326077620668130479110342056670271865090655168966", 0),
    ("same-trace", 0, None, 2, 50): ("0.19701341263787900002976562290780374231403095075159", 0),
    ("same-trace", 2, None, 2, 50): ("0.19326077620668130479110342056670271865090655168966", 0),
    ("same-trace", -2, None, 2, 50): ("0.19326077620668130479110342056670271865090655168966", 0),
    ("single", 0, None, 2, 50): ("0.8488263631567751241007134046534099308504514439491", 0),
    ("single", 1, None, 2, 50): ("0.42441318157838756205035670232670496542522572197455", 0),
    ("single", -1, None, 2, 50): ("0.42441318157838756205035670232670496542522572197455", 0),
    ("universal", None, None, 2, 50): ("0.11111111111111111111111111111111111111111111111111", 0),
    ("pair", 0, 0, 100, 15): ("0.362599608078778", 0),
    ("pair", 1, 2, 100, 15): ("0.0761848450024452", 24),
    ("pair", -1, 2, 100, 15): ("0.0761848450024452", 24),
    ("pair", 2, -2, 100, 15): ("0.188279178280794", 0),
    ("same-trace", 0, None, 100, 15): ("0.362599608078778", 0),
    ("same-trace", 2, None, 100, 15): ("0.188279178280794", 0),
    ("same-trace", -2, None, 100, 15): ("0.188279178280794", 0),
    ("single", 0, None, 100, 15): ("1.04529477731298", 0),
    ("single", 1, None, 100, 15): ("0.391609612740732", 0),
    ("single", -1, None, 100, 15): ("0.391609612740732", 0),
    ("universal", None, None, 100, 15): ("0.0879014712959887", 0),
    ("pair", 0, 0, 100, 50): ("0.36259960807877840702854037438844507312409143973963", 0),
    ("pair", 1, 2, 100, 50): ("0.07618484500244524064142817779765436085807976156108", 24),
    ("pair", -1, 2, 100, 50): ("0.07618484500244524064142817779765436085807976156108", 24),
    ("pair", 2, -2, 100, 50): ("0.18827917828079372591921735120913676837873701780452", 0),
    ("same-trace", 0, None, 100, 50): ("0.36259960807877840702854037438844507312409143973963", 0),
    ("same-trace", 2, None, 100, 50): ("0.18827917828079372591921735120913676837873701780452", 0),
    ("same-trace", -2, None, 100, 50): ("0.18827917828079372591921735120913676837873701780452", 0),
    ("single", 0, None, 100, 50): ("1.0452947773129782983516302017892977411499863046799", 0),
    ("single", 1, None, 100, 50): ("0.39160961274073227973315350607369720731384626702372", 0),
    ("single", -1, None, 100, 50): ("0.39160961274073227973315350607369720731384626702372", 0),
    ("universal", None, None, 100, 50): ("0.087901471295988655725780594816028078849160243575649", 0),
    ("pair", 0, 0, 2000, 15): ("0.364519557939098", 0),
    ("pair", 1, 2, 2000, 15): ("0.0761817309842574", 302),
    ("pair", -1, 2, 2000, 15): ("0.0761817309842574", 302),
    ("pair", 2, -2, 2000, 15): ("0.188605150343493", 0),
    ("same-trace", 0, None, 2000, 15): ("0.364519557939098", 0),
    ("same-trace", 2, None, 2000, 15): ("0.188605150343493", 0),
    ("same-trace", -2, None, 2000, 15): ("0.188605150343493", 0),
    ("single", 0, None, 2000, 15): ("1.04713648666336", 0),
    ("single", 1, None, 2000, 15): ("0.391605618287371", 0),
    ("single", -1, None, 2000, 15): ("0.391605618287371", 0),
    ("universal", None, None, 2000, 15): ("0.0878987878794624", 0),
    ("pair", 0, 0, 2000, 50): ("0.3645195579390979750933410473350871813581523947021", 0),
    ("pair", 1, 2, 2000, 50): ("0.076181730984257410504704464284857135455779233905143", 302),
    ("pair", -1, 2, 2000, 50): ("0.076181730984257410504704464284857135455779233905143", 302),
    ("pair", 2, -2, 2000, 50): ("0.18860515034349288805374936038499566556823549438809", 0),
    ("same-trace", 0, None, 2000, 50): ("0.3645195579390979750933410473350871813581523947021", 0),
    ("same-trace", 2, None, 2000, 50): ("0.18860515034349288805374936038499566556823549438809", 0),
    ("same-trace", -2, None, 2000, 50): ("0.18860515034349288805374936038499566556823549438809", 0),
    ("single", 0, None, 2000, 50): ("1.0471364866633633265836203222066931513220686756214", 0),
    ("single", 1, None, 2000, 50): ("0.39160561828737149139488659227341745736678015466559", 0),
    ("single", -1, None, 2000, 50): ("0.39160561828737149139488659227341745736678015466559", 0),
    ("universal", None, None, 2000, 50): ("0.087898787879462381699603982137204107841018553168188", 0),
}
PINNED_TAILS = {
    2: (2, 4.519754870581384, 0.19945364322622366),
    100: (97, 0.27251401792193247, 4.0601660820837e-05),
    2000: (1999, 0.04030642439192246, 6.14081444764958e-08),
}


def _estimate(kind, t1, t2, lmax, digits):
    if kind == "pair":
        return pair_constant(t1, t2, lmax, digits)
    if kind == "same-trace":
        return same_trace_constant(t1, lmax, digits)
    if kind == "single":
        return single_curve_constant(t1, lmax, digits)
    return universal_product(lmax, digits)


def test_outputs_pinned():
    for (kind, t1, t2, lmax, digits), (value, conjectural) in PINNED_VALUES.items():
        est = _estimate(kind, t1, t2, lmax, digits)
        got = (mpmath.nstr(_mpf(est), digits), est.conjectural_factors)
        assert got == (value, conjectural), (kind, t1, t2, lmax, digits)
        assert constants.digit_string(est.mantissa, est.exponent, digits) == value
        tails = (est.truncation_prime, est.tail_conservative, est.tail_empirical)
        assert tails == PINNED_TAILS[lmax], (kind, t1, t2, lmax, digits)


def _nstr(man, exp, digits):
    return mpmath.nstr(mpmath.mpf((man, exp), prec=man.bit_length()), digits)


def _near_power_of_ten(digits, power, bits):
    """A mantissa of at most ``bits`` bits and its exponent for a value just below
    10^power whose first digits + 1 digits are 9: nstr carries it to 10^power."""
    v = Fraction(10 ** (digits + 1) - 1, 10 ** (digits + 1)) * Fraction(10) ** power
    shift = bits - 2 - (v.numerator.bit_length() - v.denominator.bit_length())
    return (v.numerator << shift) // v.denominator, -shift


def test_digit_string_matches_mpmath_nstr():
    """Seeded mantissas up to the working precision of DIGITS_BOUND, digit
    counts up to DIGITS_BOUND (str refuses ints past 4,300 digits), both
    layouts, and the carry of ...999 into 10^power in each; the factor is
    mpmath's math.log(10, 2), one ulp above math.log2(10)."""
    assert constants._LOG2_10 == math.log(10, 2) != math.log2(10)
    rng = random.Random(29)
    top = constants.working_precision(DIGITS_BOUND)
    cases = []
    for _ in range(300):
        bits = rng.randint(1, top)
        man = rng.getrandbits(bits) | 1 << (bits - 1)
        digits = rng.choice((rng.randint(1, 60), rng.randint(1, DIGITS_BOUND)))
        cases.append((man, rng.randint(-3500, 3500) - bits, digits))
    for digits in (1, 2, 15, 4301, DIGITS_BOUND):
        for power in (-1000, -5, -1, 0, 1, 4, 1000):
            cases.append((*_near_power_of_ten(digits, power, top), digits))
    layouts = set()
    for man, exp, digits in cases:
        assert man.bit_length() <= top
        want = _nstr(man, exp, digits)
        assert constants.digit_string(man, exp, digits) == want, (man.bit_length(), exp, digits)
        layouts.add("e" in want)
    assert layouts == {False, True}
    assert _nstr(*_near_power_of_ten(4301, 0, top), 4301) == "1.0"
    assert _nstr(*_near_power_of_ten(3, -1000, top), 3) == "1.0e-1000"
    assert max(digits for *_, digits in cases) > 4300


def test_digit_string_refuses_mpmath_scaled_range():
    for man, exp in ((1, 3499), (1, -3501), (3, -3502)):  # 2^3500, 2^-3500, 3 * 2^-3502
        assert constants.digit_string(man, exp, 20) == _nstr(man, exp, 20)
    for man, exp in ((1, 3500), (1, -3502), (2 ** 40 + 1, 3461)):
        with pytest.raises(ValueError, match="outside"):
            constants.digit_string(man, exp, 20)


def test_integral_tails_match_mpmath():
    """At lmax = 63416 and 90171 libm's math.log(8 * lmax) is one ulp off
    mpmath's 53-bit log, and the two integral terms move with it.  At the five
    lmax of _MPMATH_LOW_LOGS mpmath's 53-bit log is one ulp below the
    correctly rounded one, and the helper keeps mpmath's bits."""
    low = sorted(top // 8 for top in constants._MPMATH_LOW_LOGS)
    assert low == [1332935, 4182031, 4608279, 5685027, 6973398]
    with mpmath.workprec(53):
        for lmax in (63416, 90171, *low):
            top = 8 * lmax
            log_top = mpmath.log(top)
            want = float(16 / (mpmath.sqrt(top) * log_top)), float(2 / (top ** 2 * log_top))
            assert constants._integral_tails(top) == want, lmax
            if lmax in low:
                rounded = float(Decimal(top).ln(Context(prec=40)))
                assert float(log_top) == math.nextafter(rounded, 0), lmax


# c * pi^k as the mpf expressions that built each constant's prefactor
_MPMATH_PREFACTOR = {0: mpmath.mpf, -1: lambda c: c / mpmath.pi, -2: lambda c: c / mpmath.pi ** 2}


def _oracle_product(lmax, digits, prefactor, factor):
    """The plain loops behind ``_euler_product``: one mpf operation per factor,
    and each tail added term by term (not ``sum()``, which Python 3.12
    compensates)."""
    primes = sieve_primes(8 * lmax).tolist()
    head = [p for p in primes if p <= lmax]
    tail = [p for p in primes if p > lmax]
    conjectural = 0
    c, k = prefactor
    with mpmath.workdps(digits + 15):
        acc = _MPMATH_PREFACTOR[k](c)
        for ell in head:
            num, den, conj = factor(ell)
            frac = Fraction(num, den)
            conjectural += conj
            acc *= mpmath.mpf(frac.numerator) / frac.denominator
        value = +acc
    cons = emp = 0.0
    for p in tail:
        cons += 8.0 / p ** 1.5
    for p in tail:
        emp += 4.0 / p ** 3
    log_l = mpmath.log(8 * lmax)
    cons += float(16 / (mpmath.sqrt(8 * lmax) * log_l))
    emp += float(2 / ((8 * lmax) ** 2 * log_l))
    return value._mpf_, head[-1], cons, emp, conjectural


_KIND_ARGS = (("pair", 1, -2), ("same-trace", 3, None), ("universal", None, None),
              ("single", -2, None))
_DIGITS = (1, 15, 50, 120)


@pytest.mark.parametrize("lmax", [2, 3, 2000, 300_000])
def test_euler_product_matches_plain_loops(monkeypatch, lmax):
    """Bit for bit, on the mpf tuple: a reversed product order, fewer guard
    digits or a pairwise tail sum all fail here.  lmax = 300000 has tail
    primes above 2^21, whose cubes pass 2^63; it runs each kind at one of the
    digit counts, the smaller ones every pair."""
    seen = []
    real = constants._euler_product

    def spy(lmax, digits, prefactor, factor):
        seen.append((prefactor, factor))
        return real(lmax, digits, prefactor, factor)

    monkeypatch.setattr(constants, "_euler_product", spy)
    if lmax < 300_000:
        cases = [(kind, digits) for kind in _KIND_ARGS for digits in _DIGITS]
    else:
        cases = list(zip(_KIND_ARGS, _DIGITS))
    for (kind, t1, t2), digits in cases:
        est = _estimate(kind, t1, t2, lmax, digits)
        prefactor, factor = seen.pop()
        got = (_mpf(est)._mpf_, est.truncation_prime, est.tail_conservative,
               est.tail_empirical, est.conjectural_factors)
        assert got == _oracle_product(lmax, digits, prefactor, factor), (kind, lmax, digits)
        assert float(est) == float(_mpf(est)), (kind, lmax, digits)


def test_euler_product_reduces_wide_numerators_before_rounding(monkeypatch):
    """Same-trace at digits = 1 has factor numerators wider than the working
    precision from ell ~ 650 on, some of them not in lowest terms; only the
    reduced numerator rounds as the Fraction's does."""
    seen = []
    real = constants._euler_product

    def spy(lmax, digits, prefactor, factor):
        seen.append((prefactor, factor))
        return real(lmax, digits, prefactor, factor)

    monkeypatch.setattr(constants, "_euler_product", spy)
    est = same_trace_constant(3, 1000, 1)
    prefactor, factor = seen.pop()
    prec = constants.working_precision(1)
    factors = [factor(ell)[:2] for ell in sieve_primes(1000).tolist()]
    assert any(num.bit_length() > prec and math.gcd(num, den) > 1 for num, den in factors)
    got = (_mpf(est)._mpf_, est.truncation_prime, est.tail_conservative,
           est.tail_empirical, est.conjectural_factors)
    assert got == _oracle_product(1000, 1, prefactor, factor)


def _normalized(man, exp):
    zeros = (man & -man).bit_length() - 1
    return man >> zeros, exp + zeros


def test_prefactor_matches_mpmath_pi():
    """The integer pi behind each prefactor is mpmath's, rounding for rounding,
    at every digit count up to 200 and at seeded draws up to DIGITS_BOUND."""
    rng = random.Random(17)
    draws = sorted(rng.sample(range(201, DIGITS_BOUND + 1), 50), reverse=True)
    for digits in [*range(1, 201), DIGITS_BOUND, *draws]:
        prec = constants.working_precision(digits)
        assert prec == dps_to_prec(digits + 15), digits
        with mpmath.workdps(digits + 15):
            for c, k in ((1, 0), (2, -1), (1, -2)):
                _, man, exp, _ = (c / mpmath.pi ** -k)._mpf_
                got = _normalized(*constants._prefactor(c, k, prec))
                assert got == (man, exp), (digits, c, k)


def test_integer_roundings_match_libmp():
    """Half-even roundings of products and quotients, ties included, agree
    with libmp's correctly rounded mpf_mul and mpf_div."""
    rng = random.Random(5)
    for _ in range(3000):
        prec = rng.randint(1, 120)
        a = rng.getrandbits(rng.randint(1, 200)) | 1
        b = rng.getrandbits(rng.randint(1, 200)) | 1
        if rng.random() < 0.3:  # prec + 1 bits ending in 1, times a power of 2: a tie
            a = 1 << prec | rng.getrandbits(prec - 1) << 1 | 1
            b = 1 << rng.randint(0, 8)
        _, man, exp, _ = mpf_mul(from_int(a), from_int(b), prec, round_nearest)
        assert _normalized(*constants._round(a * b, 0, prec)) == (man, exp), (a, b, prec)
        _, man, exp, _ = mpf_div(from_int(a), from_int(b), prec, round_nearest)
        assert _normalized(*constants._round_quotient(a, b, 0, prec)) == (man, exp), (a, b, prec)
