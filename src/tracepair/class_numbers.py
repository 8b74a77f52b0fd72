"""Class numbers of imaginary quadratic orders and their Kronecker-weighted sums.

h(D) counts primitive reduced binary quadratic forms (a, b, c) of discriminant
D < 0: b = D mod 2, |b| <= a <= c, gcd(a, b, c) = 1, and b >= 0 when |b| = a
or a = c.  The weighted invariants sum h over the divisors of the conductor,
plainly and divided by the unit-group order w.

This is the per-discriminant route, for D > -2^34 (larger |D| is rejected
before any work).  Its kernel counts the forms a-first from the square roots
of D mod 4a, on Python ints in O(sqrt|D|) steps up to a log factor, and loads
no numpy.  It serves the class-number and gekeler commands and the verify
checks, with a process-wide memo keyed by D.  The prime sums of
``prime_stats`` read a table of all Hurwitz numbers instead
(``prime_stats.hurwitz_table``), checked against this route.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import divisors, legendre_symbol, odd_primes

# |D| must be below this.  The kernel takes 0.15 s at |D| = 2^34 - 4 (a
# `class-number` job 0.25-0.46 s, 2 cores), and split_discriminant walks the
# conductors down from sqrt|D| one at a time.  Every gekeler discriminant
# t^2 - 4p lies inside, since |t^2 - 4p| < 4p < 2^33.
CLASS_NUMBER_D_BOUND = 1 << 34

_H_CACHE = {}  # h(D) by D, and ClassData by ("kronecker", D): one reset clears both


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


def _sqrt_mod_prime(n, p):
    """A square root of the quadratic residue n mod the odd prime p (Tonelli-Shanks)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    r, t = pow(n, (q + 1) // 2, p), pow(n, q, p)
    if t != 1:
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c = pow(z, q, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (s - i - 1), p)
            c = b * b % p
            r, t, s = r * b % p, t * c % p, i
    return r


def _lift(D, roots, step, p, modulus):
    """The x = r + j*step (r in roots, 0 <= j < p) with x^2 = D (mod modulus)."""
    return [x for r in roots for x in range(r, r + p * step, step) if (x * x - D) % modulus == 0]


def _odd_roots(D, p, q, memo):
    """The roots of b^2 = D mod q = p^e, odd p, memoized by q: a square root
    mod p, or 0 when p | D, lifted one power at a time."""
    if q not in memo:
        if q > p:
            memo[q] = _lift(D, _odd_roots(D, p, q // p, memo), q // p, p, q)
        elif D % p:
            r = _sqrt_mod_prime(D % p, p)
            memo[q] = [r, p - r]
        else:
            memo[q] = [0]
    return memo[q]


def _class_number(D):
    """h(D) by counting reduced forms a-first, from the square roots of D mod 4a.

    For each a <= sqrt(|D|/3), the b of the forms (a, b, c) are the roots of
    b^2 = D (mod 4a).  b^2 mod 4a depends only on b mod 2a, so (-a, a] holds
    each root class once, and the roots in [0, a] stand for b and -b with the
    weights 1 (b = 0, b = a or a = c) and 2.  The roots mod 2a come by CRT
    from those mod 2^(v+1) (of b^2 = D mod 2^(v+2), 2^v || a) and mod each odd
    p^e || a (``_odd_roots``).  An a with an odd prime p, (D/p) = -1, has no
    roots and is dropped by a sieve first.  A common factor of a, b and c
    divides D; so when 4a^2 < |D| (every c exceeds a) and gcd(a, D) = 1, the
    count is the number of roots, 2 per odd prime of a, and no root is formed.
    """
    amax = math.isqrt(-D // 3)
    spf = [0] * (amax + 1)  # smallest odd prime factor of each odd n <= amax
    alive = bytearray(b"\x01") * (amax + 1)
    alive[0] = 0
    for p in sorted(odd_primes(amax), reverse=True):
        spf[p::p] = [p] * len(range(p, amax + 1, p))
        if legendre_symbol(D, p) == -1:
            alive[p::p] = bytes(len(range(p, amax + 1, p)))
    two = [[D & 1]]  # two[v]: roots mod 2^(v+1) of b^2 = D (mod 2^(v+2))
    while len(two) < amax.bit_length():
        v = len(two)
        two.append(_lift(D, two[-1], 1 << v, 2, 4 << v))
    odd_roots = {}
    alim = math.isqrt((-D - 1) // 4)  # 4a^2 < |D| for a <= alim
    h = 0
    for a in itertools.compress(range(amax + 1), alive):
        v = (a & -a).bit_length() - 1
        roots, mod, n = two[v], 2 << v, a >> v
        if a <= alim and math.gcd(a, D) == 1:
            k = 0
            while n > 1:
                p = spf[n]
                n //= p
                while n % p == 0:
                    n //= p
                k += 1
            h += len(roots) << k
            continue
        while n > 1 and roots:
            p = spf[n]
            q = p
            n //= p
            while n % p == 0:
                n //= p
                q *= p
            inv, local = pow(mod, -1, q), _odd_roots(D, p, q, odd_roots)
            roots = [r + mod * ((s - r) * inv % q) for r in roots for s in local]
            mod *= q
        for b in roots:
            if b > a:
                continue
            c = (b * b - D) // (4 * a)
            if c >= a and math.gcd(a, b, c) == 1:
                h += 1 if (b == 0 or b == a or a == c) else 2
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
    """ClassData with both conductor-divisor sums computed together, memoized by D."""
    key = ("kronecker", D)
    if key not in _H_CACHE:
        split = split_discriminant(D)
        hk = 0
        hw = Fraction(0)
        for fp in divisors(split.f):
            d = fp * fp * split.D0
            h = class_number_h(d)
            hk += h
            hw += Fraction(h, unit_count_w(d))
        _H_CACHE[key] = ClassData(split, class_number_h(D), unit_count_w(D), hk, hw)
    return _H_CACHE[key]


def hurwitz_weighted(D):
    """The unit-weighted conductor sum H(D) alone, as an exact Fraction."""
    return hurwitz_kronecker(D).hw
