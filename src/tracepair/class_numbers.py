"""Class numbers of imaginary quadratic orders and their Kronecker-weighted sums.

h(D) counts primitive reduced binary quadratic forms (a, b, c) of discriminant
D < 0: b = D mod 2, |b| <= a <= c, gcd(a, b, c) = 1, and b >= 0 when |b| = a
or a = c.  A reduced form of content g is g times a primitive reduced form of
D/g^2, and g divides the conductor f of D.  So the number of all reduced
forms is HK(D), the sum of h(D/f'^2) over the divisors f' of f, and their
count with the weight 1/w(D/g^2) of each is H(D), the sum of h/w (Cohen's
Hurwitz number, GTM 138, 5.3, halved).  One pass gives h, f, HK and H.

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
from fractions import Fraction
from typing import NamedTuple

from .arith import euler_criterion, legendre_symbol, odd_primes

# |D| must be below this.  The kernel takes 0.12-0.22 s at |D| = 2^34 - 4 and
# 0.13-0.23 s at D = -3 * 60060^2 (a `class-number` job 0.22-0.36 s at either,
# 2 cores).  Every gekeler discriminant t^2 - 4p lies inside, since
# |t^2 - 4p| < 4p < 2^33.
CLASS_NUMBER_D_BOUND = 1 << 34

_H_CACHE = {}  # ClassData by D


class ClassData(NamedTuple):
    D: int
    D0: int      # fundamental discriminant, D = f^2 * D0
    f: int       # conductor
    h: int
    w: int
    hk: int      # sum of h over the conductor divisors: every reduced form
    hw: Fraction  # the same sum weighted by 1/w: H(D)


def _check_discriminant(D):
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"D must be negative and 0 or 1 mod 4, got {D}")
    if -D >= CLASS_NUMBER_D_BOUND:
        raise ValueError(f"|D| must be below 2^34, got {D}")


def _sqrt_mod_prime(n, p):
    """A square root of the quadratic residue n mod the odd prime p (Tonelli-Shanks)."""
    if n % p == 0:
        return 0  # t below would be 0, which no squaring takes to 1
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    r, t = pow(n, (q + 1) // 2, p), pow(n, q, p)
    if t != 1:
        z = 2
        while euler_criterion(z, p) != -1:
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


def _reduced_forms(D):
    """(h, hk, f): the primitive and all reduced forms of D counted, and their
    largest content, a-first from the square roots of D mod 4a.

    For each a <= sqrt(|D|/3), the b of the forms (a, b, c) are the roots of
    b^2 = D (mod 4a).  b^2 mod 4a depends only on b mod 2a, so (-a, a] holds
    each root class once, and the roots in [0, a] stand for b and -b with the
    weights 1 (b = 0, b = a or a = c) and 2.  Each form adds its weight to hk,
    and the primitive ones to h too.  The roots mod 2a come by CRT from those
    mod 2^(v+1) (of b^2 = D mod 2^(v+2), 2^v || a) and mod each odd p^e || a
    (``_odd_roots``).  An a with an odd prime p, (D/p) = -1, has no roots and
    is dropped by a sieve first.  A common factor of a, b and c divides D; so
    when 4a^2 < |D| (every c exceeds a) and gcd(a, D) = 1, the count is the
    number of roots, 2 per odd prime of a, and no root is formed.  Every
    content divides the conductor f, and f times the principal form of D/f^2
    is reduced, so the largest content is f.
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
    h = hk = 0
    f = 1
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
            hk += len(roots) << k
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
            if c < a:
                continue
            weight = 1 if (b == 0 or b == a or a == c) else 2
            hk += weight
            g = math.gcd(a, b, c)
            if g == 1:
                h += weight
            elif g > f:
                f = g
    return h, hk, f


def class_number_h(D):
    """Number of primitive reduced forms of discriminant D < 0."""
    return hurwitz_kronecker(D).h


def unit_count_w(D):
    """Order of the unit group: 6 at D = -3, 4 at D = -4, else 2."""
    _check_discriminant(D)
    if D == -3:
        return 6
    if D == -4:
        return 4
    return 2


def hurwitz_kronecker(D):
    """ClassData of D from one count of its reduced forms, memoized by D."""
    _check_discriminant(D)
    if D not in _H_CACHE:
        h, hk, f = _reduced_forms(D)
        D0 = D // (f * f)
        # every form weighs 1/2 in H, but f(1, 0, 1) (D0 = -4) 1/4 and f(1, 1, 1) (D0 = -3) 1/6
        hw = Fraction(6 * hk - 3 * (D0 == -4) - 4 * (D0 == -3), 12)
        _H_CACHE[D] = ClassData(D, D0, f, h, unit_count_w(D), hk, hw)
    return _H_CACHE[D]


def hurwitz_weighted(D):
    """The unit-weighted conductor sum H(D) alone, as an exact Fraction."""
    return hurwitz_kronecker(D).hw
