"""Modular-arithmetic primitives: symbols, valuations, primes, divisors.

Valuations use ``math.inf`` as the extended value at 0, so ``max`` and
comparisons behave as expected in the case dispatch downstream.  The one
prime sieve, ``odd_prime_segments``, runs on bytearrays; ``odd_primes``
reads Python ints from it and ``sieve_primes``, the one array function, an
int64 array.  ``sieve_primes`` imports numpy when it runs, so the scalar
functions and the Python-int primes load no numpy.
"""

import itertools
import math

INFINITY = math.inf

SIEVE_HARD_LIMIT = 2_000_000_000
# is_prime's trial division takes ~5 ms just below this; check_prime tests it first
TRIAL_DIVISION_BOUND = 1 << 31


def legendre_symbol(a, ell):
    """Legendre symbol (a|ell) for an odd prime ell, in {-1, 0, 1}.

    Computed by the quadratic-reciprocity reduction (binary Jacobi).
    ``euler_criterion`` below is the other route to the same symbol, and each
    is the other's oracle (verify's ``arith:legendre-euler-oracle``).  ell = 2
    and even ell are rejected; primality of an odd ell is the caller's
    responsibility.
    """
    if ell < 3 or ell % 2 == 0:
        raise ValueError(f"legendre_symbol needs an odd prime, got {ell}")
    a %= ell
    n = ell
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def euler_criterion(a, ell):
    """Legendre symbol (a|ell) via a^((ell-1)/2) mod ell, in {-1, 0, 1}.

    The second route to ``legendre_symbol``'s symbol; each is the other's
    oracle.  ell is checked as there.
    """
    if ell < 3 or ell % 2 == 0:
        raise ValueError(f"euler_criterion needs an odd prime, got {ell}")
    r = pow(a, ell >> 1, ell)  # pow reduces a mod ell first
    return -1 if r == ell - 1 else r


def padic_valuation(ell, n):
    """Largest e with ell^e | n; INFINITY for n = 0.  ell must be at least 2."""
    if ell < 2:
        raise ValueError(f"valuation needs ell >= 2, got {ell}")
    if n == 0:
        return INFINITY
    e = 0
    n = abs(n)
    while n % ell == 0:
        n //= ell
        e += 1
    return e


def nu_lk(t, u, ell, k):
    """Truncated valuation of D = t^2 - 4u used by the matrix-count cases.

    For odd ell, or ell = 2 with t odd: min(v_ell(D), k).  For ell = 2 with t
    even the cap is k + 2.
    """
    d = t * t - 4 * u
    cap = k + 2 if (ell == 2 and t % 2 == 0) else k
    return int(min(padic_valuation(ell, d), cap))


def alpha(t1, t2, ell):
    """max(v_ell(t1 + t2), v_ell(t1 - t2)); INFINITY iff t1 = +-t2."""
    return max(padic_valuation(ell, t1 + t2), padic_valuation(ell, t1 - t2))


def is_prime(n):
    """Primality by trial division; independent of the sieve, which it checks."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(n, name):
    """Reject n, called ``name`` in the error, unless it is a prime below 2^31.

    The bound is tested first, without ``is_prime``'s trial division.
    """
    if n >= TRIAL_DIVISION_BOUND:
        raise ValueError(f"{name} must be below 2^31, got {n}")
    if not is_prime(n):
        raise ValueError(f"{name} must be prime, got {n}")


_SEGMENT = 1 << 22  # integers per sieve segment; even


def odd_prime_segments(limit):
    """The odd primes <= limit as flags, one ``(lo, flags)`` per segment, ascending.

    ``flags[j]`` is 1 iff ``lo + 2j`` is prime; the segments cover the odd
    numbers 1, 3, ..., up to limit, ``_SEGMENT // 2`` of them per segment.
    Each segment is a fresh bytearray, with the multiples of every odd prime
    p <= sqrt(limit) cleared from p^2 on by one slice assignment (Bays &
    Hudson's segmented sieve, odd numbers only).  The limit is checked here;
    the segments are sieved as they are read.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit > SIEVE_HARD_LIMIT:
        raise ValueError(f"sieve limit {limit} exceeds the supported {SIEVE_HARD_LIMIT}")
    return _odd_segments(int(limit))


def _odd_segments(limit):
    root = math.isqrt(limit)
    base = [] if root < 3 else list(odd_primes(root))  # the primes that clear multiples
    half = _SEGMENT // 2
    for lo in range(1, limit + 1, 2 * half):
        size = min(half, (limit - lo) // 2 + 1)
        flags = bytearray(b"\x01") * size
        if lo == 1:
            flags[0] = 0
        hi = lo + 2 * size
        for p in base:
            square = p * p
            if square >= hi:
                break
            # the index of p^2, or of the first odd multiple of p at or above lo
            j = (square - lo) // 2 if square >= lo else (p - lo) // 2 % p
            flags[j::p] = bytes(len(range(j, size, p)))
        yield lo, flags


_RUN = 1 << 10  # flags that odd_primes reads against one list of offsets


def odd_primes(limit):
    """The odd primes <= limit as Python ints, ascending, read from ``odd_prime_segments``.

    Each run of up to ``_RUN`` flags selects from one list of the offsets 0,
    2, 4, ..., built once per call, and only the selected offsets become new
    ints: selecting from a range would build an int for every odd number.
    """
    segments = odd_prime_segments(limit)
    run = min(_RUN, int(limit) // 2 + 1)
    offsets = list(range(0, 2 * run, 2))
    return itertools.chain.from_iterable(
        map((lo + 2 * j).__add__, itertools.compress(offsets, flags[j:j + run]))
        for lo, flags in segments for j in range(0, len(flags), run))


def sieve_primes(limit):
    """All primes <= limit, ascending, as an int64 array read from ``odd_prime_segments``."""
    import numpy as np

    chunks = [np.array([2] if limit >= 2 else [], dtype=np.int64)]
    for lo, flags in odd_prime_segments(limit):
        chunk = np.flatnonzero(np.frombuffer(flags, np.uint8))
        chunk *= 2  # in place: temporaries left `curves` at x = 1e6 0.4 MB higher
        chunk += lo
        chunks.append(chunk)
    return np.concatenate(chunks)


def prime_factors(n):
    """[(p, e), ...] with n = prod p^e over ascending primes p, by trial division; n >= 1."""
    if n < 1:
        raise ValueError("prime_factors needs n >= 1")
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def divisors(n):
    """Sorted list of positive divisors of n >= 1."""
    if n < 1:
        raise ValueError("divisors needs n >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]
