"""Hot numeric kernels in numpy.

All kernels stay within int64: moduli are capped by the callers (unit budget
1e8), traces are reduced mod ell^k before they are squared, closed-form
matrix counts never exceed ~4e16, and cubes in the trace kernel are reduced
mod p before the next multiply.
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# prime sieve
# ---------------------------------------------------------------------------

def _simple_sieve(limit):
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def sieve(limit, segment=1 << 22):
    """All primes <= limit, ascending; segments of the given length above sqrt(limit)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    root = math.isqrt(limit)
    base = _simple_sieve(root)
    if limit <= root:
        return base
    chunks = [base]
    low = root + 1
    while low <= limit:
        high = min(low + segment, limit + 1)
        mask = np.ones(high - low, dtype=bool)
        for p in base:
            start = max(p * p, ((low + p - 1) // p) * p)
            if start < high:
                mask[start - low :: p] = False
        chunks.append((np.flatnonzero(mask) + low).astype(np.int64))
        low = high
    return np.concatenate(chunks)


# ---------------------------------------------------------------------------
# brute-force matrix count: #{(a,b,c) mod q : a(t-a) - bc = u mod q}
# ---------------------------------------------------------------------------

def m_brute(t, u, q):
    b = np.arange(q, dtype=np.int64)
    prods = (b[:, None] * b[None, :]) % q
    bc_counts = np.bincount(prods.ravel(), minlength=q)
    a = np.arange(q, dtype=np.int64)
    need = (a * ((t - a) % q) - u) % q
    return int(bc_counts[need].sum())


# ---------------------------------------------------------------------------
# batch closed-form matrix counts m(t, u; ell^k) for units u in [u_lo, u_hi)
# ---------------------------------------------------------------------------

def m_values(t, ell, k, u_lo, u_hi):
    """(units, codes, values) with m(t, u; ell^k) = values[code] for each unit u.

    A code packs the capped valuation n of D = t^2 - 4u and the residue key
    of ``matcount._case``: code = 2n + [D/ell^n is a square mod ell] for odd
    ell, code = 8n + (D/2^n mod 8) for ell = 2.  ``values`` depends only on
    (ell, k), so codes of two traces can be histogrammed jointly.
    """
    from .matcount import _case  # imported here: matcount imports this module

    t %= ell ** k
    u = np.arange(u_lo, u_hi, dtype=np.int64)
    u = u[u % ell != 0]
    cap = k if ell > 2 else k + 2
    width = 2 if ell > 2 else 8
    rem = t * t - 4 * u
    n = np.zeros(u.shape, dtype=np.int64)
    for _ in range(cap):  # D = 0 divides every time and reaches the cap
        hit = rem % ell == 0
        if not hit.any():
            break
        n += hit
        rem = np.where(hit, rem // ell, rem)
    if ell > 2:
        square = np.zeros(ell, dtype=np.int64)
        square[(np.arange(1, ell, dtype=np.int64) ** 2) % ell] = 1
        key = square[rem % ell]
    else:
        key = rem % 8
    values = np.array(
        [_case(nn, kk, ell, k)[1] for nn in range(cap + 1) for kk in range(width)],
        dtype=np.int64,
    )
    return u, width * n + key, values


# ---------------------------------------------------------------------------
# class numbers h(D) of imaginary quadratic orders via reduced forms
# ---------------------------------------------------------------------------

def class_number(D):
    absd = -D
    h = 0
    bmax = math.isqrt(absd // 3)
    for b in range(absd % 2, bmax + 1, 2):
        n4 = (b * b + absd) // 4
        amax = math.isqrt(n4)
        a = np.arange(max(b, 1), amax + 1, dtype=np.int64)
        if a.size == 0:
            continue
        divs = a[n4 % a == 0]
        if divs.size == 0:
            continue
        c = n4 // divs
        prim = np.gcd(np.gcd(divs, b), c) == 1
        divs, c = divs[prim], c[prim]
        weights = np.where((b == 0) | (divs == b) | (divs == c), 1, 2)
        h += int(weights.sum())
    return h


def class_number_batch(discs):
    return np.array([class_number(int(D)) for D in discs], dtype=np.int64)


# ---------------------------------------------------------------------------
# Frobenius traces a_p for y^2 = x^3 + a x + b via quadratic-character sums
# ---------------------------------------------------------------------------

def trace_batch(a, b, primes):
    out = np.empty(len(primes), dtype=np.int64)
    for i, p in enumerate(primes):
        p = int(p)
        x = np.arange(p, dtype=np.int64)
        chi = np.full(p, -1, dtype=np.int64)
        chi[(x[1:] * x[1:]) % p] = 1
        chi[0] = 0
        rhs = ((x * x % p) * x + a * x + b) % p
        out[i] = -int(chi[rhs].sum())
    return out
