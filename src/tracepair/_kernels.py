"""Hot numeric kernels in numpy.

All kernels stay within int64: moduli are capped by the callers (unit budget
1e8), traces are reduced mod ell^k before they are squared, and closed-form
matrix counts never exceed ~4e16.  The per-discriminant class number takes
|D| < 2^34 (``CLASS_NUMBER_D_BOUND``).  int64 would allow 2^62, but its
reduced-form loop does O(|D|) work: 9 s at |D| = 2^34 on a 2-core machine,
so a bound near 2^62 admits inputs that never finish.  Every gekeler
discriminant t^2 - 4p lies inside, since |t^2 - 4p| < 4p < 2^33.  The
Frobenius-trace kernel needs primes p < 2^31 (``TRACE_P_BOUND``): curve
coefficients are reduced mod p as Python ints, and every product it forms is
of two residues, so below 2^62.  The Philox kernel works in uint64, where
sums and products wrap mod 2^64 as the generator defines them.  The
Euler-product tail sums take primes below 2^53, which are exact in float64.
"""

import itertools
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


_SEGMENT = 1 << 22  # integers per sieve segment above sqrt(limit)


def sieve(limit):
    """All primes <= limit, ascending; segmented above sqrt(limit)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    root = math.isqrt(limit)
    base = _simple_sieve(root)
    if limit <= root:
        return base
    chunks = [base]
    low = root + 1
    while low <= limit:
        high = min(low + _SEGMENT, limit + 1)
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

    Each pass of the valuation loop visits only the units whose D is still
    divisible by ell, and D, the codes and the keys are formed in place.
    """
    from .matcount import _case  # imported here: matcount imports this module

    t %= ell ** k
    if ell == 2:
        u = np.arange(u_lo | 1, u_hi, 2, dtype=np.int64)
    else:
        u = np.arange(u_lo, u_hi, dtype=np.int64)
        u = u[u % ell != 0]
    cap = k if ell > 2 else k + 2
    width = 2 if ell > 2 else 8
    rem = u * -4
    rem += t * t
    n = np.zeros(u.shape, dtype=np.int64)
    active = np.flatnonzero(rem % ell == 0)
    for _ in range(cap):  # D = 0 divides every time and reaches the cap
        if not active.size:
            break
        n[active] += 1
        rem[active] //= ell
        active = active[rem[active] % ell == 0]
    if ell > 2:
        square = np.zeros(ell, dtype=np.int64)
        square[(np.arange(1, ell, dtype=np.int64) ** 2) % ell] = 1
        rem %= ell
        rem = square[rem]
    else:
        rem %= 8
    n *= width
    n += rem
    values = np.array(
        [_case(nn, kk, ell, k)[1] for nn in range(cap + 1) for kk in range(width)],
        dtype=np.int64,
    )
    return u, n, values


# ---------------------------------------------------------------------------
# class numbers via reduced forms: h(D) for one D, 6 H(n) for all n <= N
# ---------------------------------------------------------------------------

CLASS_NUMBER_D_BOUND = 1 << 34  # class_number takes |D| below this; see the module docstring


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


def hurwitz_table(N):
    """int64 array T with T[n] = 6 H(n) for 0 <= n <= N, so hurwitz_weighted(-n) = T[n]/12.

    H(n) counts every reduced form (a, b, c) with 4ac - b^2 = n, primitive or
    not (Cohen, GTM 138, 5.3): weight 1 for an ordinary form, 1/2 for
    (a, 0, a), 1/3 for (a, a, a).  For fixed (a, b) the n run through a
    progression of step 4a in c.  Viewed as rows of width 4a, n = 4a (c - k) +
    col with k = ceil(b^2 / 4a), so every row past a holds one form of each b:
    one broadcast adds them all, and only the forms with c <= a + k are counted
    one by one.  O(N^(3/2)) in total, bounded by memory traffic.
    """
    T = np.zeros(N + 1, dtype=np.int32)  # 6 H(n) < 2^31 far beyond any table that fits in memory
    for a in range(1, math.isqrt(N // 3) + 1):
        step = 4 * a
        b = np.arange(a + 1, dtype=np.int64)
        k = -(-b * b // step)
        col = step * k - b * b
        w_more = np.where((b == 0) | (b == a), 6, 12)  # c > a: b and -b, or b alone if b = 0 or a
        w_equal = np.where(b == 0, 3, np.where(b == a, 2, 6))  # c = a: (a,0,a), (a,a,a), b > 0
        # c = a .. a + k, all below n = 4a (a + 1): form by form; distinct b can share an n
        lo, hi = 3 * a * a, min(step * (a + 1), N + 1)
        which = np.repeat(b, k + 1)
        j = np.arange(which.size) - np.repeat(np.cumsum(k + 1) - (k + 1), k + 1)
        n = step * (a + j) - which * which
        w = np.where(j == 0, w_equal[which], w_more[which])
        keep = n < hi
        T[lo:hi] += np.bincount(n[keep] - lo, w[keep], hi - lo).astype(np.int32)
        # c > a + k: the same vector of width 4a on every row from n = 4a (a + 1) on
        if hi <= N:
            row = np.bincount(col, w_more, step).astype(np.int32)
            rows = (N + 1 - hi) // step
            end = hi + rows * step
            block = T[hi:end].reshape(rows, step)
            block += row
            T[end:] += row[: N + 1 - end]
    return T.astype(np.int64)


# ---------------------------------------------------------------------------
# Frobenius traces a_p for y^2 = x^3 + a x + b
# ---------------------------------------------------------------------------

TRACE_P_BOUND = 1 << 31  # trace_batch needs every prime below this
_MESTRE_BOUND = 229  # above it, E or its twist has a point that settles #E (Mestre)
_BSGS_BLOCK = 1024  # primes per lockstep block; bounds the scratch arrays
_BSGS_STARTS = 8  # start values tried before a prime goes to the character sum
_START_STEP = 0x9E3779B1  # start x = t * step mod p: far from the small x of torsion points


def _residues(c, primes):
    """c mod p for each prime, on Python ints so that any c is exact."""
    return np.array([c % p for p in primes.tolist()], dtype=np.int64)


def _trace_charsum(a, b, primes):
    """a_p = -sum_x chi(x^3 + ax + b): O(p) per prime; oracle for ``trace_batch``."""
    primes = np.asarray(primes, dtype=np.int64)
    out = np.empty(len(primes), dtype=np.int64)
    for i, (p, ar, br) in enumerate(zip(primes.tolist(), _residues(a, primes).tolist(),
                                        _residues(b, primes).tolist())):
        x = np.arange(p, dtype=np.int64)
        square = np.zeros(p, dtype=bool)
        square[x[1 : (p + 1) // 2] ** 2 % p] = True
        rhs = ((x * x % p + ar) * x + br) % p
        out[i] = np.count_nonzero(rhs) - 2 * np.count_nonzero(square[rhs])
    return out


def _powmod(base, e, p):
    """base^e mod p elementwise, for per-prime exponents e >= 0."""
    result = np.ones_like(base)
    e = e.copy()
    while e.any():
        result = np.where(e & 1, result * base % p, result)
        base = base * base % p
        e >>= 1
    return result


def _double(X, Y, Z, A, p):
    """2(X:Y:Z) in Jacobian coordinates on y^2 = x^3 + Ax + B; Z = 0 stays 0."""
    XX = X * X % p
    YY = Y * Y % p
    ZZ = Z * Z % p
    S = 4 * (X * YY % p) % p
    M = (3 * XX + A * (ZZ * ZZ % p)) % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * ((S - X3) % p) - 8 * (YY * YY % p)) % p
    return X3, Y3, 2 * (Y * Z % p) % p


def _add_affine(X1, Y1, Z1, x2, y2, p):
    """(X1:Y1:Z1) + (x2, y2) in Jacobian coordinates.

    Z3 = 0 exactly when the first summand is O or shares its x with the
    second (true sum O, or a doubling these formulas cannot do), and O stays
    O, so a nonzero Z certifies every step that led to it.
    """
    Z1Z1 = Z1 * Z1 % p
    H = (x2 * Z1Z1 - X1) % p
    r = (y2 * (Z1 * Z1Z1 % p) - Y1) % p
    HH = H * H % p
    HHH = H * HH % p
    V = X1 * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    Y3 = (r * ((V - X3) % p) - Y1 * HHH) % p
    return X3, Y3, Z1 * H % p


def _multiply(c, x, y, A, p):
    """c (x, y) in Jacobian coordinates, left-to-right double-and-add; c >= 1."""
    X, Y, Z = x, y, np.ones_like(p)
    started = np.zeros(p.shape, dtype=bool)
    for bit in range(int(c.max()).bit_length() - 1, -1, -1):
        on = (c >> bit) & 1 == 1
        D = _double(X, Y, Z, A, p)
        DP = _add_affine(*D, x, y, p)
        X, Y, Z = (np.where(started, np.where(on, dp, d), r) for d, dp, r in zip(D, DP, (X, Y, Z)))
        started |= on
    return X, Y, Z


def _to_affine(X, Y, Z, p):
    """Affine (x, y) of (n, B) Jacobian arrays, one modular inversion per prime
    (Montgomery's trick along axis 0); entries with Z = 0 come out as garbage."""
    Z = np.where(Z == 0, 1, Z)
    zinv = np.empty_like(Z)  # prefix products first, overwritten from the top down
    acc = np.ones_like(p)
    for i in range(Z.shape[0]):
        acc = acc * Z[i] % p
        zinv[i] = acc
    inv = _powmod(acc, p - 2, p)
    for i in range(Z.shape[0] - 1, 0, -1):
        zinv[i] = inv * zinv[i - 1] % p
        inv = inv * Z[i] % p
    zinv[0] = inv
    del Z  # in place from here on: these (n, B) arrays set the kernel's peak memory
    zz = zinv * zinv % p
    x = X * zz % p
    zz *= zinv
    zz %= p
    zz *= Y
    zz %= p
    return x, zz


def _bsgs_block(a, b, p, t):
    """(a_p, resolved) for one block of primes p > 229 from start value t >= 1.

    With d = f(x0) = x0^3 + a x0 + b != 0, the point P = (d x0, d^2) lies on
    E_d: y^2 = x^3 + a d^2 x + b d^3, which is E when d is a square mod p and
    its quadratic twist otherwise, so #E_d = p + 1 - chi(d) a_p.  Baby steps
    jP (j = 1..m) and giant steps (c + i(2m+1)) P, c = lo + m, find every k
    in the Hasse interval [lo, hi] = p + 1 -+ floor(2 sqrt p) with kP = O.
    A prime is resolved only when there is exactly one such k: #E_d lies in
    the interval and kills P, so then #E_d = k.  Every product is of two
    residues below p < 2^31, hence below 2^62.
    """
    B = p.size
    ar, br = _residues(a, p), _residues(b, p)
    x0 = t * _START_STEP % p
    d = ((x0 * x0 % p) * x0 + ar * x0 + br) % p
    clean = d != 0
    d = np.where(clean, d, 1)
    px, py = d * x0 % p, d * d % p
    A = ar * py % p
    chi = _powmod(d, (p - 1) // 2, p)
    r = np.array([math.isqrt(4 * q) for q in p.tolist()], dtype=np.int64)
    lo, hi = p + 1 - r, p + 1 + r
    m = math.isqrt(int(r.max())) + 1  # balances m baby steps against ~2r/(2m+1) giant steps
    s = 2 * m + 1
    giants = 2 * r // s + 1  # giant steps per prime that cover [lo, hi]

    # baby steps; all jP != O with distinct x and y != 0 certify ord(P) > 2m,
    # so each k below is found once, from the unique baby j with x(jP) = x(giant)
    BX, BY, BZ = (np.empty((m, B), dtype=np.int64) for _ in range(3))
    BX[0], BY[0], BZ[0] = px, py, 1
    BX[1], BY[1], BZ[1] = _double(px, py, BZ[0], A, p)  # m >= 2 as r >= 2
    for j in range(2, m):
        BX[j], BY[j], BZ[j] = _add_affine(BX[j - 1], BY[j - 1], BZ[j - 1], px, py, p)
    clean &= (BZ != 0).all(axis=0)
    # the stride S = sP = 2(mP) + P, affine, for the giant steps below
    SX, SY, SZ = _add_affine(*_double(BX[m - 1], BY[m - 1], BZ[m - 1], A, p), px, py, p)
    clean &= SZ != 0
    sx, sy = (v[0] for v in _to_affine(SX[None], SY[None], SZ[None], p))
    bx, by = _to_affine(BX, BY, BZ, p)
    del BX, BY, BZ
    clean &= (by != 0).all(axis=0)
    row = np.arange(B, dtype=np.int64)
    bkey = (bx + (row << 32)).ravel()  # index j * B + row
    order = np.argsort(bkey)
    bkey = bkey[order]
    clean[order[1:][bkey[1:] == bkey[:-1]] % B] = False

    # giant steps G_i = (c + i s) P, c = lo + m.  A step that reaches O is the
    # hit k = c + i s (j = 0) and restarts the chain at S, whose next step is
    # a doubling; so below, Z = 0 at i > 0 always means O.
    n = int(giants.max())
    GX, GY, GZ = (np.empty((n, B), dtype=np.int64) for _ in range(3))
    X, Y, Z = _multiply(lo + m, px, py, A, p)
    clean &= Z != 0  # cP = O, or a doubling the multiply could not do
    ZZ = Z * Z % p
    at_s = (X == sx * ZZ % p) & (Y == sy * (ZZ * Z % p) % p)
    GX[0], GY[0], GZ[0] = X, Y, Z
    for i in range(1, n):
        X, Y, Z = _add_affine(X, Y, Z, sx, sy, p)
        if at_s.any():
            X[at_s], Y[at_s], Z[at_s] = _double(sx[at_s], sy[at_s], 1, A[at_s], p[at_s])
        GX[i], GY[i], GZ[i] = X, Y, Z
        at_s = Z == 0
        X, Y, Z = np.where(at_s, sx, X), np.where(at_s, sy, Y), np.where(at_s, 1, Z)
    gx, gy = _to_affine(GX, GY, GZ, p)
    del GX, GY

    gkey = np.where(GZ == 0, -1, gx + (row << 32)).ravel()  # index i * B + row
    pos = np.minimum(np.searchsorted(bkey, gkey), bkey.size - 1)
    gidx = np.flatnonzero(bkey[pos] == gkey)
    bidx = order[pos[gidx]]
    same = gy.ravel()[gidx] == by.ravel()[bidx]  # giant = jP, else giant = -jP
    zi, zrow = np.nonzero(GZ[1:] == 0)
    i = np.concatenate([gidx // B, zi + 1])
    rows = np.concatenate([gidx % B, zrow])
    j = np.concatenate([np.where(same, -1, 1) * (bidx // B + 1), np.zeros_like(zi)])
    k = lo[rows] + m + i * s + j
    inside = k <= hi[rows]
    rows, k = rows[inside], k[inside]
    resolved = clean & (np.bincount(rows, minlength=B) == 1)
    group_order = np.zeros(B, dtype=np.int64)
    group_order[rows] = k
    ap = p + 1 - group_order
    return np.where(chi == 1, ap, -ap), resolved


def trace_batch(a, b, primes):
    """a_p of y^2 = x^3 + ax + b at each prime 5 <= p < 2^31 of good reduction.

    Primes p > 229 are counted by baby-step giant-step in lockstep blocks,
    O(p^(1/4)) group operations per prime; a prime that no start value
    resolves, and every p <= 229, goes to the character sum.  Each output is
    exact: a prime counts as resolved only when the group order is certain.
    """
    primes = np.asarray(primes, dtype=np.int64)
    out = np.empty(primes.size, dtype=np.int64)
    pending = np.flatnonzero(primes > _MESTRE_BOUND)
    for t in range(1, _BSGS_STARTS + 1):
        left = []
        for start in range(0, pending.size, _BSGS_BLOCK):
            idx = pending[start : start + _BSGS_BLOCK]
            ap, ok = _bsgs_block(a, b, primes[idx], t)
            out[idx[ok]] = ap[ok]
            left.append(idx[~ok])
        pending = np.concatenate(left) if left else pending
    rest = np.concatenate([np.flatnonzero(primes <= _MESTRE_BOUND), pending])
    out[rest] = _trace_charsum(a, b, primes[rest])
    return out


# ---------------------------------------------------------------------------
# Philox4x64-10 uniforms
# ---------------------------------------------------------------------------

_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key bumps (Weyl sequence)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(x, c):
    """(hi, lo) 64-bit halves of x * c for uint64 x and a constant c < 2^64."""
    c_lo, c_hi = np.uint64(c & 0xFFFFFFFF), np.uint64(c >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    ll, lh, hl = x_lo * c_lo, x_lo * c_hi, x_hi * c_lo
    cross = (ll >> _SHIFT32) + (lh & _LOW32) + (hl & _LOW32)
    hi = x_hi * c_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (cross >> _SHIFT32)
    return hi, x * np.uint64(c)


def philox_uniforms(seed, n, start=0):
    """First three doubles of Philox4x64-10 keyed (seed, i), for start <= i < start + n.

    Row j equals ``np.random.Generator(np.random.Philox(key=[seed, start + j])).random(3)``:
    one block at counter 1 (numpy bumps the counter before its first block),
    each word x read as (x >> 11) * 2^-53.  ``seed`` and the keys i are in [0, 2^64).
    """
    key1 = np.arange(start, start + n, dtype=np.uint64)
    x0 = np.ones(n, dtype=np.uint64)
    x1 = np.zeros(n, dtype=np.uint64)
    x2 = np.zeros(n, dtype=np.uint64)
    x3 = np.zeros(n, dtype=np.uint64)
    for r in range(10):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) & 0xFFFFFFFFFFFFFFFF)
        k1 = key1 + np.uint64(r * _PHILOX_W[1] & 0xFFFFFFFFFFFFFFFF)
        hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(x2, _PHILOX_M[1])
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    words = np.stack([x0, x1, x2], axis=1)
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


# ---------------------------------------------------------------------------
# Euler-product tails: sums of 8/p^1.5 and 4/p^3 over primes
# ---------------------------------------------------------------------------

_EXACT_SQUARE = math.isqrt(2 ** 53)  # p^2 is exact in float64 up to this p


def tail_sums(primes):
    """(sum of 8.0 / p ** 1.5, sum of 4.0 / p ** 3) over a non-empty ascending int64 array.

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
