"""Frobenius traces for short-Weierstrass curves and trace-pair prime counts.

Traces come from Shanks-Mestre baby-step giant-step point counting, run on
blocks of primes in lockstep (O(p^(1/4)) group operations per prime, numpy
kernel), with the O(p) quadratic-character sum for p <= 229 and for the rare
prime no start point settles.  Primes must be below 2^31, which only
``trace_ap`` checks; p = 2 and 3 are excluded throughout, which changes
counting functions by O(1).

A trace-pair count needs a_p only where it may equal the target t, so
``pair_count`` first sieves the primes with one scalar multiplication each
(``_trace_sieve``): c P != O for the candidate group order c that a_p = t
would give proves a_p != t.  Only the survivors, a few in a hundred primes
for a generic curve, reach the BSGS kernel, which confirms each exactly.
"""

import math
from typing import NamedTuple

import numpy as np

from .arith import check_prime, sieve_primes

# ``pair_count``'s x must not exceed this.  One fresh `curves` job took 3.4 s
# and 65 MB at x = 1e7 and 38 s and 344 MB at x = 1e8; ``good_primes`` holds
# one Python int per prime, so x near 2^31 would need ~7 GB (extrapolated).
PAIR_X_BOUND = 10 ** 8
_MESTRE_BOUND = 229  # above it, E or its twist has a point that settles #E (Mestre)
_BSGS_BLOCK = 1024  # primes per lockstep block; bounds the scratch arrays
_BSGS_STARTS = 8  # start values tried before a prime goes to the character sum
_START_STEP = 0x9E3779B1  # start x = t * step mod p: far from the small x of torsion points


def _residues(c, primes):
    """c mod p for each prime, on Python ints so that any c is exact."""
    return np.array([c % p for p in primes.tolist()], dtype=np.int64)


def _powmod(base, e, p):
    """base^e mod p elementwise for int64 arrays, per-prime exponents e >= 0.

    Every product is of two residues, so p must be below 2^31.
    """
    result = np.ones_like(base)
    e = e.copy()
    while e.any():
        result = np.where(e & 1, result * base % p, result)
        base = base * base % p
        e >>= 1
    return result


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


def _start_point(a, b, p, start):
    """(px, py, A, chi, clean): the start point P of ``start`` >= 1 on E_d, per prime.

    With x0 = start * _START_STEP mod p and d = f(x0) = x0^3 + a x0 + b != 0,
    the point P = (d x0, d^2) lies on E_d: y^2 = x^3 + A x + b d^3, A = a d^2,
    which is E when d is a square mod p and its quadratic twist otherwise, so
    #E_d = p + 1 - chi(d) a_p, with chi = d^((p-1)/2) mod p (1 or p - 1).
    ``clean`` is False where d = 0; there d is replaced by 1 and P means nothing.
    """
    ar, br = _residues(a, p), _residues(b, p)
    x0 = start * _START_STEP % p
    d = ((x0 * x0 % p) * x0 + ar * x0 + br) % p
    clean = d != 0
    d = np.where(clean, d, 1)
    py = d * d % p
    return d * x0 % p, py, ar * py % p, _powmod(d, (p - 1) // 2, p), clean


def _bsgs_block(a, b, p, t):
    """(a_p, resolved) for one block of primes p > 229 from start value t >= 1.

    P on E_d is ``_start_point``'s, so #E_d = p + 1 - chi(d) a_p.  Baby steps
    jP (j = 1..m) and giant steps (c + i(2m+1)) P, c = lo + m, find every k
    in the Hasse interval [lo, hi] = p + 1 -+ floor(2 sqrt p) with kP = O.
    A prime is resolved only when there is exactly one such k: #E_d lies in
    the interval and kills P, so then #E_d = k.  Every product is of two
    residues below p < 2^31, hence below 2^62.
    """
    B = p.size
    px, py, A, chi, clean = _start_point(a, b, p, t)
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
    The primes are not checked: below 2^31, each product of two residues mod
    p (the coefficients reduced as Python ints) stays below 2^62 in int64.
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


def _trace_sieve(a, b, primes, t):
    """The primes of the array at which a_p of y^2 = x^3 + ax + b may equal t.

    A prime is dropped only with a proof that a_p != t: t^2 > 4p (Hasse), or
    c P != O for ``_start_point``'s P on E_d and c = p + 1 - chi(d) t.  By
    Lagrange #E_d P = O, and #E_d = c exactly when a_p = t.  ``_multiply``
    leaves Z != 0 only when every step was an exact group operation, so
    Z != 0 means c P != O.  A prime with d = 0 has no start point and stays.
    One scalar multiplication per prime, in blocks of ``_BSGS_BLOCK``; the
    survivors still need ``trace_batch``.
    """
    primes = np.asarray(primes, dtype=np.int64)
    if not primes.size or t * t > 4 * int(primes.max()):
        return primes[:0]  # no prime can reach t, which then need not fit in int64
    primes = primes[t * t <= 4 * primes]
    keep = np.empty(primes.size, dtype=bool)
    for start in range(0, primes.size, _BSGS_BLOCK):
        p = primes[start : start + _BSGS_BLOCK]
        px, py, A, chi, clean = _start_point(a, b, p, 1)
        c = p + 1 - np.where(chi == 1, t, -t)
        keep[start : start + p.size] = ~clean | (_multiply(c, px, py, A, p)[2] == 0)
    return primes[keep]


class _Coefficients(NamedTuple):
    a: int
    b: int


class Curve(_Coefficients):
    """y^2 = x^3 + ax + b with a nonzero discriminant; ``_make`` and
    ``_replace`` check it too."""

    __slots__ = ()

    def __new__(cls, a, b):
        curve = super().__new__(cls, a, b)
        if curve.disc == 0:
            raise ValueError("singular curve: discriminant is zero")
        return curve

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def disc(self):
        return -16 * (4 * self.a ** 3 + 27 * self.b ** 2)

    def good_reduction(self, p):
        return p > 3 and self.disc % p != 0


def trace_ap(curve, p):
    """a_p = p + 1 - #E(F_p) for a good prime 5 <= p < 2^31."""
    check_prime(p, "p")  # ~5 ms at 2^31, less than the BSGS call
    if not curve.good_reduction(p):
        raise ValueError(f"p = {p} is not a good prime for {curve}")
    ap = int(trace_batch(curve.a, curve.b, [p])[0])
    assert ap * ap <= 4 * p
    return ap


def point_count_brute(curve, p):
    """#E(F_p) by direct point enumeration, including infinity; test oracle."""
    cnt = 1
    squares = {}
    for y in range(p):
        squares.setdefault(y * y % p, 0)
        squares[y * y % p] += 1
    for x in range(p):
        rhs = (x * x * x + curve.a * x + curve.b) % p
        cnt += squares.get(rhs, 0)
    return cnt


def good_primes(x, *curves):
    """Primes 5 <= p <= x of good reduction for every given curve, as int64.

    A prime divides some discriminant iff it divides their product, which is
    tested on Python ints, so the discriminants may have any size.
    """
    primes = sieve_primes(x)
    primes = primes[primes >= 5]
    disc = math.prod(c.disc for c in curves)
    return primes[[disc % p != 0 for p in primes.tolist()]]


def pair_count(e1, e2, t1, t2, x, list_primes=False, prediction_lmax=None):
    """#{5 <= p <= x : good for both, a_p(e1) = t1 and a_p(e2) = t2}, for
    5 <= x <= ``PAIR_X_BOUND``.

    The good primes pass ``_trace_sieve`` for (e1, t1), its survivors the one
    for (e2, t2), and ``trace_batch`` then gives the exact a_p of both curves
    at the primes left.  The sieve is sound: it drops p only when t^2 > 4p
    (Hasse) or when c P != O, where P is a point of E_d, E or its quadratic
    twist by d, and c = p + 1 - chi(d) t is what #E_d would be if a_p = t.
    Since #E_d P = O (Lagrange), c P != O proves #E_d != c, that is a_p != t.
    So no matching prime is lost, and every listed prime is confirmed
    exactly.  When t1^2 > 4x or t2^2 > 4x no prime p <= x can match, and the
    count 0 comes without any sieve or kernel work.

    Optionally attaches the generic-image prediction
    ``model_sim.expected_hits(c, good primes, t1, t2)``; that value assumes
    the joint mod-m image is as large as possible, which this module never
    checks, so it carries an explicit caveat flag.
    """
    if not 5 <= x <= PAIR_X_BOUND:
        raise ValueError(f"x must be in [5, {PAIR_X_BOUND}], got {x}")
    if prediction_lmax is not None:
        from .constants import pair_constant
        from .model_sim import expected_hits

        c = pair_constant(t1, t2, prediction_lmax)  # rejects a bad lmax before the sweep
    if max(t1 * t1, t2 * t2) > 4 * x:  # Hasse: no prime p <= x reaches such a trace
        good = matched = np.empty(0, dtype=np.int64)
    else:
        good = matched = good_primes(x, e1, e2)
        for e, t in ((e1, t1), (e2, t2)):
            matched = _trace_sieve(e.a, e.b, matched, t)
        for e, t in ((e1, t1), (e2, t2)):  # the exact traces confirm every survivor
            matched = matched[trace_batch(e.a, e.b, matched) == t]
    out = {"count": len(matched), "x": int(x)}
    if list_primes:
        out["matched_primes"] = [int(p) for p in matched]
    if prediction_lmax is not None:
        out["prediction"] = expected_hits(float(c), good, t1, t2)
        out["prediction_assumes_generic_image"] = True
    return out
