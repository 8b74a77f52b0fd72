"""Seeded Monte Carlo realization of the trace-pair measure at a finite level.

Per prime p, an integer pair inside the open Hasse square is drawn from the
measure proportional to w(u1) w(u2) F[u1 mod m, u2 mod m], where w is the
semicircle weight sqrt(1 - u^2/4p) and F is m^2 times ``class_density(m)``,
the exact table of class densities of the full equal-determinant pair group
at level m (the largest image the joint mod-m representation can have;
curve-specific smaller images are out of scope here).  Each run carries F.
Sampling is two-stage: pick the class pair by its total mass, then each
coordinate by inverse CDF inside its class.  Per-prime normalization is
exact, so the measure's leading constant never appears.

Streams: prime index i uses the Philox4x64-10 stream keyed (seed, i), making
runs bit-reproducible for any evaluation order or block size.  The keys are
those of one ``np.random.Philox(key=(seed, i))`` per prime; the draws are made
in blocks of primes (``philox_uniforms``, ``_sample_block``), and the tests
keep a per-prime loop as their oracle.  The seed lies in [0, 2^64);
``ModelConfig`` states the bounds of m and n_max.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import prime_factors, sieve_primes
from .matcount import PrimePower, delta_group_size, m_values


# keeps class_density's sums S(t1, t2; q) <= 2.25 q^5 and their products over
# the prime powers of m exact in int64 (all below 2^35), its table within ~1.4 MB
MODEL_LEVEL_BOUND = 128
# a fresh `simulate --n 10000000` job took 52 s at m = 2 and 122 s at m = 128
# (2 cores, 58-59 MB); time grows about like n^1.4, so the sieve's 2e9 ~ a day
MODEL_N_BOUND = 10 ** 7
_BLOCK_ELEMENTS = 1 << 17  # grid cells per block of primes; bounds the scratch arrays
_DRAW_CHUNK = 1 << 14  # Philox keys drawn per kernel call

# Philox4x64-10 works in uint64, where sums and products wrap mod 2^64 as the
# generator defines them.
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


class _Settings(NamedTuple):
    m: int
    n_max: int
    seed: int
    t1: int
    t2: int


class ModelConfig(_Settings):
    """One sampler run: level 2 <= m <= ``MODEL_LEVEL_BOUND`` (128), primes
    5 <= p <= n_max <= ``MODEL_N_BOUND`` (10^7), seed in [0, 2^64), and the
    target pair (t1, t2).

    m is checked first, then the seed, then n_max; ``_make`` and ``_replace``
    check them too.
    """

    __slots__ = ()

    def __new__(cls, m, n_max, seed, t1, t2):
        if not 2 <= m <= MODEL_LEVEL_BOUND:
            raise ValueError(f"level m must be in [2, {MODEL_LEVEL_BOUND}], got {m}")
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2^64), got {seed}")
        if not 5 <= n_max <= MODEL_N_BOUND:
            raise ValueError(f"n_max must be in [5, {MODEL_N_BOUND}], got {n_max}")
        return super().__new__(cls, m, n_max, seed, t1, t2)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SampleRun(NamedTuple):
    config: ModelConfig
    primes: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    class_counts: np.ndarray  # m x m, counts of (u1 mod m, u2 mod m)
    weights: np.ndarray       # m x m floats F = m^2 * class_density(m), each rounded once


def class_density(m):
    """Exact m x m table: [r1][r2] is |equal-det pairs with traces (r1, r2)| / |all|.

    At each prime power q of m, row t of v lists m(t, u; q) over the units u, so
    v @ v.T holds every S(t1, t2; q); a cell is the product over q of
    S(r1, r2; q) / ``delta_group_size`` (CRT).
    """
    if not 2 <= m <= MODEL_LEVEL_BOUND:
        raise ValueError(f"level m must be in [2, {MODEL_LEVEL_BOUND}], got {m}")
    numerator = np.ones((m, m), dtype=np.int64)
    denominator = 1
    for ell, k in prime_factors(m):
        q = ell ** k
        v = np.array([values[codes] for _, codes, values in
                      (m_values(t, ell, k, 1, q) for t in range(q))])
        r = np.arange(m) % q
        numerator *= (v @ v.T)[np.ix_(r, r)]
        denominator *= delta_group_size(PrimePower(ell, k))
    return [[Fraction(n, denominator) for n in row] for row in numerator.tolist()]


def _grid_columns(m, umax):
    """Columns R of the (m, R) grid that starts at -m * ceil(umax / m) and covers umax."""
    return -(-umax // m) + umax // m + 1


def _block_size(m, n_max):
    """Primes per block: B * max(R * m, m^2) stays within ``_BLOCK_ELEMENTS``."""
    width = _grid_columns(m, math.isqrt(4 * n_max - 1)) * m
    return max(1, _BLOCK_ELEMENTS // max(width, m * m))


def class_cdf(primes, m):
    """(lo, cdf): semicircle weights of ascending primes, summed up along each class mod m.

    The integers u lie on one grid of shape (m, R) from lo, a multiple of m,
    so row r holds the u = r (mod m) in ascending order.  Outside a prime's
    open Hasse range 1 - u^2/4p <= 0, and it is clipped to 0 before the
    square root.  The cumulative sums along each row equal the scalar
    route's sums from 0 in ascending u: cdf[:, r] is the in-class CDF of
    class r, and cdf[:, r, -1] its mass.
    """
    top = math.isqrt(4 * int(primes[-1]) - 1)
    lo = -m * -(-top // m)  # the multiple of m at or below -top
    u = lo + np.arange(m)[:, None] + m * np.arange(_grid_columns(m, top))
    # in place throughout: fresh block-sized temporaries cost page faults
    cdf = u.astype(np.float64) ** 2 / (4.0 * primes.astype(np.float64))[:, None, None]
    np.subtract(1.0, cdf, out=cdf)
    np.maximum(cdf, 0.0, out=cdf)
    np.sqrt(cdf, out=cdf)
    np.cumsum(cdf, axis=2, out=cdf)  # (B, m, R)
    return lo, cdf


def _sample_block(primes, draws, m, fweight):
    """Draw (u1, u2) for a block of ascending primes with the prime's three draws:
    the class pair by its mass in the ``fweight``-weighted joint CDF, then u1
    and u2 inside their classes.

    Counting the entries <= x of a ``class_cdf`` row reproduces
    ``searchsorted(side="right")``.
    """
    B = primes.shape[0]
    umax = np.floor(np.sqrt(4.0 * primes - 1)).astype(np.int64)  # exact: 4p < 2^52
    lo, cdf = class_cdf(primes, m)
    m1 = np.ascontiguousarray(cdf[:, :, -1])
    joint = m1[:, :, None] * m1[:, None, :]
    joint *= fweight
    flat = joint.reshape(B, m * m)
    np.cumsum(flat, axis=1, out=flat)
    idx = np.count_nonzero(flat <= (draws[:, 0] * flat[:, -1])[:, None], axis=1)
    r1, r2 = np.divmod(np.minimum(idx, m * m - 1), m)
    rows = np.arange(B)
    out = []
    for r, x in ((r1, draws[:, 1]), (r2, draws[:, 2])):
        # leading pads hold 0 and always count, so the count is a grid column
        count = np.count_nonzero(cdf[rows, r] <= (x * m1[rows, r])[:, None], axis=1)
        last = (umax - lo - r) // m  # column of the class's largest member
        out.append(lo + np.minimum(count, last) * m + r)
    return out


def sample_run(config):
    """Draw one trace-pair sequence; deterministic given config.seed."""
    m = config.m
    fweight = np.array([[float(m * m * d) for d in row] for row in class_density(m)])
    primes = sieve_primes(config.n_max)
    primes = primes[primes >= 5]
    n = primes.shape[0]
    out1 = np.empty(n, dtype=np.int64)
    out2 = np.empty(n, dtype=np.int64)
    step = _block_size(m, config.n_max)
    for chunk in range(0, n, _DRAW_CHUNK):
        stop = min(chunk + _DRAW_CHUNK, n)
        draws = philox_uniforms(config.seed, stop - chunk, chunk)
        for start in range(chunk, stop, step):
            end = min(start + step, stop)
            out1[start:end], out2[start:end] = _sample_block(
                primes[start:end], draws[start - chunk : end - chunk], m, fweight
            )
    cc = np.bincount((out1 % m) * m + (out2 % m), minlength=m * m).reshape(m, m)
    return SampleRun(config, primes, out1, out2, cc, fweight)


class GrowthCheck(NamedTuple):
    hits: int
    predicted: float
    ratio: float | None


def expected_hits(constant, primes, t1, t2):
    """Expected count of the primes with traces (t1, t2): constant * sum(1/p).

    Each prime p carries the pair with probability about constant / p, so
    the sum runs over the int64 ``primes`` that can carry both
    traces, t1^2 < 4p and t2^2 < 4p (Hasse), and uses sum(1/p) instead of
    loglog x, which removes the Mertens-constant offset at desk scale.
    """
    primes = primes[4 * primes > max(t1 * t1, t2 * t2)]
    return constant * float(np.sum(1.0 / primes.astype(np.float64)))


def growth_check(run, upto=None):
    """The run's exact-trace hits against the finite-level prediction
    ``expected_hits(weight / pi^2, ...)`` over the sampled primes <= upto."""
    config = run.config
    n_cut = upto if upto is not None else config.n_max
    sel = run.primes <= n_cut
    hits = int(np.count_nonzero((run.u1[sel] == config.t1) & (run.u2[sel] == config.t2)))
    weight = float(run.weights[config.t1 % config.m, config.t2 % config.m])
    predicted = expected_hits(weight / math.pi ** 2, run.primes[sel], config.t1, config.t2)
    ratio = hits / predicted if predicted > 0 else None
    return GrowthCheck(hits, predicted, ratio)


def _semicircle_cdf(x):
    x = min(1.0, max(-1.0, x))
    return (x * math.sqrt(1.0 - x * x) + math.asin(x)) / 2.0


def rectangle_mass_exact(a, b, c, d):
    """Joint semicircle mass of [a,b) x [c,d) inside [-1,1]^2."""
    return (
        4.0
        / math.pi ** 2
        * (_semicircle_cdf(b) - _semicircle_cdf(a))
        * (_semicircle_cdf(d) - _semicircle_cdf(c))
    )


def rectangle_mass_empirical(run, a, b, c, d):
    """Fraction of normalized samples falling in [a,b) x [c,d)."""
    scale = 1.0 / (2.0 * np.sqrt(run.primes.astype(np.float64)))
    x = run.u1 * scale
    y = run.u2 * scale
    inside = (x >= a) & (x < b) & (y >= c) & (y < d)
    return float(np.count_nonzero(inside)) / run.primes.shape[0]
