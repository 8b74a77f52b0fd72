"""Prime averages: local density products over p, and the weighted
class-number sums whose partial sums grow like a constant times loglog x.

The class-number sums read every H(t^2 - 4p) from one table of Hurwitz class
numbers up to 4x, built by enumerating reduced forms.  The float at each
checkpoint is certified from a fixed-point sum: every term is floored to a
multiple of 2^-K / 144 (K = ``FIXED_POINT_BITS``), so the exact partial sum
lies in an interval of n such steps after n terms, and when both ends of the
interval round to one float, that float is the correctly rounded sum (Ziv's
test, ACM TOMS 17, 1991), the float of the reduced Fraction.  Otherwise the
checkpoint takes the exact sum.  Exact sums are added by binary splitting
into unreduced integer pairs (A, B), whose quotient A / B CPython rounds
correctly, only on that fallback or when ``exact_partials`` is read; so no
CLI job forms the multi-megabit integers, and reducing them (a gcd, ~13 s at
x = 1e6) waits for a reader of the Fractions.
"""

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import sieve_primes

CHECKPOINTS_DEFAULT = (1_000, 3_000, 10_000, 30_000, 100_000)
CLASS_SUM_X_BOUND = 2_000_000  # class_sum's Hurwitz table holds 4x + 1 int32 entries
FIXED_POINT_BITS = 160  # class_sum floors each term to a multiple of 2^-160 / 144


def average_f_product(t1, t2, ell, x):
    """Mean of f_ell(t1, p) f_ell(t2, p) over p <= x, with its exact limit.

    Returns (average, reference) where reference is the local Euler factor
    the average converges to.  The p = ell term is 0 but p = ell still counts
    in the denominator.  The terms are summed left to right (``cumsum``, not
    the pairwise ``sum``), so the float equals that of a plain per-prime loop.
    """
    from .gekeler import f_ell_floats  # loads class_numbers, which class_sum does not need
    from .closed_forms import local_limit

    if x < 10:
        raise ValueError("x must be >= 10")
    primes = sieve_primes(x)
    terms = f_ell_floats(t1, primes, ell) * f_ell_floats(t2, primes, ell)
    terms[primes == ell] = 0.0
    reference = local_limit(t1, t2, ell).c_ell
    return float(np.cumsum(terms)[-1]) / len(primes), reference


class CheckpointSeries(NamedTuple):
    t1: int
    t2: int
    checkpoints: list  # (x, partial_sum: float, loglog_x: float)
    num: object  # int64 array: the term at primes[i] is num[i] / (144 primes[i]^2)
    primes: object  # int64 array of the primed range up to x
    stops: list  # the number of terms up to each checkpoint

    @property
    def exact_partials(self):
        """The partial sums as reduced Fractions, added when read."""
        return [Fraction(a, b) for a, b in _running_sums(self.num, self.primes, self.stops)]


def hurwitz_table(N):
    """int32 array T with T[n] = 6 H(n) for 0 <= n <= N, so hurwitz_weighted(-n) = T[n]/12.

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
    return T


def _split_sum(num, den):
    """(P, Q) with P/Q = sum(num[i] / den[i]) and Q = prod(den), unreduced.

    Binary splitting (Haible & Papanikolaou, ANTS 1998): neighbours merge
    pairwise, so every big multiplication has operands of equal size.
    """
    P = np.array(num, dtype=object)
    Q = np.array(den, dtype=object)
    if P.size == 0:
        return 0, 1
    while P.size > 1:
        if P.size % 2:
            P, Q = np.append(P, 0), np.append(Q, 1)
        P, Q = P[0::2] * Q[1::2] + P[1::2] * Q[0::2], Q[0::2] * Q[1::2]
    return int(P[0]), int(Q[0])


def _running_sums(num, primes, stops):
    """Unreduced (A, B) with A / B the sum of num[i] / (144 primes[i]^2) over i < stop,
    for each stop in turn; each segment is added by ``_split_sum``."""
    squares = primes.astype(object) ** 2
    A, B = 0, 1
    start = 0
    for stop in stops:
        P, Q = _split_sum(num[start:stop], squares[start:stop])
        Q *= 144
        A, B = A * Q + P * B, B * Q
        yield A, B
        start = stop


def _threshold(t1, t2):
    return max(3.0, t1 * t1 / 4.0, t2 * t2 / 4.0)


def checkpoint_ladder(t1, t2, x, checkpoints=None):
    """The ascending checkpoints ``class_sum`` reports for these arguments, x last.

    Checks x and the ladder as ``class_sum`` does, and builds nothing.
    """
    lo = _threshold(t1, t2)
    if x < lo + 1:
        raise ValueError(f"x must be at least {lo + 1} for traces ({t1}, {t2})")
    if x > CLASS_SUM_X_BOUND:
        raise ValueError(f"x must not exceed {CLASS_SUM_X_BOUND}, got {x}")
    if checkpoints is None:
        checkpoints = [c for c in CHECKPOINTS_DEFAULT if lo < c <= x]
    checkpoints = sorted(set(int(c) for c in checkpoints) | {int(x)})
    if any(c > x for c in checkpoints):
        raise ValueError("checkpoints must not exceed x")
    if any(c <= lo for c in checkpoints[:-1]):
        raise ValueError(f"checkpoints must exceed the primed-range threshold {lo}")
    return checkpoints


def class_sum(t1, t2, x, checkpoints=None):
    """Partial sums of H(t1^2-4p) H(t2^2-4p) / p^2 over the primed range.

    The primed range is p > max(3, t1^2/4, t2^2/4), which keeps both
    discriminants negative.  x may not exceed ``CLASS_SUM_X_BOUND`` (2e6):
    the Hurwitz table holds 4x + 1 int32 entries, 32 MB at the bound.  The
    default checkpoint ladder is clipped to x; explicitly passed checkpoints
    outside (threshold, x] are rejected (``checkpoint_ladder``).

    Each checkpoint's float is the correctly rounded partial sum, certified
    from the fixed-point sum of the floored terms (module docstring); a
    checkpoint whose interval straddles a rounding boundary takes the float of
    the exact sum.  ``exact_partials`` adds the exact sums when it is read.
    """
    checkpoints = checkpoint_ladder(t1, t2, x, checkpoints)
    primes = sieve_primes(x)
    primes = primes[primes > _threshold(t1, t2)]
    table = hurwitz_table(4 * int(x))
    # hurwitz_weighted(t^2 - 4p) = table[4p - t^2] / 12, so each term is num / (144 p^2),
    # multiplied in int64: the int32 entries are small, their product can pass 2^31
    num = table[4 * primes - t1 * t1].astype(np.int64) * table[4 * primes - t2 * t2]
    stops = np.searchsorted(primes, checkpoints, side="right").tolist()

    bits = FIXED_POINT_BITS
    scale = 144 << bits
    exact = _running_sums(num, primes, stops)  # runs only on a fallback
    taken = 0  # exact sums read from it
    S = 0  # sum of floor(num * 2^bits / p^2): the exact sum is in [S, S + stop) / scale
    series = []
    start = 0
    for i, (cx, stop) in enumerate(zip(checkpoints, stops)):
        S += sum((a << bits) // (p * p)
                 for a, p in zip(num[start:stop].tolist(), primes[start:stop].tolist()))
        s = S / scale
        if s != (S + stop) / scale:  # the interval straddles a rounding boundary
            A, B = next(itertools.islice(exact, i - taken, None))
            taken = i + 1
            s = A / B
        series.append((cx, s, math.log(math.log(cx))))
        start = stop
    return CheckpointSeries(t1, t2, series, num, primes, stops)


class SlopeFit(NamedTuple):
    c_hat: float
    intercept: float
    residual: float


def check_fit_size(n):
    """Refuse a slope fit over fewer than 3 checkpoints."""
    if n < 3:
        raise ValueError(f"slope fit needs at least 3 checkpoints, got {n}")


def slope_fit(series):
    """Ordinary least squares of partial sums against loglog x."""
    check_fit_size(len(series.checkpoints))
    xs = np.array([llx for _, _, llx in series.checkpoints])
    ys = np.array([s for _, s, _ in series.checkpoints])
    if np.ptp(xs) == 0:
        raise ValueError("degenerate abscissae")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return SlopeFit(float(slope), float(intercept), resid)
