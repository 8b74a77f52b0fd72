"""Prime averages: local density products over p, and the weighted
class-number sums whose partial sums grow like a constant times loglog x.

Partial sums accumulate exact rationals per prime and convert to floats only
at checkpoints, so results are independent of cache state and block order.
The h(D) cache is a CSV (``D,h`` header) read tolerantly and written
atomically; a 1 percent sample of loaded entries is recomputed each run.
"""

import csv
import math
import os
import random
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels, class_numbers
from .arith import divisors, sieve_primes
from .class_numbers import hurwitz_weighted, split_discriminant
from .gekeler import f_ell
from .local import local_limit

CHECKPOINTS_DEFAULT = (1_000, 3_000, 10_000, 30_000, 100_000)


def average_f_product(t1, t2, ell, x):
    """Mean of f_ell(t1, p) f_ell(t2, p) over p <= x, with its exact limit.

    Returns (average, reference) where reference is the local Euler factor
    the average converges to.
    """
    if x < 10:
        raise ValueError("x must be >= 10")
    primes = sieve_primes(x)
    total = 0.0
    for p in primes:
        p = int(p)
        if p == ell:
            continue
        total += float(f_ell(t1, p, ell)) * float(f_ell(t2, p, ell))
    reference = local_limit(t1, t2, ell).c_ell
    return total / len(primes), reference


@dataclass
class CheckpointSeries:
    t1: int
    t2: int
    checkpoints: list  # (x, partial_sum: float, loglog_x: float)
    exact_partials: list  # Fractions aligned with checkpoints
    cache_stats: dict = field(default_factory=dict)


def _load_cache(path):
    entries = {}
    try:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                try:
                    entries[int(row["D"])] = int(row["h"])
                except (KeyError, TypeError, ValueError):
                    continue
    except OSError:
        return {}
    return entries


def _save_cache(path, entries):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["D", "h"])
            for d in sorted(entries):
                writer.writerow([d, entries[d]])
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _spot_check_cache(entries, fraction=0.01, seed=0):
    if not entries:
        return 0
    rng = random.Random(seed)
    keys = sorted(entries)
    sample = rng.sample(keys, max(1, int(len(keys) * fraction)))
    for d in sample:
        if _kernels.class_number(d) != entries[d]:
            raise ValueError(f"cache entry for D={d} disagrees with recomputation")
    return len(sample)


def class_sum(t1, t2, x, checkpoints=None, cache=None, workers=1):
    """Partial sums of H(t1^2-4p) H(t2^2-4p) / p^2 over the primed range.

    The primed range is p > max(3, t1^2/4, t2^2/4), which keeps both
    discriminants negative.  The default checkpoint ladder is clipped to x;
    explicitly passed checkpoints outside (threshold, x] are rejected.
    """
    lo = max(3.0, t1 * t1 / 4.0, t2 * t2 / 4.0)
    if x < lo + 1:
        raise ValueError(f"x must be at least {lo + 1} for traces ({t1}, {t2})")
    if checkpoints is None:
        checkpoints = [c for c in CHECKPOINTS_DEFAULT if lo < c <= x]
    checkpoints = sorted(set(int(c) for c in checkpoints) | {int(x)})
    if any(c > x for c in checkpoints):
        raise ValueError("checkpoints must not exceed x")
    if any(c <= lo for c in checkpoints[:-1]):
        raise ValueError(f"checkpoints must exceed the primed-range threshold {lo}")

    stats = {"hits": 0, "misses": 0, "spot_checked": 0}
    if cache:
        loaded = _load_cache(cache)
        stats["spot_checked"] = _spot_check_cache(loaded, seed=hash((t1, t2)) & 0xFFFF)
        class_numbers.cache_preload(loaded)

    primes = sieve_primes(x)
    primes = primes[primes > lo]

    # batch-compute every class number the sum will need
    needed = set()
    per_prime_discs = []
    for p in primes:
        p = int(p)
        row = []
        for t in (t1, t2):
            d = t * t - 4 * p
            split = split_discriminant(d)
            row.append(d)
            for fp in divisors(split.f):
                needed.add(fp * fp * split.D0)
        per_prime_discs.append(row)
    known = class_numbers.cache_snapshot()
    todo = sorted(d for d in needed if d not in known)
    stats["hits"] = len(needed) - len(todo)
    stats["misses"] = len(todo)
    if todo:
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            blocks = [todo[i :: workers] for i in range(workers)]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_kernels.class_number_batch, blocks))
            for block, hs in zip(blocks, results):
                class_numbers.cache_preload(dict(zip(block, (int(h) for h in hs))))
        else:
            hs = _kernels.class_number_batch(todo)
            class_numbers.cache_preload(dict(zip(todo, (int(h) for h in hs))))

    acc = Fraction(0)
    series = []
    exacts = []
    ci = 0
    for p, (d1, d2) in zip(primes, per_prime_discs):
        p = int(p)
        while ci < len(checkpoints) and p > checkpoints[ci]:
            _record(series, exacts, checkpoints[ci], acc)
            ci += 1
        acc += hurwitz_weighted(d1) * hurwitz_weighted(d2) / (p * p)
    while ci < len(checkpoints):
        _record(series, exacts, checkpoints[ci], acc)
        ci += 1

    if cache:
        _save_cache(cache, class_numbers.cache_snapshot())
    return CheckpointSeries(t1, t2, series, exacts, stats)


def _record(series, exacts, cx, acc):
    series.append((cx, float(acc), math.log(math.log(cx))))
    exacts.append(acc)


@dataclass(frozen=True)
class SlopeFit:
    c_hat: float
    intercept: float
    residual: float


def slope_fit(series):
    """Ordinary least squares of partial sums against loglog x."""
    if len(series.checkpoints) < 3:
        raise ValueError("slope fit needs at least 3 checkpoints")
    xs = np.array([llx for _, _, llx in series.checkpoints])
    ys = np.array([s for _, s, _ in series.checkpoints])
    if np.ptp(xs) == 0:
        raise ValueError("degenerate abscissae")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return SlopeFit(float(slope), float(intercept), resid)
