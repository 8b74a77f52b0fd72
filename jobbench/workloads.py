"""Seeded job batches for the four workloads, and the boundary probes.

A job is the argument list of one ``tracepair`` CLI call, without the global
``--workers`` flag, which the runner adds.  Sizes are log-uniform over each
workload's range, one job per stratum near the stratum's centre, so that the
seed changes the inputs (curves, traces, sizes within a stratum, sample
seeds) but not the batch's total cost by much.
"""

import math
import random
from dataclasses import dataclass, field

NAMES = ("curves-sweep", "hurwitz-cold", "hurwitz-warm", "desk-mix")

# hurwitz-warm fills the cache to this x once per set-up; its jobs stay below.
WARM_FILL_X = 25_000
_LADDER = (1_000, 3_000, 10_000, 30_000)
_ODD, _EVEN = (-5, -3, -1, 1, 3, 5), (-6, -4, -2, 0, 2, 4, 6)


@dataclass(frozen=True)
class Job:
    kind: str                      # the CLI subcommand
    argv: tuple                    # CLI arguments after --workers
    info: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass(frozen=True)
class Probe:
    """A CLI call that hits a known defect; it passes once the defect is fixed.

    ``allowed`` lists the exit codes the CLI contract permits for this input:
    0 for a valid input that must be answered, 2 for a bad input that must be
    refused with one line on stderr.
    """

    name: str
    argv: tuple
    allowed: tuple


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _strata(rng, n, lo, hi, jitter=0.03):
    """n sizes log-uniform in [lo, hi], one per stratum, near its centre."""
    span = math.log(hi / lo)
    return [
        int(round(lo * math.exp(span * (i + 0.5 + rng.uniform(-jitter, jitter)) / n)))
        for i in range(n)
    ]


def _primes(lo, hi):
    return [p for p in range(max(lo, 2), hi + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def _ladder(x):
    return ",".join(str(c) for c in _LADDER if c < x)


def _args(*pairs):
    return tuple(str(v) for v in pairs)


# ---------------------------------------------------------------------------
# curves-sweep
# ---------------------------------------------------------------------------

def _nonsingular(a, b):
    return 4 * a ** 3 + 27 * b ** 2 != 0


def _curve(rng):
    while True:
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        if a * b != 0 and _nonsingular(a, b):
            return a, b


def _cm_curve(rng):
    c = rng.choice([v for v in range(-50, 51) if v])
    return (0, c) if rng.random() < 0.5 else (c, 0)


def _brute_trace(a, b, p):
    """a_p = -sum over x of the Legendre symbol of x^3 + ax + b."""
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    return p - sum(roots[(x * x * x + a * x + b) % p] for x in range(p))


def _good(curve, p):
    a, b = curve
    return (4 * a ** 3 + 27 * b ** 2) % p != 0


def _targets(rng, e1, e2, cm):
    """(t1, t2) with |t| <= 4 taken at a small prime, so the pair matches at least once."""
    small = _primes(5, 97)
    rng.shuffle(small)
    for p in small:
        if not (_good(e1, p) and _good(e2, p)):
            continue
        t1, t2 = _brute_trace(*e1, p), _brute_trace(*e2, p)
        if abs(t1) <= 4 and abs(t2) <= 4 and (t1 == 0 or not cm):
            return t1, t2
    return (0 if cm else rng.randint(-4, 4)), rng.randint(-4, 4)


def curves_sweep(seed, n=4):
    rng = _rng("curves-sweep", seed)
    jobs = []
    for i, x in enumerate(_strata(rng, n, 10_000, 50_000)):
        cm = i % 4 == 0  # CM first curve with t1 = 0: half the primes reach the second curve
        e1 = _cm_curve(rng) if cm else _curve(rng)
        e2 = _curve(rng)
        t1, t2 = _targets(rng, e1, e2, cm)
        argv = ("curves", f"--e1={e1[0]},{e1[1]}", f"--e2={e2[0]},{e2[1]}") + _args(
            "--t1", t1, "--t2", t2, "--x", x, "--list-primes"
        )
        jobs.append(Job("curves", argv, {"e1": e1, "e2": e2, "t1": t1, "t2": t2, "x": x}))
    return jobs


# ---------------------------------------------------------------------------
# hurwitz-cold and hurwitz-warm
# ---------------------------------------------------------------------------

def _average(t1, t2, x):
    argv = _args("average", "--t1", t1, "--t2", t2, "--x", x, "--checkpoints", _ladder(x))
    return Job("average", argv, {"t1": t1, "t2": t2, "x": x})


def hurwitz_cold(seed, n=4):
    """Equal (or opposite) and distinct trace pairs alternate.  The parity of
    each trace is fixed per stratum: even traces give conductor-2
    discriminants and so more class numbers, which would otherwise make the
    batch's cost depend on the seed."""
    rng = _rng("hurwitz-cold", seed)
    jobs = []
    for i, x in enumerate(_strata(rng, n, 5_000, 15_000)):
        if i % 2 == 0:
            t1 = rng.choice(_ODD if i % 4 == 0 else _EVEN)
            t2 = rng.choice((t1, -t1))
        else:
            t1, t2 = rng.choice(_ODD), rng.choice(_EVEN)
            if rng.random() < 0.5:
                t1, t2 = t2, t1
        jobs.append(_average(t1, t2, x))
    return jobs


def hurwitz_warm(seed, n=8):
    rng = _rng("hurwitz-warm", seed)
    return [
        _average(rng.choice((1, -1)), rng.choice((1, -1)), x)
        for x in _strata(rng, n, 10_000, WARM_FILL_X)
    ]


def warm_fill(jobs):
    """The cold job that fills the cache for ``jobs``.

    Its checkpoints include every x and checkpoint of the warm jobs, so each
    warm partial sum can be compared with the cold one.  |t| = 1 for all of
    them, so one trace pair covers every discriminant they need.
    """
    points = set()
    for job in jobs:
        points.add(job.info["x"])
        points.update(c for c in _LADDER if c < job.info["x"])
    ladder = ",".join(str(c) for c in sorted(points) if c < WARM_FILL_X)
    argv = _args("average", "--t1", 1, "--t2", 1, "--x", WARM_FILL_X, "--checkpoints", ladder)
    return Job("average", argv, {"t1": 1, "t2": 1, "x": WARM_FILL_X})


# ---------------------------------------------------------------------------
# desk-mix
# ---------------------------------------------------------------------------

_CONSTANT_KINDS = ("pair", "same-trace", "single", "universal")  # by rising lmax


def _simulate(rng, n):
    m = rng.choice((2, 4, 6, 12))
    argv = _args("simulate", "--m", m, "--n", n, "--seed", rng.randrange(2 ** 32),
                 "--t1", rng.randint(-3, 3), "--t2", rng.randint(-3, 3))
    return Job("simulate", argv, {"m": m, "n": n})


def _local_factor(rng, ell, units):
    k = 1
    while ell ** (k + 1) - ell ** k <= units:
        k += 1
    # at ell = 2 an odd trace takes a short path; even traces keep the memory steady
    traces = _EVEN if ell == 2 else range(-6, 7)
    t1 = rng.choice(traces)
    t2 = rng.choice((t1, -t1, rng.choice(traces)))
    argv = _args("local-factor", "--t1", t1, "--t2", t2, "--ell", ell, "--k", k, "--method", "both")
    return Job("local-factor", argv, {"ell": ell, "k": k, "t1": t1, "t2": t2})


def _constant(rng, kind, lmax):
    if kind == "pair":
        t1, t2 = (0, 0) if rng.random() < 0.5 else (rng.randint(-4, 4), rng.randint(-4, 4))
        argv = _args("constant", "--kind", kind, "--t1", t1, "--t2", t2, "--lmax", lmax)
    elif kind == "universal":
        argv = _args("constant", "--kind", kind, "--lmax", lmax)
    else:
        t = 0 if kind == "same-trace" and rng.random() < 0.5 else rng.randint(-6, 6)
        argv = _args("constant", "--kind", kind, "--t1", t, "--lmax", lmax)
    return Job("constant", argv, {"kind": kind, "lmax": lmax})


def _gekeler(rng, primes):
    while True:
        t, p = rng.randint(0, 4), rng.choice(primes)
        if t * t < 4 * p:
            argv = _args("gekeler", "--t", t, "--p", p, "--lmax", 100_000)
            return Job("gekeler", argv, {"t": t, "p": p})


def desk_mix(seed):
    """Two simulate jobs, then one job per prime ell in {7, 5, 3, 2} for
    local-factor (by rising unit count), one per kind for constant (by rising
    lmax), and two gekeler jobs."""
    rng = _rng("desk-mix", seed)
    sims = [_simulate(rng, n) for n in _strata(rng, 2, 50_000, 150_000)]
    factors = [_local_factor(rng, ell, u) for ell, u in
               zip((7, 5, 3, 2), _strata(rng, 4, 2 ** 13, 2 ** 20))]
    consts = [_constant(rng, kind, lmax) for kind, lmax in
              zip(_CONSTANT_KINDS, _strata(rng, len(_CONSTANT_KINDS), 10_000, 300_000))]
    primes = _primes(5, 10_000)
    geks = [_gekeler(rng, primes) for _ in range(2)]
    return sims + factors + consts + geks


BATCHES = {
    "curves-sweep": curves_sweep,
    "hurwitz-cold": hurwitz_cold,
    "hurwitz-warm": hurwitz_warm,
    "desk-mix": desk_mix,
}


# ---------------------------------------------------------------------------
# boundary probes: each reproduces a known defect of the CLI contract
# ---------------------------------------------------------------------------

_AVERAGE_LADDER = Probe(  # default ladder is not clipped to x: exits 2
    "average-default-ladder", _args("average", "--t1", 1, "--t2", 1, "--x", 5_000), (0,))

PROBES = {
    "curves-sweep": (
        # |disc| >= 2^63 overflows np.gcd: traceback, exit 1
        Probe("curves-disc-overflow",
              _args("curves", "--e1=1000000,1", "--e2=1,1", "--t1", 0, "--t2", 0, "--x", 1_000),
              (0, 2)),
    ),
    "hurwitz-cold": (_AVERAGE_LADDER,),
    "hurwitz-warm": (_AVERAGE_LADDER,),
    "desk-mix": (
        # ell = 4 is not prime: exits 1 with "direct 1200 != closed 671"
        Probe("local-factor-composite-ell",
              _args("local-factor", "--t1", 1, "--t2", 3, "--ell", 4, "--k", 2, "--method", "both"),
              (2,)),
        # composite p: answers instead of refusing
        Probe("gekeler-composite-p", _args("gekeler", "--t", 1, "--p", 9), (2,)),
        # t^2 overflows int64 in the m-value kernel: traceback, exit 1
        Probe("local-factor-int64-trace",
              _args("local-factor", "--t1", 3037000500, "--t2", 0, "--ell", 3, "--k", 2,
                    "--method", "both"),
              (0, 2)),
    ),
}
