"""Output checks for benchmark jobs, run outside the timed section.

Each check returns None when the output is right and a one-line reason when
it is not.  Where the repository has a cheap independent route it is used:
point counting by enumeration for ``curves``, the 35/96 and universal
references for ``constant``, the A09 error band for ``gekeler``.  The CLI's
own direct-against-closed comparison covers ``local-factor --method both``.
"""

import hashlib
import json
import math
from fractions import Fraction

BRUTE_BOUND = 200          # every good prime up to here is point-counted
GEKELER_MAX_REL = 0.10     # A09: no sampled product check is off by more
UNIVERSAL_REF_ULP = 1e-10  # the universal reference is printed to 11 digits


def canonical(out):
    """Digest of a JSON output with ``cache_stats`` removed.

    Floats round-trip through JSON exactly, so equal digests mean
    bit-identical values.
    """
    obj = dict(out)
    obj.pop("cache_stats", None)
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def parse(rc, stdout, stderr):
    """The JSON output of a job that must succeed, or a failure reason."""
    if rc != 0:
        return None, f"exit {rc}: {_last_line(stderr)}"
    if "Traceback" in stderr:
        return None, "traceback on stderr"
    try:
        return json.loads(stdout), None
    except ValueError:
        return None, "stdout is not JSON"


def probe_failure(probe, rc, stdout, stderr):
    """Why a probe breaks the CLI contract, or None if it keeps it."""
    if "Traceback" in stderr:
        return f"traceback, exit {rc}"
    if rc not in probe.allowed:
        return f"exit {rc}: {_last_line(stderr)}"
    if rc == 2 and len(stderr.strip().splitlines()) != 1:
        return "usage error is not one line on stderr"
    if rc == 0:
        try:
            json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
    return None


def _last_line(text):
    lines = text.strip().splitlines()
    return lines[-1][:160] if lines else ""


def check(job, out):
    return _CHECKS[job.kind](job, out)


def _check_curves(job, out):
    from tracepair.curves import Curve, point_count_brute

    info = job.info
    e1, e2 = Curve(*info["e1"]), Curve(*info["e2"])
    matched = out["matched_primes"]
    if out["count"] != len(matched) or out["x"] != info["x"]:
        return "count or x does not match the listed primes"
    if matched != sorted(set(matched)) or any(p < 5 or p > info["x"] for p in matched):
        return "matched primes are not sorted, distinct and in [5, x]"

    def hits(p):
        return (p + 1 - point_count_brute(e1, p) == info["t1"]
                and p + 1 - point_count_brute(e2, p) == info["t2"])

    for p in matched:
        if not (e1.good_reduction(p) and e2.good_reduction(p) and hits(p)):
            return f"p = {p} is listed but its point counts give other traces"
    small = {p for p in matched if p <= BRUTE_BOUND}
    for p in range(5, min(BRUTE_BOUND, info["x"]) + 1):
        if not all(p % d for d in range(2, math.isqrt(p) + 1)):
            continue
        if e1.good_reduction(p) and e2.good_reduction(p) and hits(p) and p not in small:
            return f"p = {p} matches by point counting but is not listed"
    return None


def _check_average(job, out):
    info = job.info
    if (out["t1"], out["t2"], out["x"]) != (info["t1"], info["t2"], info["x"]):
        return "echoed arguments differ"
    xs = [c["x"] for c in out["checkpoints"]]
    ladder = [int(v) for v in job.argv[job.argv.index("--checkpoints") + 1].split(",")]
    if xs != sorted(set(ladder) | {info["x"]}):
        return "checkpoint ladder differs from the one passed"
    sums = [c["partial_sum"] for c in out["checkpoints"]]
    if sums[0] <= 0 or any(b < a for a, b in zip(sums, sums[1:])):
        return "partial sums are not positive and non-decreasing"
    if any(c["loglog_x"] != math.log(math.log(c["x"])) for c in out["checkpoints"]):
        return "loglog_x is not log log x"
    if out["ratio"] != out["c_hat"] / out["reference_constant"]:
        return "ratio is not c_hat / reference_constant"
    return None


def _check_local_factor(job, out):
    info = job.info
    if (out["ell"], out["k"], out["t1"], out["t2"]) != (info["ell"], info["k"], info["t1"], info["t2"]):
        return "echoed arguments differ"
    norm = info["ell"] ** (5 * info["k"] - 5)
    if Fraction(out["S"], norm) != Fraction(out["s_normalized"]) or out["S"] <= 0:
        return "S and s_normalized disagree"
    return None


def _check_constant(job, out):
    value = float(out["value"])
    cons, emp = out["tail_conservative"], out["tail_empirical"]
    if not (value > 0 and cons >= emp > 0):
        return "value or tail bounds are not positive"
    if out["truncation_prime"] > job.info["lmax"] or out["lmax"] != job.info["lmax"]:
        return "truncation prime exceeds lmax"
    if "reference" in out:
        ref = float(Fraction(out["reference"]))
        slack = UNIVERSAL_REF_ULP if "/" not in out["reference"] else 0.0
        if abs(math.log(value / ref)) > cons + slack:
            return f"value {value} is outside the tail bound of reference {out['reference']}"
    return None


def _check_gekeler(job, out):
    lhs = float(Fraction(out["lhs"]))
    rhs = float(out["rhs_decimal"])
    if out["rel_error"] != abs(rhs - lhs) / lhs:
        return "rel_error is not |rhs - lhs| / lhs"
    if out["rel_error"] > GEKELER_MAX_REL:
        return f"rel_error {out['rel_error']:.4f} is outside the A09 band"
    return None


def _check_simulate(job, out):
    n, m = job.info["n"], job.info["m"]
    sampled = _prime_count(5, n)
    if out["sampled_primes"] != sampled:
        return f"sampled {out['sampled_primes']} primes, expected {sampled}"
    counts = out["class_counts"]
    if len(counts) != m or any(len(row) != m for row in counts):
        return "class_counts is not m x m"
    if sum(map(sum, counts)) != sampled or not 0 <= out["hits"] <= sampled:
        return "class counts or hits do not add up"
    if out["checkpoints"][-1]["n"] != n:
        return "last checkpoint is not n"
    return None


def _prime_count(lo, hi):
    """Number of primes in [lo, hi], by a plain sieve."""
    flags = bytearray([1]) * (hi + 1)
    flags[0:2] = b"\x00\x00"
    for q in range(2, math.isqrt(hi) + 1):
        if flags[q]:
            flags[q * q::q] = bytes(len(range(q * q, hi + 1, q)))
    return sum(flags[lo:])


_CHECKS = {
    "curves": _check_curves,
    "average": _check_average,
    "local-factor": _check_local_factor,
    "constant": _check_constant,
    "gekeler": _check_gekeler,
    "simulate": _check_simulate,
}
