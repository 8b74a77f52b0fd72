"""Seeded CLI-job benchmark for tracepair.

    python3 jobbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every job is a fresh
``python -m tracepair.cli --workers <nproc> ...`` process, run in a closed
loop with one client and one job at a time.  The timed section repeats the
workload's fixed job batch while time remains; set-up, output checks and
the boundary probes run outside it.  With ``--trace 1`` one more pass of the
batch runs each job under ``trace_shim.py`` and the per-layer metrics are
printed instead of the end-to-end ones.  The last line of stdout is the
result as JSON; a run record goes to stderr.

``--record-reference`` rewrites ``reference.json`` from the current source:
the digest of every job's output for the seeds in ``REFERENCE_SEEDS``.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
REFERENCE_SEEDS = tuple(range(11))
SETUP_REPS = 5
WARM_SETUP_REPS = 3
JOB_TIMEOUT_S = 120
clock = time.perf_counter

# per-layer labels written by trace_shim.py, with the counts each one carries
LAYER_COUNTS = {
    "_kernels.trace_batch": ("primes", "p_sum"),
    "_kernels.class_number_batch": ("discs",),
    "_kernels.class_number": (),
    "_kernels.m_values": ("units",),
    "_kernels.sieve": (),
    "arith.sieve_primes": (),
    "arith.divisors": (),
    "class_numbers.split_discriminant": (),
    "class_numbers.hurwitz_kronecker": (),
    "class_numbers.class_number_h": (),
    "prime_stats.class_sum": ("primes",),
    "local.s_direct": ("units",),
    "local.local_limit": (),
    "model_sim.sample_run": ("primes",),
    "model_sim.trace_weight": (),
    "gekeler.product_check": (),
    "gekeler.f_ell": (),
    "constants": ("factors",),
    "curves.pair_count": ("primes",),
}
OVERLAP_LABELS = ("_kernels.class_number_batch", "_kernels.m_values")


def metric(label, key):
    """Per-layer metric name; names start with a letter, so _kernels reads kernels."""
    return f"{label.lstrip('_')}.{key}"


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for label, counts in LAYER_COUNTS.items():
        units[metric(label, "calls")] = "count"
        units[metric(label, "self_s")] = "s"
        units[metric(label, "errors")] = "count"
        for c in counts:
            units[metric(label, c)] = "count"
        if label in OVERLAP_LABELS:
            units[metric(label, "overlap")] = "ratio"
    units.update({
        "class_numbers.memo_hit_ratio": "ratio",
        "prime_stats.cache_hits": "count",
        "prime_stats.cache_misses": "count",
        "prime_stats.cache_spot_checked": "count",
        "prime_stats.cache_hit_ratio": "ratio",
        "prime_stats.cache_bytes": "bytes",
        "cli.import_s": "s",
        "cli.self_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.coverage": "ratio",
        "trace.absent": "count",
        "probes.attempted": "count",
        "probes.failed": "count",
        "fail_ratio": "ratio",
        "bench.jobs": "count",
        "bench.calibration_s": "s",
    })
    return units


END_TO_END_UNITS = {"wall_s": "s", "job_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Run:
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int
    start: float


class Spawner:
    """Starts CLI processes from the checkout and waits for each to end."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.workers = len(os.sched_getaffinity(0))
        env = dict(os.environ)
        env.pop("TRACEPAIR_CACHE", None)
        env["PYTHONPATH"] = str(SRC)
        self.env = env

    def env_with_cache(self, cache):
        return dict(self.env, TRACEPAIR_CACHE=str(cache))

    def cli(self, argv, env=None, trace_out=None):
        if trace_out is None:
            cmd = [sys.executable, "-m", "tracepair.cli"]
        else:
            cmd = [sys.executable, str(HERE / "trace_shim.py"), str(trace_out)]
        return self.spawn(cmd + ["--workers", str(self.workers), *argv], env)

    def spawn(self, cmd, env=None):
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = clock()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env or self.env, cwd=ROOT)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Run(proc.returncode, out_path.read_text(), err_path.read_text(), wall,
                   usage.ru_maxrss, start)


def calibrate(reps=3, n=2_000_000):
    """Median time of a fixed pure-Python loop: a yardstick for machine speed."""
    times = []
    for _ in range(reps):
        t0 = clock()
        acc = 0
        for i in range(n):
            acc = (acc * 31 + i) % 1_000_003
        times.append(clock() - t0)
    return statistics.median(times)


class Workload:
    def __init__(self, name, seed, spawner):
        self.name = name
        self.seed = seed
        self.sp = spawner
        self.warm = name == "hurwitz-warm"
        self.cache = spawner.workdir / "h_cache.csv"
        self.env = spawner.env_with_cache(self.cache) if self.warm else spawner.env
        self.jobs = []
        self.fill = None  # (job, parsed output) of the cold pass that fills the cache

    def set_up_once(self):
        """Fresh-interpreter import plus this workload's own preparation."""
        t0 = clock()
        r = self.sp.spawn([sys.executable, "-c", "import tracepair.cli"])
        if r.rc != 0:
            raise RuntimeError(f"import tracepair.cli failed: {r.stderr.strip()[-300:]}")
        self.jobs = workloads.BATCHES[self.name](self.seed)
        if self.warm:
            self.cache.unlink(missing_ok=True)
            fill = workloads.warm_fill(self.jobs)
            r = self.sp.cli(fill.argv, self.env)
            out, why = checks.parse(r.rc, r.stdout, r.stderr)
            if why is None:
                why = checks.check(fill, out)
            if why is not None:
                raise RuntimeError(f"cache fill failed: {why}")
            self.fill = (fill, out)
        return clock() - t0

    def set_up(self):
        reps = WARM_SETUP_REPS if self.warm else SETUP_REPS
        return statistics.median(self.set_up_once() for _ in range(reps))

    def timed(self, seconds):
        """Closed loop over the batch; a new pass starts only if it should fit."""
        passes = []
        t0 = clock()
        while True:
            p0 = clock()
            runs = [(job, self.sp.cli(job.argv, self.env)) for job in self.jobs]
            passes.append((clock() - p0, runs))
            typical = statistics.median(t for t, _ in passes)
            if clock() - t0 + typical > seconds:
                return passes

    def traced(self):
        runs, summaries = [], []
        p0 = clock()
        for i, job in enumerate(self.jobs):
            out = self.sp.workdir / f"trace-{i}.json"
            runs.append((job, self.sp.cli(job.argv, self.env, trace_out=out)))
            summaries.append(_read_json(out))
        return clock() - p0, runs, summaries

    def failures(self, runs, reference):
        """Check every (job, run); returns the reasons of the ones that failed."""
        failed = []
        seen = {}
        fill_sums = None
        if self.fill is not None:
            fill_sums = {c["x"]: c["partial_sum"] for c in self.fill[1]["checkpoints"]}
        for job, r in runs:
            key = (job.argv, r.rc, r.stdout, r.stderr)
            if key not in seen:
                seen[key] = self._failure(job, r, reference, fill_sums)
            if seen[key] is not None:
                failed.append(f"{' '.join(job.argv)}: {seen[key]}")
        return failed

    def _failure(self, job, r, reference, fill_sums):
        out, why = checks.parse(r.rc, r.stdout, r.stderr)
        if why is None:
            try:
                why = checks.check(job, out)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                why = f"output lacks an expected field or value: {exc!r}"
        if why is None and reference is not None:
            want = reference.get(" ".join(job.argv))
            if want is None:
                why = "no recorded reference output for this job"
            elif checks.canonical(out) != want:
                why = "output differs from the recorded reference"
        if why is None and fill_sums is not None:
            for c in out["checkpoints"]:
                if fill_sums.get(c["x"]) != c["partial_sum"]:
                    why = f"warm partial sum at x = {c['x']} differs from the cold fill"
                    break
        return why

    def warm_against_cold(self, runs):
        """Re-run the smallest warm job without the cache; outputs must agree."""
        job, warm = min(runs, key=lambda jr: jr[0].info["x"])
        cold = self.sp.cli(job.argv)
        a, why_a = checks.parse(warm.rc, warm.stdout, warm.stderr)
        b, why_b = checks.parse(cold.rc, cold.stdout, cold.stderr)
        if why_a or why_b:
            return why_a or why_b
        if checks.canonical(a) != checks.canonical(b):
            return f"{' '.join(job.argv)}: warm output differs from cold"
        return None

    def probes(self):
        results = {}
        for probe in workloads.PROBES[self.name]:
            r = self.sp.cli(probe.argv, self.env)
            results[probe.name] = checks.probe_failure(probe, r.rc, r.stdout, r.stderr)
        return results


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def layer_metrics(summaries, runs, pass_s, untraced_pass_s):
    totals = {}
    edges = {}
    overlap = {label: [0.0, 0.0] for label in OVERLAP_LABELS}
    import_s = main_s = 0.0
    absent = set()
    for s, (_, r) in zip(summaries, runs):
        if s is None:
            continue
        import_s += s["import_end"] - r.start  # interpreter start-up included
        main_s += s["labels"].get("cli", {}).get("total_s", 0.0)
        absent.update(s["absent"])
        for label, st in s["labels"].items():
            acc = totals.setdefault(label, {})
            for k, v in st.items():
                acc[k] = max(acc.get(k, 0), v) if k.endswith("_max") else acc.get(k, 0) + v
        for e, n in s["edges"].items():
            edges[e] = edges.get(e, 0) + n
        for label, o in s["overlap"].items():
            if label in overlap:
                overlap[label][0] += o["sum_s"]
                overlap[label][1] += o["union_s"]

    def get(label, key):
        return totals.get(label, {}).get(key, 0)

    m = {}
    for label, counts in LAYER_COUNTS.items():
        for key in ("calls", "self_s", "errors") + counts:
            m[metric(label, key)] = get(label, key)
        if label in OVERLAP_LABELS:
            total, union = overlap[label]
            m[metric(label, "overlap")] = total / union if union else 0.0
    h_calls = get("class_numbers.class_number_h", "calls")
    h_misses = edges.get("class_numbers.class_number_h>_kernels.class_number", 0)
    m["class_numbers.memo_hit_ratio"] = 1 - h_misses / h_calls if h_calls else 0.0
    hits, misses = get("prime_stats.class_sum", "cache_hits"), get("prime_stats.class_sum", "cache_misses")
    m["prime_stats.cache_hits"] = hits
    m["prime_stats.cache_misses"] = misses
    m["prime_stats.cache_spot_checked"] = get("prime_stats.class_sum", "cache_spot_checked")
    m["prime_stats.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["prime_stats.cache_bytes"] = get("prime_stats.class_sum", "cache_bytes_max")
    m["cli.import_s"] = import_s
    m["cli.self_s"] = get("cli", "self_s")
    m["trace.overhead_ratio"] = pass_s / untraced_pass_s
    m["trace.coverage"] = (import_s + main_s) / sum(r.wall_s for _, r in runs)
    m["trace.absent"] = len(absent)
    return m, edges, sorted(absent)


def run_record(args, extra):
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tracepair").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import mpmath
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "numba_absent": importlib.util.find_spec("numba") is None,
        **extra,
    }


def load_reference(seed):
    data = _read_json(REFERENCE)
    if data is None or seed not in data["seeds"]:
        return None
    return data["digests"]


def benchmark(args, workdir):
    sp = Spawner(workdir)
    wl = Workload(args.workload, args.seed, sp)
    setup_s = wl.set_up()
    calibration_s = calibrate()
    passes = wl.timed(args.seconds)
    runs = [jr for _, rs in passes for jr in rs]
    # the batch's time, each job taken at its median over the passes
    wall_s = sum(statistics.median(rs[j][1].wall_s for _, rs in passes)
                 for j in range(len(wl.jobs)))
    job_times = [r.wall_s for _, r in runs]

    checked = list(runs)
    traced = None
    if args.trace:
        traced = wl.traced()
        checked += traced[1]
    failed = wl.failures(checked, load_reference(args.seed))
    attempted = len(checked)
    if wl.warm:
        attempted += 1
        why = wl.warm_against_cold(runs)
        if why is not None:
            failed.append(why)
    probes = wl.probes()
    probes_failed = sum(why is not None for why in probes.values())

    record = {
        "calibration_s": calibration_s,
        "pass_s": [t for t, _ in passes],
        "job_samples": len(job_times),
        "job_s_p90": statistics.quantiles(job_times, n=10)[-1] if len(job_times) > 1 else job_times[0],
        "job_s": {" ".join(job.argv): r.wall_s for job, r in passes[0][1]},
        "failed": failed,
        "probes": probes,
        "fail_ratio": (len(failed) + probes_failed) / (attempted + len(probes)),
    }
    if traced is None:
        values = {
            "wall_s": wall_s,
            "job_s_p50": statistics.median(job_times),
            "setup_s": setup_s,
            "peak_rss_mb": max(r.maxrss_kb for _, r in runs) / 1024,
        }
        units = END_TO_END_UNITS
    else:
        pass_s, truns, summaries = traced
        values, edges, absent = layer_metrics(summaries, truns, pass_s, wall_s)
        values.update({
            "probes.attempted": len(probes),
            "probes.failed": probes_failed,
            "fail_ratio": record["fail_ratio"],
            "bench.jobs": len(job_times),
            "bench.calibration_s": calibration_s,
        })
        record.update({"edges": edges, "absent": absent})
        units = per_layer_units()
    print(json.dumps({"run_record": run_record(args, record)}), file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def record_reference(workdir):
    sp = Spawner(workdir)
    digests = {}
    for seed in REFERENCE_SEEDS:
        for name in workloads.NAMES:
            for job in workloads.BATCHES[name](seed):
                key = " ".join(job.argv)
                if key in digests:
                    continue
                r = sp.cli(job.argv)  # no cache: warm jobs must print what cold ones do
                out, why = checks.parse(r.rc, r.stdout, r.stderr)
                if why is None:
                    why = checks.check(job, out)
                if why is not None:
                    raise RuntimeError(f"{key}: {why}")
                digests[key] = checks.canonical(out)
            print(f"recorded seed {seed} {name}", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump({"seeds": list(REFERENCE_SEEDS), "digests": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "tracepair" / "cli.py").is_file():
        print(f"error: no tracepair sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".jobbench-work" / f"{args.workload or 'reference'}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.record_reference:
            record_reference(workdir)
            return 0
        result = benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
