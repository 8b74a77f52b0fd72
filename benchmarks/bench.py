"""Start-up record: time fresh CLI processes and list the modules each job loads.

    python3 benchmarks/bench.py [--out BENCH_7.json] [ROOT ...]

Each ROOT is a source checkout; the default is the one this file is in.  The
jobs are ``--help`` and the seed-0 first job of each jobbench workload
(``jobbench/workloads.py``).  Every run is a fresh
``python -m tracepair.cli ...`` process with ``PYTHONPATH=ROOT/src`` and
stdout discarded; a run that does not exit 0 stops the bench.  Runs are
interleaved: each of the ``REPS`` (15) repetitions runs every job once in
each root, and the order of the roots alternates between repetitions, so
that a drift of the machine's speed falls on all roots alike.  One more run per job and root,
under ``python -X importtime``, lists the ``tracepair`` modules, numpy and
mpmath that the job loaded, with their cumulative import times.

The record holds the git commit of each root, nproc, the Python, numpy and
mpmath versions, and per job the median and quartiles of the wall time.
Only the standard library is used.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "jobbench"))
import workloads  # noqa: E402  (stdlib only; defines the jobbench batches)

clock = time.perf_counter
REPS = 15  # timed runs per job and root


def jobs():
    """Job name -> CLI arguments: --help, then each workload's seed-0 first job."""
    table = {"help": ("--help",)}
    for name in workloads.NAMES:
        table[name] = workloads.BATCHES[name](0)[0].argv
    return table


def _env(root):
    return dict(os.environ, PYTHONPATH=str(Path(root) / "src"))


def time_run(root, argv):
    cmd = [sys.executable, "-m", "tracepair.cli", *argv]
    t0 = clock()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          env=_env(root), cwd=root, text=True)
    wall = clock() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-300:]}")
    return wall


def loaded_modules(root, argv):
    """{module: cumulative import ms} for tracepair.*, numpy and mpmath, from -X importtime."""
    cmd = [sys.executable, "-X", "importtime", "-m", "tracepair.cli", *argv]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          env=_env(root), cwd=root, text=True, check=True)
    modules = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        name = name.strip()
        if name in ("numpy", "mpmath") or name.split(".")[0] == "tracepair":
            try:
                modules[name] = int(cumulative) / 1000
            except ValueError:  # the header line
                continue
    return dict(sorted(modules.items()))


def summary(times):
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"n": len(times), "median_s": round(statistics.median(times), 4),
            "q1_s": round(q1, 4), "q3_s": round(q3, 4)}


def git_commit(root):
    def git(*args):
        r = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None

    status = git("status", "--porcelain", "--", "src")
    return {"sha": git("rev-parse", "HEAD"), "src_dirty": bool(status) if status is not None else None}


def environment():
    versions = {}
    for dist in ("numpy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            **versions, "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="*", default=[str(ROOT)], help="source checkouts to time")
    parser.add_argument("--out", default="BENCH_7.json", help="path of the JSON record")
    args = parser.parse_args(argv)
    roots = [str(Path(r).resolve()) for r in args.roots]
    table = jobs()
    times = {(root, name): [] for root in roots for name in table}
    for rep in range(REPS):
        order = roots if rep % 2 == 0 else roots[::-1]
        for name, job_argv in table.items():
            for root in order:
                times[root, name].append(time_run(root, job_argv))
        print(f"rep {rep + 1}/{REPS} done", file=sys.stderr)
    record = {
        "bench": "cli-startup",
        "environment": environment(),
        "reps": REPS,
        "jobs": {name: list(job_argv) for name, job_argv in table.items()},
        "roots": [
            {**git_commit(root),
             "results": {name: {**summary(times[root, name]),
                                "loaded_import_ms": loaded_modules(root, job_argv)}
                         for name, job_argv in table.items()}}
            for root in roots
        ],
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for root, entry in zip(roots, record["roots"]):
        for name, r in entry["results"].items():
            print(f"{(entry['sha'] or root)[:10]} {name:13s} {r['median_s']:.3f} s "
                  f"[{r['q1_s']:.3f}, {r['q3_s']:.3f}]  {', '.join(r['loaded_import_ms'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
