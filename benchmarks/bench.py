"""Start-up record: time fresh CLI processes, their memory, and the modules each job loads.

    python3 benchmarks/bench.py --out BENCH_N.json [ROOT ...]

Each ROOT is a source checkout; the default is the one this file is in.  The
jobs are ``import tracepair.cli`` (what jobbench's ``setup_s`` times),
``--help``, the seed-0 first job of each jobbench workload
(``jobbench/workloads.py``), desk-mix seed 0's ``local-factor --ell 2``
job and its four ``constant`` jobs (one per kind), ``simulate`` at the
largest level m = 128, which builds the largest
class-density table, ``curves`` for one generic pair at the desk sizes
x = 1e5 and 1e6, ``average`` and ``simulate`` at x = 1e5 and 1e6 and
``verify``, the ROADMAP's other end-to-end sizes,
``constant --kind universal`` at lmax = 1e6, whose sieve runs to 8e6,
``class-number`` at the largest |D| allowed and at D = -3 * 60060^2, whose
conductor has 96 divisors, and ``gekeler`` at the largest lmax, once with
|t^2 - 4p| far below it and once at p = 2^31 - 1, where |t^2 - 4p| exceeds
lmax, so that no class of the symbol repeats and every prime takes a symbol
call.
Every run is a fresh ``python -c "import tracepair.cli"`` or
``python -m tracepair.cli ...`` process with
``PYTHONPATH=ROOT/src`` and stdout discarded; a run that does not exit 0
stops the bench.  Each run's wall time and its maximum resident set size
(``ru_maxrss`` from ``os.wait4``) are recorded.  Runs are
interleaved: each of the ``REPS`` (15) repetitions runs every job once in
each root, and the order of the roots alternates between repetitions, so
that a drift of the machine's speed falls on all roots alike.  One more run per job and root,
under ``python -X importtime``, lists the ``tracepair`` modules, numpy,
mpmath and dataclasses that the job loaded, with their cumulative import
times.

The record holds the git commit of each root, nproc, the Python, numpy and
mpmath versions, and per job the median and quartiles of the wall time and
of the max RSS.
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
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "jobbench"))
import workloads  # noqa: E402  (stdlib only; defines the jobbench batches)

clock = time.perf_counter
REPS = 15  # timed runs per job and root
CLI = ("-m", "tracepair.cli")


def jobs():
    """Job name -> interpreter arguments: the bare CLI import, --help, each
    workload's seed-0 first job, desk-mix seed 0's 2-adic local sum and
    its four Euler products, a simulate job at m = 128, curves, average and
    simulate jobs at x = 1e5 and 1e6, verify, the universal Euler product at
    lmax = 1e6, the class number at |D| = 2^34 - 4 and at D = -3 * 60060^2
    and the Gekeler product at lmax = 1e7 for p = 9521 and p = 2^31 - 1."""
    table = {"import": ("-c", "import tracepair.cli"), "help": (*CLI, "--help")}
    for name in workloads.NAMES:
        table[name] = (*CLI, *workloads.BATCHES[name](0)[0].argv)
    for job in workloads.BATCHES["desk-mix"](0):
        if job.info.get("ell") == 2:
            table["desk-mix:local-factor"] = (*CLI, *job.argv)
        elif job.kind == "constant":
            table[f"desk-mix:constant-{job.info['kind']}"] = (*CLI, *job.argv)
    table["simulate-m128"] = (*CLI, "simulate", "--m", "128", "--n", "10000", "--seed", "0",
                              "--t1", "1", "--t2", "1")
    for name, x in (("curves-1e5", "100000"), ("curves-1e6", "1000000")):
        table[name] = (*CLI, "curves", "--e1=-1,1", "--e2=1,1", "--t1", "1", "--t2", "1",
                       "--x", x, "--list-primes")
    for name, x in (("1e5", "100000"), ("1e6", "1000000")):
        table[f"average-{name}"] = (*CLI, "average", "--t1", "1", "--t2", "1", "--x", x)
        table[f"simulate-{name}"] = (*CLI, "simulate", "--m", "2", "--n", x, "--seed", "0",
                                     "--t1", "1", "--t2", "1")
    table["verify"] = (*CLI, "verify")
    table["constant-1e6"] = (*CLI, "constant", "--kind", "universal", "--lmax", "1000000")
    table["class-number-2^34"] = (*CLI, "class-number", "--d", "-17179869180")
    table["class-number-f60060"] = (*CLI, "class-number", "--d", "-10821610800")
    table["gekeler-1e7"] = (*CLI, "gekeler", "--t", "1", "--p", "9521", "--lmax", "10000000")
    table["gekeler-1e7-p2^31"] = (*CLI, "gekeler", "--t", "3", "--p", "2147483647",
                                  "--lmax", "10000000")
    return table


def _env(root):
    return dict(os.environ, PYTHONPATH=str(Path(root) / "src"))


def time_run(root, argv):
    """(wall seconds, max RSS in MB) of one fresh interpreter run with ``argv``."""
    cmd = [sys.executable, *argv]
    with tempfile.TemporaryFile() as err:
        t0 = clock()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=_env(root), cwd=root)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = clock() - t0
        # reaped by wait4: tell Popen, so that it does not wait for the pid again
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            tail = err.read()[-300:].decode(errors="replace")
            raise RuntimeError(f"{' '.join(argv)} exited {code}: {tail}")
    return wall, usage.ru_maxrss / 1024


def loaded_modules(root, argv):
    """{module: cumulative import ms} for tracepair.*, numpy, mpmath and dataclasses,
    from -X importtime."""
    cmd = [sys.executable, "-X", "importtime", *argv]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          env=_env(root), cwd=root, text=True, check=True)
    modules = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        name = name.strip()
        if name in ("numpy", "mpmath", "dataclasses") or name.split(".")[0] == "tracepair":
            try:
                modules[name] = int(cumulative) / 1000
            except ValueError:  # the header line
                continue
    return dict(sorted(modules.items()))


def _quartiles(values, unit, digits):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {f"median_{unit}": round(statistics.median(values), digits),
            f"q1_{unit}": round(q1, digits), f"q3_{unit}": round(q3, digits)}


def summary(runs):
    """Median and quartiles of the wall times and of the max RSS of (wall, rss) runs."""
    walls, rss = zip(*runs)
    return {"n": len(runs), **_quartiles(walls, "s", 4), **_quartiles(rss, "rss_mb", 1)}


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
    parser.add_argument("--out", required=True,
                        help="path of the JSON record; a new name keeps the committed ones")
    args = parser.parse_args(argv)
    roots = [str(Path(r).resolve()) for r in args.roots]
    table = jobs()
    runs = {(root, name): [] for root in roots for name in table}
    for rep in range(REPS):
        order = roots if rep % 2 == 0 else roots[::-1]
        for name, job_argv in table.items():
            for root in order:
                runs[root, name].append(time_run(root, job_argv))
        print(f"rep {rep + 1}/{REPS} done", file=sys.stderr)
    record = {
        "bench": "cli-startup",
        "environment": environment(),
        "reps": REPS,
        "jobs": {name: list(job_argv) for name, job_argv in table.items()},
        "roots": [
            {**git_commit(root),
             "results": {name: {**summary(runs[root, name]),
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
            print(f"{(entry['sha'] or root)[:10]} {name:22s} {r['median_s']:.3f} s "
                  f"[{r['q1_s']:.3f}, {r['q3_s']:.3f}]  {r['median_rss_mb']:.1f} MB  "
                  f"{', '.join(r['loaded_import_ms'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
