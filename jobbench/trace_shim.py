"""Run one tracepair CLI job with spans around the public layer functions.

Usage: python trace_shim.py SUMMARY.json [CLI arguments...]

The shim imports ``tracepair.cli``, replaces each target function by a
wrapper in every tracepair module that holds it (so bindings imported by
name, such as ``prime_stats.f_ell`` or ``cli.pair_count``, are wrapped too),
runs ``tracepair.cli.main`` and exits with its code.  A span records its
label, thread id, parent, start and end.  Work handed to a
``ThreadPoolExecutor`` keeps the submitting span as its parent, so worker
calls nest under ``class_sum`` and ``s_direct``.  Self time is a span's
duration minus the union of its children's intervals.  Per-label totals are
written to SUMMARY.json when the job ends.  A target that no longer exists
is listed as absent.
"""

import functools
import inspect
import json
import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

clock = time.perf_counter

# labels whose spans also report overlap: summed durations / union of intervals
OVERLAP = ("_kernels.class_number_batch", "_kernels.m_values")


def _prime_count(lo, hi):
    """Number of primes p with lo < p <= hi, by a plain sieve."""
    hi = int(hi)
    if hi < 2:
        return 0
    flags = bytearray([1]) * (hi + 1)
    flags[0:2] = b"\x00\x00"
    for q in range(2, math.isqrt(hi) + 1):
        if flags[q]:
            flags[q * q::q] = bytes(len(range(q * q, hi + 1, q)))
    return sum(flags[int(math.floor(lo)) + 1:])


def _class_sum_counts(a, r):
    lo = max(3.0, a["t1"] ** 2 / 4.0, a["t2"] ** 2 / 4.0)
    stats = getattr(r, "cache_stats", {}) or {}
    counts = {"primes": _prime_count(lo, a["x"])}
    for key in ("hits", "misses", "spot_checked"):
        counts["cache_" + key] = int(stats.get(key, 0))
    if a.get("cache"):
        try:
            counts["cache_bytes_max"] = os.path.getsize(a["cache"])
        except OSError:
            pass
    return counts


def _pp_units(pp):
    q = pp.ell ** pp.k
    return q - q // pp.ell


# (label, module, attribute, counts(bound arguments, result) -> dict or None)
TARGETS = (
    ("_kernels.trace_batch", "_kernels", "trace_batch",
     lambda a, r: {"primes": len(a["primes"]), "p_sum": int(sum(int(p) for p in a["primes"]))}),
    ("_kernels.class_number_batch", "_kernels", "class_number_batch",
     lambda a, r: {"discs": len(a["discs"])}),
    ("_kernels.class_number", "_kernels", "class_number", None),
    ("_kernels.m_values", "_kernels", "m_values", lambda a, r: {"units": len(r[0])}),
    ("_kernels.sieve", "_kernels", "sieve", None),
    ("arith.sieve_primes", "arith", "sieve_primes", None),
    ("arith.divisors", "arith", "divisors", None),
    ("class_numbers.split_discriminant", "class_numbers", "split_discriminant", None),
    ("class_numbers.hurwitz_kronecker", "class_numbers", "hurwitz_kronecker", None),
    ("class_numbers.class_number_h", "class_numbers", "class_number_h", None),
    ("prime_stats.class_sum", "prime_stats", "class_sum", _class_sum_counts),
    ("local.s_direct", "local", "s_direct", lambda a, r: {"units": _pp_units(a["pp"])}),
    ("local.local_limit", "local", "local_limit", None),
    ("model_sim.sample_run", "model_sim", "sample_run",
     lambda a, r: {"primes": int(r.primes.shape[0])}),
    ("model_sim.trace_weight", "model_sim", "trace_weight", None),
    ("gekeler.product_check", "gekeler", "product_check", None),
    ("gekeler.f_ell", "gekeler", "f_ell", None),
    ("constants", "constants", "pair_constant",
     lambda a, r: {"factors": _prime_count(1, a["lmax"])}),
    ("constants", "constants", "same_trace_constant",
     lambda a, r: {"factors": _prime_count(1, a["lmax"])}),
    ("constants", "constants", "universal_product",
     lambda a, r: {"factors": _prime_count(1, a["lmax"])}),
    ("constants", "constants", "single_curve_constant",
     lambda a, r: {"factors": _prime_count(1, a["lmax"])}),
    ("curves.pair_count", "curves", "pair_count",
     lambda a, r: {"primes": _prime_count(4, a["x"])}),
)


class _Span:
    __slots__ = ("label", "tid", "parent", "start", "children", "cross")

    def __init__(self, label, parent, start):
        self.label = label
        self.tid = threading.get_ident()
        self.parent = parent
        self.start = start
        self.children = []  # (start, end) of direct child spans, any thread
        self.cross = False  # a child ran on another thread


def _union(intervals):
    total, end = 0.0, -math.inf
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


class Tracer:
    def __init__(self):
        self.local = threading.local()
        self.lock = threading.Lock()
        self.labels = {}
        self.edges = {}
        self.intervals = {label: [] for label in OVERLAP}
        self.absent = []

    def stack(self):
        s = getattr(self.local, "stack", None)
        if s is None:
            s = self.local.stack = []
        return s

    def current(self):
        s = self.stack()
        return s[-1] if s else None

    def run(self, label, fn, args, kwargs, counter=None, sig=None):
        stack = self.stack()
        span = _Span(label, stack[-1] if stack else None, clock())
        stack.append(span)
        error = False
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            error = True
            raise
        finally:
            end = clock()
            stack.pop()
            counts = None
            if counter is not None and not error:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = counter(bound.arguments, result)
                except (TypeError, KeyError, AttributeError, ValueError):
                    counts = None
            self._close(span, end, clock(), error, counts)

    def _close(self, span, end, counted, error, counts):
        dur = end - span.start
        covered = _union(span.children) if span.cross else sum(e - s for s, e in span.children)
        parent = span.parent
        if parent is not None:
            parent.children.append((span.start, end))
            if counted - end > 1e-4:  # keep counting cost out of the parent's self time
                parent.children.append((end, counted))
            if parent.tid != span.tid:
                parent.cross = True
        with self.lock:
            st = self.labels.setdefault(
                span.label, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
            st["calls"] += 1
            st["total_s"] += dur
            st["self_s"] += dur - covered
            st["errors"] += error
            for key, n in (counts or {}).items():
                if key.endswith("_max"):
                    st[key] = max(st.get(key, 0), n)
                else:
                    st[key] = st.get(key, 0) + n
            edge = f"{parent.label if parent else '-'}>{span.label}"
            self.edges[edge] = self.edges.get(edge, 0) + 1
            if span.label in self.intervals:
                self.intervals[span.label].append((span.start, end))

    def wrap(self, label, fn, counter):
        sig = inspect.signature(fn) if counter is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.run(label, fn, args, kwargs, counter, sig)

        return traced

    def install(self, package):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for label, modname, attr, counter in TARGETS:
            mod = sys.modules.get(f"{package}.{modname}")
            fn = getattr(mod, attr, None) if mod is not None else None
            if not callable(fn):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self.wrap(label, fn, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
        self._patch_executor()

    def _patch_executor(self):
        submit = ThreadPoolExecutor.submit
        tracer = self

        def traced_submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()

            def run(*a, **k):
                stack = tracer.stack()
                stack.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    stack.pop()

            return submit(pool, run, *args, **kwargs)

        ThreadPoolExecutor.submit = traced_submit

    def summary(self):
        overlap = {}
        for label, ivs in self.intervals.items():
            overlap[label] = {"sum_s": sum(e - s for s, e in ivs), "union_s": _union(ivs)}
        return {"labels": self.labels, "edges": self.edges, "overlap": overlap,
                "absent": self.absent}


def main(argv):
    out_path, cli_argv = argv[0], argv[1:]
    import tracepair.cli as cli

    import_end = clock()
    tracer = Tracer()
    tracer.install("tracepair")
    rc = 1
    try:
        rc = tracer.run("cli", cli.main, (cli_argv,), {})
    finally:
        report = tracer.summary()
        report["import_end"] = import_end  # perf_counter is system-wide on Linux
        report["exit_code"] = rc
        with open(out_path, "w") as fh:
            json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
