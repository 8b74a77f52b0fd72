"""Tests of the span bookkeeping in trace_shim.py.

Run with: python3 -m pytest jobbench/test_trace_shim.py
"""

import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import trace_shim


def test_union_merges_overlapping_intervals():
    assert trace_shim._union([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


def test_pool_children_nest_under_submitter_and_self_time_uses_union(monkeypatch):
    monkeypatch.setattr(ThreadPoolExecutor, "submit", ThreadPoolExecutor.submit)
    tracer = trace_shim.Tracer()
    tracer._patch_executor()
    sleep_s = 0.05

    def child(_):
        return tracer.run("child", time.sleep, (sleep_s,), {})

    def parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(child, range(2)))

    tracer.run("parent", parent, (), {})
    assert tracer.edges == {"parent>child": 2, "->parent": 1}
    p = tracer.labels["parent"]
    # the two children overlap, so their summed time exceeds the parent's span
    assert tracer.labels["child"]["total_s"] > p["total_s"]
    assert 0.0 <= p["self_s"] < p["total_s"] - 0.8 * sleep_s


def test_install_wraps_bindings_imported_by_name_and_lists_absent(monkeypatch):
    kernels = types.ModuleType("fakepkg._kernels")

    def trace_batch(a, b, primes):
        return [0] * len(primes)

    kernels.trace_batch = trace_batch
    curves = types.ModuleType("fakepkg.curves")
    curves.trace_batch = trace_batch  # as after "from ._kernels import trace_batch"

    def pair_count(e1, e2, t1, t2, x):
        return curves.trace_batch(1, 1, [5, 7])

    curves.pair_count = pair_count
    for name, mod in (("fakepkg", types.ModuleType("fakepkg")),
                      ("fakepkg._kernels", kernels), ("fakepkg.curves", curves)):
        monkeypatch.setitem(sys.modules, name, mod)
    monkeypatch.setattr(ThreadPoolExecutor, "submit", ThreadPoolExecutor.submit)

    tracer = trace_shim.Tracer()
    tracer.install("fakepkg")
    assert curves.trace_batch is kernels.trace_batch is not trace_batch
    curves.pair_count(None, None, 0, 0, 11)

    tb = tracer.labels["_kernels.trace_batch"]
    assert (tb["calls"], tb["primes"], tb["p_sum"]) == (1, 2, 12)
    assert tracer.labels["curves.pair_count"]["primes"] == 3  # 5, 7, 11
    assert tracer.edges["curves.pair_count>_kernels.trace_batch"] == 1
    assert "gekeler.f_ell" in tracer.absent
    assert "_kernels.trace_batch" not in tracer.absent


def test_errors_are_counted_and_raised():
    tracer = trace_shim.Tracer()

    def boom():
        raise OverflowError("int too large")

    with pytest.raises(OverflowError):
        tracer.run("boom", boom, (), {})
    assert tracer.labels["boom"]["errors"] == 1
