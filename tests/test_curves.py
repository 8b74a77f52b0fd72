import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracepair import curves
from tracepair.arith import sieve_primes
from tracepair.curves import (
    Curve, good_primes, pair_count, point_count_brute, trace_ap, trace_batch,
)

SMALL_PRIMES = [int(p) for p in sieve_primes(300) if p > 3]  # straddles the 229 cutoff


def _good_primes(curve, x):
    return np.array([p for p in sieve_primes(x).tolist() if curve.good_reduction(p)],
                    dtype=np.int64)


def test_curve_discriminant():
    assert Curve(1, 0).disc == -64
    assert Curve(0, 1).disc == -432
    with pytest.raises(ValueError):
        Curve(0, 0)
    # a record rebuilt from fields is checked as a new one
    assert Curve(1, 0)._replace(b=1) == Curve(1, 1)
    with pytest.raises(ValueError, match="singular curve: discriminant is zero"):
        Curve(1, 0)._replace(a=0)
    # trace_ap's error text prints the curve
    assert repr(Curve(a=1, b=1)) == "Curve(a=1, b=1)"
    with pytest.raises(ValueError, match=r"p = 5 is not a good prime for Curve\(a=5, b=0\)"):
        trace_ap(Curve(5, 0), 5)


def test_trace_spot():
    # #E(F_5) = 4 for y^2 = x^3 + x
    assert trace_ap(Curve(1, 0), 5) == 2
    assert point_count_brute(Curve(1, 0), 5) == 4


def test_trace_rejects_bad_reduction():
    with pytest.raises(ValueError):
        trace_ap(Curve(1, 0), 2)
    with pytest.raises(ValueError):
        trace_ap(Curve(1, 1), 3)
    c = Curve(0, 1)  # disc -432 = -2^4 3^3
    with pytest.raises(ValueError):
        trace_ap(c, 3)


@pytest.mark.parametrize("p", [9, 25, 2 ** 31 - 3])
def test_trace_rejects_composite_p(p):
    # the kernel reads any int as a prime (9 would give 0); 2^31 - 3 = 5 * 429496729
    with pytest.raises(ValueError, match=f"^p must be prime, got {p}$"):
        trace_ap(Curve(1, 1), p)


def test_trace_point_count_oracle():
    rng = random.Random(5)
    primes = [int(p) for p in sieve_primes(150) if p > 3]
    done = 0
    while done < 20:
        a, b = rng.randint(-15, 15), rng.randint(-15, 15)
        if 4 * a ** 3 + 27 * b ** 2 == 0:
            continue
        cur = Curve(a, b)
        for p in primes:
            if not cur.good_reduction(p):
                continue
            assert trace_ap(cur, p) == p + 1 - point_count_brute(cur, p)
        done += 1


def test_trace_large_coefficients():
    # a = 10^17 once overflowed int64 inside the kernel and gave a_101 = 11
    cur = Curve(10 ** 17, 1)
    assert trace_ap(cur, 101) == 17 == 102 - point_count_brute(cur, 101)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(-2 ** 80, 2 ** 80), st.integers(-2 ** 80, 2 ** 80))
def test_trace_batch_matches_point_count_any_coefficients(a, b):
    assume(4 * a ** 3 + 27 * b ** 2 != 0)
    cur = Curve(a, b)
    primes = [p for p in SMALL_PRIMES if cur.good_reduction(p)]
    traces = curves.trace_batch(a, b, primes)
    assert traces.tolist() == [p + 1 - point_count_brute(cur, p) for p in primes]


@pytest.mark.parametrize("a,b", [(-1, 0), (0, 1), (1, 1), (-2, 3)])
def test_trace_batch_matches_character_sum(a, b):
    # (-1, 0) and (0, 1) have CM: their small-exponent groups need retries and fallbacks
    primes = _good_primes(Curve(a, b), 30_000)
    assert np.array_equal(curves.trace_batch(a, b, primes), curves._trace_charsum(a, b, primes))


def test_trace_batch_one_start_small_blocks(monkeypatch):
    # with one start value every prime its point does not settle goes to the
    # character sum; blocks of 37 put block boundaries everywhere
    monkeypatch.setattr(curves, "_BSGS_STARTS", 1)
    monkeypatch.setattr(curves, "_BSGS_BLOCK", 37)
    for a, b in ((-1, 0), (0, 1), (-11, 14)):
        primes = _good_primes(Curve(a, b), 6000)
        assert np.array_equal(curves.trace_batch(a, b, primes),
                              curves._trace_charsum(a, b, primes))


def test_bsgs_block_certifies_only_exact_traces():
    # small primes in a block sized for p ~ 1e6 get few giant steps and
    # points of small order: whatever the block resolves must still be exact
    small = [p for p in sieve_primes(600).tolist() if p > 229]
    for a, b in ((-1, 0), (0, 1), (1, 1), (-2, 3), (2, 5), (-11, 14), (0, 7), (5, 0)):
        cur = Curve(a, b)
        primes = np.array([p for p in small if cur.good_reduction(p)] + [999_983], dtype=np.int64)
        want = curves._trace_charsum(a, b, primes[:-1])
        for t in range(1, 9):
            ap, ok = curves._bsgs_block(a, b, primes, t)
            assert np.array_equal(ap[:-1][ok[:-1]], want[ok[:-1]])


def test_trace_range_enforced():
    cur = Curve(1, 1)
    with pytest.raises(ValueError, match="2\\^31"):
        trace_ap(cur, 2 ** 31 + 11)
    # pair_count's x stops below the kernel's range, at PAIR_X_BOUND = 10^8
    for x in (2 ** 31, curves.PAIR_X_BOUND + 1):
        with pytest.raises(ValueError, match=f"{curves.PAIR_X_BOUND}"):
            pair_count(cur, cur, 0, 0, x)


def test_hasse_bound():
    cur = Curve(-2, 3)
    primes = sieve_primes(20_000)
    primes = primes[primes > 3]
    primes = primes[np.gcd(primes, abs(cur.disc)) == 1]
    traces = trace_batch(cur.a, cur.b, primes)
    assert np.all(traces * traces <= 4 * primes)


def test_cm_supersingular_pattern():
    # y^2 = x^3 - x is supersingular exactly at p = 3 mod 4
    cur = Curve(-1, 0)
    primes = sieve_primes(2000)
    primes = primes[primes > 3]
    traces = trace_batch(cur.a, cur.b, primes)
    for p, ap in zip(primes.tolist(), traces.tolist()):
        assert (ap == 0) == (p % 4 == 3)


def test_cm_trace_two_means_square():
    cur = Curve(-1, 0)
    primes = sieve_primes(5000)
    primes = primes[primes > 3]
    traces = trace_batch(cur.a, cur.b, primes)
    for p in primes[traces == 2].tolist():
        n = math.isqrt(p - 1)
        assert n * n == p - 1


def test_good_primes_matches_good_reduction():
    big = Curve(2 ** 70 + 1, 3 ** 40)  # |disc| far above 2^63
    for curves in ((Curve(-1, 0),), (Curve(1, 0), Curve(0, 1)), (big, Curve(-2, 3))):
        want = [p for p in sieve_primes(3000).tolist() if all(c.good_reduction(p) for c in curves)]
        got = good_primes(3000, *curves)
        assert got.dtype == np.int64 and got.tolist() == want


def test_pair_count_same_curve():
    e = Curve(1, 1)
    assert pair_count(e, e, 1, 2, 400)["count"] == 0
    primes = sieve_primes(400)
    primes = primes[primes > 3]
    primes = primes[np.gcd(primes, abs(e.disc)) == 1]
    singles = int(np.count_nonzero(trace_batch(e.a, e.b, primes) == 2))
    assert pair_count(e, e, 2, 2, 400)["count"] == singles


def test_pair_count_listing_and_monotone():
    e1, e2 = Curve(1, 0), Curve(0, 1)
    r = pair_count(e1, e2, 0, 0, 300, list_primes=True)
    assert r["count"] == len(r["matched_primes"]) == 15
    assert all(p % 12 == 11 for p in r["matched_primes"])
    r2 = pair_count(e1, e2, 0, 0, 1000)
    assert r2["count"] >= r["count"]


_FILTER_CURVES = ((-1, 0), (0, 1), (1, 1), (3, -7))  # two CM; every one has primes with d = 0


def test_trace_sieve_keeps_every_prime_at_its_trace():
    # the filter may drop p only with a proof that a_p != t, so at t = a_p it keeps every prime
    for a, b in _FILTER_CURVES:
        primes = good_primes(30_000, Curve(a, b))
        traces = curves.trace_batch(a, b, primes)
        for t in np.unique(traces).tolist():
            at_t = primes[traces == t]
            assert np.array_equal(curves._trace_sieve(a, b, at_t, t), at_t), (a, b, t)
        no_start = primes[~curves._start_point(a, b, primes, 1)[4]]
        assert no_start.size and np.isin(no_start, curves._trace_sieve(a, b, primes, 0)).all()


def test_trace_sieve_drops_primes_beyond_hasse():
    for a, b in _FILTER_CURVES:
        primes = good_primes(30_000, Curve(a, b))
        for t in (-301, -60, 7, 60, 200):
            kept = curves._trace_sieve(a, b, primes, t)
            assert kept.size and np.all(t * t <= 4 * kept), (a, b, t)
        for t in (347, 10 ** 20, -(2 ** 63)):  # 347^2 > 4 * 29_989, the largest prime
            assert curves._trace_sieve(a, b, primes, t).size == 0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_pair_count_matches_full_sweep(data):
    x = data.draw(st.integers(5, 2_000) | st.integers(2_000, 20_000), label="x")
    coefficient = st.integers(-30, 30)
    cm = data.draw(st.booleans(), label="cm")
    if cm:  # j = 1728 or j = 0: a_p = 0 at about half the primes
        c = data.draw(coefficient.filter(bool), label="c")
        e1 = Curve(c, 0) if data.draw(st.booleans(), label="j1728") else Curve(0, c)
    else:
        a, b = data.draw(st.tuples(coefficient, coefficient), label="e1")
        assume(4 * a ** 3 + 27 * b ** 2 != 0)
        e1 = Curve(a, b)
    relation = data.draw(st.sampled_from(("other", "same", "twist")), label="relation")
    if relation == "other":
        a, b = data.draw(st.tuples(coefficient, coefficient), label="e2")
        assume(4 * a ** 3 + 27 * b ** 2 != 0)
        e2 = Curve(a, b)
    elif relation == "same":
        e2 = e1
    else:  # the quadratic twist by d
        d = data.draw(st.sampled_from((-1, 2, -3, 5)), label="d")
        e2 = Curve(e1.a * d * d, e1.b * d ** 3)
    primes = good_primes(x, e1, e2)
    tr1, tr2 = curves.trace_batch(e1.a, e1.b, primes), curves.trace_batch(e2.a, e2.b, primes)
    if primes.size and data.draw(st.booleans(), label="hit"):  # traces taken at one prime
        i = data.draw(st.integers(0, primes.size - 1), label="i")
        t1, t2 = int(tr1[i]), int(tr2[i])
    else:
        t1, t2 = data.draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), label="t")
    if cm:
        t1 = 0
    want = primes[(tr1 == t1) & (tr2 == t2)].tolist()
    got = pair_count(e1, e2, t1, t2, x, list_primes=True)
    assert got["matched_primes"] == want and got["count"] == len(want)


@pytest.mark.parametrize("t1,t2", [(2001, 0), (0, -2001), (10 ** 20, 1), (-(2 ** 63), 10 ** 30)])
def test_pair_count_unreachable_trace_does_no_work(monkeypatch, t1, t2):
    def fail(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(curves, "sieve_primes", fail)
    monkeypatch.setattr(curves, "trace_batch", fail)
    monkeypatch.setattr(curves, "_multiply", fail)
    r = pair_count(Curve(1, 0), Curve(0, 1), t1, t2, 10 ** 6, list_primes=True)
    assert r == {"count": 0, "x": 10 ** 6, "matched_primes": []}


def test_pair_count_prediction_flagged():
    r = pair_count(Curve(1, 0), Curve(0, 1), 1, 1, 100, prediction_lmax=50)
    assert r["prediction_assumes_generic_image"] is True
    assert r["prediction"] > 0


def test_pair_count_unreachable_trace_predicts_zero_without_work(monkeypatch):
    def fail(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(curves, "sieve_primes", fail)
    monkeypatch.setattr(curves, "trace_batch", fail)
    # 2001^2 > 4 * 10^6: no prime p <= 10^6 carries a_p = 2001
    r = pair_count(Curve(-1, 1), Curve(1, 1), 2001, 0, 10 ** 6, prediction_lmax=100)
    assert r == {"count": 0, "x": 10 ** 6, "prediction": 0.0,
                 "prediction_assumes_generic_image": True}


@pytest.mark.parametrize("e1,e2,t1,t2,x", [
    ((-1, 1), (1, 1), 1, 1, 30_000),
    ((-1, 1), (1, 1), 0, 0, 5_000),
    ((1, 0), (0, 1), -7, 3, 3_000),
    # 150^2 = 4 * 5625: only the primes above 5625 can carry a_p = 150
    ((-1, 1), (1, 1), 150, 0, 20_000),
    ((-1, 1), (1, 1), 0, 199, 10_000),
])
def test_pair_count_prediction_sums_one_over_p_of_good_primes(e1, e2, t1, t2, x):
    from tracepair.constants import pair_constant

    e1, e2 = Curve(*e1), Curve(*e2)
    got = pair_count(e1, e2, t1, t2, x, prediction_lmax=200)["prediction"]
    total = 0.0
    for p in sieve_primes(x).tolist():
        if e1.good_reduction(p) and e2.good_reduction(p) and t1 * t1 < 4 * p and t2 * t2 < 4 * p:
            total += 1.0 / p
    assert total > 0
    assert math.isclose(got, float(pair_constant(t1, t2, 200)) * total, rel_tol=1e-12)
