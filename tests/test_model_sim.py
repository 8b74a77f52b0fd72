import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepair import model_sim
from tracepair.arith import SIEVE_HARD_LIMIT, prime_factors, sieve_primes
from tracepair.local import s_direct
from tracepair.matcount import PrimePower, delta_group_size
from tracepair.model_sim import (
    MODEL_LEVEL_BOUND,
    MODEL_N_BOUND,
    ModelConfig,
    SampleRun,
    class_density,
    expected_hits,
    growth_check,
    rectangle_mass_empirical,
    rectangle_mass_exact,
    sample_run,
)
from tracepair.verify import enumerate_delta_counts


def semicircle_weights(p):
    """Integers strictly inside (-2 sqrt p, 2 sqrt p) and their weights."""
    umax = math.isqrt(4 * p - 1)
    u = np.arange(-umax, umax + 1, dtype=np.int64)
    w = np.sqrt(1.0 - u.astype(np.float64) ** 2 / (4.0 * p))
    return u, w


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(1, 100, 0, 0, 0)
    with pytest.raises(ValueError):
        ModelConfig(2, 3, 0, 0, 0)
    with pytest.raises(ValueError):
        ModelConfig(2, MODEL_N_BOUND + 1, 0, 0, 0)
    with pytest.raises(ValueError):
        ModelConfig(MODEL_LEVEL_BOUND + 1, 100, 0, 0, 0)
    for seed in (-1, 2 ** 64, 2 ** 128 + 1):
        with pytest.raises(ValueError):
            ModelConfig(2, 100, seed, 0, 0)
    ModelConfig(MODEL_LEVEL_BOUND, MODEL_N_BOUND, 2 ** 64 - 1, 0, 0)
    # a record rebuilt from fields is checked as a new one, in the same order
    config = ModelConfig(2, 100, 0, 1, 1)
    assert config._replace(t1=3) == ModelConfig(2, 100, 0, 3, 1)
    for fields, message in (({"m": 1}, "level m"), ({"seed": -1}, "seed"),
                            ({"n_max": 4}, "n_max"), ({"m": 1, "seed": -1, "n_max": 4}, "level m"),
                            ({"seed": -1, "n_max": 4}, "seed")):
        with pytest.raises(ValueError, match=message):
            config._replace(**fields)


def _density_by_s_direct(m, r1, r2):
    """One cell of the table as the product of s_direct over the prime powers of m."""
    density = Fraction(1)
    for ell, k in prime_factors(m):
        pp = PrimePower(ell, k)
        density *= Fraction(s_direct(r1, r2, pp), delta_group_size(pp))
    return density


def test_class_density_prime_power():
    pp = PrimePower(2, 1)
    table = class_density(2)
    assert table[1][1] == Fraction(s_direct(1, 1, pp), delta_group_size(pp))
    assert table[1][1] == Fraction(1, 9)
    assert 4 * table[1][1] == Fraction(4, 9)


@pytest.mark.parametrize("m", [*range(2, 13), 30])
def test_class_density_matches_s_direct(m):
    table = class_density(m)
    assert len(table) == m and all(len(row) == m for row in table)
    for r1, r2 in itertools.product(range(m), repeat=2):
        assert table[r1][r2] == _density_by_s_direct(m, r1, r2), (r1, r2)


@pytest.mark.parametrize("m", [64, MODEL_LEVEL_BOUND])
def test_class_density_matches_s_direct_on_seeded_cells(m):
    table = class_density(m)
    rng = random.Random(m)
    for _ in range(40):
        r1, r2 = rng.randrange(m), rng.randrange(m)
        assert table[r1][r2] == _density_by_s_direct(m, r1, r2), (r1, r2)
    assert sum(map(sum, table)) == 1


@pytest.mark.parametrize("m", [-1, 0, 1, MODEL_LEVEL_BOUND + 1])
def test_class_density_refuses_level_out_of_bound(m):
    with pytest.raises(ValueError):
        class_density(m)


def test_class_density_partition():
    for m in (2, 3, 4, 6):
        assert sum(map(sum, class_density(m))) == 1


def test_class_density_crt():
    counts, order = enumerate_delta_counts(6)
    table = class_density(6)
    for r1 in range(6):
        for r2 in range(6):
            assert table[r1][r2] == Fraction(int(counts[r1][r2]), order)
    # multiplicativity across the coprime factors 4 and 3
    t12, t4, t3 = class_density(12), class_density(4), class_density(3)
    for r1 in range(12):
        for r2 in range(12):
            assert t12[r1][r2] == t4[r1 % 4][r2 % 4] * t3[r1 % 3][r2 % 3]


def test_semicircle_weights_inside_open_interval():
    for p in (5, 11, 97, 10007):
        u, w = semicircle_weights(p)
        assert u[0] == -u[-1]
        assert int(u[-1]) ** 2 < 4 * p <= (int(u[-1]) + 1) ** 2
        assert np.all(w > 0) and np.all(w <= 1)


def test_sample_run_deterministic():
    cfg = ModelConfig(2, 3000, 99, 1, 1)
    a = sample_run(cfg)
    b = sample_run(cfg)
    assert np.array_equal(a.u1, b.u1) and np.array_equal(a.u2, b.u2)
    c = sample_run(ModelConfig(2, 3000, 100, 1, 1))
    assert not np.array_equal(a.u1, c.u1)


def test_sample_run_hasse_and_counts():
    cfg = ModelConfig(4, 3000, 7, 1, 1)
    run = sample_run(cfg)
    assert np.all(run.u1 * run.u1 < 4 * run.primes)
    assert np.all(run.u2 * run.u2 < 4 * run.primes)
    assert run.class_counts.sum() == run.primes.shape[0]
    assert growth_check(run).hits == int(np.count_nonzero((run.u1 == 1) & (run.u2 == 1)))


def test_class_frequencies_track_density():
    cfg = ModelConfig(2, 30_000, 1, 1, 1)
    run = sample_run(cfg)
    n = run.primes.shape[0]
    table = class_density(2)
    for r1 in range(2):
        for r2 in range(2):
            q = float(table[r1][r2])
            sigma = math.sqrt(q * (1 - q) / n)
            assert abs(run.class_counts[r1, r2] / n - q) < 4 * sigma


def test_rectangle_masses():
    assert abs(rectangle_mass_exact(-1, 1, -1, 1) - 1.0) < 1e-15
    q = rectangle_mass_exact(0, 1, 0, 1)
    assert abs(q - 0.25) < 1e-15
    cfg = ModelConfig(2, 30_000, 3, 1, 1)
    run = sample_run(cfg)
    n = run.primes.shape[0]
    emp = rectangle_mass_empirical(run, 0, 1, 0, 1)
    assert abs(emp - q) < 4 * math.sqrt(q * (1 - q) / n)


def test_growth_check_prediction():
    cfg = ModelConfig(2, 5000, 4, 1, 1)
    run = sample_run(cfg)
    g = growth_check(run)
    manual = float(4 * class_density(2)[1][1]) / math.pi ** 2 * float(
        np.sum(1.0 / run.primes.astype(float))
    )
    assert abs(g.predicted - manual) < 1e-12
    g2 = growth_check(run, upto=1000)
    assert g2.predicted < g.predicted


@functools.lru_cache(maxsize=None)
def _small_run(m):
    return sample_run(ModelConfig(m, 3000, 11, 0, 0))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(m=st.sampled_from([2, 4, 6, 12]), t1=st.integers(-4, 4), t2=st.integers(-4, 4),
       upto=st.integers(5, 3000))
def test_growth_check_prediction_is_the_old_inline_formula(m, t1, t2, upto):
    # every prime p >= 5 carries |t| <= 4, so the Hasse rule drops none of them
    base = _small_run(m)
    run = base._replace(config=base.config._replace(t1=t1, t2=t2))
    primes = run.primes[run.primes <= upto]
    weight = float(run.weights[t1 % m, t2 % m])
    old = weight / math.pi ** 2 * float(np.sum(1.0 / primes.astype(np.float64)))
    assert growth_check(run, upto=upto).predicted == old


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(t1=st.one_of(st.integers(-300, 300), st.integers(-2 ** 70, 2 ** 70)),
       t2=st.integers(-300, 300), x=st.integers(5, 20_000))
def test_expected_hits_sums_the_primes_that_can_carry_the_traces(t1, t2, x):
    primes = sieve_primes(x)
    primes = primes[primes >= 5]
    loop = sum(1.0 / p for p in primes.tolist() if t1 * t1 < 4 * p and t2 * t2 < 4 * p)
    got = expected_hits(0.75, primes, t1, t2)
    assert math.isclose(got, 0.75 * loop, rel_tol=1e-12)
    assert (got == 0.0) == (loop == 0)


def test_growth_check_drops_primes_that_cannot_carry_the_trace():
    run = _small_run(2)
    run = run._replace(config=run.config._replace(t1=5, t2=0))
    g = growth_check(run)
    weight = float(run.weights[1, 0])
    # p = 5 cannot carry a_p = 5 (25 >= 4 * 5); p >= 7 can
    kept = run.primes[run.primes >= 7]
    assert g.predicted == weight / math.pi ** 2 * float(np.sum(1.0 / kept.astype(np.float64)))


def test_sampler_hit_mass_matches_prediction():
    # deterministic check of the growth law: exact per-prime hit probability
    # summed over primes stays within a few percent of the asymptotic form
    m = 2
    fw = np.array([[float(m * m * d) for d in row] for row in class_density(m)])
    primes = sieve_primes(50_000)
    primes = primes[primes >= 5]
    exact = 0.0
    asym = 0.0
    for p in primes.tolist():
        u, w = semicircle_weights(p)
        res = (u % m).astype(np.int64)
        m1 = np.bincount(res, weights=w, minlength=m)
        z = float((m1[:, None] * m1[None, :] * fw).sum())
        exact += float(w[u == 1][0]) ** 2 * fw[1, 1] / z
        asym += fw[1, 1] / (math.pi ** 2 * p)
    assert abs(exact - asym) / asym < 0.05


def _sample_run_scalar(config):
    """Per-prime loop with a fresh Philox per prime; oracle for ``sample_run``."""
    m = config.m
    fweight = np.array([[float(m * m * d) for d in row] for row in class_density(m)])
    primes = sieve_primes(config.n_max)
    primes = primes[primes >= 5]
    out1 = np.empty(primes.shape[0], dtype=np.int64)
    out2 = np.empty(primes.shape[0], dtype=np.int64)
    class_counts = np.zeros((m, m), dtype=np.int64)
    for i, p in enumerate(primes.tolist()):
        rng = np.random.Generator(np.random.Philox(key=np.array([config.seed, i], dtype=np.uint64)))
        out1[i], out2[i] = _sample_prime(p, rng.random(3), m, fweight)
        class_counts[out1[i] % m, out2[i] % m] += 1
    return SampleRun(config, primes, out1, out2, class_counts, fweight)


def _sample_prime(p, draws, m, fweight):
    u, w = semicircle_weights(p)
    residues = (u % m).astype(np.int64)
    m1 = np.bincount(residues, weights=w, minlength=m)
    joint = m1[:, None] * m1[None, :] * fweight
    flat = np.cumsum(joint.ravel())
    idx = int(np.searchsorted(flat, draws[0] * flat[-1], side="right"))
    idx = min(idx, m * m - 1)
    r1, r2 = divmod(idx, m)
    return (_draw_in_class(u, w, residues, r1, draws[1]),
            _draw_in_class(u, w, residues, r2, draws[2]))


def _draw_in_class(u, w, residues, r, x):
    mask = residues == r
    cw = np.cumsum(w[mask])
    j = int(np.searchsorted(cw, x * cw[-1], side="right"))
    j = min(j, cw.shape[0] - 1)
    return int(u[mask][j])


def _same_run(a, b):
    return (
        np.array_equal(a.primes, b.primes)
        and np.array_equal(a.u1, b.u1)
        and np.array_equal(a.u2, b.u2)
        and np.array_equal(a.class_counts, b.class_counts)
        and np.array_equal(a.weights, b.weights)
    )


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.integers(2, 12),
    st.integers(5, 5000),
    st.integers(0, 2 ** 64 - 1),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
def test_sample_run_matches_scalar_loop(m, n_max, seed, t1, t2):
    cfg = ModelConfig(m, n_max, seed, t1, t2)
    assert _same_run(sample_run(cfg), _sample_run_scalar(cfg))


def test_sample_run_matches_scalar_loop_across_blocks(monkeypatch):
    # draw chunks of 1000 keys cut the sampler blocks at other places
    monkeypatch.setattr(model_sim, "_DRAW_CHUNK", 1000)
    for m in (2, 12):
        cfg = ModelConfig(m, 20_000, 31, 1, 1)
        assert model_sim._block_size(m, cfg.n_max) < 1000 < cfg.n_max
        assert _same_run(sample_run(cfg), _sample_run_scalar(cfg))


def test_sample_block_matches_scalar_at_extreme_draws():
    # Philox doubles lie in [0, 1 - 2^-53]; 1.0 also drives both clips
    m = 6
    fweight = np.array([[float(m * m * d) for d in row] for row in class_density(m)])
    primes = sieve_primes(400)
    primes = primes[primes >= 5]
    edges = (0.0, 0.5, 1 - 2 ** -53, 1.0)
    for draw in itertools.product(edges, repeat=3):
        draws = np.tile(draw, (primes.shape[0], 1))
        u1, u2 = model_sim._sample_block(primes, draws, m, fweight)
        for i, p in enumerate(primes.tolist()):
            assert (u1[i], u2[i]) == _sample_prime(p, draws[i], m, fweight), (p, draw)


def test_class_cdf_matches_semicircle_weights():
    primes = sieve_primes(3000)
    primes = primes[primes >= 5]
    for m in (2, 5, 12):
        lo, cdf = model_sim.class_cdf(primes, m)
        assert lo % m == 0
        for i, p in enumerate(primes.tolist()):
            u, w = semicircle_weights(p)
            for r in range(m):
                cw = np.cumsum(w[u % m == r])
                assert cdf[i, r, -1] == (cw[-1] if cw.size else 0.0)
                row = cdf[i, r][cdf[i, r] > 0]
                assert np.array_equal(row[: cw.shape[0]], cw)


def test_block_size_within_element_budget():
    # a single prime's grid holds ~4 sqrt(p) cells, so above n_max ~ 1e9 a
    # block is one prime that is wider than the budget
    for m in (2, 3, 12, MODEL_LEVEL_BOUND):
        for n_max in (5, 1000, 10 ** 5, 10 ** 6, 10 ** 7, 10 ** 8, 10 ** 9):
            umax = math.isqrt(4 * n_max - 1)
            width = model_sim._grid_columns(m, umax) * m
            assert width >= 2 * umax + 1
            B = model_sim._block_size(m, n_max)
            assert B >= 1
            assert B * max(width, m * m) <= model_sim._BLOCK_ELEMENTS
    assert model_sim._block_size(MODEL_LEVEL_BOUND, SIEVE_HARD_LIMIT) == 1
