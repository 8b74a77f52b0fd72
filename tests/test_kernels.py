"""The batch matrix-count, Hurwitz-table and Philox kernels against their
scalar and brute-force oracles."""

import numpy as np
import pytest

from tracepair import _kernels, local
from tracepair.class_numbers import hurwitz_weighted
from tracepair.matcount import PrimePower, m_closed

GRID = ((2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (5, 2), (7, 1), (13, 1))


def test_m_values_match_brute():
    for ell, k in GRID:
        q = ell ** k
        for t in (0, 1, 2, 3, 4, q - 1, q + 5):
            units, codes, values = _kernels.m_values(t, ell, k, 1, q)
            assert units.tolist() == [u for u in range(1, q) if u % ell]
            for u, m in zip(units.tolist(), values[codes].tolist()):
                assert m == _kernels.m_brute(t % q, u, q)


def test_m_values_match_scalar_closed_form():
    for ell, k in ((2, 4), (3, 2), (5, 1), (7, 1)):
        pp = PrimePower(ell, k)
        q = pp.modulus
        for t in range(q):
            units, codes, values = _kernels.m_values(t, ell, k, 1, q)
            for u, m in zip(units.tolist(), values[codes].tolist()):
                assert m == m_closed(t, u, pp)


@pytest.mark.parametrize("ell,k", [(2, 12), (3, 7)])
def test_s_direct_block_and_worker_invariance(monkeypatch, ell, k):
    pp = PrimePower(ell, k)
    q = pp.modulus
    pairs = ((0, 2), (1, 3), (2, 6), (5, -5))
    expected = {
        (t1, t2): sum(m_closed(t1, u, pp) * m_closed(t2, u, pp) for u in range(1, q) if u % ell)
        for t1, t2 in pairs
    }
    monkeypatch.setattr(local, "_BLOCK", 64)
    for (t1, t2), want in expected.items():
        assert local.s_direct(t1, t2, pp) == want


def test_hurwitz_table_matches_per_discriminant_route():
    N = 20_000
    table = _kernels.hurwitz_table(N)
    assert table.dtype.name == "int64" and table.shape == (N + 1,)
    for n in range(N + 1):
        if n > 0 and n % 4 in (0, 3):
            assert table[n] == 12 * hurwitz_weighted(-n), n
        else:
            assert table[n] == 0, n
    for small in (0, 2, 3, 12, 13):  # sizes that cut the rows short
        assert (_kernels.hurwitz_table(small) == table[: small + 1]).all()


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1])
def test_philox_uniforms_match_numpy(seed):
    for start, n in ((0, 200), (2 ** 31 - 2, 4), (2 ** 32 - 2, 3)):
        got = _kernels.philox_uniforms(seed, n, start)
        assert got.shape == (n, 3) and got.dtype == np.float64
        for j in range(n):
            key = np.array([seed, start + j], dtype=np.uint64)
            want = np.random.Generator(np.random.Philox(key=key)).random(3)
            assert np.array_equal(got[j], want), (seed, start + j)
