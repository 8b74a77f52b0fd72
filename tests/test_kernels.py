"""The batch matrix-count, Hurwitz-table and Philox kernels against their
scalar and brute-force oracles."""

import numpy as np
import pytest

from tracepair import constants, local
from tracepair.class_numbers import hurwitz_weighted
from tracepair.matcount import PrimePower, m_brute, m_closed, m_values
from tracepair.model_sim import philox_uniforms
from tracepair.prime_stats import hurwitz_table

GRID = ((2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (5, 2), (7, 1), (13, 1))


def test_m_values_match_brute():
    for ell, k in GRID:
        q = ell ** k
        for t in (0, 1, 2, 3, 4, q - 1, q + 5):
            units, codes, values = m_values(t, ell, k, 1, q)
            assert units.tolist() == [u for u in range(1, q) if u % ell]
            for u, m in zip(units.tolist(), values[codes].tolist()):
                assert m == m_brute(t, u, PrimePower(ell, k))


def test_m_values_match_scalar_closed_form():
    for ell, k in ((2, 4), (3, 2), (5, 1), (7, 1)):
        pp = PrimePower(ell, k)
        q = pp.modulus
        for t in range(q):
            units, codes, values = m_values(t, ell, k, 1, q)
            for u, m in zip(units.tolist(), values[codes].tolist()):
                assert m == m_closed(t, u, pp)


def _m_codes_plain(t, ell, k, u_lo, u_hi):
    """(units, codes) of ``m_values`` by repeated division of each D on Python ints."""
    t %= ell ** k
    cap = k if ell > 2 else k + 2
    units, codes = [], []
    for u in range(u_lo, u_hi):
        if u % ell == 0:
            continue
        rem, n = t * t - 4 * u, 0
        while n < cap and rem % ell == 0:
            rem //= ell
            n += 1
        if ell == 2:
            code = 8 * n + rem % 8
        else:
            code = 2 * n + any((x * x - rem) % ell == 0 for x in range(1, ell))
        units.append(u)
        codes.append(code)
    return units, codes


@pytest.mark.parametrize("ell,k", [(2, 5), (2, 9), (3, 4), (5, 3), (7, 3)])
def test_m_values_match_plain_valuation_loop(ell, k):
    q = ell ** k
    # t = 2, u = 1 gives D = 0, which divides to the cap
    traces = (0, 1, 2, 3, 4, 6, q - 1, q, q + 2, 3 * q + 5, -1, -2, -q - 3)
    blocks = ((1, q), (2, q), (0, 1), (2, 3), (q // 2 * 2, q + 10), (64, 64 + 3 * ell))
    for t in traces:
        for u_lo, u_hi in blocks:
            units, codes, values = m_values(t, ell, k, u_lo, u_hi)
            assert (units.tolist(), codes.tolist()) == _m_codes_plain(t, ell, k, u_lo, u_hi), (
                t, u_lo, u_hi)
            assert codes.dtype == units.dtype == values.dtype == np.int64


@pytest.mark.parametrize("ell,k", [(2, 12), (3, 7)])
def test_s_direct_block_invariance(monkeypatch, ell, k):
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


def test_tail_sums_match_python_floats():
    # numpy's SIMD power differs from libm's pow in the last bit at 7, 61, 151, ...;
    # above _EXACT_SQUARE a float cube of the float square rounds twice (edge + 2)
    edge = constants._EXACT_SQUARE
    terms = (3, 7, 61, 151, 349, 1009, 2 ** 21 + 23, edge - 1, edge, edge + 1, edge + 2,
             1_999_999_973)
    for p in terms:  # one term: the sum is the term itself
        assert constants.tail_sums([p]) == (8.0 / p ** 1.5, 4.0 / p ** 3), p
    cons = emp = 0.0
    for p in terms:
        cons += 8.0 / p ** 1.5
        emp += 4.0 / p ** 3
    assert constants.tail_sums(terms) == (cons, emp)


def test_hurwitz_table_matches_per_discriminant_route():
    N = 20_000
    table = hurwitz_table(N)
    assert table.dtype.name == "int32" and table.shape == (N + 1,)
    for n in range(N + 1):
        if n > 0 and n % 4 in (0, 3):
            assert table[n] == 12 * hurwitz_weighted(-n), n
        else:
            assert table[n] == 0, n
    for small in (0, 2, 3, 12, 13):  # sizes that cut the rows short
        assert (hurwitz_table(small) == table[: small + 1]).all()


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1])
def test_philox_uniforms_match_numpy(seed):
    for start, n in ((0, 200), (2 ** 31 - 2, 4), (2 ** 32 - 2, 3)):
        got = philox_uniforms(seed, n, start)
        assert got.shape == (n, 3) and got.dtype == np.float64
        for j in range(n):
            key = np.array([seed, start + j], dtype=np.uint64)
            want = np.random.Generator(np.random.Philox(key=key)).random(3)
            assert np.array_equal(got[j], want), (seed, start + j)
