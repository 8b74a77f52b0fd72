"""Counting 2x2 matrices over Z/ell^k Z with prescribed trace and determinant.

Three independent routes to m(t, u; ell^k):

* ``m_closed`` -- the thirteen-case closed form (four cases for odd ell, one
  for ell = 2 with odd trace, eight for ell = 2 with even trace), written
  once in ``_case`` and keyed by a valuation and a residue, so each branch
  has an id that tests can name and ``m_values`` can tabulate;
* ``m_dks``    -- the square-count recursion over N_D(ell^j), evaluated in
  exact rationals with an integrality assertion;
* ``m_brute``  -- direct enumeration of (a, b, c) with d = t - a, budgeted.

They are cross-checked exhaustively in the verify suite.  ``m_values`` gives
the closed form of a whole block of units at once, in numpy, which the array
functions import when they run, so that the scalar routes load no numpy.
"""

from fractions import Fraction
from typing import NamedTuple

from .arith import check_prime, legendre_symbol, nu_lk, padic_valuation

BRUTE_BUDGET = 2_000_000
K_BOUND = 64  # covers alpha + 1 for any pair of int64 traces


class _Modulus(NamedTuple):
    ell: int
    k: int


class PrimePower(_Modulus):
    """A local modulus ell^k with a prime ell < 2^31 and 1 <= k <= 64.

    k is checked first, then ell by ``arith.check_prime`` (its bound before
    its primality test), and both before any power of ell is formed; ``_make``
    and ``_replace`` check them too.
    """

    __slots__ = ()

    def __new__(cls, ell, k):
        if not 1 <= k <= K_BOUND:
            raise ValueError(f"k must be in [1, {K_BOUND}], got {k}")
        check_prime(ell, "ell")
        return super().__new__(cls, ell, k)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def modulus(self):
        return self.ell ** self.k


def delta_group_size(pp):
    """Order of the equal-determinant pair group over Z/ell^k Z."""
    ell, k = pp.ell, pp.k
    phi = ell ** k - ell ** (k - 1)
    return phi * (ell ** (3 * k - 2) * (ell ** 2 - 1)) ** 2


def _require_unit(u, pp):
    if u % pp.ell == 0:
        raise ValueError(f"u = {u} is not a unit mod {pp.ell}^{pp.k}")


def _case(n, key, ell, k):
    """(case id, m(t, u; ell^k)) from the capped valuation n = nu_lk(t, u, ell, k).

    ``key`` is the residue of the reduced discriminant r = D/ell^n: for odd
    ell, whether r is a square mod ell; for ell = 2, r mod 8.  It is read
    only where the case needs it (n < k for odd ell, n <= k for ell = 2).
    For ell = 2, n = 0 exactly when t is odd.  Base = ell^{2k} + ell^{2k-1}.
    """
    base = ell ** (2 * k) + ell ** (2 * k - 1)
    top = 3 * k // 2 - 1 if k % 2 == 0 else (3 * k - 1) // 2
    if ell > 2:
        if n == k:
            return "odd:n-cap", base - ell ** top
        if n % 2 == 1:
            return "odd:n-odd", base - (ell + 1) * ell ** (2 * k - (n + 3) // 2)
        if key:
            return "odd:n-even-split", base
        return "odd:n-even-inert", base - 2 * ell ** (2 * k - n // 2 - 1)
    if n == 0:
        return "two:odd-t", 2 ** (2 * k - 1)
    if n == k + 2:
        return "two:n-cap", base - 2 ** top
    if n % 2 == 1:
        return "two:n-odd", base - 3 * 2 ** (2 * k - (n + 1) // 2)
    if n == k + 1:
        return "two:n-eq-k+1", base - 2 ** ((3 * k - 1) // 2)
    if n == k:
        if key % 4 == 1:
            return "two:n-eq-k-r1mod4", base - 2 ** (3 * k // 2 - 1)
        return "two:n-eq-k-r3mod4", base - 3 * 2 ** (3 * k // 2 - 1)
    if key % 4 == 3:
        return "two:n-lt-k-r3mod4", base - 3 * 2 ** (2 * k - n // 2 - 1)
    if key == 1:
        return "two:n-lt-k-r1mod8", base
    return "two:n-lt-k-r5mod8", base - 2 ** (2 * k - n // 2)


def m_from_code(n, key, ell, k):
    """m(t, u; ell^k) for every u whose discriminant has capped valuation n and
    residue key ``key``, as ``_case`` reads them."""
    return _case(n, key, ell, k)[1]


def valuations(d, ell, cap):
    """min(v_ell(d), cap) for an int64 array d, which is left holding d / ell^v.

    Each pass divides only the entries still divisible by ell; 0 stops at the cap.
    """
    import numpy as np

    v = np.zeros(d.shape, dtype=np.int64)
    active = np.flatnonzero(d % ell == 0)
    for _ in range(cap):
        if not active.size:
            break
        v[active] += 1
        d[active] //= ell
        active = active[d[active] % ell == 0]
    return v


def m_values(t, ell, k, u_lo, u_hi):
    """(units, codes, values) with m(t, u; ell^k) = values[code] for each unit u.

    A code packs the capped valuation n of D = t^2 - 4u and the residue key
    of ``_case``: code = 2n + [D/ell^n is a square mod ell] for odd ell,
    code = 8n + (D/2^n mod 8) for ell = 2.  ``values`` depends only on
    (ell, k), so codes of two traces can be histogrammed jointly.

    n comes from ``valuations``, and D, the codes and the keys are formed in
    place.  Everything stays within int64: ``local.s_direct`` caps the unit
    count at 1e8 (``local.UNIT_CAP``) and ``model_sim.class_density`` reads
    moduli up to 128, t is reduced mod ell^k before it is squared, and the
    counts stay below ~4e16.
    """
    import numpy as np

    t %= ell ** k
    if ell == 2:
        u = np.arange(u_lo | 1, u_hi, 2, dtype=np.int64)
    else:
        u = np.arange(u_lo, u_hi, dtype=np.int64)
        u = u[u % ell != 0]
    cap = k if ell > 2 else k + 2
    width = 2 if ell > 2 else 8
    rem = u * -4
    rem += t * t
    n = valuations(rem, ell, cap)
    if ell > 2:
        square = np.zeros(ell, dtype=np.int64)
        square[(np.arange(1, ell, dtype=np.int64) ** 2) % ell] = 1
        rem %= ell
        rem = square[rem]
    else:
        rem %= 8
    n *= width
    n += rem
    values = np.array(
        [m_from_code(nn, kk, ell, k) for nn in range(cap + 1) for kk in range(width)],
        dtype=np.int64,
    )
    return u, n, values


def m_closed_case(t, u, pp):
    """(case id, count) for m(t, u; ell^k); the dispatcher behind m_closed."""
    _require_unit(u, pp)
    ell, k = pp.ell, pp.k
    n = nu_lk(t, u, ell, k)
    r = (t * t - 4 * u) // ell ** n
    key = r % 8 if ell == 2 else legendre_symbol(r, ell) == 1
    return _case(n, key, ell, k)


def m_closed(t, u, pp):
    """m(t, u; ell^k) by the closed-form case table; u must be a unit."""
    return m_closed_case(t, u, pp)[1]


def sqrt_count_N(D, m):
    """N_D(m) = #{x mod 4m : x^2 = D mod 4m} / 2, by enumeration."""
    if m < 1:
        raise ValueError("m must be >= 1")
    mod = 4 * m
    d = D % mod
    count = sum(1 for x in range(mod) if (x * x - d) % mod == 0)
    return Fraction(count, 2)


def m_dks(t, u, pp):
    """m(t, u; ell^k) via the N_D square-count recursion, exact rationals."""
    _require_unit(u, pp)
    ell, k = pp.ell, pp.k
    d = t * t - 4 * u
    assert d % 4 in (0, 1)
    assert sqrt_count_N(d, 1) == 1
    v = padic_valuation(ell, d)
    jmax = k if d == 0 else min(k, int(v) + 1)
    total = Fraction(1)
    prev = Fraction(1)  # N_D(1)
    for j in range(1, jmax + 1):
        cur = sqrt_count_N(d, ell ** j)
        total += (cur - prev) / ell ** j
        prev = cur
    result = total * ell ** (2 * k)
    assert result.denominator == 1, f"non-integral m for t={t} u={u} {pp}"
    assert result >= 0
    return int(result)


def m_brute(t, u, pp):
    """m(t, u; ell^k) by enumerating a, b, c with d = t - a.

    Refuses when ell^{3k} exceeds ``BRUTE_BUDGET``; callers fall back to the
    closed form above that size.
    """
    _require_unit(u, pp)
    q = pp.modulus
    if q ** 3 > BRUTE_BUDGET:
        raise ValueError(f"brute-force budget exceeded: {q}^3 > {BRUTE_BUDGET}")
    import numpy as np

    t, u = t % q, u % q
    b = np.arange(q, dtype=np.int64)
    bc_counts = np.bincount(((b[:, None] * b[None, :]) % q).ravel(), minlength=q)
    a = np.arange(q, dtype=np.int64)
    need = (a * ((t - a) % q) - u) % q
    return int(bc_counts[need].sum())
