"""Local sums S(t1, t2; ell^k), their normalizations, limits, and volumes.

``s_stratified`` gives the exact sum in O(k) steps on Python ints.  As u
runs over the units, x = t1^2 - 4u runs over the residues mod ell^k (mod
2^(k+2) at ell = 2) outside one class, and t2^2 - 4u = x - delta with
delta = t1^2 - t2^2.  m(t, u) depends only on the case code of its
discriminant (``matcount._case``), and a prefix of ell-adic digits fixes the
code unless the prefix is 0.  So a walk down the digits of x keeps open
only the prefixes x = 0 and x = delta; every other branch is a stratum of
known size with two fixed codes.  At odd ell the digits of a node fall into
strata by the pair (chi(y), chi(y - c)), whose sizes are Jacobsthal counts;
at ell = 2 the walk enumerates the two digits, three places past the
valuation, since the code reads the unit part mod 8.

``s_direct`` is the oracle: a batch kernel gives every unit the case code of
its matrix count under each trace (int64-safe), the pairs of codes are
counted with ``bincount``, and the exact integer sum is assembled from that
histogram with big-int arithmetic, in blocks of 2^17 units.  It is capped at
``UNIT_CAP`` units; ``s_stratified`` needs only ``PrimePower``'s bounds.

Closed forms are exposed with a provenance tag; conjectural ones are always
recomputable against the direct sums through the verify suite.  All
normalized values are ``fractions.Fraction``.  numpy is imported by
``s_direct`` alone, when it runs.
"""

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .arith import alpha, check_prime, legendre_symbol
from .matcount import PrimePower, m_from_code, m_values

PROVENANCE_THEOREM = "closed-form-theorem"
PROVENANCE_PROPOSITION = "closed-form-proposition"
PROVENANCE_CONJECTURE = "closed-form-conjecture"
PROVENANCE_DIRECT = "direct-with-stability-check"

UNIT_CAP = 10 ** 8
_BLOCK = 1 << 17


class UnstableLocalFactor(Exception):
    """Direct fallback saw different normalized sums at consecutive depths."""

    def __init__(self, ell, k1, s1, k2, s2):
        self.ell, self.k1, self.s1, self.k2, self.s2 = ell, k1, s1, k2, s2
        super().__init__(
            f"S_k unstable at tested depth for ell={ell}: "
            f"S_{k1}={s1} vs S_{k2}={s2}"
        )


class LocalFactor(NamedTuple):
    """Limit of S(t1,t2;ell^k)/ell^(5k-5) with its Euler-factor normalization."""

    ell: int
    limit: Fraction
    stabilized_at: int | None
    c_ell: Fraction
    provenance: str


def s_direct(t1, t2, pp):
    """Exact S(t1, t2; ell^k) = sum over units u of m(t1,u) m(t2,u).

    At most ``UNIT_CAP`` (10^8) units; larger moduli are refused.
    """
    q = pp.modulus
    phi = q - q // pp.ell
    if phi > UNIT_CAP:
        raise ValueError(f"unit count {phi} exceeds cap {UNIT_CAP}")
    import numpy as np

    hist = 0
    for lo in range(1, q, _BLOCK):
        hi = min(lo + _BLOCK, q)
        _, key, values = m_values(t1, pp.ell, pp.k, lo, hi)
        _, code2, _ = m_values(t2, pp.ell, pp.k, lo, hi)
        width = len(values)
        key *= width
        key += code2
        hist += np.bincount(key, minlength=width * width)
    values = values.tolist()
    total = 0
    for code in np.flatnonzero(hist).tolist():
        total += int(hist[code]) * values[code // width] * values[code % width]
    return total


def s_stratified(t1, t2, pp):
    """Exact S(t1, t2; ell^k) by strata of the ell-adic digits of the discriminants.

    Equals ``s_direct`` for any int traces, with no cap on the unit count.
    """
    ell, k = pp.ell, pp.k
    m = functools.cache(lambda n, key: m_from_code(n, key, ell, k))
    if ell == 2:
        return _s_two(t1, t2, k, m)
    return _s_odd(t1, t2, ell, k, m)


def _leading_code(j, y, ell):
    """Code of a discriminant whose first nonzero digit, at place j, is y mod ell; None if y = 0."""
    return (j, legendre_symbol(y, ell) == 1) if y % ell else None


def _s_odd(t1, t2, ell, k, m):
    """The odd-ell walk.  A node is (x mod ell^j, code of x, code of x - delta),
    a code None while its discriminant is 0 mod ell^j; at most two are open.

    Where both codes are open and delta's digit c at place j is nonzero, the
    digits y != 0, c with (chi(y), chi(y - c)) = (e1, e2) number
    (ell - 2 - e1 chi(c) - e2 chi(-c) - e1 e2) / 4, a Jacobsthal count
    (Berndt, Evans and Williams, *Gauss and Jacobi Sums*, 1998).
    """
    delta = (t1 * t1 - t2 * t2) % ell ** k
    cap = (k, False)
    skip = t1 * t1 % ell  # x = t1^2 - 4u is never t1^2 mod ell
    total = 0
    level = [(0, None, None)]
    for j in range(k):
        scale, weight = ell ** j, ell ** (k - j - 1)
        nxt = []
        for p, c1, c2 in level:
            # a child's digit d at place j: x / ell^j = d (mod ell) while x's code is
            # open, (x - delta) / ell^j = d - c while that of x - delta is
            c = (delta - p) // scale % ell

            def child(d):
                return c1 or _leading_code(j, d, ell), c2 or _leading_code(j, d - c, ell)

            open_digits = {d for d, code in ((0, c1), (c, c2)) if code is None}
            if c1 is None and c2 is None and c:
                chi = legendre_symbol(c, ell), legendre_symbol(-c, ell)
                strata = {((j, e1 == 1), (j, e2 == 1)):
                          (ell - 2 - e1 * chi[0] - e2 * chi[1] - e1 * e2) // 4
                          for e1 in (1, -1) for e2 in (1, -1)}
            else:  # y and y - c have one character, or one code is fixed
                strata = {(c1 or (j, e), c2 or (j, e)): (ell - 1) // 2 for e in (True, False)}
            if j == 0:
                if skip in open_digits:
                    open_digits.remove(skip)
                else:
                    strata[child(skip)] -= 1
            total += weight * sum(n * m(*a) * m(*b) for (a, b), n in strata.items())
            for d in open_digits:
                a, b = child(d)
                if j + 1 < k:
                    nxt.append((p + d * scale, a, b))
                else:
                    total += m(*(a or cap)) * m(*(b or cap))
        level = nxt
    return total


def _code_two(y, j, top):
    """(n, key) of a residue mod 2^top whose j lowest binary digits are y,
    or None if they do not fix it."""
    if not y:
        return (top, 0) if j == top else None
    n = (y & -y).bit_length() - 1
    return (n, (y >> n) & 7) if n + 3 <= j or j == top else None


def _s_two(t1, t2, k, m):
    """The ell = 2 walk on x mod 2^(k+2): x = t1^2 - 4 (mod 8) for odd u, and a
    prefix is split until it fixes both codes."""
    top = k + 2
    delta = (t1 * t1 - t2 * t2) % (1 << top)
    total = 0
    level = [(t1 * t1 - 4) % 8]
    for j in range(3, top + 1):
        nxt = []
        for p in level:
            a, b = _code_two(p, j, top), _code_two((p - delta) % (1 << j), j, top)
            if a and b:
                total += (1 << (top - j)) * m(*a) * m(*b)
            else:
                nxt += (p, p + (1 << j))
        level = nxt
    return total


def s_normalized(t1, t2, pp):
    """S(t1, t2; ell^k) / ell^(5k-5) as an exact Fraction, from ``s_stratified``."""
    return Fraction(s_stratified(t1, t2, pp), pp.ell ** (5 * pp.k - 5))


def _same_closed(t, ell):
    """(limit, c, k_min): S(t, t; ell^k)/ell^(5k-5) = limit - c/ell^(2k) for k >= k_min.

    The five cases of the equal-trace theorem.  k_min is 3 for the two
    even-trace ell = 2 cases and 1 otherwise.
    """
    if ell > 2:
        if t % ell == 0:
            return Fraction(ell ** 2 * (ell ** 2 + 1) * (ell - 1)), 0, 1
        lim = Fraction(ell ** 2 * (ell ** 4 - 2 * ell ** 2 - 3 * ell - 1), ell + 1)
        return lim, Fraction(ell ** 4, ell + 1), 1
    if t % 2 == 1:
        return Fraction(4), 0, 1
    if t % 4 == 0:
        return Fraction(35, 2), 0, 3
    return Fraction(103, 6), Fraction(32, 3), 3


def _distinct_closed(t1, t2, ell):
    """(limit, stabilized_at, provenance) for t1 != +-t2; all cases stabilize.

    The two even-trace ell = 2 branches keyed on alpha are conjectural; the
    rest are proven.  For 4 | gcd the printed branch conditions conflict
    (t1^2 = t2^2 mod 16 is vacuous, t1 = t2 mod 16 is too strong); the
    condition used here, t1^2 = t2^2 mod 32, is the one the direct sums
    confirm, and the verify suite re-adjudicates it per pair.
    """
    g = math.gcd(t1, t2)
    if ell > 2:
        if (t1 * t2) % ell == 0:
            sym_sq = 0 if g % ell == 0 else 1
            val = ell ** 2 * (ell ** 3 - ell ** 2 + (1 - 2 * sym_sq) * ell - 1)
            return Fraction(val), 1, PROVENANCE_PROPOSITION
        a = alpha(t1, t2, ell)
        head = ell ** 2 * (ell ** 3 - ell ** 2 - ell - 2)
        if a == 0:
            return Fraction(head - ell ** 3), 1, PROVENANCE_CONJECTURE
        tail = Fraction(
            ell ** 2 * (ell ** (2 * a) - ell ** 2 - ell - 1),
            ell ** (2 * a) * (ell + 1),
        )
        return head + tail, a + 1, PROVENANCE_CONJECTURE
    if t1 % 2 == 1 and t2 % 2 == 1:
        return Fraction(4), 1, PROVENANCE_PROPOSITION
    if g % 2 == 1:  # exactly one trace even
        return Fraction(8), 3, PROVENANCE_PROPOSITION
    if g % 4 != 0:  # 2 | gcd, 4 does not divide gcd; alpha is 1 or >= 3
        a = alpha(t1, t2, 2)
        if a == 1:
            return Fraction(15), 2, PROVENANCE_CONJECTURE
        assert a >= 3 and a != math.inf
        return Fraction(103, 6) - Fraction(7, 3 * 2 ** (2 * a - 3)), a + 1, PROVENANCE_CONJECTURE
    if (t1 * t1 - t2 * t2) % 32 == 0:
        return Fraction(35, 2), 3, PROVENANCE_PROPOSITION
    return Fraction(33, 2), 3, PROVENANCE_PROPOSITION


def _closed(t1, t2, ell):
    """(limit, c, k_min, provenance): S(t1,t2;ell^k)/ell^(5k-5) = limit - c/ell^(2k) for k >= k_min.

    The one place that decides the trace family: equal or opposite traces
    take the five-case theorem; other pairs take the proven case table, then
    the conjectural one, with c = 0.
    """
    if t1 == t2 or t1 == -t2:
        return (*_same_closed(abs(t1), ell), PROVENANCE_THEOREM)
    limit, k_min, provenance = _distinct_closed(t1, t2, ell)
    return limit, 0, k_min, provenance


def s_closed(t1, t2, pp):
    """Closed-form S(t1, t2; ell^k)/ell^(5k-5) with its provenance, or None.

    None means "no closed form at this depth": every closed form holds from
    some depth k_min on, and k < k_min is not covered.
    """
    limit, c, k_min, provenance = _closed(t1, t2, pp.ell)
    if pp.k < k_min:
        return None
    return limit - Fraction(c, pp.ell ** (2 * pp.k)), provenance


def local_limit_direct(t1, t2, ell):
    """Limit via direct sums at depths alpha+1 and alpha+2, requiring equality."""
    a = alpha(t1, t2, ell)
    if a == math.inf:
        raise ValueError("direct stability check needs t1 != +-t2")
    pp1, pp2 = PrimePower(ell, int(a) + 1), PrimePower(ell, int(a) + 2)  # both checked first
    s1 = s_normalized(t1, t2, pp1)
    s2 = s_normalized(t1, t2, pp2)
    if s1 != s2:
        raise UnstableLocalFactor(ell, pp1.k, s1, pp2.k, s2)
    return _factor(ell, s1, pp1.k, PROVENANCE_DIRECT)


def _factor(ell, limit, stabilized_at, provenance):
    denom = (ell - 1) ** 3 * (ell + 1) ** 2
    return LocalFactor(ell, limit, stabilized_at, limit / denom, provenance)


def local_limit(t1, t2, ell):
    """The limit of S(t1,t2;ell^k)/ell^(5k-5) from ``_closed``, as a LocalFactor.

    ell must be a prime below 2^31 (``arith.check_prime``).
    ``local_limit_direct`` is the stability-checked fallback.
    """
    check_prime(ell, "ell")
    return local_limit_unchecked(t1, t2, ell)


def local_limit_unchecked(t1, t2, ell):
    """``local_limit`` without the check on ell, for an ell known to be a
    prime below 2^31, such as one from the sieve."""
    limit, c, k_min, provenance = _closed(t1, t2, ell)
    # without a 1/ell^(2k) term the sums are constant from k_min on
    return _factor(ell, limit, None if c else k_min, provenance)


def volume(t1, t2, ell):
    """local_limit / ell^5; the ell-adic volume of the trace-pair slice.

    ell is checked as in ``local_limit``.
    """
    return local_limit(t1, t2, ell).limit / Fraction(ell ** 5)


# Printed-variant regression guards.  For odd ell dividing exactly one trace,
# two closed-form candidates for the limit circulate; the direct sum matches
# the first (e.g. 126 at ell=3) and rejects the second (144), a gap of
# exactly 2 ell^2.  verify re-checks both.

def one_divides_limit(ell):
    return Fraction(ell ** 2 * (ell ** 3 - ell ** 2 - ell - 1))


def one_divides_limit_rejected(ell):
    return Fraction(ell ** 2 * (ell ** 2 - 1) * (ell - 1))


def gcd_mult4_condition_variants(t1, t2):
    """The three candidate branch conditions for 4 | gcd(t1, t2) pairs."""
    return {
        "squares-mod-16": (t1 * t1 - t2 * t2) % 16 == 0,
        "difference-mod-16": (t1 - t2) % 16 == 0,
        "squares-mod-32": (t1 * t1 - t2 * t2) % 32 == 0,
    }


# ---------------------------------------------------------------------------
# exact rational-function interpolation
# ---------------------------------------------------------------------------

class RationalFunction(NamedTuple):
    """p/q with ascending Fraction coefficients, q normalized monic."""

    numerator: tuple
    denominator: tuple

    def __call__(self, x):
        num = _poly_eval(self.numerator, x)
        den = _poly_eval(self.denominator, x)
        return Fraction(num, 1) / den


def _poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _nullspace(rows, ncols):
    """Nullspace basis of a rational matrix from its reduced row echelon form:
    the vector with 1 at each free column, 0 at the others."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        # the pivot row is 0 left of column c, so only columns >= c change
        m[r], m[pivot_row] = m[pivot_row], m[r]
        m[r][c:] = [v / m[r][c] for v in m[r][c:]]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f != 0:
                row[c:] = [a - f * b if b else a for a, b in zip(row[c:], m[r][c:])]
        pivots.append(c)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            sol = [Fraction(0)] * ncols
            sol[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                sol[pc] = -m[r][fc]
            basis.append(sol)
    return basis


def _strip(coeffs):
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def interpolate_rational(points, max_degree):
    """Minimal-degree rational function through exact points.

    Searches degree pairs (dn, dd) with dn, dd <= max_degree in ascending
    total degree; each candidate is an exact homogeneous linear system solved
    by row reduction over Fraction, and a solution counts only if its
    denominator is nonzero at every abscissa and the function reproduces
    every ordinate.  Raises ValueError when no pair within the bound is
    consistent.

    len(points) >= 2*max_degree + 2 guarantees the search space is decided by
    the data; fewer points are accepted and simply constrain less.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if len({x for x, _ in pts}) != len(pts):
        raise ValueError("abscissae must be distinct")
    if len(pts) < 2:
        raise ValueError("need at least two points")
    for total in range(0, 2 * max_degree + 1):
        for dd in range(0, min(total, max_degree) + 1):
            dn = total - dd
            if dn > max_degree:
                continue
            if dn + dd + 1 > len(pts):
                continue
            fit = _try_degrees(pts, dn, dd)
            if fit is not None:
                return fit
    raise ValueError("no consistent rational function within the degree bound")


def _try_degrees(pts, dn, dd):
    ncols = dn + dd + 2
    rows = []
    for x, y in pts:
        row = [x ** j for j in range(dn + 1)]
        row += [-(y * x ** j) for j in range(dd + 1)]
        rows.append(row)
    for sol in _nullspace(rows, ncols):
        p = _strip(sol[: dn + 1])
        q = _strip(sol[dn + 1 :])
        if all(c == 0 for c in q):
            continue
        if any(_poly_eval(q, x) == 0 for x, _ in pts):
            continue
        if any(_poly_eval(p, x) != y * _poly_eval(q, x) for x, y in pts):
            continue
        lead = q[-1]
        p = tuple(c / lead for c in p)
        q = tuple(c / lead for c in q)
        return RationalFunction(p, q)
    return None
