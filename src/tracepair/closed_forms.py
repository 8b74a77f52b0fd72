"""Closed forms of the local limits lim S(t1, t2; ell^k)/ell^(5k-5), with provenance.

``_closed`` is the one place that decides the trace family; ``s_closed``
reads it at one depth and ``local_limit`` at the limit, as a ``LocalFactor``
that also carries the Euler-factor normalization c_ell.  Closed forms are
exposed with a provenance tag; conjectural ones are always recomputable
against the direct sums of ``local`` through the verify suite.  All values
are ``fractions.Fraction``.

This module imports neither ``matcount`` nor ``local``, so the jobs that read
only the limits (``average``, ``constant --kind pair``) compile none of the
local-sum kernels.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .arith import alpha, check_prime

PROVENANCE_THEOREM = "closed-form-theorem"
PROVENANCE_PROPOSITION = "closed-form-proposition"
PROVENANCE_CONJECTURE = "closed-form-conjecture"
PROVENANCE_DIRECT = "direct-with-stability-check"


class LocalFactor(NamedTuple):
    """Limit of S(t1,t2;ell^k)/ell^(5k-5) with its Euler-factor normalization."""

    ell: int
    limit: Fraction
    stabilized_at: int | None
    c_ell: Fraction
    provenance: str


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

    pp is a ``matcount.PrimePower``; only its ell and k are read.  None means
    "no closed form at this depth": every closed form holds from some depth
    k_min on, and k < k_min is not covered.
    """
    limit, c, k_min, provenance = _closed(t1, t2, pp.ell)
    if pp.k < k_min:
        return None
    return limit - Fraction(c, pp.ell ** (2 * pp.k)), provenance


def local_factor(ell, limit, stabilized_at, provenance):
    """The LocalFactor of a limit: c_ell = limit / ((ell - 1)^3 (ell + 1)^2)."""
    denom = (ell - 1) ** 3 * (ell + 1) ** 2
    return LocalFactor(ell, limit, stabilized_at, limit / denom, provenance)


def local_limit(t1, t2, ell):
    """The limit of S(t1,t2;ell^k)/ell^(5k-5) from ``_closed``, as a LocalFactor.

    ell must be a prime below 2^31 (``arith.check_prime``).
    ``local.local_limit_direct`` is the stability-checked fallback.
    """
    check_prime(ell, "ell")
    return local_limit_unchecked(t1, t2, ell)


def local_limit_unchecked(t1, t2, ell):
    """``local_limit`` without the check on ell, for an ell known to be a
    prime below 2^31, such as one from the sieve."""
    limit, c, k_min, provenance = _closed(t1, t2, ell)
    # without a 1/ell^(2k) term the sums are constant from k_min on
    return local_factor(ell, limit, None if c else k_min, provenance)


def volume(t1, t2, ell):
    """local_limit / ell^5; the ell-adic volume of the trace-pair slice.

    ell is checked as in ``local_limit``.
    """
    return local_limit(t1, t2, ell).limit / Fraction(ell ** 5)
