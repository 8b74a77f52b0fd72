from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepair.arith import is_prime
from tracepair.matcount import (
    BRUTE_BUDGET,
    PrimePower,
    m_brute,
    m_closed,
    m_closed_case,
    m_dks,
    sqrt_count_N,
)


def test_prime_power_validation():
    assert PrimePower(3, 2).modulus == 9
    with pytest.raises(ValueError):
        PrimePower(3, 0)
    with pytest.raises(ValueError):
        PrimePower(4, 2)
    assert PrimePower(2 ** 31 - 1, 1).modulus == 2 ** 31 - 1  # a Mersenne prime
    assert PrimePower(2, 64).modulus == 2 ** 64
    # 2^31 + 11 is the least prime above 2^31
    for ell, k in ((2, 65), (3, 2 ** 64), (2 ** 31 + 11, 1)):
        with pytest.raises(ValueError):
            PrimePower(ell, k)
    # a record rebuilt from fields is checked as a new one
    with pytest.raises(ValueError):
        PrimePower(3, 2)._replace(k=0)


def test_m_brute_rejects_non_unit():
    with pytest.raises(ValueError):
        m_brute(1, 3, PrimePower(3, 1))
    with pytest.raises(ValueError):
        m_closed(1, 0, PrimePower(5, 1))


def test_m_brute_budget():
    with pytest.raises(ValueError):
        m_brute(0, 1, PrimePower(2, 8))  # 256^3 > default budget


def test_case_table_ids():
    assert m_closed_case(1, 1, PrimePower(2, 1))[0] == "two:odd-t"
    assert m_closed_case(1, 1, PrimePower(3, 1))[0] == "odd:n-cap"
    assert m_closed_case(0, 1, PrimePower(3, 1))[0] == "odd:n-even-inert"
    assert m_closed_case(0, 2, PrimePower(3, 1))[0] == "odd:n-even-split"
    assert m_closed_case(2, 1, PrimePower(2, 3))[0] == "two:n-cap"
    assert m_closed_case(2, 3, PrimePower(2, 3))[0] == "two:n-odd"
    assert m_closed_case(0, 1, PrimePower(2, 1))[0] == "two:n-eq-k+1"
    assert m_closed_case(0, 1, PrimePower(2, 2))[0] == "two:n-eq-k-r3mod4"
    assert m_closed_case(0, 3, PrimePower(2, 2))[0] == "two:n-eq-k-r1mod4"
    assert m_closed_case(0, 7, PrimePower(2, 5))[0] == "two:n-lt-k-r1mod8"
    assert m_closed_case(0, 3, PrimePower(2, 5))[0] == "two:n-lt-k-r5mod8"
    assert m_closed_case(0, 1, PrimePower(2, 5))[0] == "two:n-lt-k-r3mod4"


def test_sqrt_count_N():
    assert sqrt_count_N(2, 1) == 0        # squares mod 4 are 0, 1
    assert sqrt_count_N(1, 1) == 1        # x in {1, 3} mod 4
    assert sqrt_count_N(-3, 3) == 1       # x^2 = 9 mod 12: x in {3, 9}
    assert sqrt_count_N(0, 1) == Fraction(1)
    for d in (-4, -3, 0, 1, 4, 5):
        # direct recount
        for m in (1, 2, 3, 4, 6):
            count = sum(1 for x in range(4 * m) if (x * x - d) % (4 * m) == 0)
            assert sqrt_count_N(d, m) == Fraction(count, 2)


def test_m_dks_spot_values():
    assert m_dks(1, 1, PrimePower(2, 2)) == 8
    assert m_dks(0, 1, PrimePower(3, 1)) == 6
    assert m_dks(1, 2, PrimePower(3, 1)) == 6   # D = -7, inert
    assert m_dks(2, 1, PrimePower(2, 3)) == 80  # D = 0 runs the sum to k


# every prime power ell^k that m_brute accepts: ell^(3k) <= BRUTE_BUDGET
_BRUTE_POWERS = [
    (ell, k)
    for ell in range(2, int(BRUTE_BUDGET ** (1 / 3)) + 2) if is_prime(ell)
    for k in range(1, 20) if ell ** (3 * k) <= BRUTE_BUDGET
]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(power=st.sampled_from(_BRUTE_POWERS), t=st.integers(), u=st.integers(), data=st.data())
def test_three_routes_agree_on_any_trace_and_unit(power, t, u, data):
    ell, k = power
    pp = PrimePower(ell, k)
    if u % ell == 0:
        u += data.draw(st.integers(1, ell - 1), label="unit shift")
    assert m_closed(t, u, pp) == m_dks(t, u, pp) == m_brute(t, u, pp)
