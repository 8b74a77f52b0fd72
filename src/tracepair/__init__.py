"""Exact-arithmetic toolkit for Frobenius trace-pair statistics."""

from .arith import (
    INFINITY,
    alpha,
    divisors,
    legendre_symbol,
    nu_lk,
    padic_valuation,
    sieve_primes,
)
from .class_numbers import (
    ClassData,
    DiscriminantSplit,
    class_number_h,
    hurwitz_kronecker,
    hurwitz_weighted,
    split_discriminant,
    unit_count_w,
)
from .constants import (
    EulerProductEstimate,
    pair_constant,
    same_trace_constant,
    single_curve_constant,
    universal_product,
)
from .curves import Curve, pair_count, trace_ap
from .gekeler import delta_exponent, f_ell, f_infinity, f_level_k, product_check
from .local import (
    LocalFactor,
    RationalFunction,
    UnstableLocalFactor,
    delta_group_size,
    interpolate_rational,
    local_limit,
    s_closed_distinct,
    s_closed_same,
    s_direct,
    s_normalized,
    volume,
)
from .matcount import PrimePower, m_brute, m_closed, m_dks, sqrt_count_N
from .model_sim import ModelConfig, SampleRun, class_density, growth_check, sample_run
from .prime_stats import CheckpointSeries, average_f_product, class_sum, slope_fit

__version__ = "0.1.0"
