"""Exact-arithmetic toolkit for Frobenius trace-pair statistics.

The public names below, and the modules that hold them, are imported on
first use (PEP 562), so ``import tracepair`` loads neither numpy nor mpmath.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "arith": (
        "INFINITY", "alpha", "divisors", "legendre_symbol", "nu_lk", "padic_valuation",
        "sieve_primes",
    ),
    "class_numbers": (
        "ClassData", "class_number_h", "hurwitz_kronecker", "hurwitz_weighted",
        "unit_count_w",
    ),
    "constants": (
        "EulerProductEstimate", "pair_constant", "same_trace_constant",
        "single_curve_constant", "universal_product",
    ),
    "curves": ("Curve", "pair_count", "trace_ap"),
    "gekeler": ("delta_exponent", "f_ell", "f_infinity", "f_level_k", "product_check"),
    "local": (
        "LocalFactor", "RationalFunction", "UnstableLocalFactor", "interpolate_rational",
        "local_limit", "s_closed", "s_direct", "s_normalized", "volume",
    ),
    "matcount": (
        "PrimePower", "delta_group_size", "m_brute", "m_closed", "m_dks", "sqrt_count_N",
    ),
    "model_sim": ("ModelConfig", "SampleRun", "class_density", "growth_check", "sample_run"),
    "prime_stats": ("CheckpointSeries", "average_f_product", "class_sum", "slope_fit"),
}
_SOURCE = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_MODULES))
