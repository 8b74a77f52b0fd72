"""Exact-arithmetic toolkit for Frobenius trace-pair statistics.

The code lives in the submodules (``tracepair.local``, ``tracepair.cli``, ...),
which callers import by name; ``import tracepair`` alone loads none of them.
"""

__version__ = "0.1.0"
