"""Certified lower bounds on crossing numbers of complete bipartite graphs.

The heavy modules load on first attribute access rather than at import
time, so the command line can pin BLAS thread pools through environment
variables before any numerics come in.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "CycleIndex": ".cycles",
    "distances_from_base": ".swapgraph",
    "orbit_census": ".orbits",
    "PairTables": ".coeffs",
    "build_blocks": ".repsets",
    "run_single": ".relaxations",
    "run_full": ".relaxations",
    "certify": ".relaxations",
    "rank_report": ".relaxations",
    "quadratic_bound": ".bounds",
    "lift_bound": ".bounds",
    "asymptotic_ratio": ".bounds",
    "knn_table": ".bounds",
    "zarankiewicz": ".bounds",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(import_module(_EXPORTS[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
