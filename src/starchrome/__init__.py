"""Star edge coloring of outerplanar graphs.

Construct the extremal families, apply their closed-form colorings, validate
any coloring against the star condition, compute exact star chromatic
indices, and sweep all small maximal outerplanar graphs against the known
bounds and conjectures.

The root loads only the core: graphs, graph6, colorings, recognition and
the solver.  The names of ``families``, ``harness`` and ``sweep`` load
their module on first use, so a process that only solves or recognizes
never compiles them.
"""

from importlib import import_module as _import_module

from .coloring import EdgeColoring, Violation, ViolationKind, is_proper, is_star, star_violations
from .errors import (
    BadParams,
    BudgetExhausted,
    DuplicateEdge,
    MalformedText,
    OutOfRange,
    PartialColoring,
    PostconditionFailed,
    SelfLoop,
    StarchromeError,
    TooLarge,
    UnknownFigure,
)
from .graph import (
    INFINITE,
    Graph,
    diameter,
    from_edges,
    is_two_connected,
    relabel,
)
from .graph6 import graph6_decode, graph6_encode
from .outerplanar import (
    Catalog,
    Classification,
    MopCatalog,
    classify,
    enumerate_dissections,
    enumerate_mops,
    is_maximal_outerplanar,
    is_outerplanar,
    polygon_key,
)
from .solver import (
    Budget,
    SolveResult,
    brute_force_chi_star,
    exact_chi_star,
    greedy_star_upper,
    star_palette_feasible,
)

__version__ = "0.1.0"

# Each lazy name and the module it loads from; a module's own name loads it.
_LAZY = {
    **dict.fromkeys(
        ("families", "FAMILY_IDS", "FIGURES", "FamilyInstance", "build_family",
         "delta5_strip_coloring", "figure_coloring", "formula_coloring"),
        "families",
    ),
    **dict.fromkeys(("harness", "family_check", "verify_figures"), "harness"),
    **dict.fromkeys(
        ("sweep", "ResultCache", "SweepRecord", "default_cache_path", "run_sweep"), "sweep"
    ),
}


def __getattr__(name: str):
    """Load a lazy name's module on first use and keep the name (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
