"""Star edge coloring of outerplanar graphs.

Construct the extremal families, apply their closed-form colorings, validate
any coloring against the star condition, compute exact star chromatic
indices, and sweep all small maximal outerplanar graphs against the known
bounds and conjectures.
"""

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
from .families import (
    FAMILY_IDS,
    FIGURES,
    FamilyInstance,
    build_family,
    delta5_strip_coloring,
    figure_coloring,
    formula_coloring,
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
from .harness import family_check, verify_figures
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
from .sweep import ResultCache, SweepRecord, default_cache_path, run_sweep

__version__ = "0.1.0"
