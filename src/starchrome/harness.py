"""Report-producing wrappers used by the CLI and the acceptance suite."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .coloring import EdgeColoring, star_violations
from .errors import BudgetExhausted
from .families import FIGURES, family_coloring, figure_coloring
from .solver import Budget, exact_chi_star


@dataclass
class ColoringReport:
    """One coloring the paper cites, checked: a drawn figure or a closed form."""

    source: str  # a figure id or "formula"
    family: str
    params: dict[str, int]
    n: int
    m: int
    palette: int
    claimed_palette: int
    violations: int
    first_witness: dict | None
    passed: bool
    chi_star: int | None = None
    chi_bounds: tuple[int, int] | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _report(
    source: str, family: str, params: dict[str, int], coloring: EdgeColoring, claim: int
) -> ColoringReport:
    """Validate one coloring against the star condition and its claimed palette."""
    violations = star_violations(coloring)
    palette = coloring.palette_size()
    witness = None
    if violations:
        v = violations[0]
        edges = list(map(list, v.edges))
        witness = {"kind": v.kind.value, "edges": edges, "colors": list(v.colors)}
    return ColoringReport(
        source, family, params, coloring.graph.n, coloring.graph.m, palette, claim,
        len(violations), witness, passed=not violations and palette == claim,
    )


def verify_figures() -> list[ColoringReport]:
    """Validate every cataloged figure coloring; failures are findings."""
    return [
        _report(figure_id, family, dict(params), figure_coloring(figure_id)[1], claim)
        for figure_id, (family, params, claim) in FIGURES.items()
    ]


def family_check(
    family: str,
    deltas: list[int],
    exact: bool = False,
    budget: Budget | None = None,
) -> list[ColoringReport]:
    """Validate the family's coloring at each delta and report the palette.

    Each delta takes the coloring ``families.family_coloring`` gives: the
    closed form in its range, else the cataloged drawing for that size.
    With exact=True the solver also runs, so the row shows the true value
    (or the interval a budget hit leaves) next to the claimed bound.
    """
    rows = []
    for delta in deltas:
        source, coloring, claim = family_coloring(family, delta)
        row = _report(source, family, {"delta": delta}, coloring, claim)
        if exact:
            try:
                row.chi_star = exact_chi_star(coloring.graph, budget).chi
            except BudgetExhausted as exc:
                row.chi_bounds = (exc.lower_bound, exc.upper_bound)
        rows.append(row)
    return rows
