"""Report-producing wrappers used by the CLI and the acceptance suite."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .coloring import Violation, star_violations
from .errors import BudgetExhausted, OutOfRange
from .families import (
    FIGURES,
    FORMULA_MIN_DELTA,
    claimed_palette,
    figure_coloring,
    formula_coloring,
)
from .solver import Budget, exact_chi_star


def _witness_json(v: Violation) -> dict:
    return {"kind": v.kind.value, "edges": list(map(list, v.edges)), "colors": list(v.colors)}


@dataclass
class FigureReport:
    figure_id: str
    family: str
    params: dict[str, int]
    palette: int
    claimed_palette: int
    violations: int
    first_witness: dict | None
    passed: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def verify_figures() -> list[FigureReport]:
    """Validate every cataloged figure coloring; failures are findings."""
    reports = []
    for figure_id, (family, params, claim) in FIGURES.items():
        _, coloring = figure_coloring(figure_id)
        violations = star_violations(coloring)
        palette = coloring.palette_size()
        reports.append(
            FigureReport(
                figure_id=figure_id,
                family=family,
                params=params,
                palette=palette,
                claimed_palette=claim,
                violations=len(violations),
                first_witness=_witness_json(violations[0]) if violations else None,
                passed=not violations and palette == claim,
            )
        )
    return reports


@dataclass
class FamilyCheckRow:
    family: str
    delta: int
    source: str  # "formula" or a figure id
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


def family_check(
    family: str,
    deltas: list[int],
    exact: bool = False,
    budget: Budget | None = None,
) -> list[FamilyCheckRow]:
    """Validate the family's coloring at each delta and report the palette.

    Deltas in the closed form's range use it; smaller deltas fall back to
    the cataloged drawing for that size.  With exact=True the solver also
    runs, so the row shows the true value (or the interval a budget hit
    leaves) next to the claimed bound.
    """
    if family not in FORMULA_MIN_DELTA:
        raise OutOfRange(f"family-check supports {sorted(FORMULA_MIN_DELTA)}, not {family!r}")
    figures = {p["delta"]: f for f, (fam, p, _) in FIGURES.items() if fam == family}
    rows = []
    for delta in deltas:
        if delta >= FORMULA_MIN_DELTA[family]:
            source = "formula"
            coloring = formula_coloring(family, delta)
            claim = claimed_palette(family, delta)
        elif delta in figures:
            source = figures[delta]
            _, coloring = figure_coloring(source)
            claim = FIGURES[source][2]
        else:
            raise OutOfRange(f"{family} has no coloring at delta={delta}")
        violations = star_violations(coloring)
        palette = coloring.palette_size()
        row = FamilyCheckRow(
            family=family,
            delta=delta,
            source=source,
            n=coloring.graph.n,
            m=coloring.graph.m,
            palette=palette,
            claimed_palette=claim,
            violations=len(violations),
            first_witness=_witness_json(violations[0]) if violations else None,
            passed=not violations and palette == claim,
        )
        if exact:
            try:
                result = exact_chi_star(coloring.graph, budget)
                row.chi_star = result.chi
            except BudgetExhausted as exc:
                row.chi_bounds = (exc.lower_bound, exc.upper_bound)
        rows.append(row)
    return rows
