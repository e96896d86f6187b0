"""Exhaustive sweep of small outerplanar graphs against the known bounds.

The sweep covers every MOP of each order, or with ``expand_subgraphs``
every 2-connected outerplanar graph.  Every enumerated graph is solved
exactly and lands in an append-only JSON-lines cache keyed by
``polygon_key``, the graph6 string of the graph relabelled from its outer
cycle; the enumerations key their members as they grow them, so the sweep
runs no isomorphism search of its own.  A record stores only what its
solve measured; its graph classes and bound margins are derived.  Every
bound is one row of ``_BOUNDS``.  Violations of a proven theorem are hard
failures (they mean the toolkit is wrong); violations of a conjecture are
findings and never fail a run.

Orders are grown and solved one at a time, each from the one below.  A
graph of order n that grows from one of order n-1 by an ear contains it,
and chi' never increases under deletion, so each solve starts at the
largest chi' (or proven lower bound) among those ear-deleted children.
On the MOPs to n=12 that bound is chi' itself for 993 of 1091 graphs.

The 6 <= chi' <= n-1 window for maximal outerplanar graphs is enforced
where it is coherent: the upper half from n >= 8 (order-7 fans need 7
colors) and the lower half from n >= 5 (the order-4 diamond needs only 4).
The source paper's two theorems are proven checks as well: chi' <= D+6 on
2-connected outerplanar graphs of diameter 2 or 3, and chi' <= 9 on
2-connected outerplanar graphs with D = 5.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

from .errors import BudgetExhausted
from .graph import diameter
from .graph6 import graph6_decode
from .outerplanar import enumerate_dissections, enumerate_mops
from .solver import Budget, exact_chi_star

CACHE_ENV_VAR = "STARCHROME_CACHE"
DEFAULT_CACHE_NAME = "starchrome-cache.jsonl"
SCHEMA_VERSION = 3


@dataclass(frozen=True)
class _Bound:
    """One row of the bounds table: chi' against a bound on a class of records."""

    name: str
    proven: bool  # a theorem (a violation is a toolkit bug), or a conjecture
    applies: Callable[[SweepRecord], bool]
    value: Callable[[SweepRecord], int]
    message: str  # formatted with chi, d (max degree), diameter and excess
    lower: bool = False  # chi' must reach the value instead of staying within it

    def margin(self, rec: SweepRecord) -> int | None:
        """How far chi' stays inside the bound (negative: violated); None off its class."""
        if rec.chi_star is None or not self.applies(rec):
            return None
        gap = self.value(rec) - rec.chi_star
        return -gap if self.lower else gap


# Every record is a 2-connected outerplanar graph, so no row tests for that.
_BOUNDS = (
    _Bound("thm110", True, lambda r: True, lambda r: 3 * r.max_degree // 2 + 5,
           "chi'={chi} exceeds floor(1.5*{d})+5 on an outerplanar graph"),
    _Bound("paper_diameter", True, lambda r: r.diameter in (2, 3), lambda r: r.max_degree + 6,
           "chi'={chi} exceeds {d}+6 on a 2-connected outerplanar graph of diameter {diameter}"),
    _Bound("paper_delta5", True, lambda r: r.max_degree == 5, lambda r: 9,
           "chi'={chi} exceeds 9 on a 2-connected outerplanar graph with max degree 5"),
    _Bound("subcubic", True, lambda r: r.subcubic, lambda r: 5,
           "chi'={chi} exceeds 5 on a subcubic outerplanar graph"),
    _Bound("mop_lower", True, lambda r: r.maximal and r.n >= 5, lambda r: 6,
           "chi'={chi} below 6 on a maximal outerplanar graph of order >= 5", lower=True),
    _Bound("mop_upper", True, lambda r: r.maximal and r.n >= 8, lambda r: r.n - 1,
           "chi'={chi} above n-1 on a maximal outerplanar graph of order >= 8"),
    _Bound("conj16", False, lambda r: r.max_degree >= 3, lambda r: 3 * r.max_degree // 2 + 1,
           "conjecture floor(1.5*D)+1 violated by {excess}"),
    _Bound("conj_d6", False, lambda r: r.max_degree >= 6, lambda r: r.max_degree + 6,
           "conjecture D+6 (2-connected) violated by {excess}"),
    _Bound("conj_d4", False, lambda r: r.maximal and r.max_degree >= 6, lambda r: r.max_degree + 4,
           "conjecture D+4 (2-connected maximal) violated by {excess}"),
)
_BOUND = {b.name: b for b in _BOUNDS}


@dataclass
class SweepRecord:
    graph6: str
    n: int
    m: int
    max_degree: int
    diameter: int
    chi_star: int | None
    chi_lower: int | None
    chi_upper: int | None
    solver_nodes: int
    elapsed: float
    status: str  # "ok" | "budget_exhausted"
    # the budget a "budget_exhausted" record ran under; None on "ok" records
    budget_nodes: int | None
    budget_secs: float | None

    @property
    def maximal(self) -> bool:
        return self.m == 2 * self.n - 3

    @property
    def subcubic(self) -> bool:
        return self.max_degree <= 3

    def to_json(self) -> str:
        # every field is a scalar, so asdict's deep copy would only add time
        return json.dumps({name: getattr(self, name) for name in _FIELDS})

    @staticmethod
    def from_json(line: str | dict) -> "SweepRecord":
        """Parse a record line or its decoded object; the keys must be the fields.

        Raises ValueError for anything else, such as a JSON array or number.
        """
        data = json.loads(line) if isinstance(line, str) else line
        if not isinstance(data, dict) or data.keys() != _FIELDS.keys():
            raise ValueError(f"not a sweep record: {json.dumps(data)[:60]}")
        return SweepRecord(**data)


_FIELDS = dict.fromkeys(f.name for f in fields(SweepRecord))  # the field names, in order


def default_cache_path() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.cwd() / DEFAULT_CACHE_NAME


class ResultCache:
    """Append-only JSONL log of records keyed by ``polygon_key``.

    The last line for a key wins, so a re-solved record supersedes the one
    before it without rewriting the log.  A last line that does not parse
    (a torn write) is dropped, counted in ``torn_lines`` and cut off by the
    next append; other bad lines raise.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.records: dict[str, SweepRecord] = {}
        self.torn_lines = 0
        self._cut: int | None = None  # where the next append cuts the log
        if not self.path.exists():
            with open(self.path, "a"):  # a path that cannot be written fails here, before any solve
                return
        pos = end = 0  # bytes read; end of the last good line's text
        line, torn = "\n", None
        # ASCII with one character per byte, so lengths are byte offsets
        with open(self.path, encoding="ascii", errors="replace", newline="\n") as fh:
            for line in fh:
                pos += len(line)
                if not line.strip():
                    continue
                if torn is not None:
                    raise torn  # the bad line was not the last one
                try:
                    data = json.loads(line)
                except ValueError as exc:
                    torn = exc
                    continue
                end = pos - line.endswith("\n")
                if not isinstance(data, dict):
                    raise ValueError(f"not a sweep record: {line.strip()[:60]}")
                if "schema" in data:
                    if data["schema"] != SCHEMA_VERSION:
                        raise ValueError(f"cache schema {data['schema']} unsupported")
                    continue
                rec = SweepRecord.from_json(data)
                self.records[rec.graph6] = rec
        self.torn_lines = int(torn is not None)
        if torn is not None or not line.endswith("\n"):
            self._cut = end

    def __contains__(self, key: str) -> bool:
        return key in self.records

    def get(self, key: str) -> SweepRecord | None:
        return self.records.get(key)

    def append(self, rec: SweepRecord) -> None:
        old = self.records.get(rec.graph6)
        if old is not None and old.status == "ok":
            return  # an exact answer is final; re-solving it is a no-op
        if self._cut is not None:
            os.truncate(self.path, self._cut)
        with open(self.path, "a") as fh:
            if fh.tell() == 0:
                fh.write(json.dumps({"schema": SCHEMA_VERSION}) + "\n")
            elif self._cut is not None:
                fh.write("\n")  # the kept log ends mid-line
            self._cut = None
            fh.write(rec.to_json() + "\n")
        self.records[rec.graph6] = rec


def solve_record(key: str, budget: Budget, lower: int = 0) -> SweepRecord:
    """Exactly solve one graph given by its graph6 key.

    ``lower`` is a proven lower bound on its star chromatic index, which
    the solver starts from.
    """
    g = graph6_decode(key)
    graph = (key, g.n, g.m, g.max_degree(), diameter(g))
    try:
        r = exact_chi_star(g, budget, lower)
    except BudgetExhausted as exc:
        answer = (None, exc.lower_bound, exc.upper_bound, exc.nodes, exc.elapsed)
        return SweepRecord(*graph, *answer, "budget_exhausted", budget.max_nodes, budget.max_seconds)
    return SweepRecord(*graph, r.chi, r.chi, r.chi, r.nodes_expanded, r.elapsed, "ok", None, None)


def _violations(rec: SweepRecord, proven: bool) -> list[str]:
    out = []
    for bound in _BOUNDS:
        if bound.proven is proven and (margin := bound.margin(rec)) is not None and margin < 0:
            fill = dict(chi=rec.chi_star, d=rec.max_degree, diameter=rec.diameter, excess=-margin)
            out.append(bound.message.format(**fill))
    return out


def proven_bound_violations(rec: SweepRecord) -> list[str]:
    """Checks whose failure means a toolkit bug, not a finding."""
    return _violations(rec, proven=True)


def conjecture_violations(rec: SweepRecord) -> list[str]:
    """Checks whose failure would be a publishable finding."""
    return _violations(rec, proven=False)


@dataclass
class SweepSummary:
    records: list[SweepRecord]
    solved: int
    from_cache: int
    budget_exhausted: int
    hard_failures: list[tuple[str, str]]
    findings: list[tuple[str, str]]


def _needs_solve(rec: SweepRecord | None, budget: Budget) -> bool:
    """True for a new record, or for one that hit a budget this one exceeds:
    at least as large in nodes and in seconds, and larger in one.

    A budget larger in one and smaller in the other would overwrite the
    stored one, and the two would then re-solve each other's records.
    """
    if rec is None:
        return True
    if rec.status == "ok":
        return False
    stored = (rec.budget_nodes, rec.budget_secs)
    nodes, secs = budget.max_nodes, budget.max_seconds
    return nodes >= stored[0] and secs >= stored[1] and (nodes, secs) != stored


def run_sweep(
    n_max: int,
    cache: ResultCache,
    budget: Budget | None = None,
    expand_subgraphs: bool = False,
    workers: int = 1,
) -> SweepSummary:
    """Enumerate MOPs of orders 4..n_max (with ``expand_subgraphs``, every
    2-connected outerplanar graph, which is their chord-deletion closure),
    solve everything exactly, and collect the bound checks.

    The sweep grows one order at a time from the one below and solves it
    before growing the next.  Each graph's solve starts at the largest
    ``chi_lower`` among the cached records of its ear-deleted children:
    they are subgraphs, and star chromatic index never grows under
    deletion.  Targets run by order, then by ``polygon_key``, the keys the
    enumerations give their members.  Each solved record is appended to the
    cache as soon as it arrives, so an interrupted sweep keeps what it
    finished.  A record that hits the budget stores it, and the sweep goes
    on; a later sweep retries it only under a budget at least as large in
    nodes and in seconds, and larger in one.
    """
    budget = budget or Budget()
    grow = enumerate_dissections if expand_subgraphs else enumerate_mops
    targets: list[str] = []
    todo: list[str] = []
    level = None
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for n in range(4, n_max + 1):
            level = grow(n, level)
            keys = sorted(level.members)
            new = [key for key in keys if _needs_solve(cache.get(key), budget)]
            # children outside the cache (the triangle) give no bound
            lowers = [
                max((cache.get(c).chi_lower for c in level.children[key] if c in cache), default=0)
                for key in new
            ]
            args = (solve_record, new, [budget] * len(new), lowers)
            if pool:
                # about four tasks per worker: most solves take well under a
                # millisecond, so one round trip per record would dominate
                solved = pool.map(*args, chunksize=len(new) // (4 * workers) + 1)
            else:
                solved = map(*args)
            for rec in solved:
                cache.append(rec)
            targets += keys
            todo += new
    records = [cache.records[key] for key in targets]
    hard = [(r.graph6, msg) for r in records for msg in proven_bound_violations(r)]
    findings = [(r.graph6, msg) for r in records for msg in conjecture_violations(r)]
    return SweepSummary(
        records=records,
        solved=len(todo),
        from_cache=len(targets) - len(todo),
        budget_exhausted=sum(r.status == "budget_exhausted" for r in records),
        hard_failures=hard,
        findings=findings,
    )
