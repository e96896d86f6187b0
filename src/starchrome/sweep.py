"""Exhaustive sweep of small outerplanar graphs against the known bounds.

The sweep covers every MOP of each order, or with ``expand_subgraphs``
every 2-connected outerplanar graph.  Every enumerated graph is solved
exactly and lands in an append-only JSON-lines cache keyed by
``polygon_key``, the graph6 string of the graph relabelled from its outer
cycle; the enumerations key their members as they grow them, so the sweep
runs no isomorphism search of its own.  Violations of a proven theorem are
hard failures (they mean the toolkit is wrong); violations of a conjecture
are findings and never fail a run.

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
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import BudgetExhausted
from .graph6 import graph6_decode
from .outerplanar import classify, enumerate_dissections, enumerate_mops
from .solver import Budget, exact_chi_star

CACHE_ENV_VAR = "STARCHROME_CACHE"
DEFAULT_CACHE_NAME = "starchrome-cache.jsonl"
SCHEMA_VERSION = 2


@dataclass
class SweepRecord:
    graph6: str
    n: int
    m: int
    max_degree: int
    diameter: int | None  # None encodes an infinite diameter
    two_connected: bool
    maximal: bool
    subcubic: bool
    outerplanar: bool
    chi_star: int | None
    chi_lower: int | None
    chi_upper: int | None
    bound_margin_conj16: int | None
    bound_margin_thm110: int | None
    bound_margin_conj_d6: int | None
    bound_margin_conj_d4: int | None
    solver_nodes: int
    elapsed: float
    status: str  # "ok" | "budget_exhausted"

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @staticmethod
    def from_json(line: str | dict) -> "SweepRecord":
        """Parse a record line or its decoded object; the keys must be the fields.

        Raises ValueError for anything else, such as a JSON array or number.
        """
        data = json.loads(line) if isinstance(line, str) else line
        if not isinstance(data, dict) or data.keys() != _FIELDS:
            raise ValueError(f"not a sweep record: {json.dumps(data)[:60]}")
        return SweepRecord(**data)


_FIELDS = {f.name for f in fields(SweepRecord)}


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


def _floor_3halves(delta: int) -> int:
    return (3 * delta) // 2


def _thm110_bound(delta: int) -> int:
    """floor(3D/2)+5, the proven bound for every outerplanar graph."""
    return _floor_3halves(delta) + 5


def _margin(bound: int | None, chi: int | None) -> int | None:
    if bound is None or chi is None:
        return None
    return bound - chi


def solve_record(key: str, budget: Budget, lower: int = 0) -> SweepRecord:
    """Classify and exactly solve one graph given by its graph6 key.

    ``lower`` is a proven lower bound on its star chromatic index, which
    the solver starts from.
    """
    g = graph6_decode(key)
    cls = classify(g)
    diam = None if cls.diameter == float("inf") else int(cls.diameter)
    delta = g.max_degree()
    try:
        result = exact_chi_star(g, budget, lower)
        chi: int | None = result.chi
        chi_lower = chi_upper = chi
        nodes, elapsed, status = result.nodes_expanded, result.elapsed, "ok"
    except BudgetExhausted as exc:
        chi = None
        chi_lower, chi_upper = exc.lower_bound, exc.upper_bound
        nodes, elapsed, status = exc.nodes, exc.elapsed, "budget_exhausted"
    conj16 = _floor_3halves(delta) + 1 if cls.outerplanar and delta >= 3 else None
    thm110 = _thm110_bound(delta) if cls.outerplanar else None
    conj_d6 = delta + 6 if cls.outerplanar and cls.two_connected and delta >= 6 else None
    conj_d4 = delta + 4 if cls.maximal and cls.two_connected and delta >= 6 else None
    return SweepRecord(
        graph6=key,
        n=g.n,
        m=g.m,
        max_degree=delta,
        diameter=diam,
        two_connected=cls.two_connected,
        maximal=cls.maximal,
        subcubic=cls.subcubic,
        outerplanar=cls.outerplanar,
        chi_star=chi,
        chi_lower=chi_lower,
        chi_upper=chi_upper,
        bound_margin_conj16=_margin(conj16, chi),
        bound_margin_thm110=_margin(thm110, chi),
        bound_margin_conj_d6=_margin(conj_d6, chi),
        bound_margin_conj_d4=_margin(conj_d4, chi),
        solver_nodes=nodes,
        elapsed=elapsed,
        status=status,
    )


def proven_bound_violations(rec: SweepRecord) -> list[str]:
    """Checks whose failure means a toolkit bug, not a finding."""
    out = []
    chi = rec.chi_star
    if chi is None:
        return out
    d = rec.max_degree
    if rec.outerplanar and chi > _thm110_bound(d):
        out.append(f"chi'={chi} exceeds floor(1.5*{d})+5 on an outerplanar graph")
    two_connected_outer = rec.outerplanar and rec.two_connected
    if two_connected_outer and rec.diameter in (2, 3) and chi > d + 6:
        out.append(
            f"chi'={chi} exceeds {d}+6 on a 2-connected outerplanar graph of diameter {rec.diameter}"
        )
    if two_connected_outer and d == 5 and chi > 9:
        out.append(f"chi'={chi} exceeds 9 on a 2-connected outerplanar graph with max degree 5")
    if rec.subcubic and rec.outerplanar and chi > 5:
        out.append(f"chi'={chi} exceeds 5 on a subcubic outerplanar graph")
    if rec.maximal and rec.n >= 5 and chi < 6:
        out.append(f"chi'={chi} below 6 on a maximal outerplanar graph of order >= 5")
    if rec.maximal and rec.n >= 8 and chi > rec.n - 1:
        out.append(f"chi'={chi} above n-1 on a maximal outerplanar graph of order >= 8")
    return out


def conjecture_violations(rec: SweepRecord) -> list[str]:
    """Checks whose failure would be a publishable finding."""
    out = []
    for name, margin in (
        ("conjecture floor(1.5*D)+1", rec.bound_margin_conj16),
        ("conjecture D+6 (2-connected)", rec.bound_margin_conj_d6),
        ("conjecture D+4 (2-connected maximal)", rec.bound_margin_conj_d4),
    ):
        if margin is not None and margin < 0:
            out.append(f"{name} violated by {-margin}")
    return out


@dataclass
class SweepSummary:
    records: list[SweepRecord]
    solved: int
    from_cache: int
    budget_exhausted: int
    hard_failures: list[tuple[str, str]]
    findings: list[tuple[str, str]]


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
    finished.  Budget exhaustion marks a record and the sweep continues; a
    later sweep solves that record again, so a larger budget can settle it.
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
            new = [key for key in keys if key not in cache or cache.get(key).status != "ok"]
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
    exhausted = sum(cache.records[key].status == "budget_exhausted" for key in todo)
    hard = [(r.graph6, msg) for r in records for msg in proven_bound_violations(r)]
    findings = [(r.graph6, msg) for r in records for msg in conjecture_violations(r)]
    return SweepSummary(
        records=records,
        solved=len(todo),
        from_cache=len(targets) - len(todo),
        budget_exhausted=exhausted,
        hard_failures=hard,
        findings=findings,
    )
