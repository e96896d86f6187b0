"""Spans around the program's layer functions, installed from outside.

Each wrapper replaces a function at the module attribute its callers look up
(``starchrome.sweep.exact_chi_star``, ``starchrome.outerplanar.canonical_key``,
...), so the program itself is unchanged.  A span records its name, start,
end, parent span and the input being worked on.  Spans stay in memory and are
written once, when the unit ends.  A layer's self time is its spans' duration
minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path


def _observe_exact(tracer: "Tracer", result, exc) -> None:
    if exc is None:
        tracer.counts["solver.nodes"] += result.nodes_expanded
    elif type(exc).__name__ == "BudgetExhausted":
        tracer.counts["solver.nodes"] += exc.nodes
        tracer.counts["solver.budget_hits"] += 1
        tracer.counts["solver.upper_gap"] += exc.upper_bound - exc.lower_bound


def _observe_sweep(tracer: "Tracer", result, exc) -> None:
    if exc is None:
        tracer.counts["sweep.cache_hits"] += result.from_cache


# (span name, [(module, attribute), ...], observer).  Every attribute that
# holds the same function gets the same wrapper; a missing one is skipped.
SPANS = [
    ("sweep.run_sweep", [("sweep", "run_sweep")], _observe_sweep),
    ("sweep.solve_record", [("sweep", "solve_record")], None),
    ("sweep.cache_load", [("sweep", "ResultCache.__init__")], None),
    ("sweep.cache_append", [("sweep", "ResultCache.append")], None),
    ("solver.exact", [("solver", "exact_chi_star"), ("sweep", "exact_chi_star")],
     _observe_exact),
    ("solver.greedy", [("solver", "greedy_star_upper")], None),
    ("coloring.star_violations", [("coloring", "star_violations")], None),
    ("outerplanar.enumerate_mops", [("sweep", "enumerate_mops")], None),
    ("outerplanar.rooted_count", [("outerplanar", "fixed_polygon_triangulations")], None),
    ("outerplanar.classify", [("outerplanar", "classify"), ("sweep", "classify")], None),
    ("outerplanar.is_outerplanar", [("outerplanar", "is_outerplanar")], None),
    ("graph.canonical_key", [("outerplanar", "canonical_key")], None),
    ("graph.canonical_form", [("sweep", "canonical_form")], None),
    ("graph.is_two_connected", [("outerplanar", "is_two_connected")], None),
    ("graph.diameter", [("outerplanar", "diameter")], None),
    ("graph6.encode", [("sweep", "graph6_encode")], None),
    ("graph6.decode", [("graph6", "graph6_decode"), ("sweep", "graph6_decode")], None),
]


def _owner(module: str, attribute: str):
    """The object holding ``attribute`` (a class for ``Class.method``), or None."""
    owner = importlib.import_module(f"starchrome.{module}")
    *path, _ = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[list] = []  # [span index, name, parent, start, child seconds]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.refute_s = 0.0
        self.input_id = ""

    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else -1
        self.stack.append([len(self.spans), name, parent, time.perf_counter(), 0.0])
        self.spans.append(None)

    def exit(self) -> None:
        end = time.perf_counter()
        index, name, parent, start, child = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][4] += duration
        self.spans[index] = (name, start, end, parent, self.input_id)

    def wrap(self, name: str, fn, observe):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # The span covers the whole iteration, not the creation.
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                tracer.enter(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.exit()

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.exit()
                if observe:
                    observe(tracer, None, exc)
                raise
            tracer.exit()
            if observe:
                observe(tracer, result, None)
            return result

        return wrapper

    def install(self) -> None:
        for name, attributes, observe in SPANS:
            wrapped = {}
            for module, attribute in attributes:
                owner = _owner(module, attribute)
                leaf = attribute.rsplit(".", 1)[-1]
                fn = getattr(owner, leaf, None)
                if fn is None:
                    continue
                if fn not in wrapped:
                    wrapped[fn] = self.wrap(name, fn, observe)
                setattr(owner, leaf, wrapped[fn])
        self._install_rounds()

    def _install_rounds(self) -> None:
        """Time the palette rounds that end in a refutation (k below chi).

        ``_Search.feasible`` is private, so this is a timer rather than a
        span, and it is skipped if the solver no longer has it.
        """
        search = getattr(importlib.import_module("starchrome.solver"), "_Search", None)
        if search is None:
            return
        feasible = search.feasible
        tracer = self

        @functools.wraps(feasible)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            slots = feasible(*args, **kwargs)
            if slots is None:
                tracer.refute_s += time.perf_counter() - started
            return slots

        search.feasible = timed

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _attributes, _observe in SPANS:
            out[f"{name}.s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        out.update(self.counts)
        for name in ("solver.nodes", "solver.budget_hits", "solver.upper_gap",
                     "sweep.cache_hits"):
            out.setdefault(name, 0)
        exact_s = self.self_s["solver.exact"]
        out["solver.nodes_per_s"] = out["solver.nodes"] / exact_s if exact_s else 0.0
        out["solver.refute_s"] = self.refute_s
        out["solver.witness_s"] = self.total_s["solver.exact"] - self.refute_s
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, input_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, input_id]) + "\n")
