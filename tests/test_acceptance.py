"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Expected values are exact integers; the wall-clock ceilings are
asserted as stated.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from starchrome.coloring import star_violations
from starchrome.families import build_family, claimed_palette, delta5_strip_coloring, formula_coloring
from starchrome.graph import Graph, from_edges
from starchrome.graph6 import graph6_decode
from starchrome.harness import verify_figures
from starchrome.outerplanar import enumerate_mops, is_maximal_outerplanar
from starchrome.solver import (
    Budget,
    brute_force_chi_star,
    common_neighbour_bound,
    exact_chi_star,
    star_palette_feasible,
)
from starchrome.sweep import _BOUND, ResultCache, proven_bound_violations, run_sweep

from conftest import cycle_graph, fan_graph, g61, g61_prime, path_graph, random_connected_graph
from iso_oracle import canonical_key, fixed_polygon_triangulations, polygon_triangulation_graph


def _report(criterion: str, elapsed: float, detail: str = "") -> None:
    extra = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS in {elapsed:.1f}s{extra}")


def test_criterion_1_basic_family_values():
    start = time.monotonic()
    for n in range(5, 11):
        assert exact_chi_star(path_graph(n)).chi == 3
    assert exact_chi_star(cycle_graph(5)).chi == 4
    for n in (4, 6, 7, 8, 9):
        assert exact_chi_star(cycle_graph(n)).chi == 3
    fan_values = {3: 3, 4: 4, 5: 6, 6: 6, 7: 7, 8: 7, 9: 8, 10: 9}
    for order, expected in fan_values.items():
        assert exact_chi_star(fan_graph(order)).chi == expected
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report("1 (path/cycle/fan exact values)", elapsed)


def test_criterion_2_six_vertex_cores():
    start = time.monotonic()
    assert exact_chi_star(g61()).chi == 6
    assert exact_chi_star(g61_prime()).chi == 4
    from starchrome.families import figure_coloring

    for figure_id, palette in (("fig1", 6), ("fig2", 4)):
        _, coloring = figure_coloring(figure_id)
        assert star_violations(coloring) == []
        assert coloring.palette_size() == palette
    elapsed = time.monotonic() - start
    assert elapsed < 5
    _report("2 (G_6^1 and its chord-deleted form)", elapsed)


def test_criterion_3_lower_bounds_at_desk_scale():
    start = time.monotonic()
    budget = Budget(max_nodes=100_000_000, max_seconds=300.0)
    for delta in (5, 6):
        tick = time.monotonic()
        inst = build_family("h_prime", delta=delta)
        infeasible = star_palette_feasible(inst.graph, delta + 1, budget)
        assert infeasible is None, f"palette {delta + 1} must be infeasible"
        result = exact_chi_star(inst.graph, budget)
        assert result.chi >= delta + 2
        assert time.monotonic() - tick < 600
    elapsed = time.monotonic() - start
    _report("3 (fan-chained family needs delta+2 colors)", elapsed)


def test_criterion_4_constructive_upper_bounds():
    start = time.monotonic()
    checks = [("h_prime", range(9, 15)), ("h_case1", range(7, 13)), ("h2", range(10, 15))]
    for family, deltas in checks:
        for delta in deltas:
            coloring = formula_coloring(family, delta)
            violations = star_violations(coloring)
            assert violations == [], (
                f"{family} delta={delta}: formula coloring has violations; "
                f"first witness {violations[0] if violations else None}"
            )
            assert coloring.palette_size() == claimed_palette(family, delta)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report("4 (closed-form colorings hit their claimed palettes)", elapsed)


def test_criterion_5_figure_catalog_complete():
    start = time.monotonic()
    reports = verify_figures()
    ids = sorted(r.source for r in reports)
    expected = sorted(
        ["fig1", "fig2", "fig3_f6", "fig3_f7"]
        + [f"fig8{ch}" for ch in "abcde"]
        + [f"fig10{ch}" for ch in "abcd"]
        + [f"fig11{ch}" for ch in "abcdefg"]
        + ["fig12"]
    )
    assert ids == expected  # complete, each exactly once
    for rep in reports:
        line = "PASS" if rep.passed else "FAIL"
        print(f"  {line} {rep.source} palette={rep.palette}")
        if not rep.passed:
            assert rep.first_witness is not None  # findings carry witnesses
    failed = [r.source for r in reports if not r.passed]
    assert failed == ["fig3_f7"]  # the drawing's bichromatic path, reported not patched
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report("5 (figure catalog verified)", elapsed, f"findings: {failed}")


def test_criterion_6_strip_family():
    start = time.monotonic()
    for blocks in (10, 16, 22):
        coloring = delta5_strip_coloring(blocks)
        assert star_violations(coloring) == []
        assert coloring.palette_size() <= 9
        g = coloring.graph
        assert g.max_degree() == 5
        assert is_maximal_outerplanar(g)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report("6 (degree-5 strip at figure size, +1 and +2 periods)", elapsed)


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def test_criterion_7_enumeration_counts():
    start = time.monotonic()
    for n in range(3, 11):
        catalog = enumerate_mops(n)
        assert catalog.rooted_count == _catalan(n - 2)
        if n <= 8:
            oracle = {
                canonical_key(polygon_triangulation_graph(n, chords))
                for chords in fixed_polygon_triangulations(n)
            }
            assert {canonical_key(g) for g in catalog.members.values()} == oracle
            assert len(catalog.members) == len(oracle)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report("7 (rooted counts Catalan, members match the oracle)", elapsed)


def _all_connected_graphs_up_to(max_edges: int) -> list[Graph]:
    """Every connected graph with 1..max_edges edges, up to isomorphism.

    Grown by edge addition: a connected graph with m+1 edges arises from a
    connected graph with m edges either by joining two existing vertices or
    by hanging a new pendant vertex.
    """
    k2 = from_edges(2, [(0, 1)])
    levels: list[dict[str, Graph]] = [{canonical_key(k2): k2}]
    out = [k2]
    for _ in range(max_edges - 1):
        nxt: dict[str, Graph] = {}
        for g in levels[-1].values():
            candidates = []
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if (u, v) not in g.edge_set():
                        candidates.append(Graph(g.n, tuple(sorted(g.edges + ((u, v),)))))
                candidates.append(Graph(g.n + 1, tuple(sorted(g.edges + ((u, g.n),)))))
            for h in candidates:
                key = canonical_key(h)
                if key not in nxt:
                    nxt[key] = h
        levels.append(nxt)
        out.extend(nxt.values())
    return out


def test_criterion_8_oracle_equivalence():
    start = time.monotonic()
    graphs = _all_connected_graphs_up_to(8)
    assert len(graphs) == 1 + 1 + 3 + 5 + 12 + 30 + 79 + 227  # A002905 partial sums
    graphs += [random_connected_graph(random.Random(seed), max_edges=9, max_n=9)
               for seed in range(200)]
    for g in graphs:
        chi = brute_force_chi_star(g)
        assert exact_chi_star(g).chi == chi
        # the common-neighbour bound, checked apart from the solver's use of it
        assert common_neighbour_bound(g)[0] <= chi, g
    elapsed = time.monotonic() - start
    assert elapsed < 600
    _report("8 (solver agrees with the brute-force oracle)", elapsed,
            f"{len(graphs) - 200} + 200 graphs")


def test_criterion_9_sweep_soundness(tmp_path):
    start = time.monotonic()
    cache = ResultCache(tmp_path / "sweep-cache.jsonl")
    summary = run_sweep(10, cache)
    assert summary.budget_exhausted == 0
    assert summary.hard_failures == []
    mops = [r for r in summary.records if r.maximal]
    assert len(summary.records) == 130
    for rec in summary.records:
        assert rec.chi_star is not None
        assert rec.chi_star >= rec.max_degree
        assert rec.chi_star <= rec.m
        assert rec.chi_star <= (3 * rec.max_degree) // 2 + 5
        if rec.subcubic:
            assert rec.chi_star <= 5
        assert _BOUND["thm110"].margin(rec) is not None  # margins reported per record
        if rec.max_degree >= 3:
            assert _BOUND["conj16"].margin(rec) is not None
        assert proven_bound_violations(rec) == []
    for rec in mops:
        if rec.n >= 5:
            assert rec.chi_star >= 6
        if rec.n >= 8:
            assert rec.chi_star <= rec.n - 1
    elapsed = time.monotonic() - start
    assert elapsed < 1800
    _report("9 (full sweep to n=10, proven bounds clean)", elapsed, f"{len(summary.records)} records")
