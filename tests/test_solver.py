from __future__ import annotations

import contextlib
import errno
import functools
import itertools
import json
import os
import random
import signal
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from starchrome import race, solver, symmetry
from starchrome.coloring import EdgeColoring, star_violations
from starchrome.errors import BudgetExhausted, OutOfRange, TooLarge
from starchrome.families import build_family
from starchrome.graph import from_edges, relabel
from starchrome.graph6 import graph6_decode
from starchrome.outerplanar import enumerate_dissections, enumerate_mops
from starchrome.solver import (
    CHECKPOINT_NODES,
    GREEDY_SEEDS,
    RESTART_NODES,
    Budget,
    brute_force_chi_star,
    common_neighbour_bound,
    exact_chi_star,
    greedy_star_upper,
    star_palette_feasible,
)
from starchrome.sweep import ResultCache, run_sweep

from conftest import (cycle_graph, fan_graph, g61, g61_prime, k4, k23, path_graph,
                      random_connected_graph)
from iso_oracle import canonical_form, two_connected_spanning_subgraphs

SOLVE_HARD = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "solve-hard.txt"


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3)])
def test_paths(n, expected):
    assert exact_chi_star(path_graph(n)).chi == expected


@pytest.mark.parametrize("n,expected", [(3, 3), (4, 3), (5, 4), (6, 3), (7, 3), (9, 3)])
def test_cycles(n, expected):
    assert exact_chi_star(cycle_graph(n)).chi == expected


@pytest.mark.parametrize(
    "order,expected", [(3, 3), (4, 4), (5, 6), (6, 6), (7, 7), (8, 7), (9, 8)]
)
def test_fans(order, expected):
    assert exact_chi_star(fan_graph(order)).chi == expected


def test_named_six_vertex_graphs():
    assert exact_chi_star(g61()).chi == 6
    assert exact_chi_star(g61_prime()).chi == 4


def test_single_edge_and_empty():
    assert exact_chi_star(from_edges(2, [(0, 1)])).chi == 1
    assert exact_chi_star(from_edges(1, [])).chi == 0
    # the palette search on no edges: the empty coloring, even in 0 colors
    empty = star_palette_feasible(from_edges(2, []), 0)
    assert empty is not None and empty.as_mapping() == {}


def test_witness_validates_and_uses_exactly_chi_colors():
    for g in (path_graph(6), cycle_graph(5), fan_graph(6), g61()):
        result = exact_chi_star(g)
        assert star_violations(result.witness) == []
        assert result.witness.distinct_colors() == result.chi
        assert result.witness.palette_size() == result.chi


def test_chi_at_least_max_degree():
    for g in (fan_graph(7), k4(), path_graph(5)):
        assert exact_chi_star(g).chi >= g.max_degree()


def test_witness_minimality():
    for g in (cycle_graph(5), fan_graph(5), g61()):
        chi = exact_chi_star(g).chi
        assert star_palette_feasible(g, chi - 1) is None


def test_color_permutation_invariance():
    result = exact_chi_star(g61())
    perm = {c: result.chi + 1 - c for c in range(1, result.chi + 1)}
    remapped = EdgeColoring(
        result.witness.graph, tuple(perm[c] for c in result.witness.colors)
    )
    assert star_violations(remapped) == []


def test_isomorphism_invariance():
    rng = random.Random(3)
    g = g61()
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert exact_chi_star(relabel(g, perm)).chi == 6


def test_monotone_under_chord_deletion():
    # chi' is monotone under edge deletion; check it on a chord chain
    full = g61()
    chi_full = exact_chi_star(full).chi
    for sub in two_connected_spanning_subgraphs(full):
        assert exact_chi_star(sub).chi <= chi_full


def test_brute_force_examples():
    assert brute_force_chi_star(from_edges(3, [(0, 1), (1, 2), (0, 2)])) == 3
    assert brute_force_chi_star(path_graph(5)) == 3
    star4 = from_edges(5, [(0, i) for i in range(1, 5)])
    assert brute_force_chi_star(star4) == 4
    assert brute_force_chi_star(k4()) == 5


def test_brute_force_size_limit():
    with pytest.raises(TooLarge):
        brute_force_chi_star(fan_graph(7))


def test_oracle_equivalence_sample():
    rng = random.Random(2024)
    for _ in range(60):
        g = random_connected_graph(rng, max_edges=8, max_n=7)
        assert exact_chi_star(g).chi == brute_force_chi_star(g)


def test_greedy_always_validates():
    for seed in range(5):
        for g in (path_graph(5), cycle_graph(5), fan_graph(7), g61()):
            coloring = greedy_star_upper(g, order_seed=seed)
            assert star_violations(coloring) == []
            assert coloring.palette_size() >= exact_chi_star(g).chi


def test_greedy_on_trivial_graphs():
    assert greedy_star_upper(from_edges(1, [])).colors == ()
    assert greedy_star_upper(cycle_graph(5)).palette_size() >= 4


def test_budget_exhaustion_carries_bounds():
    # h_prime delta=8: chi' = 10, two above D = 8, and no greedy order of the
    # 64 fits 9, the first palette at or above the common-neighbour bound
    with pytest.raises(BudgetExhausted) as exc_info:
        exact_chi_star(_hard("h_prime-d8"), Budget(max_nodes=5, max_seconds=60.0))
    exc = exc_info.value
    assert exc.lower_bound <= 10 <= exc.upper_bound
    assert exc.nodes >= 5


def test_edge_limit():
    # no edge limit: a 41-edge path gets an answer, not TooLarge
    big = from_edges(42, [(i, i + 1) for i in range(41)])
    assert exact_chi_star(big).chi == 3


def test_k14_star_needs_four():
    star = from_edges(5, [(0, i) for i in range(1, 5)])
    assert exact_chi_star(star).chi == 4


def test_solver_handles_disconnected_input():
    g = from_edges(4, [(0, 1), (2, 3)])
    result = exact_chi_star(g)
    assert result.chi == 1


def test_coloring_rejects_non_edges():
    g = path_graph(3)
    with pytest.raises(ValueError):
        EdgeColoring.from_mapping(g, {(0, 1): 1, (1, 2): 2, (0, 2): 3})


# values the constructions only bracket; pinned from the exact solver
EXTREMAL = {
    ("h_prime", 5): 7 + 1,   # inside the known [7, 9]
    ("h_prime", 6): 8,       # meets the known lower bound
    ("h_prime", 7): 9,       # meets the known lower bound
    ("h_case1", 4): 6,
    ("h_case1", 5): 7,
    ("h_case1", 6): 8,
    ("h2", 4): 6,
    ("h2", 5): 7,
    ("h2", 6): 8,
    ("h2", 7): 8,            # delta+1: beats the delta+3 reference coloring
    ("h_case1", 7): 9,
    ("h_case1", 9): 10,      # delta+1, three under the delta+4 closed form
    ("h2", 10): 11,          # delta+1, one under the delta+2 closed form
    ("h_prime", 8): 10,
    ("g_delta", 8): 10,
}


def test_extremal_family_exact_values():
    # (k, nodes, second, dive, outcome) per round: the counts follow the
    # builders' labels; h_case1 delta=7's k=8 refutation runs past the
    # cutoff, after a dive that gives up at 2m placements; the dive finds
    # its k=9 witness and h2 delta=10's k=11 one, which the searches alone
    # reached at 16 437 and 125 329 nodes; at h_case1 delta=9 it gives up,
    # and the degree order finds the witness.  The lex-leader check over 3
    # and 21 automorphisms settles h_prime and g_delta delta=8's k=9
    # refutations, which took 1 190 096 and 1 161 360 nodes without it.
    rounds = {
        ("h_prime", 8): [(8, 0, 0, 0, "bound"), (9, 270401, 127041, 72, "refuted"),
                         (10, 8163, 0, 36, "feasible")],
        ("g_delta", 8): [(8, 0, 0, 0, "bound"), (9, 17884, 1500, 42, "refuted"),
                         (10, 6713, 0, 21, "feasible")],
        ("h_case1", 7): [(7, 0, 0, 0, "bound"), (8, 278972, 131516, 58, "refuted"),
                         (9, 7793, 0, 45, "feasible")],
        ("h_case1", 9): [(9, 0, 0, 0, "bound"), (10, 958605, 471181, 82, "feasible")],
        ("h2", 10): [(10, 0, 0, 0, "bound"), (11, 4132, 0, 36, "feasible")],
    }
    for (family, delta), chi in EXTREMAL.items():
        g = build_family(family, delta=delta).graph
        result = exact_chi_star(g)
        assert result.chi == chi, (family, delta, result.chi)
        assert star_violations(result.witness) == []
        if (family, delta) in rounds:
            got = [(r.k, r.nodes, r.second, r.dive, r.outcome) for r in result.rounds]
            assert got == rounds[family, delta], (family, delta)


def _naive_bound(g):
    """The common-neighbour bound over every vertex pair, by sets."""
    nbrs, degs = [set(ns) for ns in g.neighbors()], g.degrees()
    best = (0, None)
    for u, v in itertools.combinations(range(g.n), 2):
        t = len(nbrs[u] & nbrs[v])
        if t and (degs[u] + degs[v] + t + 1) // 2 > best[0]:
            best = ((degs[u] + degs[v] + t + 1) // 2, (u, v, t))
    return best


def test_common_neighbour_bound_examples():
    assert common_neighbour_bound(from_edges(2, [(0, 1)])) == (0, None)
    # the middle vertices of a path share a neighbour: ceil((2 + 2 + 1) / 2)
    assert common_neighbour_bound(path_graph(5)) == (3, (1, 3, 1))
    assert common_neighbour_bound(k4()) == (4, (0, 1, 2))
    # h2's two degree-9 hubs share one neighbour: the two-hub case
    assert common_neighbour_bound(_hard("h2-d9")) == (10, (2, 3, 1))


def _soundness_set():
    """Every MOP to n=12, every polygon dissection to n=10, and the
    hub-and-fan families and g_delta at delta <= 8."""
    graphs, mops, dissections = [], None, None
    for n in range(3, 13):
        mops = enumerate_mops(n, mops)
        graphs += mops.members.values()
    for n in range(3, 11):
        dissections = enumerate_dissections(n, dissections)
        graphs += dissections.members.values()
    for family, least in (("h2", 4), ("h_case1", 4), ("h_prime", 5), ("g_delta", 5)):
        graphs += [build_family(family, delta=delta).graph for delta in range(least, 9)]
    return graphs


def test_the_search_alone_refutes_every_palette_below_the_bound():
    # independent of the solver's use of the bound: a fresh search, which
    # never reads it, refutes every k from D up to B - 1
    refuted = 0
    for g in _soundness_set():
        bound = common_neighbour_bound(g)
        assert bound == _naive_bound(g), g
        for above in (g.max_degree(), g.max_degree() + 1):
            cut = common_neighbour_bound(g, above)
            assert cut == bound if bound[0] > above else cut[0] <= above, (g, above)
        for k in range(g.max_degree(), bound[0]):
            assert solver._Search(g, Budget()).feasible(k, RESTART_NODES) is None, (g, k)
            refuted += 1
    assert refuted == 1653


def test_a_round_below_the_bound_spends_no_node_and_draws_no_order(monkeypatch):
    def refuse(*args):
        raise AssertionError("searched or drew below the bound")

    g = _hard("h2-d9")
    monkeypatch.setattr(solver._Search, "feasible", refuse)
    monkeypatch.setattr(solver, "greedy_star_upper", refuse)
    assert star_palette_feasible(g, 9) is None
    search = solver._Search(g, Budget())
    assert search.round(9, 9) is None
    [r] = search.rounds
    assert (r.k, r.nodes, r.second, r.outcome) == (9, 0, 0, "bound")
    assert search.nodes == 0


def test_the_search_alone_refutes_h2_d9_at_k9():
    # a solve ends this round by the common-neighbour bound; the search
    # alone still refutes it (first fit alone: 1 729 449 nodes)
    search = solver._Search(_hard("h2-d9"), Budget())
    assert search.feasible(9, RESTART_NODES) is None
    assert (search.nodes, search.second) == (68_388, 27_428)


# The five hard instances of the solver benchmark: (family, delta).
HARD = {
    "h_prime-d7": ("h_prime", 7),
    "h_case1-d7": ("h_case1", 7),
    "h2-d8": ("h2", 8),
    "h_prime-d8": ("h_prime", 8),
    "h2-d9": ("h2", 9),
}


def _hard(name):
    family, delta = HARD[name]
    return build_family(family, delta=delta).graph


def test_search_tree_is_pinned_on_mops():
    # Summed over every MOP of each order, labelled by the generic canonical
    # form of the tests' oracle.  The totals pin the edge order and the node
    # accounting: a kernel that prunes differently, or counts a node
    # elsewhere, moves them.
    expected = {4: 6, 5: 33, 6: 124, 7: 176, 8: 919, 9: 4527, 10: 36521}
    for n, total in expected.items():
        nodes = 0
        for mop in enumerate_mops(n).members.values():
            result = exact_chi_star(canonical_form(mop))
            assert star_violations(result.witness) == []
            assert result.witness.palette_size() == result.chi
            nodes += result.nodes_expanded
        assert nodes == total, n


def test_search_tree_is_pinned_on_mops_as_the_sweep_solves_them():
    # The sweep solves each MOP under the labels of its polygon_key, the
    # graph6 cache key; these totals move if that labelling does.
    expected = {4: 6, 5: 33, 6: 118, 7: 177, 8: 923, 9: 4582, 10: 36712}
    for n, total in expected.items():
        nodes = sum(
            exact_chi_star(graph6_decode(key)).nodes_expanded for key in enumerate_mops(n).members
        )
        assert nodes == total, n


def test_search_tree_is_pinned_on_the_sweep_with_inherited_bounds(tmp_path):
    # Each sweep solve starts at the largest chi' of its ear-deleted
    # children, so only the rounds from there on count; the same MOPs take
    # 42 551 nodes from k = D (the totals above).  Only n = 4 and 5 start
    # below the common-neighbour bound.
    expected = {4: 6, 5: 33, 6: 52, 7: 153, 8: 671, 9: 4171, 10: 25659}
    summary = run_sweep(10, ResultCache(tmp_path / "c.jsonl"))
    nodes = Counter()
    for rec in summary.records:
        nodes[rec.n] += rec.solver_nodes
    assert dict(nodes) == expected
    assert sum(nodes.values()) == 30_745


def test_lower_bound_skips_the_rounds_below_it():
    def shape(result):
        return [(r.k, r.nodes, r.outcome) for r in result.rounds]

    g = fan_graph(7)
    plain = exact_chi_star(g)
    assert shape(exact_chi_star(g, lower=1)) == shape(plain)  # below D: no effect
    started = exact_chi_star(g, lower=plain.chi)
    assert started.chi == plain.chi
    assert [(r.k, r.outcome) for r in started.rounds] == [(plain.chi, "feasible")]
    assert started.nodes_expanded == plain.rounds[-1].nodes < plain.nodes_expanded
    assert star_violations(started.witness) == []


def test_greedy_palettes_are_pinned():
    expected = {
        "h_prime-d7": [12, 11, 13, 11, 12],
        "h_case1-d7": [11, 10, 13, 11, 11],
        "h2-d8": [10, 10, 11, 12, 10],
        "h_prime-d8": [13, 13, 13, 13, 12],
        "h2-d9": [12, 10, 12, 12, 10],
    }
    for name, palettes in expected.items():
        g = _hard(name)
        colorings = [greedy_star_upper(g, order_seed=seed) for seed in range(5)]
        assert [c.palette_size() for c in colorings] == palettes, name
        assert all(star_violations(c) == [] for c in colorings)


def test_greedy_does_not_run_palette_rounds(monkeypatch):
    # greedy is one feasible(m) descent that never backtracks: each slot
    # tries the colors free at both its ends lowest first, the bad ones
    # included, up to the one it keeps
    def refuse(self, k, lower):
        raise AssertionError("greedy ran a palette round")

    calls = []
    feasible = solver._Search.feasible

    def spy(self, k):
        witness = feasible(self, k)
        calls.append((self, k, witness))
        return witness

    monkeypatch.setattr(solver._Search, "round", refuse)
    monkeypatch.setattr(solver._Search, "feasible", spy)
    g = g61()
    coloring = greedy_star_upper(g, order_seed=3)
    assert star_violations(coloring) == []
    [(search, k, witness)] = calls
    assert k == g.m and witness is coloring
    colors = coloring.as_mapping()
    tried = 0
    for i, (u, v) in enumerate(search.edges):
        taken = {colors[e] for e in search.edges[:i] if u in e or v in e}
        tried += 1 + sum(c not in taken for c in range(1, colors[(u, v)]))
    assert search.nodes == tried == 16  # 9 slots and 7 bad colors


def test_bad_colors_are_exact_on_free_colors():
    # along a random star-colored descent in the search's order, a color
    # free at both ends of a slot is bad iff the colored prefix plus the
    # slot in that color has a bichromatic path or cycle of four edges
    cases = 0
    for seed in range(300):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_edges=16)
        search = solver._Search(g, Budget())
        bits = [0] * g.m
        vmask = [0] * g.n
        used = 0
        for i, (u, v) in enumerate(search.edges):
            # the colored edges at each vertex, built afresh from the prefix
            col: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
            for (a, b), bit in zip(search.edges[:i], bits):
                col[a].append((b, bit))
                col[b].append((a, bit))
            # the colors up to one past the largest in use, free at both ends
            free = ((2 << (used + 1)) - 2) & ~(vmask[u] | vmask[v])
            bad = solver._bad_colors(u, v, col, vmask, free)
            prefix = from_edges(g.n, search.edges[: i + 1])
            colors = {e: bit.bit_length() - 1 for e, bit in zip(search.edges, bits[:i])}
            good = []
            for c in range(1, used + 2):
                if not free >> c & 1:
                    continue
                colors[(u, v)] = c
                violated = star_violations(EdgeColoring.from_mapping(prefix, colors)) != []
                assert bool(bad >> c & 1) == violated, (seed, i, c)
                cases += 1
                if not violated:
                    good.append(c)
            c = rng.choice(good)
            used = max(used, c)
            bit = bits[i] = 1 << c
            vmask[u] |= bit
            vmask[v] |= bit
    assert cases > 5000  # 5390 colors checked


def _bfs_order(g):
    """The BFS edge order from the maximum-degree vertices, whose ranks
    break the fail-first order's ties."""
    degs = g.degrees()
    starts = sorted(range(g.n), key=lambda v: (-degs[v], v))
    return solver.bfs_edge_order(g, starts, g.neighbors())


def test_fail_first_order_takes_the_edge_meeting_the_most_placed_ones():
    rng = random.Random(7)
    graphs = [random_connected_graph(rng, max_edges=40, max_n=12) for _ in range(60)]
    # two components and an isolated vertex: each component starts at the
    # best-ranked edge left
    graphs.append(from_edges(9, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 6)]))
    assert max(g.m for g in graphs) > 30
    for g in graphs:
        search = solver._Search(g, Budget())
        order = search.order
        assert sorted(order) == list(range(g.m))
        assert search.edges == [g.edges[e] for e in order]
        rank = {e: r for r, e in enumerate(_bfs_order(g))}
        for i, e in enumerate(order):
            placed = [set(g.edges[d]) for d in order[:i]]
            # the placed edges each unplaced edge meets
            score = {f: sum(bool(set(g.edges[f]) & ends) for ends in placed) for f in order[i:]}
            assert score[e] == max(score.values()), (g, i)
            tied = [f for f in score if score[f] == score[e]]
            assert rank[e] == min(rank[f] for f in tied), (g, i)


def test_degree_order_takes_the_edge_of_the_highest_degree_score():
    # the second search's order: among the unplaced edges that meet a placed
    # one, the highest placed count plus degree sum at the two ends
    rng = random.Random(7)
    graphs = [random_connected_graph(rng, max_edges=40, max_n=12) for _ in range(60)]
    graphs.append(from_edges(9, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 6)]))
    graphs.append(build_family("h2", delta=7).graph)
    for g in graphs:
        order, edges = solver._Search(g, Budget()).degree_order()
        assert sorted(order) == list(range(g.m))
        assert edges == [g.edges[e] for e in order]
        degs = g.degrees()
        rank = {e: r for r, e in enumerate(_bfs_order(g))}
        for i, e in enumerate(order):
            placed = [set(g.edges[d]) for d in order[:i]]
            meets = {f: sum(bool(set(g.edges[f]) & ends) for ends in placed) for f in order[i:]}
            frontier = [f for f in meets if meets[f]]
            if not frontier:  # a component starts at the best-ranked edge left
                assert rank[e] == min(rank[f] for f in meets), (g, i)
                continue
            score = {f: meets[f] + sum(degs[x] for x in g.edges[f]) for f in frontier}
            assert e in score and score[e] == max(score.values()), (g, i)
            tied = [f for f in score if score[f] == score[e]]
            assert rank[e] == min(rank[f] for f in tied), (g, i)


def test_a_hub_costs_the_search_memory_linear_in_its_degree():
    # the colored edges at a vertex are one stack per vertex, so both slot
    # orders and the search on the star K1,400 stay small; per-slot tables
    # of the earlier edges at each slot's ends held d*d/2 entries at the
    # hub, an 11.8 MB peak here
    g = from_edges(401, [(0, leaf) for leaf in range(1, 401)])
    tracemalloc.start()
    try:
        assert exact_chi_star(g).chi == 400
        solver._Search(g, Budget()).degree_order()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_chi_is_the_same_for_any_cutoff(monkeypatch):
    # the second search changes how long a round takes, never its answer
    graphs = [g for n in range(3, 11) for g in enumerate_mops(n).members.values()]
    graphs += [g for n in range(3, 9) for g in enumerate_dissections(n).members.values()]
    graphs += [build_family(family, delta=delta).graph
               for family, delta in (("h2", 7), ("h_prime", 6), ("h_case1", 6), ("g_delta", 6))]
    assert len(graphs) == 245
    monkeypatch.setattr(solver, "RESTART_NODES", 10**12)
    first_fit = [exact_chi_star(g).chi for g in graphs]
    for restart in (16, 64, 1024):
        monkeypatch.setattr(solver, "RESTART_NODES", restart)
        for g, chi in zip(graphs, first_fit):
            result = exact_chi_star(g)
            assert result.chi == chi, (g, restart)
            assert star_violations(result.witness) == [], (g, restart)
            assert result.witness.palette_size() == chi, (g, restart)


def test_chi_is_the_same_under_relabelings_and_the_bfs_order():
    # Both runs share _bad_colors, so this checks the order machinery (the
    # fail-first order, its BFS tie-break and the colored-edge stacks), not the kernel.
    def chi_in_order(g, order):
        search = solver._Search(g, Budget(), order)
        k = max(g.max_degree(), 1)
        while search.round(k, k) is None:
            k += 1
        return k

    graphs = [g for n in range(3, 11) for g in enumerate_mops(n).members.values()]
    graphs += [g for n in range(3, 9) for g in enumerate_dissections(n).members.values()]
    graphs.append(build_family("h2", delta=7).graph)
    rng = random.Random(18)
    for g in graphs:
        chi = exact_chi_star(g).chi
        assert chi_in_order(g, _bfs_order(g)) == chi, g
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert exact_chi_star(relabel(g, perm)).chi == chi, (g, perm)
    assert len(graphs) == 131 + 110 + 1  # A000207 and A001004 summed


def test_budget_hit_stops_at_the_node_budget():
    with pytest.raises(BudgetExhausted) as exc_info:
        exact_chi_star(_hard("h_prime-d8"), Budget(50_000, 1e9))
    exc = exc_info.value
    assert exc.nodes == 50_000
    assert exc.lower_bound <= 10 <= exc.upper_bound
    assert [(r.k, r.outcome) for r in exc.rounds] == [(8, "bound"), (9, "budget")]
    assert sum(r.nodes for r in exc.rounds) == exc.nodes
    assert exc.rounds[-1].k == exc.lower_bound


def test_budget_hit_reports_the_best_of_64_greedy_orders():
    # greedy seed 0 alone gives 13 and 11; a hit draws all 64, and seed 24
    # colors h_case1 delta=7 with 9 (its search settles it within 500 000
    # nodes, so only the 5-node budget is hit there; h_prime delta=8 is
    # settled at 278 564 nodes, so 200 000 still hits its k=9 round)
    for name, upper, budgets in (("h_prime-d8", 11, (Budget(200_000, 1e9), Budget(5, 1e9))),
                                 ("h_case1-d7", 9, (Budget(5, 1e9),))):
        for budget in budgets:
            with pytest.raises(BudgetExhausted) as exc_info:
                exact_chi_star(_hard(name), budget)
            assert exc_info.value.upper_bound == upper, (name, budget)


def _draw_log(monkeypatch):
    """One entry per palette round run from here on: ``round``, the Round
    it appended, ``hit``, whether its search's node budget was spent, and
    ``draws``, the greedy seeds drawn in it.  A draw outside a round fails."""
    log, current = [], []
    greedy, round_ = solver.greedy_star_upper, solver._Search.round

    def spy_round(self, k, lower):
        current.append({"draws": []})
        try:
            return round_(self, k, lower)
        finally:
            entry = current.pop()
            entry["round"], entry["hit"] = self.rounds[-1], self.nodes >= self.budget.max_nodes
            log.append(entry)

    def spy_greedy(g, seed):
        assert current, "a greedy order drawn outside a palette round"
        current[-1]["draws"].append(seed)
        return greedy(g, seed)

    monkeypatch.setattr(solver._Search, "round", spy_round)
    monkeypatch.setattr(solver, "greedy_star_upper", spy_greedy)
    return log


def _hard_budget(name):
    """The budget a test solves a hard instance under: 200 000 nodes from
    delta=8 on, which h_prime delta=8's k=9 round still hits."""
    return Budget(200_000, 1e9) if HARD[name][1] >= 8 else Budget()


def _spied_solves(monkeypatch, tmp_path):
    """The draw log of the sweep to n=9, ``fan_graph(9)`` under
    ``Budget(5)`` and the five hard instances."""
    log = _draw_log(monkeypatch)
    run_sweep(9, ResultCache(tmp_path / "c.jsonl"))
    solves = [(fan_graph(9), Budget(5))]
    for name in HARD:
        solves.append((_hard(name), _hard_budget(name)))
    for g, budget in solves:
        try:
            exact_chi_star(g, budget)
        except BudgetExhausted:
            pass
    return log


def test_greedy_orders_are_drawn_only_at_a_budget_hit(monkeypatch, tmp_path):
    # a round that hits its budget draws seeds 0..63, and no other round draws
    log = _spied_solves(monkeypatch, tmp_path)
    assert any(entry["hit"] for entry in log)
    for entry in log:
        assert entry["draws"] == (list(range(GREEDY_SEEDS)) if entry["hit"] else []), entry["round"]


def test_bound_rounds_spend_nothing_and_greedy_settles_only_a_hit(monkeypatch, tmp_path):
    # a bound round spends no nodes and draws nothing, and a round ends
    # greedy or budget exactly when it hits its budget
    log = _spied_solves(monkeypatch, tmp_path)
    outcomes = set()
    for entry in log:
        r, hit = entry["round"], entry["hit"]
        if r.outcome == "bound":
            assert r.nodes == 0 and not hit and entry["draws"] == [], r
        assert (r.outcome in ("greedy", "budget")) == hit, r
        outcomes.add((r.outcome, hit))
    assert outcomes == {("bound", False), ("refuted", False), ("feasible", False),
                        ("greedy", True), ("budget", True)}


@pytest.mark.parametrize("g,nodes", [(cycle_graph(5000), 9096), (path_graph(5000), 9095)],
                         ids=["cycle-5000", "path-5000"])
def test_a_round_past_a_checkpoint_ends_by_its_search(monkeypatch, g, nodes):
    # k=2 is below the common-neighbour bound, 3, and only a budget hit
    # draws an order, so k=3 is searched past the 4096-node checkpoint,
    # where the dive colors all m edges without a backtrack (first fit
    # alone found the witness at 6250 and 6248 nodes)
    log = _draw_log(monkeypatch)
    result = exact_chi_star(g)
    assert [(r.k, r.nodes, r.dive, r.outcome) for r in result.rounds] == [
        (2, 0, 0, "bound"), (3, nodes, g.m, "feasible")]
    assert [entry["draws"] for entry in log] == [[], []]
    assert star_violations(result.witness) == [] and result.witness.palette_size() == 3


def test_budget_hit_settled_by_a_greedy_order():
    # fan_graph(9): chi' = D = 8, which greedy reaches, so a hit at k = D is
    # no failure: the round is settled with the greedy coloring
    g = fan_graph(9)
    result = exact_chi_star(g, Budget(max_nodes=5))
    assert result.chi == 8 and result.nodes_expanded == 5
    assert [(r.k, r.nodes, r.outcome) for r in result.rounds] == [(8, 5, "greedy")]
    assert star_violations(result.witness) == [] and result.witness.palette_size() == 8
    coloring = star_palette_feasible(g, 8, Budget(max_nodes=5))
    assert star_violations(coloring) == [] and coloring.palette_size() == 8


def test_every_greedy_settled_witness_validates():
    # an 8-node budget leaves most MOPs to n=9 to the greedy orders
    settled = 0
    for n in range(4, 10):
        for key in enumerate_mops(n).members:
            try:
                result = exact_chi_star(graph6_decode(key), Budget(max_nodes=8))
            except BudgetExhausted:
                continue
            settled += result.rounds[-1].outcome == "greedy"
            assert star_violations(result.witness) == [], key
            assert result.witness.palette_size() == result.chi, key
    assert settled


def test_rounds_account_for_every_node():
    for g in (fan_graph(7), g61(), cycle_graph(5), path_graph(6)):
        result = exact_chi_star(g)
        ks = [r.k for r in result.rounds]
        assert ks == list(range(max(g.max_degree(), 1), result.chi + 1))
        bound = common_neighbour_bound(g)[0]
        assert [r.outcome for r in result.rounds] == [
            "bound" if k < bound else "refuted" for k in ks[:-1]] + ["feasible"]
        assert all(r.nodes == 0 for r in result.rounds if r.outcome == "bound")
        assert sum(r.nodes for r in result.rounds) == result.nodes_expanded
        assert all(r.seconds >= 0 for r in result.rounds)
    assert exact_chi_star(from_edges(1, [])).rounds == ()


def test_search_depth_is_not_bound_by_the_recursion_limit():
    # one stack entry per colored slot, not one Python frame
    g = path_graph(sys.getrecursionlimit() + 200)
    result = exact_chi_star(g)
    assert result.chi == 3
    assert [(r.k, r.outcome) for r in result.rounds] == [(2, "bound"), (3, "feasible")]
    assert star_violations(result.witness) == []
    assert star_palette_feasible(g, 2) is None
    assert solver._Search(g, Budget()).feasible(2) is None  # the search alone


def _alone(g, k, degree=False):
    """Nodes one search, alone, spends to refute k: first fit, or given
    ``degree`` the degree-order search as a round runs it, top-down and
    under the lex-leader check."""
    search = solver._Search(g, Budget())
    if not degree:
        assert search.feasible(k) is None
        return search.nodes
    # with the cutoff at 0 the degree order's search runs turns 0, 2, 4,
    # ..., first fit's count as run in full, and ``second`` counts its own
    *_, second, _, hit, coloring = _to_its_end(search._half(k, True, (-1, 0, 0, 0), 0, None))
    assert not hit and coloring is None
    return second


def _to_its_end(half):
    """The end that a half of a round returns, run through all its turns."""
    try:
        while True:
            next(half)
    except StopIteration as end:
        return end.value


def _dived(g, k):
    """Nodes a dive for a k-coloring spends, run alone."""
    search = solver._Search(g, Budget())
    search._dive(k)
    return search.nodes


def _turns(start, restart, first_fit, degree, dive):
    """(nodes, second, dive) of a round refuted at node count ``start`` +
    nodes: first fit alone up to the cutoff, then a turn each up to every
    next multiple of 4096, and ``dive()`` nodes at the first multiple at
    least 4096 nodes in.  A search whose last node lands on a turn's end
    pauses there, and ends when its next turn comes."""
    spent, turn, dived, nodes = [0, 0], 0, None, start
    while True:
        stretch = CHECKPOINT_NODES - nodes % CHECKPOINT_NODES
        if nodes < start + restart:
            stretch = min(stretch, start + restart - nodes)
        need = (first_fit, degree)[turn] - spent[turn]
        if need < stretch:
            spent[turn] += need
            return sum(spent) + (dived or 0), spent[1], dived or 0
        spent[turn] += stretch
        nodes += stretch
        if dived is None and nodes >= start + CHECKPOINT_NODES:
            dived = dive()
            nodes += dived
        if nodes >= start + restart:
            turn ^= 1


def _cutoff_cases():
    """(cutoff, graph): the MOPs of order 4..9 and 40 random graphs at
    cutoffs of 16 and 64 nodes, and h_case1 and h_prime delta=7 at the
    default cutoff, where h_case1 delta=7's k=8 round takes 65 turns."""
    rng = random.Random(19)
    graphs = [graph6_decode(key) for n in range(4, 10) for key in enumerate_mops(n).members]
    graphs += [random_connected_graph(rng, max_edges=20) for _ in range(40)]
    cases = [(restart, g) for restart in (16, 64) for g in graphs]
    return cases + [(16_384, _hard(name)) for name in ("h_case1-d7", "h_prime-d7")]


def test_a_refuted_round_costs_at_most_twice_the_better_order(monkeypatch):
    # Past R nodes the two searches take turns of at most 4096 nodes, and
    # a refutation in either order ends the round, so a refuted round costs
    # its first-fit count A below the cutoff and at most
    # R + 2*min(A - R, B) + 4096 past it, B being the degree order's count,
    # plus the nodes of the dive that a round past 4096 nodes runs once.
    long_rounds = 0
    for restart, g in _cutoff_cases():
        monkeypatch.setattr(solver, "RESTART_NODES", restart)
        result = exact_chi_star(g)
        start = 0
        for r in result.rounds:
            if r.outcome == "refuted":
                first_fit = _alone(g, r.k)
                degree = _alone(g, r.k, degree=True)
                turns = _turns(start, restart, first_fit, degree, lambda: _dived(g, r.k))
                assert (r.nodes, r.second, r.dive) == turns, (g, r)
                if first_fit >= restart:
                    long_rounds += 1
                    assert r.nodes <= (restart + 2 * min(first_fit - restart, degree)
                                       + CHECKPOINT_NODES + r.dive)
            start += r.nodes
    assert long_rounds > 100


def _forks(monkeypatch, turn=race.FORK_TURN):
    """The degree-order halves forked from here on, in order: a round
    forks after ``turn`` (-1: at its launch, the cutoff) whatever the
    number of CPUs."""
    forks = []
    fork = race.Half.fork

    def recorded(self):
        fork(self)
        if self.pid:
            forks.append(self)

    monkeypatch.setattr(race.Half, "fork", recorded)
    monkeypatch.setattr(race, "FORK_TURN", turn)
    monkeypatch.setattr(race, "can_race", lambda: True)
    return forks


def _race_and_lockstep(monkeypatch, g):
    """[(rounds, witness colors)] of g solved with the degree-order search
    forked where it may be, then taking turns with first fit in this
    process all along; a round is (k, nodes, second, dive, outcome, maps)."""
    out = []
    for forked in (True, False):
        monkeypatch.setattr(race, "can_race", lambda forked=forked: forked)
        out.append(_solved(g))
    return out


def _solved(g):
    """(rounds, witness colors) of g solved, a round as in _race_and_lockstep."""
    result = exact_chi_star(g)
    return ([(r.k, r.nodes, r.second, r.dive, r.outcome, r.maps) for r in result.rounds],
            result.witness.colors)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("turn, expected", [(race.FORK_TURN, 3), (-1, 5)], ids=["after-turn-2",
                                                                             "at-the-cutoff"])
def test_the_race_keeps_the_rounds_and_witnesses_of_the_lockstep(monkeypatch, turn, expected):
    # each search's result depends only on its own turns, so running the
    # degree order in a child changes no count, no outcome and no witness
    forks = _forks(monkeypatch, turn)
    for family, delta in EXTREMAL:
        forked, lockstep = _race_and_lockstep(monkeypatch, build_family(family, delta=delta).graph)
        assert forked == lockstep, (family, delta)
    # forked at h_case1 delta=7 and 9's and h_prime delta=8's long rounds;
    # at the cutoff also at h_prime delta=7's and g_delta delta=8's, which
    # end in the degree order's first two turns
    assert len(forks) == expected
    _no_child_left()


def test_the_race_keeps_the_rounds_at_every_cutoff(monkeypatch):
    # hundreds of small rounds fork at a cutoff of 16 or 64 nodes, some
    # before their dive, which both halves then run at its usual point
    forks = _forks(monkeypatch, -1)
    for restart, g in _cutoff_cases():
        monkeypatch.setattr(solver, "RESTART_NODES", restart)
        forked, lockstep = _race_and_lockstep(monkeypatch, g)
        assert forked == lockstep, (restart, g)
    assert len(forks) > 200
    assert sum(f.end is not None for f in forks) > 100  # the child's end came back
    _no_child_left()


def test_a_cutoff_of_zero_runs_the_degree_orders_first_turn():
    # the launch is tested on the round's start state, so with the cutoff
    # at 0 the degree order takes turn 0 and the round ends as its half
    # alone does
    g = _hard("h_case1-d7")
    search = solver._Search(g, Budget())
    assert search.feasible(8, 0) is None
    alone = _to_its_end(solver._Search(g, Budget())._half(8, True, (-1, 0, 0, 0), 0, None))
    assert (search.nodes, search.second) == alone[1:3] == (262_588, 131_516)


@pytest.mark.parametrize("solve", [
    # the degree order refutes k=8 at turn 64, its 33rd
    lambda: star_palette_feasible(_hard("h_case1-d7"), 8) is None,
    # first fit's witness at turn 1, 19 of its nodes past a 16-node cutoff,
    # while the degree order's turn 0 spends 4 080 nodes without one
    lambda: solver._Search(graph6_decode("K?_GGCoOR@r~"), Budget()).feasible(
        9, 16).palette_size() == 9,
    # the degree order's witness, after 135 of its nodes (no dive)
    lambda: solver._Search(_hard("h_prime-d8"), Budget(200_000)).feasible(
        10, RESTART_NODES).palette_size() == 10,
    # a node-budget hit at 200 000 nodes, inside the race
    lambda: pytest.raises(BudgetExhausted, exact_chi_star, _hard("h_prime-d8"),
                          Budget(200_000, 1e9)).value.upper_bound == 11,
    # a seconds-budget hit in k=8's round, past its cutoff
    lambda: pytest.raises(BudgetExhausted, exact_chi_star, _hard("h_case1-d7"),
                          Budget(max_seconds=0.06)).value.lower_bound == 8,
], ids=["degree-order-refutes", "first-fit-witness", "degree-order-witness", "node-budget",
        "seconds-budget"])
def test_no_child_outlives_a_solve(monkeypatch, solve):
    forks = _forks(monkeypatch, -1)
    assert solve()
    assert forks
    _no_child_left()


def test_the_child_ignores_sigint_and_ends_once_its_pipe_is_closed(monkeypatch):
    monkeypatch.setattr(race, "can_race", lambda: True)
    search = solver._Search(_hard("h_case1-d7"), Budget())
    child = race.Half(search, search._half(8, True, (-1, 0, 0, 0), RESTART_NODES, None))
    child.fork()
    try:
        assert child.pid and child.ended(0, timeout=10.0) is None and child.passed >= 0
        os.kill(child.pid, signal.SIGINT)
        assert child.ended(2, timeout=10.0) is None and child.passed >= 2  # it goes on
        os.close(child.fd)  # its next write fails
        deadline = time.monotonic() + 10.0
        while os.waitpid(child.pid, os.WNOHANG) == (0, 0):
            assert time.monotonic() < deadline, "the child outlived its pipe"
            time.sleep(0.01)
    finally:
        with contextlib.suppress(ChildProcessError, OSError):
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
    _no_child_left()


@pytest.mark.parametrize("writes", [0, 2])
@pytest.mark.parametrize("turn", [-1, race.FORK_TURN], ids=["at-the-cutoff", "after-turn-2"])
def test_a_child_that_dies_leaves_its_half_to_this_process(monkeypatch, turn, writes):
    # the child dies before its first record or after two; this process
    # then goes on with the half from the turn where it forked
    write, step = race._write, race.Half._step
    here = []  # the records a forked half took in this process after its fork

    def stepped(self):
        record = step(self)
        if self.fd is not None:
            here.append(record)
        return record

    def dying(fd, fields):
        if len(sent) == writes:
            os._exit(1)
        sent.append(fields)
        write(fd, fields)

    sent = []
    monkeypatch.setattr(race.Half, "_step", stepped)
    monkeypatch.setattr(race, "_write", dying)
    forks = _forks(monkeypatch, turn)
    forked, lockstep = _race_and_lockstep(monkeypatch, _hard("h_case1-d7"))
    assert forked == lockstep
    assert len(forks) == 1 and here and forks[0].pid is None
    _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("call, code", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)],
                         ids=["fork-EAGAIN", "pipe-EMFILE"])
def test_a_round_that_cannot_fork_takes_turns_in_process(monkeypatch, call, code):
    # no process or no descriptor to be had: the degree-order half goes on
    # in this process, and the fork leaves no descriptor open and no child
    g = _hard("h_case1-d7")
    monkeypatch.setattr(race, "can_race", lambda: False)
    lockstep = _solved(g)
    forks = _forks(monkeypatch, -1)
    refusals = []

    def refused(*args):
        refusals.append(call)
        raise OSError(code, os.strerror(code))

    fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, call, refused)
    assert _solved(g) == lockstep
    rounds, _ = lockstep
    assert rounds[1][:3] == (8, 278_972, 131_516)
    assert refusals and not forks
    assert len(os.listdir("/proc/self/fd")) == fds
    _no_child_left()


def test_a_process_with_one_usable_cpu_takes_turns_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not race.can_race()


def test_a_process_pool_worker_takes_turns_in_process():
    # the pool's other workers keep the other CPUs busy
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=1) as pool:
        assert not pool.submit(race.can_race).result(timeout=60)


def test_a_process_with_another_thread_takes_turns_in_process():
    # a child forked beside another thread could find a lock held forever
    alone = race.can_race()
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert not race.can_race()
    finally:
        done.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert race.can_race() == alone


def test_a_sweep_whose_rounds_fork_writes_the_lockstep_cache(monkeypatch, tmp_path):
    # with a 16-node cutoff most rounds fork while the sweep holds its cache
    # log open; a child that flushed the log's buffer would add records.  On
    # one usable CPU the sweep solves every order in this process, so every
    # round's fork is counted here (the patched can_race still forks them)
    monkeypatch.setattr(solver, "RESTART_NODES", 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    forks = _forks(monkeypatch, -1)
    caches = []
    for forked in (True, False):
        monkeypatch.setattr(race, "can_race", lambda forked=forked: forked)
        path = tmp_path / f"forked-{forked}.jsonl"
        run_sweep(10, ResultCache(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        caches.append([{k: v for k, v in record.items() if k != "elapsed"} for record in lines])
    forked, lockstep = caches
    # a schema line, then the MOPs of order 4..10
    assert forked == lockstep and len(forked) == 1 + 1 + 1 + 3 + 4 + 12 + 27 + 82
    assert len(forks) > 100
    _no_child_left()


def test_no_sweep_round_to_n12_reaches_the_cutoff(monkeypatch, tmp_path):
    # so a sweep takes no turns and forks nothing: no round launches the
    # degree-order half
    launched = []
    monkeypatch.setattr(race.Half, "__init__", lambda self, *args: launched.append(args))
    summary = run_sweep(12, ResultCache(tmp_path / "cache.jsonl"))
    assert len(summary.records) == 1091 and not launched


def _naive_dive(g, k):
    """(colors or None, placements) of the dive's rule with every legal
    set found afresh by _bad_colors at each step: no cache, no trail."""
    ranked = solver._max_degree_bfs(g)
    rank = {e: r for r, e in enumerate(ranked)}
    degs, ends = g.degrees(), g.edges
    bits, vmask = [0] * g.m, [0] * g.n
    stack, used, placed = [], 0, 0

    def legal(e, opened):
        u, v = ends[e]
        free = opened & ~(vmask[u] | vmask[v])
        col: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for f, (a, b) in enumerate(ends):
            if bits[f]:
                col[a].append((b, bits[f]))
                col[b].append((a, bits[f]))
        return free & ~solver._bad_colors(u, v, col, vmask, free)

    while True:
        opened = (used | used + 2) & ((2 << k) - 2)
        left = [e for e in ranked if not bits[e]]
        near = [e for e in left if vmask[ends[e][0]] | vmask[ends[e][1]]]
        e = max(near, key=lambda f: (-legal(f, opened).bit_count(),
                                     (vmask[ends[f][0]] | vmask[ends[f][1]]).bit_count()
                                     + degs[ends[f][0]] + degs[ends[f][1]], -rank[f]),
                default=left[0])
        colors = legal(e, opened)
        while not colors:
            if not stack:
                return None, placed
            e, colors, used = stack.pop()
            for x in ends[e]:
                vmask[x] ^= bits[e]
            bits[e] = 0
        if placed == 2 * g.m:
            return None, placed
        placed += 1
        bit = 1 << colors.bit_length() - 1
        stack.append((e, colors ^ bit, used))
        used |= bit
        bits[e] = bit
        u, v = ends[e]
        vmask[u] |= bit
        vmask[v] |= bit
        if len(stack) == g.m:
            return tuple(b.bit_length() - 1 for b in bits), placed


def test_the_dive_takes_the_least_domain_edge_at_every_step():
    # the dive recomputes only the bad masks a placement can change; a
    # dive that recomputes every legal set at each step takes the same
    # edges and colors, so it ends with the same coloring and node count
    rng = random.Random(28)
    graphs = [g for n in range(3, 10) for g in enumerate_mops(n).members.values()]
    graphs += [random_connected_graph(rng, max_edges=20, max_n=9) for _ in range(150)]
    graphs += [build_family(family, delta=delta).graph
               for family, delta in (("h2", 7), ("h2", 9), ("h_case1", 7), ("h_prime", 7))]
    witnesses = failures = 0
    for g in graphs:
        for k in range(max(g.max_degree(), 1), g.max_degree() + 4):
            search = solver._Search(g, Budget())
            got = search._dive(k)
            colors, placed = _naive_dive(g, k)
            assert (None if got is None else got.colors, search.nodes) == (colors, placed), (g, k)
            witnesses += got is not None
            failures += got is None
    assert witnesses > 300 and failures > 100


def _dive_graphs():
    """The graphs the dive is checked on: h2 delta=7..30, h_case1 and
    h_prime delta=7..9, g_delta delta=5..8 and the five solve-hard ones."""
    graphs = [build_family("h2", delta=delta).graph for delta in range(7, 31)]
    graphs += [build_family(family, delta=delta).graph
               for family in ("h_case1", "h_prime") for delta in range(7, 10)]
    graphs += [build_family("g_delta", delta=delta).graph for delta in range(5, 9)]
    for line in SOLVE_HARD.read_text().splitlines():
        if not line.startswith("#"):
            graphs.append(graph6_decode(line.split()[1]))
    return graphs


def test_every_dive_witness_validates_and_no_dive_places_more_than_2m():
    witnesses = 0
    for g in _dive_graphs():
        for k in range(g.max_degree(), g.max_degree() + 4):
            search = solver._Search(g, Budget())
            coloring = search._dive(k)
            assert search.nodes <= 2 * g.m, (g, k)
            if coloring is not None:
                assert star_violations(coloring) == [] and coloring.palette_size() <= k, (g, k)
                witnesses += 1
    assert witnesses == 100


def test_the_dive_settles_h2_at_delta_plus_1():
    # delta=8..30: the k = D+1 round ends at its first checkpoint, by the
    # dive, which spends what it spends alone; the round's nodes are first
    # fit's 4096, no degree-order node and the dive's
    for delta in range(8, 31):
        g = build_family("h2", delta=delta).graph
        result = exact_chi_star(g)
        assert result.chi == delta + 1 and star_violations(result.witness) == []
        bound, last = result.rounds
        assert (bound.k, bound.nodes, bound.outcome) == (delta, 0, "bound")
        assert last.k == delta + 1 and last.outcome == "feasible"
        dived = _dived(g, delta + 1)
        assert (last.nodes, last.second, last.dive) == (CHECKPOINT_NODES + dived, 0, dived), delta


def test_a_round_that_ends_before_its_first_checkpoint_never_dives(monkeypatch):
    # every MOP to n=12 from k = D and the five hard instances: a round
    # dives once past 4096 of its nodes, and not before; greedy, whose
    # descent passes 4096 nodes on a long path, never dives
    log, current = [], []
    dive, round_ = solver._Search._dive, solver._Search.round

    def spy_round(self, k, lower):
        current.append((self.nodes, []))
        try:
            return round_(self, k, lower)
        finally:
            started, dives = current.pop()
            log.append((started, self.rounds[-1], dives))

    def spy_dive(self, k):
        assert current, "a dive outside a palette round"
        started, dives = current[-1]
        dives.append(self.nodes - started)
        return dive(self, k)

    monkeypatch.setattr(solver._Search, "round", spy_round)
    monkeypatch.setattr(solver._Search, "_dive", spy_dive)
    for n in range(4, 13):
        for key in enumerate_mops(n).members:
            exact_chi_star(graph6_decode(key))
    for name in HARD:
        try:
            exact_chi_star(_hard(name), _hard_budget(name))
        except BudgetExhausted:
            pass
    assert greedy_star_upper(path_graph(20_000)).palette_size() == 3
    for started, r, dives in log:
        # the round's nodes at its first checkpoint at least 4096 nodes in
        first = -(-started // CHECKPOINT_NODES) * CHECKPOINT_NODES + CHECKPOINT_NODES - started
        if r.nodes - r.dive < first:
            assert dives == [] and r.dive == 0, r
        else:
            assert dives == [first], r
    # 11 MOP rounds of order 12 and 7 hard rounds reach it
    assert sum(len(dives) for _, _, dives in log) == 18


def test_a_budget_hit_draws_greedy_orders_only_while_seconds_remain():
    # a hit draws seed 0, then stops once max_seconds is spent; drawing all
    # 64 orders took the 5000-vertex path 2.05 s past a 1 ms budget
    started = time.monotonic()
    result = exact_chi_star(path_graph(5000), Budget(max_seconds=0.001))
    assert time.monotonic() - started < 0.5
    assert result.chi == 3 and result.rounds[-1].outcome == "greedy"
    assert star_violations(result.witness) == [] and result.witness.palette_size() == 3
    # a hit that no drawn order settles: the interval ends at seed 0's 10
    started = time.monotonic()
    with pytest.raises(BudgetExhausted) as exc_info:
        exact_chi_star(build_family("delta5_strip", blocks=124).graph, Budget(max_seconds=0.001))
    assert time.monotonic() - started < 0.5
    exc = exc_info.value
    assert (exc.lower_bound, exc.upper_bound) == (8, 10)
    assert [(r.k, r.outcome) for r in exc.rounds][-1] == (8, "budget")


def test_the_degree_order_finds_the_h_prime_d8_witness():
    # first fit ran past 96 M nodes in this round without a witness; the
    # degree-order search, highest color first, taking turns with first
    # fit from 16 384 nodes on, finds a 10-coloring after 135 of its own
    # nodes, 16 519 in all (88 550 and 190 950 before the lex-leader
    # check).  In a palette round the dive finds one first, at 4 096 + 36
    # nodes.
    g = _hard("h_prime-d8")
    search = solver._Search(g, Budget(200_000))
    coloring = search.feasible(10, RESTART_NODES)
    assert star_violations(coloring) == [] and coloring.palette_size() == 10
    assert (search.nodes, search.second) == (16_519, 135)
    search = solver._Search(g, Budget(200_000))
    assert search.feasible(10).palette_size() > 10  # first fit alone: a budget hit
    search = solver._Search(g, Budget(200_000))
    coloring = search.round(10, 10)
    assert star_violations(coloring) == [] and coloring.palette_size() == 10
    [r] = search.rounds
    assert (r.nodes, r.second, r.dive, r.outcome) == (4132, 0, 36, "feasible")


def test_the_degree_order_finds_the_h_case1_d8_witness():
    # first fit alone spent 61 M nodes in this round; the degree order's
    # search finds a 9-coloring after 14 413 of its own nodes
    coloring = star_palette_feasible(build_family("h_case1", delta=8).graph, 9, Budget(100_000))
    assert star_violations(coloring) == [] and coloring.palette_size() == 9


def _symmetric_graphs():
    """Graphs of at most 9 edges with many automorphisms: cycles, paths,
    stars, wheels, K4, K2,3, the prism, the MOPs and dissections to n=6
    and random graphs."""
    graphs = [cycle_graph(n) for n in range(3, 10)] + [path_graph(n) for n in range(2, 11)]
    graphs += [from_edges(n + 1, [(0, leaf) for leaf in range(1, n + 1)]) for n in range(2, 10)]
    graphs += [from_edges(n + 1, [(0, i) for i in range(1, n + 1)]
                          + [(i, i % n + 1) for i in range(1, n + 1)]) for n in (3, 4)]
    graphs += [k4(), k23(), from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                          (0, 3), (1, 4), (2, 5)])]
    graphs += [g for n in range(3, 7) for g in enumerate_mops(n).members.values()]
    graphs += [g for n in range(3, 7) for g in enumerate_dissections(n).members.values()]
    rng = random.Random(30)
    graphs += [random_connected_graph(rng, max_edges=9, max_n=8) for _ in range(293)]
    return graphs


def test_the_lex_leader_check_keeps_every_chi(monkeypatch):
    # the lex-least coloring of each orbit under Aut(G) x S_k passes the
    # fresh-color rule and every map's check, so with the degree-order
    # search starting at the first node no round loses its witness and no
    # refutation is wrong
    monkeypatch.setattr(solver, "RESTART_NODES", 1)
    checked = symmetric = 0
    for g in _symmetric_graphs():
        result = exact_chi_star(g)
        assert result.chi == brute_force_chi_star(g), g
        assert star_violations(result.witness) == [] and result.witness.palette_size() == result.chi
        checked += 1
        symmetric += any(r.maps for r in result.rounds)
    assert checked == 343 and symmetric > 250


def _lex_greater(colors, i, p):
    """Whether slots 0..i of the coloring ``colors`` make it greater than
    ren(X o p), each side's colors named afresh by first use."""
    mine, theirs = {}, {}
    for j in range(i + 1):
        if p[j] > i:
            return False
        x = mine.setdefault(colors[j], len(mine))
        y = theirs.setdefault(colors[p[j]], len(theirs))
        if x != y:
            return x > y
    return False


def test_the_lex_check_matches_a_comparison_from_scratch(monkeypatch):
    # at every placement the degree-order search tries, the incremental
    # check refuses the color exactly when some map's comparison, run from
    # slot 0 on the colored prefix, finds the coloring greater
    place = symmetry.LexLeader.place
    counts = Counter()

    def spy(self, i, bit):
        before = self.colors[:i]
        kept = place(self, i, bit)
        colors = before + [bit]
        assert kept == (not any(_lex_greater(colors, i, p) for p in self.maps)), (i, colors)
        counts[kept] += 1
        return kept

    monkeypatch.setattr(symmetry.LexLeader, "place", spy)
    # g_delta delta=12's transversal has 87 maps
    for family, delta, maps in (("h_prime", 6, 3), ("h_prime", 7, 3), ("g_delta", 6, 6),
                                ("g_delta", 12, 87)):
        g = build_family(family, delta=delta).graph
        for k in (delta + 1, delta + 2):
            search = solver._Search(g, Budget())
            assert len(search.symmetry()) == maps, (family, delta)
            _to_its_end(search._half(k, True, (-1, 0, 0, 0), 0, None))
    assert counts[True] > 10_000 and counts[False] > 500, counts


def _group(maps, n):
    """Every composition of the vertex maps ``maps``, the identity too."""
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        a = frontier.pop()
        for b in maps:
            c = tuple(b[x] for x in a)
            if c not in group:
                group.add(c)
                frontier.append(c)
    return group


def test_every_kept_automorphism_preserves_the_edge_set():
    # each map is a bijection that sends edges to edges; on small graphs
    # the maps generate the whole group, found here by trying every
    # permutation; on K1,400 the step bound keeps the search small
    for g in _symmetric_graphs()[:70] + [g61(), g61_prime(), fan_graph(7)]:
        base = list(dict.fromkeys(x for uv in solver._Search(g, Budget()).degree_order()[1]
                                  for x in uv))
        maps = symmetry.automorphisms(g, base)
        edges = g.edge_set()
        for p in maps:
            assert sorted(p) == list(range(g.n)) and p != list(range(g.n)), g
            assert {(min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges} == edges, g
        if g.n <= 7:
            every = {p for p in itertools.permutations(range(g.n))
                     if {(min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges} == edges}
            assert _group(maps, g.n) == every, g
    for family, delta, count in (("h_prime", 8, 3), ("g_delta", 8, 21), ("h2", 8, 1),
                                 ("h_case1", 8, 0)):
        g = build_family(family, delta=delta).graph
        maps = solver._Search(g, Budget()).symmetry()
        assert len(maps) == count, (family, delta)
        for p in maps:  # slot maps: permutations of the degree order's slots
            assert sorted(p) == list(range(g.m)) and p != list(range(g.m))
    star = from_edges(401, [(0, leaf) for leaf in range(1, 401)])
    tracemalloc.start()
    try:
        started = time.monotonic()
        maps = solver._Search(star, Budget()).symmetry()
        seconds = time.monotonic() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the group has 400! elements; the step bound ends the search at 48 maps
    assert len(maps) == 48 and seconds < 5 and peak < 2_000_000


@functools.cache
def _g_delta_solved(delta):
    """g_delta's exact solve, shared by the tests that read it."""
    return exact_chi_star(build_family("g_delta", delta=delta).graph)


def test_g_delta_is_settled_over_the_whole_transversal():
    # the automorphism search keeps one map per other point of each orbit
    # in the stabilizer chain, 87, 111 and 138 maps at delta=12..14, and
    # the lex-leader check over all of them refutes k=delta+1
    expected = {12: (35_775, 87), 13: (52_033, 111), 14: (84_213, 138)}
    for delta, (nodes, maps) in expected.items():
        result = _g_delta_solved(delta)
        got = [(r.k, r.outcome) for r in result.rounds]
        assert got == [(delta, "bound"), (delta + 1, "refuted"), (delta + 2, "feasible")], delta
        assert (result.rounds[1].nodes, result.rounds[1].maps) == (nodes, maps), delta
        assert result.chi == delta + 2 == result.witness.palette_size()
        assert star_violations(result.witness) == []


def _role_edges(instance):
    """The instance's edges by the role names of their ends."""
    names = {v: role for role, v in instance.roles.items()}
    return {frozenset((names[u], names[v])) for u, v in instance.graph.edges}


def test_h_prime_takes_its_lower_end_from_g_delta():
    # g_delta is h_prime less the chains along each hub's leaves, at the
    # same maximum degree; no edge deletion raises the star chromatic
    # index, so g_delta's value bounds h_prime's from below, and the dive
    # finds a witness at that value at the round's first checkpoint
    for delta in range(5, 31):
        sub, sup = build_family("g_delta", delta=delta), build_family("h_prime", delta=delta)
        assert _role_edges(sub) <= _role_edges(sup), delta
        assert sub.graph.max_degree() == sup.graph.max_degree() == delta
    expected = {10: (4_144, 48), 11: (4_150, 54), 12: (4_156, 60), 13: (4_162, 66),
                14: (4_168, 72)}
    for delta, (nodes, dive) in expected.items():
        lower = _g_delta_solved(delta).chi
        result = exact_chi_star(build_family("h_prime", delta=delta).graph, lower=lower)
        got = [(r.k, r.nodes, r.dive, r.outcome) for r in result.rounds]
        assert got == [(delta + 2, nodes, dive, "feasible")], delta
        assert result.chi == lower == delta + 2 == result.witness.palette_size()
        assert star_violations(result.witness) == []


def _naive_slot_order(g, weight):
    """The slot-order rule, every unplaced score counted afresh per step."""
    ranked = _bfs_order(g)
    placed = [False] * g.m
    touched = [0] * g.n  # placed edges at each vertex
    order = []
    for _ in range(g.m):
        left = [e for e in ranked if not placed[e]]
        near = [e for e in left if any(touched[x] for x in g.edges[e])]
        e = max(near, key=lambda f: sum(weight[x] + touched[x] for x in g.edges[f]),
                default=left[0])  # max keeps the first, lowest-ranked, of a tie
        placed[e] = True
        for x in g.edges[e]:
            touched[x] += 1
        order.append(e)
    return order


def test_both_slot_orders_follow_the_rule_on_the_soundness_set():
    # the queue by owner gives the orders that scoring every unplaced edge
    # afresh at each step gives, also around hubs
    graphs = _soundness_set() + [from_edges(41, [(0, leaf) for leaf in range(1, 41)]),
                                 fan_graph(40), build_family("h_prime", delta=12).graph]
    for g in graphs:
        for weight in ([0] * g.n, g.degrees()):
            order, edges = solver._slot_order(g, weight)
            assert order == _naive_slot_order(g, weight), g
            assert edges == [g.edges[e] for e in order]


def test_greedy_never_restarts(monkeypatch):
    # greedy's descent on a long path passes RESTART_NODES; a second search,
    # top-down from there, would open a fresh color at every slot
    def refuse(self):
        raise AssertionError("greedy built the degree order")

    monkeypatch.setattr(solver._Search, "degree_order", refuse)
    searches = []
    feasible = solver._Search.feasible

    def spy(self, k, second_after=None):
        searches.append(self)
        return feasible(self, k, second_after)

    monkeypatch.setattr(solver._Search, "feasible", spy)
    coloring = greedy_star_upper(path_graph(20_000))
    assert coloring.palette_size() == 3 and star_violations(coloring) == []
    [search] = searches
    assert search.nodes == 24_999 > solver.RESTART_NODES


@pytest.mark.parametrize("blocks,last", [(10, 422), (16, 653), (22, 1101), (124, 26_325)])
def test_delta5_strip_takes_one_color_under_its_drawing(blocks, last):
    # the README finding: chi' = 8 where the periodic drawing uses 9; at 124
    # blocks (993 edges) the search is deeper than the default recursion
    # limit, and its k=8 round passes 16 384 nodes: the dive gives up after
    # 1 986 placements, the degree order takes two turns, 4 963 nodes, and
    # first fit finds the witness at 19 376 of its own
    g = build_family("delta5_strip", blocks=blocks).graph
    result = exact_chi_star(g)
    assert [(r.k, r.nodes, r.outcome) for r in result.rounds] == [
        (5, 0, "bound"), (6, 125, "refuted"), (7, 3104, "refuted"), (8, last, "feasible")]
    assert star_violations(result.witness) == [] and result.witness.palette_size() == 8


def test_a_delta_5_mop_of_order_12_needs_delta_plus_3():
    # one of six such MOPs at n=12, each with diameter 4 or 5: they meet
    # the conjectured floor(3D/2)+1 = 8 with equality
    g = graph6_decode("KCOaPIOCgU_n")
    r = exact_chi_star(g)
    assert g.max_degree() == 5 and r.chi == 8 and not star_violations(r.witness)
    assert (7, "refuted") in [(x.k, x.outcome) for x in r.rounds]


def test_palette_feasible_reports_its_round_on_budget():
    with pytest.raises(BudgetExhausted) as exc_info:
        star_palette_feasible(_hard("h_prime-d8"), 9, Budget(max_nodes=5))
    (only,) = exc_info.value.rounds
    assert (only.k, only.nodes, only.outcome) == (9, 5, "budget")
    # the interval starts at the common-neighbour bound B = 9, above D = 8,
    # and ends at the best of the 64 greedy orders
    assert (exc_info.value.lower_bound, exc_info.value.upper_bound) == (9, 11)


@pytest.mark.parametrize(
    "solve",
    [
        # m = 2 colors always suffice, so a lower bound of 5 cannot be proven
        lambda: exact_chi_star(path_graph(3), lower=5),
        lambda: star_palette_feasible(path_graph(3), -1),
    ],
    ids=["lower-above-m", "negative-palette"],
)
def test_unprovable_solver_inputs_raise_out_of_range(solve):
    with pytest.raises(OutOfRange):
        solve()


@pytest.mark.parametrize(
    "nodes,seconds", [(0, 300.0), (-5, 300.0), (10, 0.0), (10, -1.0)],
    ids=["nodes-0", "nodes-negative", "seconds-0", "seconds-negative"],
)
def test_budget_rejects_an_empty_budget(nodes, seconds):
    with pytest.raises(OutOfRange):
        Budget(max_nodes=nodes, max_seconds=seconds)


def test_budget_exhausted_survives_pickling():
    import pickle

    with pytest.raises(BudgetExhausted) as exc_info:
        exact_chi_star(_hard("h_prime-d8"), Budget(max_nodes=5))
    exc = exc_info.value
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is BudgetExhausted and str(back) == str(exc)
    fields = ("lower_bound", "upper_bound", "nodes", "elapsed", "rounds")
    assert [getattr(back, f) for f in fields] == [getattr(exc, f) for f in fields]
    assert back.rounds and back.rounds[-1].outcome == "budget"
