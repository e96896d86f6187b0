from __future__ import annotations

import itertools
import random
import sys
from collections import Counter

import pytest

from starchrome import solver
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

from conftest import cycle_graph, fan_graph, g61, g61_prime, k4, path_graph, random_connected_graph
from iso_oracle import canonical_form, two_connected_spanning_subgraphs


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


def test_extremal_family_exact_values():
    # values the constructions only bracket; pinned from the exact solver
    from starchrome.families import build_family

    expected = {
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
    }
    # (k, nodes, second, outcome) per round: the counts follow the builders'
    # labels; h_case1 delta=7's k=8 refutation runs past the cutoff, and so
    # does its k=9 witness round, by 53 degree-order nodes
    rounds = {
        ("h_case1", 7): [(7, 0, 0, "bound"), (8, 278972, 131516, "refuted"),
                         (9, 16437, 53, "feasible")],
        ("h_case1", 9): [(9, 0, 0, "bound"), (10, 958605, 471181, "feasible")],
        ("h2", 10): [(10, 0, 0, "bound"), (11, 125329, 55697, "feasible")],
    }
    for (family, delta), chi in expected.items():
        g = build_family(family, delta=delta).graph
        result = exact_chi_star(g)
        assert result.chi == chi, (family, delta, result.chi)
        assert star_violations(result.witness) == []
        if (family, delta) in rounds:
            got = [(r.k, r.nodes, r.second, r.outcome) for r in result.rounds]
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
        at: list[dict[int, int]] = [{} for _ in range(g.n)]
        used = 0
        for i, (u, v) in enumerate(search.edges):
            # the colors up to one past the largest in use, free at both ends
            free = ((2 << (used + 1)) - 2) & ~(vmask[u] | vmask[v])
            bad = solver._bad_colors(search.earlier[i], bits, vmask, at, free)
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
            at[u][bit] = v
            at[v][bit] = u
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
            assert len(search.earlier[i]) == score[e] == max(score.values()), (g, i)
            assert {j for _, _, j in search.earlier[i]} == {
                j for j, ends in enumerate(placed) if ends & set(g.edges[e])}
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
        order, edges, earlier = solver._Search(g, Budget()).degree_order()
        assert sorted(order) == list(range(g.m))
        assert edges == [g.edges[e] for e in order]
        degs = g.degrees()
        rank = {e: r for r, e in enumerate(_bfs_order(g))}
        for i, e in enumerate(order):
            placed = [set(g.edges[d]) for d in order[:i]]
            meets = {f: sum(bool(set(g.edges[f]) & ends) for ends in placed) for f in order[i:]}
            assert len(earlier[i]) == meets[e], (g, i)
            assert {j for _, _, j in earlier[i]} == {
                j for j, ends in enumerate(placed) if ends & set(g.edges[e])}
            frontier = [f for f in meets if meets[f]]
            if not frontier:  # a component starts at the best-ranked edge left
                assert rank[e] == min(rank[f] for f in meets), (g, i)
                continue
            score = {f: meets[f] + sum(degs[x] for x in g.edges[f]) for f in frontier}
            assert e in score and score[e] == max(score.values()), (g, i)
            tied = [f for f in score if score[f] == score[e]]
            assert rank[e] == min(rank[f] for f in tied), (g, i)


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
    # fail-first order, its BFS tie-break and the slot tables), not the kernel.
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
    # nodes, so only the 5-node budget is hit there)
    for name, upper, budgets in (("h_prime-d8", 11, (Budget(500_000, 1e9), Budget(5, 1e9))),
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


def _spied_solves(monkeypatch, tmp_path):
    """The draw log of the sweep to n=9, ``fan_graph(9)`` under
    ``Budget(5)`` and the five hard instances."""
    log = _draw_log(monkeypatch)
    run_sweep(9, ResultCache(tmp_path / "c.jsonl"))
    solves = [(fan_graph(9), Budget(5))]
    for name, (_, delta) in HARD.items():
        solves.append((_hard(name), Budget(500_000, 1e9) if delta >= 8 else Budget()))
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


@pytest.mark.parametrize("g,nodes", [(cycle_graph(5000), 6250), (path_graph(5000), 6248)],
                         ids=["cycle-5000", "path-5000"])
def test_a_round_past_a_checkpoint_ends_by_its_search(monkeypatch, g, nodes):
    # k=2 is below the common-neighbour bound, 3, and only a budget hit
    # draws an order, so k=3 is searched to its witness past the 4096-node
    # checkpoint
    log = _draw_log(monkeypatch)
    result = exact_chi_star(g)
    assert [(r.k, r.nodes, r.outcome) for r in result.rounds] == [
        (2, 0, "bound"), (3, nodes, "feasible")]
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


def _alone(g, k, order=None):
    """Nodes the search in one slot order, alone, spends to refute k."""
    search = solver._Search(g, Budget(), order)
    assert search.feasible(k) is None
    return search.nodes


def _turns(start, restart, first_fit, degree):
    """(nodes, second) of a round refuted at node count ``start`` + nodes:
    first fit alone up to the cutoff, then a turn each up to every next
    multiple of 4096.  A search whose last node lands on a turn's end
    pauses there, and ends when its next turn comes."""
    if first_fit < restart:
        return first_fit, 0
    spent, turn, nodes = [restart, 0], 1, start + restart
    while True:
        stretch = CHECKPOINT_NODES - nodes % CHECKPOINT_NODES
        need = (first_fit, degree)[turn] - spent[turn]
        if need < stretch:
            spent[turn] += need
            return sum(spent), spent[1]
        spent[turn] += stretch
        nodes += stretch
        turn ^= 1


def test_a_refuted_round_costs_at_most_twice_the_better_order(monkeypatch):
    # Past R nodes the two searches take turns of at most 4096 nodes, and
    # a refutation in either order ends the round, so a refuted round costs
    # its first-fit count A below the cutoff and at most
    # R + 2*min(A - R, B) + 4096 past it, B being the degree order's count.
    rng = random.Random(19)
    graphs = [graph6_decode(key) for n in range(4, 10) for key in enumerate_mops(n).members]
    graphs += [random_connected_graph(rng, max_edges=20) for _ in range(40)]
    cases = [(restart, g) for restart in (16, 64) for g in graphs]
    # and at the default cutoff, where h_case1 delta=7's k=8 round takes 65 turns
    cases += [(16_384, _hard(name)) for name in ("h_case1-d7", "h_prime-d7")]
    long_rounds = 0
    for restart, g in cases:
        monkeypatch.setattr(solver, "RESTART_NODES", restart)
        result = exact_chi_star(g)
        degree_ids = solver._Search(g, Budget()).degree_order()[0]
        start = 0
        for r in result.rounds:
            if r.outcome == "refuted":
                first_fit = _alone(g, r.k)
                degree = _alone(g, r.k, degree_ids)
                assert (r.nodes, r.second) == _turns(start, restart, first_fit, degree), (g, r)
                if first_fit >= restart:
                    long_rounds += 1
                    assert r.nodes <= restart + 2 * min(first_fit - restart, degree) + CHECKPOINT_NODES
            start += r.nodes
    assert long_rounds > 100


def test_the_degree_order_finds_the_h_prime_d8_witness(monkeypatch):
    # first fit ran past 96 M nodes in this round without a witness; the
    # degree-order search, highest color first, taking turns with first
    # fit from 16 384 nodes on, finds a 10-coloring after 88 550 of its own
    # nodes, 190 950 in all
    g = _hard("h_prime-d8")
    coloring = star_palette_feasible(g, 10, Budget(200_000))
    assert star_violations(coloring) == [] and coloring.palette_size() == 10
    monkeypatch.setattr(solver, "RESTART_NODES", 10**12)
    with pytest.raises(BudgetExhausted):
        star_palette_feasible(g, 10, Budget(200_000))


def test_the_degree_order_finds_the_h_case1_d8_witness():
    # first fit alone spent 61 M nodes in this round; the degree order's
    # search finds a 9-coloring after 14 413 of its own nodes
    coloring = star_palette_feasible(build_family("h_case1", delta=8).graph, 9, Budget(100_000))
    assert star_violations(coloring) == [] and coloring.palette_size() == 9


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


@pytest.mark.parametrize("blocks,last", [(10, 422), (16, 653), (22, 1101), (124, 20_243)])
def test_delta5_strip_takes_one_color_under_its_drawing(blocks, last):
    # the README finding: chi' = 8 where the periodic drawing uses 9; at 124
    # blocks (993 edges) the search is deeper than the default recursion
    # limit, and its k=8 round passes 16 384 nodes: the degree order takes
    # one 867-node turn, and first fit finds the witness at 19 376 of its own
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
