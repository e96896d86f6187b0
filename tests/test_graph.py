from __future__ import annotations

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starchrome.errors import DuplicateEdge, OutOfRange, SelfLoop, TooLarge
from starchrome.graph import (
    diameter,
    from_edges,
    is_two_connected,
    relabel,
)

from conftest import cycle_graph, fan_graph, g61, path_graph, random_connected_graph
from iso_oracle import canonical_form, canonical_key


def test_from_edges_triangle():
    g = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3 and g.m == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_from_edges_rejects_self_loop():
    with pytest.raises(SelfLoop):
        from_edges(2, [(0, 0)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        from_edges(2, [(0, 2)])


def test_from_edges_rejects_duplicates_both_orientations():
    with pytest.raises(DuplicateEdge):
        from_edges(3, [(0, 1), (1, 0)])


def test_g61_has_nine_edges():
    assert g61().m == 9


def test_equal_graphs_compare_equal():
    a = from_edges(3, [(2, 1), (0, 1)])
    b = from_edges(3, [(0, 1), (1, 2)])
    assert a == b


def test_diameter_examples():
    assert diameter(cycle_graph(5)) == 2
    assert diameter(path_graph(4)) == 3
    assert diameter(fan_graph(6)) == 2
    assert diameter(from_edges(2, [])) == math.inf


def _bfs_diameter(g):
    """Reference: a breadth-first search from every vertex."""
    nbrs = g.neighbors()
    best = 0
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in nbrs[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if min(dist) < 0:
            return math.inf
        best = max(best, max(dist))
    return best


def test_diameter_matches_bfs_reference():
    rng = random.Random(11)
    graphs = [from_edges(1, []), from_edges(3, [(0, 1)]), path_graph(20), cycle_graph(20)]
    for _ in range(300):
        n = rng.randint(1, 20)
        density = rng.choice([0.05, 0.1, 0.2, 0.4])
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        graphs.append(from_edges(n, pairs))
    for _ in range(300):
        graphs.append(random_connected_graph(rng, max_edges=30, max_n=20))
    kinds = {"one vertex": 0, "disconnected": 0, "connected": 0}
    for g in graphs:
        expected = _bfs_diameter(g)
        assert diameter(g) == expected, g
        kind = "one vertex" if g.n == 1 else "disconnected" if expected == math.inf else "connected"
        kinds[kind] += 1
    assert min(kinds.values()) >= 5, kinds


def test_diameter_on_long_cycle_with_fan_chords():
    g = from_edges(200, [(i, (i + 1) % 200) for i in range(200)] + [(0, j) for j in range(2, 100)])
    assert diameter(g) == _bfs_diameter(g) == 52


def test_two_connected_examples():
    assert is_two_connected(cycle_graph(5))
    assert not is_two_connected(path_graph(4))
    assert is_two_connected(g61())
    assert not is_two_connected(from_edges(2, [(0, 1)]))


def _two_connected_by_definition(g) -> bool:
    """n >= 3, and deleting any one vertex (or none) leaves a connected graph."""
    if g.n < 3:
        return False
    for cut in [None, *range(g.n)]:
        keep = [v for v in range(g.n) if v != cut]
        seen = {keep[0]}
        todo = [keep[0]]
        while todo:
            v = todo.pop()
            for w in g.neighbors()[v]:
                if w != cut and w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) != len(keep):
            return False
    return True


def test_two_connected_matches_vertex_removal_definition():
    rng = random.Random(7)
    graphs = [from_edges(n, []) for n in range(4)] + [path_graph(2), path_graph(3)]
    for _ in range(1500):
        n = rng.randint(1, 11)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        p = rng.random()
        graphs.append(from_edges(n, [e for e in pairs if rng.random() < p]))
    for _ in range(500):
        g = random_connected_graph(rng, max_edges=16, max_n=11)
        graphs.append(g)
        # two copies side by side: never 2-connected
        graphs.append(from_edges(2 * g.n, g.edges + tuple((u + g.n, v + g.n) for u, v in g.edges)))
    answers = [is_two_connected(g) for g in graphs]
    assert answers == [_two_connected_by_definition(g) for g in graphs]
    assert 100 < sum(answers) < len(answers) - 100


def test_two_connected_on_long_cycle_and_path():
    assert is_two_connected(cycle_graph(3000))
    assert not is_two_connected(path_graph(3000))
    chorded = from_edges(3000, cycle_graph(3000).edges + ((0, 1500),))
    assert is_two_connected(chorded)
    # a pendant vertex on the long cycle is a cut
    assert not is_two_connected(from_edges(3001, cycle_graph(3000).edges + ((0, 3000),)))


def test_canonical_key_c4_relabelings():
    a = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    b = from_edges(4, [(0, 2), (2, 1), (1, 3), (0, 3)])
    assert canonical_key(a) == canonical_key(b)


def test_canonical_key_separates_k3_p3():
    assert canonical_key(from_edges(3, [(0, 1), (1, 2), (0, 2)])) != canonical_key(
        path_graph(3)
    )


def test_canonical_key_too_large():
    with pytest.raises(TooLarge):
        canonical_key(from_edges(17, []))


def test_canonical_form_is_isomorphic_relabeling():
    g = g61()
    cf = canonical_form(g)
    assert cf.n == g.n and cf.m == g.m
    assert canonical_key(cf) == canonical_key(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_relabeling_invariance(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, max_edges=10, max_n=7)
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabel(g, perm)
    assert diameter(h) == diameter(g)
    assert canonical_key(h) == canonical_key(g)
    assert sorted(h.degrees()) == sorted(g.degrees())


def test_cycle_key_is_rotation_invariant():
    # all-degree-2 graphs exercise the tie-heavy branch of the search
    c = cycle_graph(8)
    rng = random.Random(5)
    perm = list(range(8))
    rng.shuffle(perm)
    assert canonical_key(relabel(c, perm)) == canonical_key(c)


def test_two_connected_implies_finite_diameter():
    for g in (cycle_graph(6), fan_graph(7), g61()):
        if is_two_connected(g):
            assert diameter(g) != math.inf
