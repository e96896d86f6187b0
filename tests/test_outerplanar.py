from __future__ import annotations

import hashlib
import math
import random

import networkx as nx
import pytest

from starchrome.errors import BadParams, OutOfRange, TooLarge
from starchrome.graph import diameter, from_edges, is_two_connected, relabel
from starchrome.outerplanar import (
    _cycle_key,
    classify,
    enumerate_dissections,
    enumerate_mops,
    is_maximal_outerplanar,
    is_outerplanar,
    polygon_key,
)

from conftest import cycle_graph, fan_graph, g61, g61_prime, g62, k23, k4, path_graph, random_connected_graph
from iso_oracle import (
    canonical_key,
    fixed_polygon_triangulations,
    polygon_triangulation_graph,
    two_connected_spanning_subgraphs,
)


def _nx_outerplanar(g) -> bool:
    """Oracle: G is outerplanar iff K1 joined to G is planar."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n + 1))
    h.add_edges_from(g.edges)
    apex = g.n
    h.add_edges_from((apex, v) for v in range(g.n))
    ok, _ = nx.check_planarity(h)
    return ok


def test_forbidden_minors():
    assert not is_outerplanar(k4())
    assert not is_outerplanar(k23())
    assert is_outerplanar(cycle_graph(5))
    assert is_outerplanar(g62())


def _dissection(rng: random.Random, n: int):
    """An n-gon with random non-crossing chords, then a few chords that may
    cross, a few boundary edges deleted, and the vertices relabeled."""
    boundary = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    pairs = [(x, y) for x in range(n) for y in range(x + 2, n) if (x, y) != (0, n - 1)]
    rng.shuffle(pairs)
    chords: list[tuple[int, int]] = []
    for x, y in pairs:
        if rng.random() < 0.6 and not any(a < x < b < y or x < a < y < b for a, b in chords):
            chords.append((x, y))
    edges = set(boundary) | set(chords)
    edges |= set(rng.sample(pairs, min(len(pairs), rng.choice([0, 0, 1, 2]))))
    edges -= set(rng.sample(boundary, rng.choice([0, 0, 0, 1, 2])))
    perm = rng.sample(range(n), n)
    return from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def test_recognition_above_sixteen_vertices():
    from starchrome.outerplanar import _outer_cycle

    n = 40
    cycle = [(i, (i + 1) % n) for i in range(n)]
    chords = [(0, 20), (0, 10), (20, 30), (3, 7), (22, 27), (31, 39)]
    outer = from_edges(n, cycle + chords)
    crossed = from_edges(n, cycle + chords + [(5, 25)])
    assert is_outerplanar(outer) and _nx_outerplanar(outer)
    ring = _outer_cycle(outer)  # recovers the unique Hamiltonian cycle
    assert {frozenset(e) for e in zip(ring, ring[1:] + ring[:1])} == {frozenset(e) for e in cycle}
    assert not is_outerplanar(crossed) and not _nx_outerplanar(crossed)
    assert classify(outer).outerplanar and not classify(crossed).outerplanar
    assert classify(fan_graph(n)).maximal
    assert is_outerplanar(cycle_graph(3000))  # deeper than the recursion limit


def _oracle_graphs() -> list:
    """The recognition oracle's draws: dissections and random connected graphs."""
    rng = random.Random(31)
    return [
        _dissection(rng, rng.randint(3, 20)) if i % 3
        else random_connected_graph(rng, max_edges=40, max_n=20)
        for i in range(1200)
    ]


def test_outerplanar_matches_planarity_oracle():
    outer = 0
    for g in _oracle_graphs():
        want = _nx_outerplanar(g)
        assert is_outerplanar(g) == want, g.edges
        outer += want
    assert 300 < outer < 900  # both answers are well represented


def test_outerplanarity_is_hereditary():
    rng = random.Random(8)
    for _ in range(40):
        g = random_connected_graph(rng, max_edges=11, max_n=8)
        if not is_outerplanar(g):
            continue
        keep = [e for e in g.edges if rng.random() < 0.7]
        sub = from_edges(g.n, keep)
        assert is_outerplanar(sub)


def test_maximal_outerplanar_examples():
    assert is_maximal_outerplanar(from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_maximal_outerplanar(cycle_graph(5))
    assert is_maximal_outerplanar(fan_graph(6))
    assert is_maximal_outerplanar(g61())
    assert not is_maximal_outerplanar(g61_prime())


def test_polygon_check_agrees_with_definitional_route():
    rng = random.Random(77)
    for _ in range(150):
        g = random_connected_graph(rng, max_edges=12, max_n=8)
        want = _nx_outerplanar(g) and g.n >= 3 and g.m == 2 * g.n - 3
        assert is_maximal_outerplanar(g) == want


def test_polygon_check_rejects_triangle_book():
    # 2-connected, 2n-3 edges, but contains K2,3: the edge-count shortcut
    # must not be fooled
    book = from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    assert not is_maximal_outerplanar(book)


def test_classify_matches_independent_references():
    rng = random.Random(5)
    draws = _oracle_graphs()
    inputs = [from_edges(0, []), from_edges(1, []), from_edges(2, []), from_edges(2, [(0, 1)])]
    inputs += [from_edges(3, [(0, 1)]), from_edges(4, [(0, 1), (1, 2), (0, 2)])]  # isolated vertices
    for _ in range(200):  # several components, their ids interleaved
        a, b = rng.sample(draws, 2)
        union = from_edges(a.n + b.n, a.edges + tuple((u + a.n, v + a.n) for u, v in b.edges))
        inputs.append(relabel(union, rng.sample(range(union.n), union.n)))
    for g in rng.sample(draws, 200):  # isolated vertices added
        n = g.n + rng.randint(1, 3)
        inputs.append(relabel(from_edges(n, g.edges), rng.sample(range(n), n)))
    for g in draws + inputs:
        c = classify(g)
        outer = _nx_outerplanar(g)
        assert c.outerplanar == outer, g.edges
        assert c.maximal == (outer and g.n >= 3 and g.m == 2 * g.n - 3), g.edges
        assert c.two_connected == is_two_connected(g), g.edges


def test_rooted_counts_are_catalan():
    assert [sum(1 for _ in fixed_polygon_triangulations(n)) for n in range(3, 9)] == [
        1, 2, 5, 14, 42, 132,
    ]


def test_enumerate_members_match_fixed_polygon_oracle():
    for n in range(3, 9):
        catalog = enumerate_mops(n)
        oracle_keys = {
            canonical_key(polygon_triangulation_graph(n, chords))
            for chords in fixed_polygon_triangulations(n)
        }
        assert {canonical_key(g) for g in catalog.members.values()} == oracle_keys
        assert len(catalog.members) == len(oracle_keys)
        assert catalog.rooted_count == sum(1 for _ in fixed_polygon_triangulations(n))


def test_enumerated_mops_are_mops_with_right_edge_count():
    for n in range(3, 9):
        for g in enumerate_mops(n).members.values():
            assert g.m == 2 * n - 3
            assert is_maximal_outerplanar(g)


def test_member_counts():
    # OEIS A000207 per order, each grown from the one below; the rooted
    # counts are Catalan(n-2)
    counts = [1, 1, 1, 3, 4, 12, 27, 82, 228, 733, 2282, 7528]
    catalog = None
    for n, count in zip(range(3, 15), counts):
        catalog = enumerate_mops(n, catalog)
        assert catalog.member_count() == count
        assert catalog.rooted_count == math.comb(2 * n - 4, n - 2) // (n - 1)


def _mops_by_canonical_key(n: int) -> set[str]:
    """Reference enumeration: attach ears, dedupe each level by canonical key."""
    level = [(from_edges(3, [(0, 1), (0, 2), (1, 2)]), (0, 1, 2))]
    for size in range(3, n):
        nxt = {}
        for g, boundary in level:
            for i in range(size):
                u, v = boundary[i], boundary[(i + 1) % size]
                grown = from_edges(size + 1, g.edges + ((u, size), (v, size)))
                ring = boundary[: i + 1] + (size,) + boundary[i + 1 :]
                nxt.setdefault(canonical_key(grown), (grown, ring))
        level = list(nxt.values())
    return {canonical_key(g) for g, _ in level}


def test_members_match_canonical_key_reference():
    for n in range(3, 11):
        members = enumerate_mops(n).members
        reference = _mops_by_canonical_key(n)
        assert {canonical_key(g) for g in members.values()} == reference
        assert len(members) == len(reference)


def test_one_canonical_search_per_member(monkeypatch):
    import iso_oracle
    import starchrome.outerplanar as op

    searches, keys = [], []
    search, cycle_key = iso_oracle._canonical_search, op._cycle_key
    monkeypatch.setattr(iso_oracle, "_canonical_search", lambda g: searches.append(g) or search(g))
    monkeypatch.setattr(op, "_cycle_key", lambda g, c: keys.append(g) or cycle_key(g, c))
    catalog = op.enumerate_mops(12)
    assert searches == []  # the enumeration runs no generic search
    # one key per member of every order it grows, 3 to 12
    assert catalog.member_count() == 733 and len(keys) == 1092
    assert not hasattr(op, "canonical_key")


def test_dissections_key_each_mop_class_once(monkeypatch):
    import collections

    import starchrome.outerplanar as op

    keys = []
    cycle_key = op._cycle_key
    monkeypatch.setattr(op, "_cycle_key", lambda g, c: keys.append(g) or cycle_key(g, c))
    assert op.enumerate_dissections(11).member_count() == 4783
    maximal = collections.Counter(g.n for g in keys if g.m == 2 * g.n - 3)
    # one key per MOP of every order grown, 3 to 11: 359 in all
    assert maximal == {3: 1, 4: 1, 5: 1, 6: 3, 7: 4, 8: 12, 9: 27, 10: 82, 11: 228}
    assert sum(maximal.values()) == 359


def _same_partition(pairs) -> bool:
    """True iff (a, b) pairs relate two keys one to one."""
    pairs = set(pairs)
    return len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


def test_polygon_key_partition_matches_oracle():
    rng = random.Random(2024)
    graphs = []
    for n in range(3, 13):
        for key, g in enumerate_mops(n).members.items():
            assert polygon_key(g) == key  # members are keyed by it
            graphs.append(g)
            if n <= 9:
                graphs += two_connected_spanning_subgraphs(g)[1:]
    assert len(graphs) == 1092 + 2158  # MOPs to n=12, proper chord deletions to n=9
    pairs = []
    for g in graphs:
        key, oracle = polygon_key(g), canonical_key(g)
        pairs.append((key, oracle))
        for _ in range(2):
            h = relabel(g, rng.sample(range(g.n), g.n))
            assert polygon_key(h) == key and canonical_key(h) == oracle
    assert _same_partition(pairs)
    assert len(set(pairs)) == 1092 + 371 - 48  # classes: MOPs, and the non-MOPs to n=9


def _catalog_digest(grow, n_max: int) -> str:
    """sha1 over every level's members in order: key, edges, ring, sorted children."""
    digest, catalog = hashlib.sha1(), None
    for n in range(3, n_max + 1):
        catalog = grow(n, catalog)
        for key, g in catalog.members.items():
            line = f"{key} {g.edges} {catalog.rings[key]} {sorted(catalog.children[key])}\n"
            digest.update(line.encode())
    return digest.hexdigest()


def test_catalogs_keep_their_keys_labels_rings_and_children():
    # Cache records and every pinned node count follow these labels, so a
    # faster key must give the same bytes.  Digests computed before the
    # keys and the graph6 codec were rewritten.
    assert _catalog_digest(enumerate_mops, 12) == "3547ca7726c733ff0ea6de84a7dcf6430663eddf"
    assert _catalog_digest(enumerate_dissections, 10) == "e5c6120d0d9e26e5bef59f2a1c9515d8d3c3e1dc"


def _random_polygon(rng: random.Random, n: int, keep: float):
    """An n-gon with random non-crossing chords, each kept with chance ``keep``."""
    pairs = [(x, y) for x in range(n) for y in range(x + 2, n) if (x, y) != (0, n - 1)]
    rng.shuffle(pairs)
    chords: list[tuple[int, int]] = []
    for x, y in pairs:
        if rng.random() < keep and not any(a < x < b < y or x < a < y < b for a, b in chords):
            chords.append((x, y))
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)] + chords)


def test_polygon_key_survives_random_relabelings():
    rng = random.Random(23)
    # bare cycles and triangulations hit the most tied numberings
    for n, keep in [(3, 1), (4, 0), (6, 1), (9, 0.5), (12, 0.3), (17, 1), (23, 0.6), (30, 0), (30, 0.5), (30, 1)]:
        g = _random_polygon(rng, n, keep)
        key = polygon_key(g)
        for _ in range(100):
            assert polygon_key(relabel(g, rng.sample(range(n), n))) == key


def test_polygon_key_needs_an_outer_cycle():
    for g in (path_graph(4), k4(), k23(), from_edges(6, cycle_graph(3).edges + ((3, 4), (4, 5), (3, 5)))):
        with pytest.raises(OutOfRange):
            polygon_key(g)
    assert polygon_key(cycle_graph(5)) != polygon_key(fan_graph(5))
    with pytest.raises(TooLarge):
        polygon_key(fan_graph(300))  # past the graph6 single-byte header


def test_members_keep_construction_labels():
    # labelled by vertex addition: each vertex after the triangle joins two earlier ones
    for g in enumerate_mops(9).members.values():
        earlier = [sum(1 for w in g.neighbors()[v] if w < v) for v in range(g.n)]
        assert earlier == [0, 1, 2] + [2] * (g.n - 3)


def _delete_vertex(g, v):
    keep = [w for w in range(g.n) if w != v]
    return from_edges(g.n - 1, [(keep.index(a), keep.index(b)) for a, b in g.edges if v not in (a, b)])


def _ear_deletions(g) -> set[str]:
    """Keys of g minus a degree-2 vertex whose two neighbours are adjacent."""
    nbrs = g.neighbors()
    return {
        polygon_key(_delete_vertex(g, v))
        for v in range(g.n)
        if len(nbrs[v]) == 2 and nbrs[v][1] in nbrs[nbrs[v][0]]
    }


def test_mop_children_are_the_ear_deletions():
    catalog = enumerate_mops(3)
    for n in range(4, 10):
        catalog = enumerate_mops(n, catalog)
        for key, g in catalog.members.items():
            degree_two = [v for v in range(g.n) if len(g.neighbors()[v]) == 2]
            assert catalog.children[key] == {polygon_key(_delete_vertex(g, v)) for v in degree_two}
            assert _cycle_key(g, catalog.rings[key]) == key  # the ring is its outer cycle


def test_mops_grown_level_by_level_match_standalone_calls():
    catalog = None
    for n in range(4, 13):
        catalog = enumerate_mops(n, catalog)
        alone = enumerate_mops(n)
        assert set(catalog.members) == set(alone.members)
        assert catalog.rooted_count == alone.rooted_count
        # a standalone call grows from enumerate_mops(n - 1), so it knows the children
        assert alone.children == catalog.children
    with pytest.raises(OutOfRange):
        enumerate_mops(12, enumerate_mops(10))
    with pytest.raises(OutOfRange):  # unchecked: 7 "MOPs", 4 of them not maximal
        enumerate_mops(6, enumerate_dissections(5))


def test_dissection_children_are_the_ear_deletions():
    catalog = enumerate_dissections(3)
    for n in range(4, 10):
        catalog = enumerate_dissections(n, catalog)
        assert set(catalog.members) == set(enumerate_dissections(n).members)
        for key, g in catalog.members.items():
            # a subdivision parent is not a subgraph, so it is never a child
            assert catalog.children[key] == _ear_deletions(g)
    with pytest.raises(OutOfRange):
        enumerate_dissections(9, enumerate_dissections(7))
    with pytest.raises(OutOfRange):  # unchecked: 5 of the 9 classes
        enumerate_dissections(6, enumerate_mops(5))


def test_enumeration_limit():
    with pytest.raises(TooLarge):
        enumerate_mops(63)  # past the graph6 single-byte header
    with pytest.raises(OutOfRange):
        enumerate_mops(2)  # below the triangle


def test_diameter_two_mops_are_fans_plus_g61():
    g61_key = canonical_key(g61())
    for n in range(4, 11):
        fan_key = canonical_key(fan_graph(n))
        for g in enumerate_mops(n).members.values():
            key = canonical_key(g)
            if diameter(g) == 2:
                assert key == fan_key or (n == 6 and key == g61_key)
            if key == fan_key or (n == 6 and key == g61_key):
                assert diameter(g) == 2


def test_spanning_subgraphs_of_triangle():
    k3 = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert enumerate_dissections(3).members == {polygon_key(k3): k3}


def test_spanning_subgraphs_of_f5():
    subs = two_connected_spanning_subgraphs(fan_graph(5))
    assert len(subs) == 4  # both chords optional, boundary cycle survives
    for sub in subs:
        assert sub.n == 5
        assert is_outerplanar(sub)


def test_spanning_subgraphs_g61_includes_g61_prime():
    assert polygon_key(g61_prime()) in enumerate_dissections(6).members


def test_dissection_counts():
    # OEIS A001004: polygon dissections up to rotation and reflection
    counts = [1, 2, 3, 9, 20, 75, 262, 1117]
    assert [enumerate_dissections(n).member_count() for n in range(3, 11)] == counts


def test_dissections_match_chord_subset_closure():
    for n in range(3, 10):
        closure = {
            polygon_key(sub)
            for mop in enumerate_mops(n).members.values()
            for sub in two_connected_spanning_subgraphs(mop)
        }
        assert set(enumerate_dissections(n).members) == closure


def test_dissections_are_keyed_by_polygon_key():
    for n in range(3, 10):
        for key, g in enumerate_dissections(n).members.items():
            assert polygon_key(g) == key  # keyed from the cycle each member grew with


def test_maximal_dissections_are_the_mops():
    for n in range(3, 12):
        maximal = {key for key, g in enumerate_dissections(n).members.items() if g.m == 2 * n - 3}
        assert maximal == set(enumerate_mops(n).members)


def test_dissection_limit():
    with pytest.raises(TooLarge):
        enumerate_dissections(63)  # past the graph6 single-byte header
    with pytest.raises(OutOfRange):
        enumerate_dissections(2)  # below the triangle


def test_dissections_run_no_ear_removal(monkeypatch):
    import starchrome.outerplanar as op

    calls = []
    cycle, two_connected = op._outer_cycle, op.is_two_connected
    monkeypatch.setattr(op, "_outer_cycle", lambda g: calls.append(g) or cycle(g))
    monkeypatch.setattr(op, "is_two_connected", lambda g: calls.append(g) or two_connected(g))
    assert op.enumerate_dissections(9).member_count() == 262
    assert calls == []


def test_classify_examples():
    c = classify(g61())
    assert (diameter(g61()), c.two_connected, c.outerplanar, c.maximal) == (2, True, True, True)
    c = classify(g61_prime())
    assert (diameter(g61_prime()), c.two_connected, c.outerplanar, c.maximal) == (3, True, True, False)
    c = classify(path_graph(4))
    assert not c.two_connected
    assert path_graph(4).max_degree() <= 3


def test_classify_matches_oracle_on_family_instances():
    from starchrome.families import build_family

    instances = [build_family(fid) for fid in ("g61", "g61_prime", "g62")]
    instances += [build_family(fid, n=n) for fid in ("path", "cycle", "fan") for n in range(3, 10)]
    instances += [build_family("delta5_strip", blocks=b) for b in (10, 16)]
    for fid in ("g_delta", "h_prime", "h_case1", "h2"):
        for delta in range(4, 9):
            try:
                instances.append(build_family(fid, delta=delta))
            except BadParams:
                continue  # below the family's least delta
    for inst in instances:
        assert inst.graph.max_degree() <= 8
        assert classify(inst.graph).outerplanar == _nx_outerplanar(inst.graph), inst.family_id


def test_classify_disconnected():
    g = from_edges(3, [(0, 1)])
    assert diameter(g) == math.inf
    c = classify(g)
    assert c.outerplanar and not c.two_connected and not c.maximal


def test_polygon_structure_boundary_and_chords():
    from starchrome.outerplanar import _outer_cycle

    g = g61()
    boundary = _outer_cycle(g)
    assert boundary is not None
    assert sorted(boundary) == list(range(6))
    ring = {frozenset(e) for e in zip(boundary, boundary[1:] + boundary[:1])}
    assert ring <= {frozenset(e) for e in g.edges}
    assert sorted(e for e in g.edges if frozenset(e) not in ring) == [(0, 2), (0, 3), (2, 3)]


def test_biconnected_blocks_of_pendant_family():
    from starchrome.families import build_family
    from starchrome.graph import _block_edges

    inst = build_family("g_delta", delta=6)
    blocks = sorted((len({x for e in b for x in e}), len(b)) for b in _block_edges(inst.graph))
    assert blocks == [(2, 1)] * 6 + [(6, 9)]  # six pendant edges plus the core


def test_pendant_family_classifies_quickly():
    import time

    from starchrome.families import build_family

    inst = build_family("g_delta", delta=6)
    start = time.monotonic()
    c = classify(inst.graph)
    assert c.outerplanar and not c.maximal
    assert time.monotonic() - start < 2.0


def test_blocks_cover_edges_and_are_two_connected_or_trivial():
    from starchrome.graph import _block_edges

    rng = random.Random(17)
    for _ in range(60):
        g = random_connected_graph(rng, max_edges=12, max_n=9)
        blocks = list(_block_edges(g))
        assert sorted(tuple(sorted(e)) for b in blocks for e in b) == list(g.edges)  # a partition
        for b in blocks:
            ids = sorted({x for e in b for x in e})
            block = from_edges(len(ids), [(ids.index(u), ids.index(v)) for u, v in b])
            assert block.m == 1 or is_two_connected(block)
