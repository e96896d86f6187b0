"""Cross-cutting randomized properties tying the modules together."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from starchrome.coloring import EdgeColoring, star_violations
from starchrome.graph import from_edges, relabel
from starchrome.graph6 import graph6_decode, graph6_encode
from starchrome.outerplanar import is_outerplanar
from starchrome.solver import brute_force_chi_star, exact_chi_star, greedy_star_upper

from conftest import random_connected_graph
from iso_oracle import canonical_key


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_edge_count_and_degree_sum(seed):
    g = random_connected_graph(random.Random(seed), max_edges=12, max_n=8)
    assert g.m <= g.n * (g.n - 1) // 2
    assert sum(g.degrees()) == 2 * g.m


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_chi_star_is_isomorphism_invariant(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, max_edges=8, max_n=6)
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert exact_chi_star(relabel(g, perm)).chi == exact_chi_star(g).chi


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_witness_survives_color_permutation(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, max_edges=9, max_n=7)
    witness = exact_chi_star(g).witness
    palette = sorted(set(witness.colors))
    shuffled = palette[:]
    rng.shuffle(shuffled)
    remap = dict(zip(palette, shuffled))
    assert star_violations(EdgeColoring(g, tuple(remap[c] for c in witness.colors))) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_chi_star_monotone_under_edge_deletion(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, max_edges=9, max_n=7)
    if g.m < 2:
        return
    drop = rng.randrange(g.m)
    sub = from_edges(g.n, [e for i, e in enumerate(g.edges) if i != drop])
    assert exact_chi_star(sub).chi <= exact_chi_star(g).chi


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_greedy_bounds_exact_from_above(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, max_edges=9, max_n=7)
    upper = greedy_star_upper(g, order_seed=seed).palette_size()
    assert exact_chi_star(g).chi <= upper


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_graph6_roundtrip(seed):
    g = random_connected_graph(random.Random(seed), max_edges=14, max_n=9)
    assert graph6_decode(graph6_encode(g)) == g


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_canonical_key_separates_degree_sequences(seed):
    rng = random.Random(seed)
    a = random_connected_graph(rng, max_edges=10, max_n=7)
    b = random_connected_graph(rng, max_edges=10, max_n=7)
    if sorted(a.degrees()) != sorted(b.degrees()) or a.n != b.n:
        assert canonical_key(a) != canonical_key(b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_brute_and_exact_agree(seed):
    g = random_connected_graph(random.Random(seed), max_edges=8, max_n=7)
    assert brute_force_chi_star(g) == exact_chi_star(g).chi


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_outerplanarity_closed_under_subgraphs(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, max_edges=11, max_n=7)
    if not is_outerplanar(g):
        return
    keep = [e for e in g.edges if rng.random() < 0.6]
    assert is_outerplanar(from_edges(g.n, keep))
