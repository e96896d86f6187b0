from __future__ import annotations

import random

import networkx as nx
import pytest

from starchrome.errors import MalformedText
from starchrome.graph6 import graph6_decode, graph6_encode

from conftest import k4, path_graph, random_connected_graph
from iso_oracle import canonical_form, canonical_key


def test_k4_encodes_to_reference_string():
    assert graph6_encode(k4()) == "C~"


def test_p3_encodes_to_reference_string():
    assert graph6_encode(path_graph(3)) == "Bg"


def test_roundtrip_random_graphs():
    rng = random.Random(99)
    for _ in range(500):
        g = random_connected_graph(rng, max_edges=12, max_n=9)
        assert graph6_decode(graph6_encode(g)) == g


def test_matches_networkx():
    rng = random.Random(7)
    for _ in range(100):
        g = random_connected_graph(rng, max_edges=12, max_n=9)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert graph6_encode(g) == theirs
        back = nx.from_graph6_bytes(theirs.encode())
        assert sorted(back.edges()) == [tuple(e) for e in g.edges]


def test_decode_rejects_garbage():
    with pytest.raises(MalformedText):
        graph6_decode("")
    with pytest.raises(MalformedText):
        graph6_decode("C")  # truncated body
    with pytest.raises(MalformedText):
        graph6_decode("B\x01")


def test_roundtrip_is_identity_on_canonical_graphs():
    rng = random.Random(13)
    for _ in range(50):
        g = random_connected_graph(rng, max_edges=10, max_n=8)
        key = canonical_key(g)
        text = graph6_encode(g)
        assert canonical_key(graph6_decode(text)) == key


def test_canonical_key_is_graph6_of_canonical_form():
    rng = random.Random(7)
    for _ in range(30):
        g = random_connected_graph(rng, max_edges=10, max_n=8)
        key = canonical_key(g)
        assert isinstance(key, str)
        assert key == graph6_encode(canonical_form(g))
        assert graph6_decode(key) == canonical_form(g)
