from __future__ import annotations

import random

import networkx as nx
import pytest

from starchrome.errors import MalformedText, TooLarge
from starchrome.graph import Graph, from_edges
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


def _bit_list_encode(g) -> str:
    """The first encoder, bit list by bit list: an oracle for the packed one."""
    bits = [1 if (i, j) in g.edge_set() else 0 for j in range(1, g.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = (value << 1) | b
        out.append(chr(value + 63))
    return "".join(out)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 61, 62])
def test_roundtrip_at_padding_and_header_edges(n):
    # 7 and 8 vertices fill 21 and 28 bits: three and four pad bits; 62 is
    # the largest single-byte header
    rng = random.Random(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for density in (0.0, 0.1, 0.5, 1.0):
        for _ in range(5):
            g = from_edges(n, [p for p in pairs if rng.random() < density])
            text = graph6_encode(g)
            assert text == _bit_list_encode(g)
            assert graph6_decode(text) == g


def test_packed_encoder_matches_the_bit_list_encoder():
    rng = random.Random(31)
    for _ in range(300):
        g = random_connected_graph(rng, max_edges=40, max_n=15)
        assert graph6_encode(g) == _bit_list_encode(g)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("", MalformedText, "empty graph6 string"),
        ("B\x01", MalformedText, "invalid graph6 characters in 'B\\x01'"),
        ("A\x7f", MalformedText, "invalid graph6 characters in 'A\\x7f'"),
        ("C", MalformedText, "graph6 body length mismatch for n=4"),
        ("Bww", MalformedText, "graph6 body length mismatch for n=3"),
        ("A@", MalformedText, "nonzero padding bits in graph6 string"),
        ("Ft??@", MalformedText, "nonzero padding bits in graph6 string"),
        ("~", TooLarge, "multi-byte graph6 size headers are not supported"),
    ],
)
def test_decode_errors_keep_their_type_and_message(text, error, message):
    with pytest.raises(error) as caught:
        graph6_decode(text)
    assert type(caught.value) is error and str(caught.value) == message


def test_encode_rejects_past_the_single_byte_header():
    with pytest.raises(TooLarge) as caught:
        graph6_encode(Graph(63, ()))
    assert str(caught.value) == "graph6 single-byte header supports n <= 62, got 63"
