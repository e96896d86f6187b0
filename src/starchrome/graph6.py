"""Standard graph6 text encoding for small simple graphs.

Single-byte size header only (n <= GRAPH6_MAX_N), then the upper triangle
of the adjacency matrix in column order, packed six bits per printable
byte.  The graph6 string of a graph relabelled from its outer cycle
(``outerplanar.polygon_key``) is the toolkit's one isomorphism key:
enumeration members and sweep cache records are keyed by it, so this
header is the only order limit the sweep has.

Pair (i, j), i < j, is bit j(j-1)/2 + i of the triangle, so both ways run
on one integer that holds the whole body, first bit highest.
"""

from __future__ import annotations

from typing import Iterable

from .errors import MalformedText, TooLarge
from .graph import Graph

#: Largest order the single-byte size header can hold.
GRAPH6_MAX_N = 62

# The pair at each bit of the triangle, in column order; the same for every n.
_PAIRS = tuple((i, j) for j in range(1, GRAPH6_MAX_N) for i in range(j))


def _encode_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> str:
    """graph6 of the order-n graph with these edges, each given either way round."""
    width = (n * (n - 1) // 2 + 5) // 6 * 6
    word = 0
    for a, b in pairs:
        word |= 1 << (width - 1 - (a * (a - 1) // 2 + b if a > b else b * (b - 1) // 2 + a))
    return chr(n + 63) + "".join([chr(63 + (word >> s & 63)) for s in range(width - 6, -1, -6)])


def graph6_encode(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise TooLarge(f"graph6 single-byte header supports n <= {GRAPH6_MAX_N}, got {g.n}")
    return _encode_pairs(g.n, g.edges)


def graph6_decode(text: str) -> Graph:
    if not text:
        raise MalformedText("empty graph6 string")
    codes = [ord(ch) - 63 for ch in text]
    if any(c < 0 or c > 63 for c in codes):
        raise MalformedText(f"invalid graph6 characters in {text!r}")
    n = codes[0]
    if n > GRAPH6_MAX_N:
        raise TooLarge("multi-byte graph6 size headers are not supported")
    nbits = n * (n - 1) // 2
    body = codes[1:]
    if len(body) != (nbits + 5) // 6:
        raise MalformedText(f"graph6 body length mismatch for n={n}")
    word = 0
    for value in body:
        word = word << 6 | value
    width = 6 * len(body)
    if word & ((1 << (width - nbits)) - 1):
        raise MalformedText("nonzero padding bits in graph6 string")
    edges = []
    while word:  # highest set bit first, so pairs come in column order
        top = word.bit_length() - 1
        word ^= 1 << top
        edges.append(_PAIRS[width - 1 - top])
    return Graph(n, tuple(sorted(edges)))
