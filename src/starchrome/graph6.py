"""Standard graph6 text encoding for small simple graphs.

Single-byte size header only (n <= GRAPH6_MAX_N), then the upper triangle
of the adjacency matrix in column order, packed six bits per printable
byte.  The graph6 string of a graph relabelled from its outer cycle
(``outerplanar.polygon_key``) is the toolkit's one isomorphism key:
enumeration members and sweep cache records are keyed by it, so this
header is the only order limit the sweep has.
"""

from __future__ import annotations

from .errors import MalformedText, TooLarge
from .graph import Graph, from_edges

#: Largest order the single-byte size header can hold.
GRAPH6_MAX_N = 62


def graph6_encode(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise TooLarge(f"graph6 single-byte header supports n <= {GRAPH6_MAX_N}, got {g.n}")
    edge_set = g.edge_set()
    bits: list[int] = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if (i, j) in edge_set else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = (value << 1) | b
        out.append(chr(value + 63))
    return "".join(out)


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
    bits: list[int] = []
    for value in body:
        for shift in range(5, -1, -1):
            bits.append((value >> shift) & 1)
    if any(bits[nbits:]):
        raise MalformedText("nonzero padding bits in graph6 string")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return from_edges(n, edges)

