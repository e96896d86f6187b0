"""Outerplanar recognition, the outer-cycle isomorphism key, and the
enumeration of maximal-outerplanar graphs (MOPs) and of all 2-connected
outerplanar graphs.

Recognition is ear removal per biconnected block (S. L. Mitchell,
"Linear algorithms to recognize outerplanar and maximal outerplanar
graphs", IPL 9(5), 1979): a 2-connected outerplanar graph always has a
degree-2 vertex, and suppressing it keeps the graph 2-connected and
outerplanar.  Replaying the suppressions in reverse rebuilds the block's
Hamiltonian cycle, and the block is accepted only if no two of its edges
cross on that cycle, so every "yes" carries a certificate.

That Hamiltonian cycle is unique, so a 2-connected outerplanar graph is
its chord diagram up to the 2n rotations and reflections of the cycle.
``polygon_key`` picks one of them by a fixed rule, with no backtracking,
and its graph6 string is the isomorphism key of every graph the sweep
touches.

Both enumerations grow a graph of order n from one of order n-1 by a new
vertex on an outer edge, keeping the outer cycle as they go.  MOPs are
told apart by their degrees around that cycle up to rotation and
reflection, which fix a triangulated polygon (Conway and Coxeter, Math.
Gazette 1973); each member is then keyed from the cycle it grew with.
Every 2-connected outerplanar graph (a polygon dissection) is grown by an
ear or by subdividing an outer edge, and each candidate is keyed from its
cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import OutOfRange, TooLarge
from .graph import Graph, _block_edges, _normalized, diameter, is_two_connected, relabel
from .graph6 import GRAPH6_MAX_N, graph6_encode


def _chords_cross(spans: list[tuple[int, int]]) -> bool:
    """True iff two position intervals (a, b), a < b, properly interleave.

    Sorted by left end, longest first, non-crossing intervals nest, so each
    one must close no later than the innermost interval still open.
    """
    open_ends: list[int] = []
    for a, b in sorted(spans, key=lambda s: (s[0], -s[1])):
        while open_ends and open_ends[-1] <= a:
            open_ends.pop()
        if open_ends and open_ends[-1] < b:
            return True
        open_ends.append(b)
    return False


def _outer_cycle(block: Graph) -> list[int] | None:
    """The outer cycle of a 2-connected block with n >= 3, or None if the
    block is not outerplanar.

    Suppresses degree-2 vertices down to a triangle, then reinserts each one
    between its two neighbours, which must be consecutive on the cycle.  The
    cycle is returned only as a certificate: an order of all the vertices in
    which no two block edges cross, so the block draws as a polygon with
    non-crossing chords.
    """
    nbrs = [set(s) for s in block.neighbors()]
    ready = [v for v in range(block.n) if len(nbrs[v]) == 2]
    removed: list[tuple[int, int, int]] = []
    for _ in range(block.n - 3):
        while ready and len(nbrs[ready[-1]]) != 2:
            ready.pop()  # already suppressed
        if not ready:
            return None  # minimum degree 3: not outerplanar
        v = ready.pop()
        u, w = nbrs[v]
        nbrs[v].clear()
        nu, nw = nbrs[u], nbrs[w]
        nu.discard(v)
        nw.discard(v)
        if w in nu:
            if len(nu) == 2:
                ready.append(u)
            if len(nw) == 2:
                ready.append(w)
        else:
            nu.add(w)
            nw.add(u)
        removed.append((v, u, w))
    a, b, c = (x for x in range(block.n) if nbrs[x])
    succ = [-1] * block.n
    succ[a], succ[b], succ[c] = b, c, a
    for v, u, w in reversed(removed):
        if succ[w] == u:
            u, w = w, u
        elif succ[u] != w:
            return None
        succ[u], succ[v] = v, w
    cycle = [a]
    while len(cycle) < block.n:
        cycle.append(succ[cycle[-1]])

    pos = [0] * block.n
    for i, v in enumerate(cycle):
        pos[v] = i
    spans = [(a, b) if a < b else (b, a) for a, b in ((pos[u], pos[v]) for u, v in block.edges)]
    return None if _chords_cross(spans) else cycle


def _biconnected_blocks(g: Graph, edge_blocks=None) -> list[Graph]:
    """Edge-partition into biconnected blocks, each with compacted ids.

    ``edge_blocks``, if given, are the blocks ``_block_edges(g)`` yields.
    """
    blocks = list(_block_edges(g) if edge_blocks is None else edge_blocks)
    if len(blocks) == 1 and 0 not in g.degrees():
        return [g]  # g is its own block, ids already compact
    out = []
    for block in blocks:
        ids = sorted({x for e in block for x in e})
        remap = {x: i for i, x in enumerate(ids)}
        out.append(_normalized(len(ids), [(remap[a], remap[b]) for a, b in block]))
    return out


def is_outerplanar(g: Graph, edge_blocks=None) -> bool:
    """True iff g has a drawing with every vertex on the outer face.

    Outerplanarity holds iff it holds in every biconnected block, so each
    block with four or more vertices gets its own ear-removal certificate.
    ``edge_blocks``, if given, are the blocks ``_block_edges(g)`` yields.
    """
    if g.n >= 2 and g.m > 2 * g.n - 3:
        return False  # over the outerplanar edge bound
    for block in _biconnected_blocks(g, edge_blocks):
        if block.m > 2 * block.n - 3:
            return False
        if block.n > 3 and _outer_cycle(block) is None:
            return False
    return True


def _maximal_edge_count(g: Graph) -> bool:
    return g.n >= 3 and g.m == 2 * g.n - 3


def is_maximal_outerplanar(g: Graph) -> bool:
    """Outerplanar with a full complement of edges.

    Equivalent to the definitional reading (adding any edge between
    non-adjacent vertices destroys outerplanarity): an outerplanar graph
    has at most 2n-3 edges, with equality exactly at maximality.
    """
    return _maximal_edge_count(g) and is_outerplanar(g)


@dataclass(frozen=True)
class Catalog:
    """One order of an enumeration, with what it takes to grow the next."""

    n: int
    members: dict[str, Graph]  # polygon_key -> construction-labelled graph
    rings: dict[str, tuple[int, ...]]  # polygon_key -> the outer cycle it grew with
    # polygon_key -> keys of the order n-1 graphs it grows from by an ear,
    # that is its ear-deleted subgraphs
    children: dict[str, set[str]]

    def member_count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class MopCatalog(Catalog):
    rooted_count: int


def _dihedral_key(seq: bytearray) -> bytes:
    """Least rotation or reflection of a cyclic sequence; it starts at a least entry."""
    n, low = len(seq), min(seq)
    return bytes(min((s + s)[i : i + n] for s in (seq, seq[::-1]) for i in range(n) if s[i] == low))


def polygon_key(g: Graph) -> str:
    """graph6 of g relabelled from its outer cycle: equal for two
    2-connected outerplanar graphs iff they are isomorphic.

    Raises OutOfRange if g is not 2-connected and outerplanar.
    """
    if g.n > GRAPH6_MAX_N:
        raise TooLarge(f"polygon_key supports n <= {GRAPH6_MAX_N}, got {g.n}")
    if not is_two_connected(g) or (cycle := _outer_cycle(g)) is None:
        raise OutOfRange("polygon_key needs a 2-connected outerplanar graph")
    return _cycle_key(g, cycle)


def _cycle_key(g: Graph, cycle: Sequence[int]) -> str:
    """polygon_key of g, given its outer cycle.

    Of the 2n ways to number the cycle 0..n-1, keep those whose degree
    sequence is least (the ``_dihedral_key`` rule), then the one whose
    edges, written as sorted position pairs, form the least list.  That
    numbering depends only on the isomorphism class, up to automorphisms.
    """
    n, degs, nbrs = g.n, g.degrees(), g.neighbors()
    least = _dihedral_key(bytearray(degs[v] for v in cycle))
    numberings = []  # (edges as sorted position pairs, position of each vertex)
    for way in (list(cycle), list(cycle)[::-1]):
        doubled = bytes(degs[v] for v in way) * 2
        for i in range(n):
            if doubled[i : i + n] == least:
                pos = [0] * n
                for p, v in enumerate(way[i:] + way[:i]):
                    pos[v] = p
                numberings.append((sorted(tuple(sorted((pos[u], pos[v]))) for u, v in g.edges), pos))
    pos = min(numberings)[1]
    # Labels follow (degree, sorted neighbour degrees, position), not the
    # position alone, because the solver's search order follows the labels:
    # its BFS starts at the max-degree vertex with the smallest id and scans
    # neighbours by ascending id.  The 1091 MOPs with n <= 12 take 3 175 069
    # solver nodes under position labels and 1 402 222 under this order.
    ranked = sorted(range(n), key=lambda v: (degs[v], sorted(degs[w] for w in nbrs[v]), pos[v]))
    perm = [0] * n
    for label, v in enumerate(ranked):
        perm[v] = label
    return graph6_encode(relabel(g, perm))


def _triangle() -> tuple[dict, dict, dict]:
    """The one graph of order 3, as a catalog's members, rings and children."""
    g, ring = Graph(3, ((0, 1), (0, 2), (1, 2))), (0, 1, 2)
    key = _cycle_key(g, ring)
    return {key: g}, {key: ring}, {key: set()}


def _add_ears(level, size: int) -> dict:
    """Grow MOPs of order ``size`` by an ear on each outer edge.

    ``level`` yields (edges, outer cycle, degrees along it, key).  An ear
    raises the degrees at both ends of its edge by one and inserts a 2
    between them, so the result maps the dihedral key of that degree
    sequence to (edges, cycle, degrees, keys of the graphs grown into it).
    """
    nxt: dict = {}
    for edges, boundary, degrees, parent in level:
        for i in range(size):
            grown = bytearray(degrees)
            grown[i] += 1
            grown[(i + 1) % size] += 1
            grown.insert(i + 1, 2)
            key = _dihedral_key(grown)
            if key not in nxt:
                u, v = boundary[i], boundary[(i + 1) % size]
                ring = boundary[: i + 1] + (size,) + boundary[i + 1 :]
                nxt[key] = (tuple(sorted(edges + ((u, size), (v, size)))), ring, grown, set())
            nxt[key][3].add(parent)
    return nxt


def enumerate_mops(n: int, below: MopCatalog | None = None) -> MopCatalog:
    """All MOPs of order n up to isomorphism, by vertex addition.

    Each level is deduplicated by the dihedral key of the degrees around
    the outer cycle, with no graph search, and only its members are keyed
    by ``polygon_key``, from the cycle each grew with.  The degree key is
    exact only for triangulations, and keying every candidate by its cycle
    instead would slow this path down.

    The call grows one level from ``below``, the catalog of order n-1
    (without it, from ``enumerate_mops(n - 1)``), and records each member's
    ear-deleted children: the members of ``below`` that grow into its
    degree key.
    """
    if not 3 <= n <= GRAPH6_MAX_N:
        raise TooLarge(f"enumerate_mops supports 3 <= n <= {GRAPH6_MAX_N}, got {n}")
    if below is None:
        if n == 3:
            return MopCatalog(3, *_triangle(), 1)
        below = enumerate_mops(n - 1)
    elif below.n != n - 1:
        raise OutOfRange(f"enumerate_mops({n}) grows from order {n - 1}, got {below.n}")
    level = []
    for key, g in below.members.items():
        ring, degs = below.rings[key], g.degrees()
        level.append((g.edges, ring, bytes(degs[v] for v in ring), key))
    members, rings, children = {}, {}, {}
    for edges, ring, _, parents in _add_ears(level, n - 1).values():
        g = Graph(n, edges)
        key = _cycle_key(g, ring)
        members[key], rings[key], children[key] = g, ring, parents
    rooted = math.comb(2 * n - 4, n - 2) // (n - 1)  # Catalan(n-2)
    return MopCatalog(n, members, rings, children, rooted)


def enumerate_dissections(n: int, below: Catalog | None = None) -> Catalog:
    """All 2-connected outerplanar graphs of order n up to isomorphism.

    Such a graph of order n >= 4 has a degree-2 vertex.  Deleting it (if
    its neighbours are adjacent) or suppressing it (if not) leaves one of
    order n-1 in which the two neighbours are consecutive on the outer
    cycle.  So each level adds a vertex on every outer edge u-v of every
    member of the level below, once as an ear and once with u-v removed,
    and keys each candidate from the cycle it grew with.  Only the ear
    parents are recorded as ``children``: they are subgraphs of the member,
    and a subdivided graph is not.

    Given ``below``, the catalog of order n-1, the call grows that one
    level; without it, every level from the triangle.
    """
    if not 3 <= n <= GRAPH6_MAX_N:
        raise TooLarge(f"enumerate_dissections supports 3 <= n <= {GRAPH6_MAX_N}, got {n}")
    if below is None:
        if n == 3:
            return Catalog(3, *_triangle())
        below = enumerate_dissections(n - 1)
    elif below.n != n - 1:
        raise OutOfRange(f"enumerate_dissections({n}) grows from order {n - 1}, got {below.n}")
    size = n - 1
    members, rings, children = {}, {}, {}
    for parent, g in below.members.items():
        boundary = below.rings[parent]
        for i in range(size):
            u, v = boundary[i], boundary[(i + 1) % size]
            ring = boundary[: i + 1] + (size,) + boundary[i + 1 :]
            ear = tuple(sorted(g.edges + ((u, size), (v, size))))
            outer = (u, v) if u < v else (v, u)
            for edges in (ear, tuple(e for e in ear if e != outer)):
                grown = Graph(n, edges)
                key = _cycle_key(grown, ring)
                if key not in members:
                    members[key], rings[key], children[key] = grown, ring, set()
                if edges is ear:
                    children[key].add(parent)
    return Catalog(n, members, rings, children)


@dataclass(frozen=True)
class Classification:
    diameter: int | float
    two_connected: bool
    outerplanar: bool
    maximal: bool
    subcubic: bool


def classify(g: Graph) -> Classification:
    """Bundle of the predicates behind the graph classes the sweep tracks.

    One block search gives both 2-connectivity (as in ``is_two_connected``:
    n >= 3, no isolated vertex, one block) and the blocks to recognize.
    """
    edge_blocks = list(_block_edges(g))
    outer = is_outerplanar(g, edge_blocks)
    return Classification(
        diameter=diameter(g),
        two_connected=g.n >= 3 and 0 not in g.degrees() and len(edge_blocks) == 1,
        outerplanar=outer,
        maximal=outer and _maximal_edge_count(g),
        subcubic=g.max_degree() <= 3,
    )
