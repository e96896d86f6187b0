"""Outerplanar recognition, the outer-cycle isomorphism key, and the
enumeration of maximal-outerplanar graphs (MOPs) and of all 2-connected
outerplanar graphs.

Recognition is ear removal per biconnected block (S. L. Mitchell,
"Linear algorithms to recognize outerplanar and maximal outerplanar
graphs", IPL 9(5), 1979): a 2-connected outerplanar graph always has a
degree-2 vertex, and suppressing it keeps the graph 2-connected and
outerplanar.  Replaying the suppressions in reverse rebuilds the block's
Hamiltonian cycle, and the block is accepted only if no two of its edges
cross on that cycle, so every "yes" carries a certificate.  ``classify``
decides all three classes from one block search; the predicates read it.

That Hamiltonian cycle is unique, so a 2-connected outerplanar graph is
its chord diagram up to the 2n rotations and reflections of the cycle.
``polygon_key`` picks one of them by a fixed rule, with no backtracking,
and its graph6 string is the isomorphism key of every graph the sweep
touches.

Both enumerations run one growth routine: a graph of order n grows from
one of order n-1 by a new vertex on an outer edge, keeping the outer
cycle as it goes.  MOPs grow by ears; every 2-connected outerplanar graph
(a polygon dissection) grows by an ear or by subdividing an outer edge.
An ear on a MOP is told apart by its degrees around the cycle up to
rotation and reflection, which fix a triangulated polygon (Conway and
Coxeter, Math. Gazette 1973), so each MOP class is keyed from its cycle
once; every other candidate is keyed from the cycle it grew with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import OutOfRange, TooLarge
from .graph import Graph, _block_edges, _normalized, is_two_connected
from .graph6 import GRAPH6_MAX_N, _encode_pairs


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


@dataclass(frozen=True)
class Classification:
    two_connected: bool
    outerplanar: bool
    maximal: bool


def classify(g: Graph) -> Classification:
    """What recognition decides about g: 2-connected, outerplanar, maximal.

    One block search gives 2-connectivity (as in ``is_two_connected``:
    n >= 3, no isolated vertex, one block) and the blocks, each recognized
    on its own; maximality is outerplanarity plus 2n-3 edges at n >= 3.
    """
    edge_blocks = list(_block_edges(g))
    two_connected = g.n >= 3 and 0 not in g.degrees() and len(edge_blocks) == 1
    outer = g.n < 2 or g.m <= 2 * g.n - 3  # the whole-graph edge bound, before any block
    for edges in edge_blocks if outer else ():
        if two_connected:
            block = g  # g is its own block, ids already compact
        else:
            remap = {x: i for i, x in enumerate(sorted({x for e in edges for x in e}))}
            block = _normalized(len(remap), [(remap[a], remap[b]) for a, b in edges])
        if block.m > 2 * block.n - 3 or (block.n > 3 and _outer_cycle(block) is None):
            outer = False
            break
    return Classification(two_connected, outer, outer and g.n >= 3 and g.m == 2 * g.n - 3)


def is_outerplanar(g: Graph) -> bool:
    """True iff g has a drawing with every vertex on the outer face.

    Outerplanarity holds iff it holds in every biconnected block, so each
    block with four or more vertices gets its own ear-removal certificate.
    """
    return classify(g).outerplanar


def is_maximal_outerplanar(g: Graph) -> bool:
    """Outerplanar with a full complement of edges.

    Equivalent to the definitional reading (adding any edge between
    non-adjacent vertices destroys outerplanarity): an outerplanar graph
    has at most 2n-3 edges, with equality exactly at maximality.
    """
    return classify(g).maximal


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


def _dihedral_key(seq: bytes | bytearray) -> bytes:
    """Least rotation or reflection of a cyclic sequence; it starts at a least entry."""
    n, low = len(seq), min(seq)
    return bytes(min(d[i : i + n] for d in (seq * 2, seq[::-1] * 2) for i in range(n) if d[i] == low))


def polygon_key(g: Graph) -> str:
    """graph6 of g relabelled from its outer cycle: equal for two
    2-connected outerplanar graphs iff they are isomorphic.

    Raises OutOfRange if g is not 2-connected and outerplanar.
    """
    if g.n > GRAPH6_MAX_N:  # checked here: past degree 255, _cycle_key's bytes raise ValueError
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
    word = bytes(degs[v] for v in cycle)
    least = _dihedral_key(word)
    orders = [  # each numbering with the least degree word, as its vertices in position order
        way[i:] + way[:i]
        for way, d in ((cycle, word * 2), (cycle[::-1], word[::-1] * 2))
        for i in range(n)
        if d[i] == least[0] and d.startswith(least, i)
    ]

    def numbering(way: Sequence[int]) -> tuple[list[int], list[int]]:
        """Edges as sorted position pairs, (a, b) as a*n + b, which sorts alike; then positions."""
        pos = sorted(range(n), key=way.__getitem__)  # the inverse of way
        pairs = ((pos[u], pos[v]) for u, v in g.edges)
        return sorted(a * n + b if a < b else b * n + a for a, b in pairs), pos

    order = min(orders, key=numbering) if len(orders) > 1 else orders[0]
    # Labels follow (degree, sorted neighbour degrees, position), not the
    # position alone, because the solver's search order follows the labels:
    # its fail-first order breaks ties by BFS rank, and that BFS starts at
    # the max-degree vertex with the smallest id and scans neighbours by
    # ascending id.  The 1091 MOPs with n <= 12, each solved from k = D,
    # take 1 264 649 solver nodes under position labels and 1 102 032 under
    # this order.  The sort is stable, so ties keep position order.
    profile = [bytes((degs[v], *sorted([degs[w] for w in nbrs[v]]))) for v in range(n)]
    label = [0] * n
    for rank, v in enumerate(sorted(order, key=profile.__getitem__)):
        label[v] = rank
    return _encode_pairs(n, [(label[u], label[v]) for u, v in g.edges])


def _grow(below: Catalog, subdivide: bool) -> tuple[dict, dict, dict]:
    """Members, rings and children of the order above ``below``.

    A new vertex goes on every outer edge u-v of every member: as an ear,
    and with ``subdivide`` also in place of u-v.  An ear on a MOP is a MOP,
    and its degrees around the cycle fix it, so each MOP class is keyed
    once, from the first ear that grows into it, and only that ear's ring
    and edges are built.  Every other candidate is keyed from the cycle it
    grew with.  Only ear parents are recorded as ``children``: they are
    subgraphs of the member, and a subdivided graph is not.
    """
    size = below.n
    # [graph, ring, ear parents] per class in the order found, by polygon_key
    # or, for a MOP, by dihedral degree key: keying the MOPs in one pass after
    # the loop takes about 4% less time on the MOP path than keying them inline
    found: dict[bytes | str, list] = {}

    def keep(edges: tuple, ring: tuple[int, ...], shape: bytes | None) -> list:
        g = Graph(size + 1, edges)
        return found.setdefault(shape or _cycle_key(g, ring), [g, ring, set()])

    for parent, g in below.members.items():
        boundary, degs = below.rings[parent], g.degrees()
        around = bytes(degs[v] for v in boundary) if g.m == 2 * size - 3 else None
        for i in range(size):
            entry = shape = None
            if around is not None:  # the ear raises u and v by one and adds a 2
                grown = bytearray(around)
                grown[i] += 1
                grown[(i + 1) % size] += 1
                grown.insert(i + 1, 2)
                shape = _dihedral_key(grown)
                entry = found.get(shape)
            if entry is None or subdivide:
                u, v = boundary[i], boundary[(i + 1) % size]
                ring = boundary[: i + 1] + (size,) + boundary[i + 1 :]
                ear = tuple(sorted(g.edges + ((u, size), (v, size))))
                if entry is None:
                    entry = keep(ear, ring, shape)
                if subdivide:
                    outer = (u, v) if u < v else (v, u)
                    keep(tuple(e for e in ear if e != outer), ring, None)
            entry[2].add(parent)
    members, rings, children = {}, {}, {}
    for name, (g, ring, parents) in found.items():
        key = name if isinstance(name, str) else _cycle_key(g, ring)
        members[key], rings[key], children[key] = g, ring, parents
    return members, rings, children


def _level(grow, n: int, below: Catalog | None, subdivide: bool) -> tuple[dict, dict, dict]:
    """Order n of the enumeration ``grow``, from ``below`` (order n-1) or
    else from ``grow(n - 1)``, down to the triangle."""
    if n < 3:
        raise OutOfRange(f"{grow.__name__} needs n >= 3, got {n}")
    if n > GRAPH6_MAX_N:
        raise TooLarge(f"{grow.__name__} supports n <= {GRAPH6_MAX_N}, got {n}")
    if below is None:
        if n == 3:
            g, ring = Graph(3, ((0, 1), (0, 2), (1, 2))), (0, 1, 2)
            key = _cycle_key(g, ring)
            return {key: g}, {key: ring}, {key: set()}
        below = grow(n - 1)
    elif below.n != n - 1:
        raise OutOfRange(f"{grow.__name__}({n}) grows from order {n - 1}, got {below.n}")
    elif isinstance(below, MopCatalog) == subdivide:  # a level of the other enumeration
        raise OutOfRange(f"{grow.__name__}({n}) grows from its own levels, not a {type(below).__name__}")
    return _grow(below, subdivide)


def enumerate_mops(n: int, below: MopCatalog | None = None) -> MopCatalog:
    """All MOPs of order n up to isomorphism, by adding an ear on each
    outer edge of each MOP of order n-1.

    Given ``below``, its own catalog of order n-1, the call grows that one
    level; without it, every level from the triangle.  Each member's
    ``children`` are the members of order n-1 it grows from.
    """
    level = _level(enumerate_mops, n, below, subdivide=False)
    return MopCatalog(n, *level, math.comb(2 * n - 4, n - 2) // (n - 1))  # Catalan(n-2)


def enumerate_dissections(n: int, below: Catalog | None = None) -> Catalog:
    """All 2-connected outerplanar graphs of order n up to isomorphism.

    Such a graph of order n >= 4 has a degree-2 vertex.  Deleting it (if
    its neighbours are adjacent) or suppressing it (if not) leaves one of
    order n-1 in which the two neighbours are consecutive on the outer
    cycle.  So each level adds a vertex on every outer edge of every member
    of the level below, once as an ear and once in place of that edge.

    Given ``below``, its own catalog of order n-1, the call grows that one
    level; without it, every level from the triangle.
    """
    return Catalog(n, *_level(enumerate_dissections, n, below, subdivide=True))
