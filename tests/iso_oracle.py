"""Generic canonical labelling, the chord-subset closure and the fixed
polygon triangulations, kept as the tests' oracles.

The canonical labelling is a backtracking search over vertex placements
after degree refinement; it knows nothing of outer cycles, so tests can
check the toolkit's outer-cycle key (``outerplanar.polygon_key``) and its
enumerations against it.  It is exponential in the worst case and limited
to CANONICAL_LIMIT vertices.

``two_connected_spanning_subgraphs`` lists every chord subset of a MOP, so
tests can check ``outerplanar.enumerate_dissections`` against a closure
that does not grow graphs by ears.

``fixed_polygon_triangulations`` lists the triangulations of a labelled
polygon, Catalan(n-2) of them, for the rooted counts and the MOP classes.
"""

from __future__ import annotations

import itertools

from starchrome.errors import TooLarge
from starchrome.graph import Graph, from_edges, is_two_connected, relabel
from starchrome.graph6 import GRAPH6_MAX_N, graph6_encode
from starchrome.outerplanar import _outer_cycle

#: Order ceiling of the permutation-based canonical form.
CANONICAL_LIMIT = 16


def _refined_classes(g: Graph) -> list[int]:
    """Iterated degree refinement; class ids are label-independent."""
    nbrs = g.neighbors()
    colors = list(g.degrees())
    for _ in range(g.n):
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in nbrs[v]))) for v in range(g.n)
        ]
        ranks = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [ranks[sigs[v]] for v in range(g.n)]
        if new == colors:
            break
        colors = new
    return colors


def _canonical_search(g: Graph) -> list[int]:
    """The vertex placement that minimizes the placement word sequence.

    Placing a vertex at position k emits the word (class id, adjacency bits
    to the k already-placed vertices, earlier placements in higher bits).
    The lexicographically least word sequence is the canonical form; ties
    branch, everything else prunes.
    """
    n = g.n
    masks = [0] * n  # neighbourhoods as bitmasks
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    classes = _refined_classes(g)
    best: list[tuple[int, int]] | None = None
    best_perm: list[int] = []

    def rec(placed: list[int], placed_mask: int, words: list[tuple[int, int]]) -> None:
        nonlocal best, best_perm
        k = len(placed)
        if best is not None and words > best[:k]:
            return
        if k == n:
            if best is None or words < best:
                best = list(words)
                best_perm = list(placed)
            return
        cands: list[tuple[tuple[int, int], int]] = []
        for v in range(n):
            if placed_mask >> v & 1:
                continue
            bits = 0
            mv = masks[v]
            for i in range(k):
                if mv >> placed[i] & 1:
                    bits |= 1 << (k - 1 - i)
            cands.append(((classes[v], bits), v))
        minw = min(w for w, _ in cands)
        words.append(minw)
        for w, v in cands:
            if w == minw:
                placed.append(v)
                rec(placed, placed_mask | (1 << v), words)
                placed.pop()
        words.pop()

    if n:
        rec([], 0, [])
    return best_perm


def canonical_form(g: Graph) -> Graph:
    """The canonical relabeling of g: equal for two graphs iff they are isomorphic."""
    if g.n > CANONICAL_LIMIT:
        raise TooLarge(f"canonical_form supports n <= {CANONICAL_LIMIT}, got {g.n}")
    perm = [0] * g.n
    for pos, v in enumerate(_canonical_search(g)):
        perm[v] = pos
    return relabel(g, perm)


def canonical_key(g: Graph) -> str:
    """graph6 of the canonical form: equal for two graphs iff they are isomorphic."""
    return graph6_encode(canonical_form(g))


def two_connected_spanning_subgraphs(h: Graph) -> list[Graph]:
    """Chord-deletion closure of a MOP: one graph per subset of its chords.

    Includes h itself (the empty deletion), so isomorphic results repeat.
    The chords are the edges off the outer cycle, in edge order; the cycle
    survives every deletion, so each result is 2-connected.  A MOP is a
    2-connected graph with 2n-3 edges that has an outer cycle, so one ear
    removal both tests h and gives the cycle.
    """
    if h.n > GRAPH6_MAX_N:
        raise TooLarge(f"two_connected_spanning_subgraphs supports n <= {GRAPH6_MAX_N}")
    cycle = _outer_cycle(h) if h.n >= 3 and h.m == 2 * h.n - 3 and is_two_connected(h) else None
    if cycle is None:
        raise ValueError("chord-deletion closure needs a maximal outerplanar graph")
    pos = [0] * h.n
    for i, v in enumerate(cycle):
        pos[v] = i
    chords = [(u, v) for u, v in h.edges if (pos[u] - pos[v]) % h.n not in (1, h.n - 1)]
    out: list[Graph] = []
    for r in range(len(chords) + 1):
        for removed in itertools.combinations(chords, r):
            removed_set = set(removed)
            out.append(Graph(h.n, tuple(e for e in h.edges if e not in removed_set)))
    return out


def fixed_polygon_triangulations(n: int):
    """Yield the chord sets of all triangulations of the convex n-gon.

    The polygon has vertices 0..n-1 in cyclic order; each triangulation is
    produced exactly once (the apex of the triangle on a base edge is
    unique), so the number of results is the (n-2)nd Catalan number.
    """

    def tri(lo: int, hi: int):
        if hi - lo < 2:
            yield frozenset()
            return
        for k in range(lo + 1, hi):
            for left in tri(lo, k):
                for right in tri(k, hi):
                    chords = set(left | right)
                    if k - lo > 1:
                        chords.add((lo, k))
                    if hi - k > 1:
                        chords.add((k, hi))
                    yield frozenset(chords)

    yield from tri(0, n - 1)


def polygon_triangulation_graph(n: int, chords: frozenset[tuple[int, int]]) -> Graph:
    """The n-gon's cycle plus the given chords."""
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)] + list(chords))
