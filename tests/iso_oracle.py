"""Generic canonical labelling, kept as the tests' isomorphism oracle.

A backtracking search over vertex placements after degree refinement; it
knows nothing of outer cycles, so tests can check the toolkit's
outer-cycle key (``outerplanar.polygon_key``) and its enumeration against
it.  It is exponential in the worst case and limited to CANONICAL_LIMIT
vertices.
"""

from __future__ import annotations

from starchrome.errors import TooLarge
from starchrome.graph import Graph, relabel
from starchrome.graph6 import graph6_encode

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
    masks = g.adjacency_masks()
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
