"""Graph symmetry for the degree-order search: a bounded search for
automorphisms and the lex-leader check over them.

The rule and its soundness argument are in the solver module's
docstring.  The solver imports this module on first use, when a round
first starts the degree-order search, so a solve whose rounds all end
before the cutoff (every sweep round to n=12) never compiles it.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph

SYMMETRY_MAPS = 64  # automorphisms the degree-order search checks at most
SYMMETRY_STEPS = 20_000  # candidate images the automorphism search tries at most


def automorphisms(g: Graph, base: Sequence[int]) -> list[list[int]]:
    """Automorphisms of g other than the identity, as vertex maps.

    ``base`` lists every vertex with an edge, each after one of its
    neighbours unless it starts a component.  For each base vertex b in
    turn, and each other vertex x that some automorphism fixing the base
    vertices before b sends b to, it keeps the first such map found: a
    transversal of each stabilizer in the chain, so that together the maps
    generate Aut(g) (Sims 1970), or a subgroup once a cap ends the search.
    The search stops after SYMMETRY_MAPS maps or SYMMETRY_STEPS candidate
    images tried.  A map extends vertex by vertex in base order by
    backtracking.  A vertex v tries v itself first, then the neighbours of
    the image of its earlier neighbour of least degree; an image must have
    v's degree and neighbour degrees and be adjacent to exactly the images
    of v's earlier neighbours.  Every map kept is checked against the edge
    set.
    """
    nbrs, degs = g.neighbors(), g.degrees()
    kinds: dict[tuple, int] = {}
    kind = [kinds.setdefault((d, tuple(sorted(degs[w] for w in nbrs[v]))), len(kinds))
            for v, d in enumerate(degs)]
    at = [-1] * g.n  # each vertex's place in base
    for i, v in enumerate(base):
        at[v] = i
    earlier = [[w for w in nbrs[v] if at[w] < at[v]] for v in base]
    via = [min(ws, key=degs.__getitem__) if ws else -1 for ws in earlier]
    edge_set = g.edge_set()
    image, preimage = [-1] * g.n, [-1] * g.n
    nxt = [-2] * len(base)
    maps: list[list[int]] = []
    steps = 0

    def fits(i: int, x: int) -> bool:
        """Whether base[i] may map to x, the base vertices before it mapped."""
        if preimage[x] >= 0 or kind[x] != kind[base[i]]:
            return False
        for w in earlier[i]:
            y = image[w]
            if (y, x) not in edge_set and (x, y) not in edge_set:
                return False
        return sum(preimage[y] >= 0 for y in nbrs[x]) == len(earlier[i])

    def pool(i: int) -> Sequence[int]:
        return base if via[i] < 0 else nbrs[image[via[i]]]

    for level, b in enumerate(base):  # base[:level] map to themselves
        for x in pool(level):
            if len(maps) == SYMMETRY_MAPS or steps >= SYMMETRY_STEPS:
                return maps
            steps += 1
            if x == b or not fits(level, x):
                continue
            image[b], preimage[x] = x, b
            # depth first over the later base vertices: nxt[i] is the index
            # in pool(i) of base[i]'s next candidate, -1 for base[i] itself
            # and -2 before its first
            i = level + 1
            while level < i < len(base) and steps < SYMMETRY_STEPS:
                v = base[i]
                if nxt[i] == -2:
                    nxt[i] = -1
                    steps += 1
                    if fits(i, v):
                        image[v] = preimage[v] = v
                        i += 1
                        continue
                    nxt[i] = 0
                else:
                    preimage[image[v]] = image[v] = -1  # back from a dead end
                candidates, j = pool(i), max(nxt[i], 0)
                while j < len(candidates) and (candidates[j] == v or not fits(i, candidates[j])):
                    j += 1
                steps += j - max(nxt[i], 0) + 1
                if j < len(candidates):
                    nxt[i] = j + 1
                    image[v], preimage[candidates[j]] = candidates[j], v
                    i += 1
                else:
                    nxt[i] = -2
                    i -= 1
            if i == len(base):
                found = list(range(g.n))
                for v in base:
                    found[v] = image[v]
                if all((min(found[u], found[v]), max(found[u], found[v])) in edge_set
                       for u, v in g.edges):
                    maps.append(found)
            for j in range(level, max(i, level + 1)):  # the base vertices mapped
                v = base[j]
                preimage[image[v]] = image[v] = -1
                nxt[j] = -2
        image[b] = preimage[b] = b
    return maps


class LexLeader:
    """The lex-leader check of the degree-order search (Crawford, Ginsberg,
    Luks and Roy 1996): with X the coloring by slots, colors named by first
    use, it keeps X only while X <= ren(X o p) for each slot map p, where
    (X o p)[j] = X[p[j]] and ren names colors by first use again.

    ``place(i, bit)`` colors slot i, or refuses when the colored slots
    already make X greater for some map; ``undo()`` takes the last
    placement back.  Each map's comparison moves on as far as the colored
    slots allow: to ``at``, the first place not yet known equal, with
    ``ren`` the names given so far and ``fresh`` the next one; a map found
    smaller or equal throughout is dropped until an undo.  A map waits in
    ``waiting`` at the slot it needs next, max(at, p[at]).  Colors are the
    top-down search's bits: the j-th color used is bit k+1-j, so a larger
    bit is a smaller name.
    """

    def __init__(self, maps: list[list[int]], k: int):
        m = len(maps[0])
        self.maps, self.m = maps, m
        self.colors = [0] * m
        self.state = [(0, {}, 1 << k) for _ in maps]  # (at, ren, fresh) per map
        self.waiting: list[list[int]] = [[] for _ in range(m)]
        for s, p in enumerate(maps):
            self.waiting[p[0]].append(s)
        self.log: list[tuple] = []  # per placement: (slot, its waiting list, changes)

    def place(self, i: int, bit: int) -> bool:
        colors, m = self.colors, self.m
        colors[i] = bit
        # each waiting map's new state; none is stored before all are kept
        moved = []
        for s in self.waiting[i]:
            p = self.maps[s]
            at, ren, fresh = self.state[s]
            ren = dict(ren)  # the state before stays in the log
            while at <= i and p[at] <= i:
                a = colors[p[at]]
                y = ren.get(a)
                if y is None:
                    ren[a] = y = fresh
                    fresh >>= 1
                x = colors[at]
                if x != y:
                    if x < y:  # X's name here is the larger: X is greater
                        return False
                    at = m  # X is smaller
                    break
                at += 1
            moved.append((s, (at, ren, fresh)))
        changes = []
        for s, state in moved:
            at = state[0]
            wait = max(at, self.maps[s][at]) if at < self.m else -1
            changes.append((s, self.state[s], wait))
            self.state[s] = state
            if wait >= 0:
                self.waiting[wait].append(s)
        self.log.append((i, self.waiting[i], changes))
        self.waiting[i] = []
        return True

    def undo(self) -> None:
        i, waiting, changes = self.log.pop()
        for s, state, wait in reversed(changes):
            self.state[s] = state
            if wait >= 0:
                self.waiting[wait].pop()
        self.waiting[i] = waiting
