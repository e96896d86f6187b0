"""Immutable simple undirected graphs and the structural queries built on them.

Vertices are dense integer ids ``0..n-1``; an edge is an unordered pair stored
canonically as ``(u, v)`` with ``u < v``.  Graph values are frozen after
construction, so they can be shared freely between concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import DuplicateEdge, OutOfRange, SelfLoop

#: Returned by :func:`diameter` for disconnected graphs.
INFINITE = math.inf


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency lists, each sorted ascending (cached)."""
        cached = self.__dict__.get("_neighbors")
        if cached is None:
            lists: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                lists[u].append(v)
                lists[v].append(u)
            cached = tuple(tuple(sorted(l)) for l in lists)
            self.__dict__["_neighbors"] = cached
        return cached

    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees (cached)."""
        cached = self.__dict__.get("_degrees")
        if cached is None:
            cached = tuple(len(nbrs) for nbrs in self.neighbors())
            self.__dict__["_degrees"] = cached
        return cached

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        cached = self.__dict__.get("_edge_set")
        if cached is None:
            cached = frozenset(self.edges)
            self.__dict__["_edge_set"] = cached
        return cached


def from_edges(n: int, pairs: Iterable[Sequence[int]]) -> Graph:
    """Build a canonical Graph, rejecting loops, duplicates and bad ids."""
    if n < 0:
        raise OutOfRange(f"vertex count must be nonnegative, got {n}")
    seen: set[tuple[int, int]] = set()
    for pair in pairs:
        u, v = pair
        if u == v:
            raise SelfLoop(f"edge ({u},{v}) is a self-loop")
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRange(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"edge {key} appears more than once")
        seen.add(key)
    return Graph(n=n, edges=tuple(sorted(seen)))


def _normalized(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Internal constructor that orients and sorts an edge list.

    For edges the caller derived from a valid graph (relabeling, block
    extraction, polygon chords); it drops loops and duplicates rather than
    rejecting them, so it is no substitute for :func:`from_edges` on input.
    """
    seen = {(u, v) if u < v else (v, u) for u, v in pairs if u != v}
    return Graph(n=n, edges=tuple(sorted(seen)))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a vertex permutation: vertex v becomes perm[v]."""
    return _normalized(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def diameter(g: Graph) -> int | float:
    """Max over vertex pairs of their distance; INFINITE if disconnected.

    ``reach[v]`` masks the vertices within distance d of v; a round ORs in
    the neighbors' masks and raises d.  A vertex drops out once it reaches
    all, and a mask that stops growing short of that is a component.
    """
    if g.n < 1:
        raise OutOfRange("diameter needs at least one vertex")
    nbrs = g.neighbors()
    full = (1 << g.n) - 1
    reach = [1 << v for v in range(g.n)]
    pending = [v for v in range(g.n) if reach[v] != full]
    d = 0
    while pending:
        grown = list(reach)
        for v in pending:
            r = reach[v]
            for w in nbrs[v]:
                r |= reach[w]
            if r == reach[v]:
                return INFINITE
            grown[v] = r
        reach = grown
        d += 1
        pending = [v for v in pending if reach[v] != full]
    return d


def _block_edges(g: Graph) -> Iterator[list[tuple[int, int]]]:
    """Biconnected blocks as edge lists, in the order a depth-first search closes them.

    Hopcroft-Tarjan with an explicit stack, so long paths and cycles do not
    hit the interpreter's recursion limit.
    """
    nbrs = g.neighbors()
    depth = [-1] * g.n
    low = [0] * g.n
    edge_stack: list[tuple[int, int]] = []
    for root in range(g.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        path = [(root, -1, iter(nbrs[root]))]
        while path:
            v, parent, todo = path[-1]
            for w in todo:
                if depth[w] < 0:
                    edge_stack.append((v, w))
                    depth[w] = low[w] = depth[v] + 1
                    path.append((w, v, iter(nbrs[w])))
                    break
                if w != parent and depth[w] < depth[v]:
                    edge_stack.append((v, w))
                    if depth[w] < low[v]:
                        low[v] = depth[w]
            else:
                path.pop()
                if parent < 0:
                    continue
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= depth[parent]:
                    block = []
                    while True:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == (parent, v):
                            break
                    yield block


def is_two_connected(g: Graph) -> bool:
    """True iff n >= 3, connected, and removing any single vertex keeps it connected.

    Equivalently, no vertex is isolated and the first biconnected block
    holds every edge, so one low-point search decides it.
    """
    if g.n < 3 or 0 in g.degrees():
        return False
    return len(next(_block_edges(g))) == g.m
