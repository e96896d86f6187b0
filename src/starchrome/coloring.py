"""Edge colorings and the star-condition validator.

A star edge coloring is a proper edge coloring with no path or cycle of
four edges that uses only two colors.  Longer bichromatic cycles always
contain a bichromatic 4-edge path, so checking 4-paths and 4-cycles is
exhaustive; the validator adopts that standard reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .errors import PartialColoring
from .graph import Graph


class ViolationKind(str, Enum):
    PROPER = "proper"
    STAR_PATH = "star-path"
    STAR_CYCLE = "star-cycle"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    edges: tuple[tuple[int, int], ...]
    colors: tuple[int, int]


@dataclass(frozen=True)
class EdgeColoring:
    graph: Graph
    colors: tuple[int, ...]  # indexed like graph.edges

    @staticmethod
    def from_mapping(graph: Graph, mapping: Mapping[tuple[int, int], int]) -> EdgeColoring:
        normalized = {}
        for (u, v), c in mapping.items():
            normalized[(u, v) if u < v else (v, u)] = c
        unknown = set(normalized) - graph.edge_set()
        if unknown:
            raise ValueError(f"colors given for non-edges, e.g. {sorted(unknown)[0]}")
        missing = [e for e in graph.edges if e not in normalized]
        if missing:
            raise PartialColoring(f"{len(missing)} uncolored edges, first {missing[0]}")
        return EdgeColoring(graph, tuple(normalized[e] for e in graph.edges))

    def as_mapping(self) -> dict[tuple[int, int], int]:
        return dict(zip(self.graph.edges, self.colors))

    def palette_size(self) -> int:
        return max(self.colors, default=0)

    def distinct_colors(self) -> int:
        return len(set(self.colors))


def _check_total(c: EdgeColoring) -> None:
    if len(c.colors) != c.graph.m:
        raise PartialColoring("coloring does not cover every edge")
    for color in c.colors:
        if color < 1:
            raise PartialColoring(f"color ids must be positive, got {color}")


def is_proper(c: EdgeColoring) -> bool:
    """True iff no two edges sharing a vertex have equal colors."""
    _check_total(c)
    seen: list[set[int]] = [set() for _ in range(c.graph.n)]
    for (u, v), color in zip(c.graph.edges, c.colors):
        if color in seen[u] or color in seen[v]:
            return False
        seen[u].add(color)
        seen[v].add(color)
    return True


def star_violations(c: EdgeColoring) -> list[Violation]:
    """Every proper-adjacency conflict and bichromatic 4-path/4-cycle.

    Walks are reported once, deduplicated up to traversal direction; the
    empty list certifies a star edge coloring.
    """
    _check_total(c)
    g = c.graph
    edge_ids = {e: i for i, e in enumerate(g.edges)}

    def eid(a: int, b: int) -> int:
        return edge_ids[(a, b) if a < b else (b, a)]

    violations: list[Violation] = []

    # proper conflicts
    at_vertex: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        at_vertex[u].append(i)
        at_vertex[v].append(i)
    for ids in at_vertex:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                if c.colors[ids[a]] == c.colors[ids[b]]:
                    col = c.colors[ids[a]]
                    violations.append(
                        Violation(
                            ViolationKind.PROPER,
                            (g.edges[ids[a]], g.edges[ids[b]]),
                            (col, col),
                        )
                    )

    # bichromatic 4-edge walks: colors alternate a,b,a,b
    nbrs = g.neighbors()
    seen_paths: set[tuple[int, ...]] = set()
    seen_cycles: set[frozenset[int]] = set()
    for x2 in range(g.n):
        for x3 in nbrs[x2]:
            b_color = c.colors[eid(x2, x3)]
            for x1 in nbrs[x2]:
                if x1 == x3:
                    continue
                a_color = c.colors[eid(x1, x2)]
                if a_color == b_color:
                    continue
                for x4 in nbrs[x3]:
                    if x4 == x2 or x4 == x1:
                        continue
                    if c.colors[eid(x3, x4)] != a_color:
                        continue
                    for x5 in nbrs[x4]:
                        if x5 == x3 or x5 == x2:
                            continue
                        if c.colors[eid(x4, x5)] != b_color:
                            continue
                        ids4 = (eid(x1, x2), eid(x2, x3), eid(x3, x4), eid(x4, x5))
                        walk = (g.edges[i] for i in ids4)
                        if x5 == x1:
                            key_c = frozenset(ids4)
                            if key_c not in seen_cycles:
                                seen_cycles.add(key_c)
                                violations.append(
                                    Violation(
                                        ViolationKind.STAR_CYCLE,
                                        tuple(walk),
                                        (a_color, b_color),
                                    )
                                )
                        else:
                            key_p = min(ids4, ids4[::-1])
                            if key_p not in seen_paths:
                                seen_paths.add(key_p)
                                violations.append(
                                    Violation(
                                        ViolationKind.STAR_PATH,
                                        tuple(walk),
                                        (a_color, b_color),
                                    )
                                )
    return violations


def is_star(c: EdgeColoring) -> bool:
    return not star_violations(c)
