"""Exact star chromatic index by iterative-deepening depth-first search.

Palette size k ascends from the maximum degree, or from a larger proven
lower bound the caller passes, so the first feasible k is exact by
construction.  Within a palette, edges are assigned depth-first in a
static fail-first order: each next edge is one that meets the most edges
placed before it, the lowest ranked in the BFS from a maximum-degree
vertex among those (maximum-cardinality search, Tarjan and Yannakakis
1984, on the line graph).  A fresh color id may only be introduced as
max-used+1.  Partial colorings stay proper.  The search is one loop over
its own stack, one entry per colored slot, so the graph's size sets no
Python recursion limit.

No palette below the common-neighbour bound is searched.  Let u != v
share t >= 1 neighbours, and take a star k-edge-coloring.  For a common
neighbour w let a = c(uw) and b = c(vw).  If u has a b-edge ux and v an
a-edge vy, then x-u-w-v-y is colored b,a,b,a; properness gives x not in
{v, w} and y not in {u, w}, so it is a path, or a 4-cycle when x = y,
and the coloring is not star.  So for each w, c(vw) is missing at u or
c(uw) is missing at v.  Both maps w -> c(vw) and w -> c(uw) are
injective, hence t <= (k - d(u)) + (k - d(v)) and k >= ceil((d(u) + d(v)
+ t) / 2).  B is the largest such bound over all pairs
(common_neighbour_bound); two vertices of degree k with a common
neighbour (t = 1) are the two-hub case.  An outerplanar graph has no
K_{2,3}, so there t <= 2 and B <= D + 1.  A solve finds B on its first
round, and every round k < B ends at 0 nodes with the outcome "bound".
That is the k=D round of every hub-and-fan family instance; the search
alone spends 39.5 M nodes (49 s) refuting h2 delta=12 at k=12.

The order is fixed, so at depth i exactly the slots before i are colored.
Colors are bits: each vertex x keeps the mask of the colors at it and a
stack col[x] of (other end, color bit), one entry per colored edge at x.
A placement pushes onto the stacks of both its ends and an undo pops
both, so the stacks hold exactly the colored edges only because every
search here, the dive too, backtracks chronologically: it undoes the
last placement first.  On entering slot p-q the search takes the colors
free at both ends as one mask, then one bad-color mask: the free colors a
that would close an alternating a,b,a,b walk of four edges through p-q.
For each colored edge q-w of color b (and the same with p and q swapped),
every color at w is bad if p has a b-edge, and otherwise a free color a
at w is bad when w's a-neighbor has a b-edge.  Each free color tried
counts as a node, and the bad ones are pruned without descending.

A palette round (_Search.round) runs two searches.  The first-fit search
tries the free colors lowest first.  Once the round has spent
RESTART_NODES nodes, a second search starts in the degree order, where an
edge scores its placed-neighbour count plus the degree sum at its two
ends (the edges at the hubs first, after Brelaz 1979), and tries the
highest free color first: the fresh one while k allows, then the used
ones from the last opened down.  First fit goes on where it stopped.
From then on the two take turns at each checkpoint where the budget is
tested, every multiple of CHECKPOINT_NODES = 4096 nodes, and the round
ends when either ends: a witness, or a refutation, which holds in any
order (an algorithm portfolio, Gomes and Selman 2001).  Each search is a
generator that runs to the node count it is sent, and feasible alone
handles the budget and the turns, so the per-node loop tests one counter.

A round that passes CHECKPOINT_NODES nodes runs one dive at its first
checkpoint at least that far in (_Search._dive): a least-domain descent
after Brelaz 1979, whose legal colors are the open ones free at both ends
and not bad, so the star check steers which edge goes next.  It takes
the edge of fewest legal colors, tries the highest color first as the
degree order does, backtracks chronologically and gives up after 2m
placements, each a node.  A witness ends the round; a dive that gives up
refutes nothing, and the two searches go on where they stopped.  It
ends the witness rounds of h2 delta=8..30 at their first checkpoint, in
at most 4 212 nodes, where the searches took 16 456 nodes at delta=8,
41 298 at delta=9 and more than 20 M at delta=13..15.  Rescoring the
frontier at each step costs up to O(m) per placement on a graph with a
hub, against O(D) per node of the searches.

A refuted round below 4096 nodes costs its first-fit count A, as before,
and one below the cutoff A plus at most 2m dive nodes; a longer one at
most R + 2*min(A - R, C) + 4096 plus the dive's, where R is the cutoff
and C the degree order's own count.  The hub-and-fan families gain
most: the search alone refutes h2 delta=9's k=9 in 68 388 nodes
(1 729 449 first fit alone), and h_case1 delta=8's k=9 witness takes
43 085 (first fit and one top-down restart took 61 M).  Where the degree
order is no better a round costs up to about twice as much: g_delta
delta=8's k=9 refutation takes 1 161 402 nodes (42 of them the dive's),
against 587 920 first fit alone.  No sweep round to n=12 reaches the
cutoff (the largest takes 9 756 nodes), so the sweep runs as first fit
alone, plus a dive in the rounds past 4096 nodes.  The degree order is
built only when a round reaches the cutoff.

The greedy upper bound is the same search over the BFS order with
shuffled roots and neighbors, with every color open: its first descent
is first fit, and it never backtracks, because the color above the
largest in use is free and never bad.  It never starts a second search:
its descent can pass RESTART_NODES (24 999 nodes on a 20 000-vertex
path), and top-down it would give every slot a fresh color.

The search ends a round: a witness, a refutation or a budget hit, and
only a hit draws greedy orders: seeds 0 .. GREEDY_SEEDS-1 until the
seconds budget is spent, seed 0 always, the first best coloring kept.
_Search.round is the one place where a palette round ends, for both
public solvers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .coloring import EdgeColoring, star_violations
from .errors import BudgetExhausted, OutOfRange, TooLarge
from .graph import Graph

GREEDY_SEEDS = 64  # greedy orders a budget hit draws
RESTART_NODES = 16_384  # nodes a palette round spends first fit before the second search starts
CHECKPOINT_NODES = 4096  # budget tests and turns fall on its multiples; a round dives once past it


@dataclass(frozen=True)
class Budget:
    max_nodes: int = 100_000_000
    max_seconds: float = 300.0

    def __post_init__(self):
        if not (self.max_nodes >= 1 and self.max_seconds > 0):
            raise OutOfRange(f"a budget needs max_nodes >= 1 and max_seconds > 0, "
                             f"got {self.max_nodes} and {self.max_seconds}")


@dataclass(frozen=True)
class Round:
    k: int
    nodes: int
    seconds: float
    second: int  # nodes the degree-order search spent, 0 if the round ended before it
    dive: int  # nodes the dive spent, 0 if the round ended before it
    # "bound" (below the common-neighbour bound, not searched), "refuted",
    # "feasible", "budget" or "greedy" (a hit settled by a greedy order)
    outcome: str


@dataclass(frozen=True)
class SolveResult:
    chi: int
    witness: EdgeColoring
    nodes_expanded: int
    elapsed: float
    rounds: tuple[Round, ...] = ()


def bfs_edge_order(g: Graph, starts: Iterable[int], nbrs: Sequence[Sequence[int]]) -> list[int]:
    """Edge ids ordered so every prefix is connected where possible.

    BFS roots are taken from ``starts`` in turn, skipping vertices already
    reached, and ``nbrs[v]`` is scanned in the order given.  An edge ranks
    by the BFS positions of its endpoints, later endpoint first.
    """
    pos = [-1] * g.n
    counter = 0
    for start in starts:
        if pos[start] >= 0:
            continue
        pos[start] = counter
        counter += 1
        queue = [start]
        for v in queue:
            for w in nbrs[v]:
                if pos[w] < 0:
                    pos[w] = counter
                    counter += 1
                    queue.append(w)
    # (later position, earlier position) as one integer, a cheaper sort key
    n, keys = g.n, []
    for u, v in g.edges:
        pu, pv = pos[u], pos[v]
        keys.append(pu * n + pv if pu > pv else pv * n + pu)
    return sorted(range(g.m), key=keys.__getitem__)


def common_neighbour_bound(g: Graph, above: int = 0) -> tuple[int, tuple[int, int, int] | None]:
    """The common-neighbour lower bound B on the star chromatic index and
    its certificate (u, v, t): the largest ceil((d(u) + d(v) + t) / 2) over
    vertex pairs u < v with t >= 1 common neighbours, the first such pair
    in (u, v) order.  (0, None) if no two vertices share a neighbour.

    Only the pairs that could beat ``above`` are looked at (t is at most
    the smaller degree), so B is exact whenever it exceeds ``above``.
    """
    degs = g.degrees()
    top = max(degs, default=0)
    kept = [u for u, d in enumerate(degs) if 2 * d + top > 2 * above]
    nbrs = g.neighbors()
    near = [0] * g.n  # the kept neighbours of each vertex, as a mask
    own = [0] * g.n  # each kept vertex's neighbours, as a mask
    for u in kept:
        bit = 1 << u
        for w in nbrs[u]:
            near[w] |= bit
            own[u] |= 1 << w
    best, certificate = 0, None
    for u in kept:
        reach = 0  # the kept vertices above u that share a neighbour with it
        for w in nbrs[u]:
            reach |= near[w]
        reach >>= u + 1
        v, du, mine = u, degs[u], own[u]
        while reach:
            step = (reach & -reach).bit_length()
            v += step
            reach >>= step
            t = (mine & own[v]).bit_count()
            bound = (du + degs[v] + t + 1) // 2
            if bound > best:
                best, certificate = bound, (u, v, t)
    return best, certificate


def _bad_colors(p: int, q: int, col, vmask, free: int) -> int:
    """Bitmask of the colors in ``free`` that would make the edge p-q close
    a bichromatic path or cycle of four edges.

    Exact on the colors of ``free``, which must be free at both p and q,
    and it marks no other color.  ``col[x]`` holds an (other end, color
    bit) pair for each colored edge at x, and ``vmask[x]`` the bits of
    those colors; the searches keep both exact by backtracking
    chronologically.  The scan stops once every free color is bad.  The
    two halves are written out, as a loop over (p, q), (q, p) is slower.
    """
    left = free  # the free colors not yet found bad
    for w, b in col[p]:
        if vmask[q] & b:
            # q's b-edge cannot end at w, which has one to p already, so
            # it starts a walk b,a,b,a through q-p-w and any a-edge at w
            left &= ~vmask[w]
        elif vmask[w] & left:
            # q-p-w-x-y is a,b,a,b when w's a-neighbor x has a b-edge
            for x, a in col[w]:
                if a & left and vmask[x] & b:
                    left ^= a
        if not left:
            return free
    for w, b in col[q]:
        if vmask[p] & b:
            left &= ~vmask[w]
        elif vmask[w] & left:
            for x, a in col[w]:
                if a & left and vmask[x] & b:
                    left ^= a
        if not left:
            return free
    return free ^ left


def _max_degree_bfs(g: Graph) -> list[int]:
    """Edge ids in the BFS order from the maximum-degree vertices, each
    adjacency list ascending: the ranks that break the slot orders' ties."""
    degs = g.degrees()
    starts = sorted(range(g.n), key=lambda v: (-degs[v], v))
    return bfs_edge_order(g, starts, g.neighbors())


def _slot_order(g: Graph, weight: list[int]) -> tuple[list, list]:
    """A slot order over g's edges, as the pair (order, edges) that _Search
    describes.

    Each next slot is, among the unplaced edges that meet a placed one,
    the one of the highest score: its ``weight`` (indexed by edge id) plus
    the number of placed edges it meets.  Ties, and the first edge of each
    component, go to the lowest rank in _max_degree_bfs.
    """
    m = g.m
    ranked = _max_degree_bfs(g)
    ends = [g.edges[e] for e in ranked]
    inc: list[list[int]] = [[] for _ in range(g.n)]  # ranks of the edges at x
    for r, (u, v) in enumerate(ends):
        inc[u].append(r)
        inc[v].append(r)
    # Unplaced edges that meet a placed one, by rank r, each with the value
    # score*m - r: the largest value is the next slot, and r is -value % m.
    frontier: dict[int, int] = {}
    value_of = frontier.get
    # each rank's value while it meets no placed edge
    base = [weight[e] * m - r for r, e in enumerate(ranked)]
    placed = [False] * m
    first = 0  # no rank below it is unplaced
    order, edges = [], []
    for _ in range(m):
        if frontier:
            r = -max(frontier.values()) % m
            del frontier[r]
        else:
            while placed[first]:
                first += 1
            r = first
        placed[r] = True
        u, v = uv = ends[r]
        order.append(ranked[r])
        edges.append(uv)
        for f in inc[u]:
            if not placed[f]:
                frontier[f] = value_of(f, base[f]) + m
        for f in inc[v]:
            if not placed[f]:
                frontier[f] = value_of(f, base[f]) + m
    return order, edges


class _Search:
    """Palette-feasibility rounds over a fixed edge order, by default the
    fail-first order, joined past the cutoff by a search in the degree
    order.  ``order[i]`` is slot i's edge id and ``edges[i]`` its
    endpoints; a given ``order`` is taken as it is.

    The fail-first order takes next the unplaced edge that meets the most
    placed edges; ties, and the first edge of each component, go to the
    lowest BFS rank: the rank in the BFS from the maximum-degree vertices.
    The degree order, the second search's, adds to that count the degree
    sum at the edge's ends.

    The searches and the dive read the colored edges at a vertex x from
    ``col[x]``, a stack of (other end, color bit) that a placement pushes
    onto at both ends and an undo pops.  Each backtracks chronologically,
    so the stacks hold exactly the colored edges.
    """

    def __init__(self, g: Graph, budget: Budget, order: list[int] | None = None):
        self.g = g
        self.budget = budget
        self.nodes = 0
        self.second = 0  # nodes the degree-order search spent in the last round
        self.dive = 0  # nodes the dive spent in the last round
        self.rounds: list[Round] = []
        self.started = time.monotonic()
        self.hit = False  # set by a budget hit in feasible, which ends the solve
        self.bound: int | None = None  # the common-neighbour bound, set by the first round
        if order is None:
            self.order, self.edges = _slot_order(g, [0] * g.m)
        else:
            self.order, self.edges = order, [g.edges[e] for e in order]
        self._degree_order: tuple[list, list] | None = None

    def degree_order(self) -> tuple[list, list]:
        """The degree order's (order, edges), built on first use."""
        if self._degree_order is None:
            degs = self.g.degrees()
            self._degree_order = _slot_order(self.g, [degs[u] + degs[v] for u, v in self.g.edges])
        return self._degree_order

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def round(self, k: int, lower: int) -> EdgeColoring | None:
        """Palette round k, appended to ``rounds``: a coloring with at most
        k colors, or None if k is refuted.  ``lower`` is a proven lower
        bound.  A k below the common-neighbour bound B, computed on the
        first round, is refuted at 0 nodes.  A budget hit that the best
        greedy coloring does not settle raises BudgetExhausted with
        [max(lower, B), best palette]."""
        nodes, started = self.nodes, time.monotonic()
        if self.bound is None:
            self.bound = common_neighbour_bound(self.g, min(k, lower))[0]
        if k < self.bound:
            self.rounds.append(Round(k, 0, time.monotonic() - started, 0, 0, "bound"))
            return None
        self.second = self.dive = 0
        witness = self.feasible(k, RESTART_NODES, dive=True)
        outcome = ("refuted" if witness is None else "budget" if witness.palette_size() > k
                   else "greedy" if self.hit else "feasible")
        self.rounds.append(Round(k, self.nodes - nodes, time.monotonic() - started, self.second,
                                 self.dive, outcome))
        if outcome == "budget":
            upper = witness.palette_size()
            raise BudgetExhausted(max(lower, self.bound), upper, self.nodes, self.elapsed(),
                                  tuple(self.rounds))
        return witness

    def feasible(self, k: int, second_after: int | None = None,
                 dive: bool = False) -> EdgeColoring | None:
        """A coloring using at most k colors, or None if there is none; on a
        budget hit, the first best of the greedy colorings drawn.

        The first-fit search runs alone until, given ``second_after``, it
        has spent that many nodes.  There the degree-order search starts,
        highest color first, and the two take turns, one per stretch up to
        the next checkpoint, until either ends; ``second`` counts the
        degree-order search's nodes.  The checkpoints are where the budget
        is tested: every multiple of CHECKPOINT_NODES, the start of the
        second search and the node budget.  Given ``dive``, the first
        checkpoint at least CHECKPOINT_NODES into the call runs _dive
        once, before the budget test, and the attribute ``dive`` counts
        its nodes.

        A hit draws greedy orders, seeds 0 .. GREEDY_SEEDS-1, until the
        seconds budget is spent; seed 0 is always drawn.
        """
        budget_nodes = self.budget.max_nodes
        budget_secs = self.budget.max_seconds
        second_at = budget_nodes if second_after is None else self.nodes + second_after
        dive_at = self.nodes + CHECKPOINT_NODES if dive else None
        searches = [self._descend(k, (self.order, self.edges), False)]
        next(searches[0])
        turn = 0
        while True:
            nodes = self.nodes
            checkpoint = nodes - nodes % CHECKPOINT_NODES + CHECKPOINT_NODES
            try:
                searches[turn].send(min(budget_nodes, checkpoint, second_at))
            except StopIteration as end:
                return end.value
            finally:
                if turn:
                    self.second += self.nodes - nodes
            nodes = self.nodes
            if dive_at is not None and nodes >= dive_at:
                dive_at = None
                witness = self._dive(k)
                self.dive = self.nodes - nodes
                if witness is not None:
                    return witness
                nodes = self.nodes
            if nodes >= budget_nodes or self.elapsed() > budget_secs:
                self.hit = True
                best = greedy_star_upper(self.g, 0)
                for seed in range(1, GREEDY_SEEDS):
                    if self.elapsed() > budget_secs:
                        break
                    best = min(best, greedy_star_upper(self.g, seed), key=EdgeColoring.palette_size)
                return best
            if nodes >= second_at:
                second_at = budget_nodes
                searches.append(self._descend(k, self.degree_order(), True))
                next(searches[1])
            if len(searches) == 2:
                turn ^= 1

    def _dive(self, k: int) -> EdgeColoring | None:
        """A k-coloring found by a least-domain descent of at most 2m
        placements, or None; None refutes nothing.

        Each step colors the uncolored edge with the fewest legal colors:
        open, free at both ends and not bad.  Ties go to the larger count
        of distinct colors at its ends plus its degree sum, then to the
        lower rank in the BFS from the maximum-degree vertices.  Only edges
        that meet a colored one are scored; with none, the lowest-ranked
        uncolored edge is next.  Colors are tried highest first, the fresh
        one while k allows, and a step with no legal color undoes the last
        placement.  Each placement is a node, within the node and seconds
        budgets.

        ``bad[f]`` caches the bad colors _bad_colors last found for the
        uncolored edge f, exact on f's free colors.  A placement of c on
        x-y changes them only for these f, which are recomputed, and the
        trail restores them on undo:

        - f at x or y, unless c is fresh: a bichromatic walk of four edges
          has two edges of each color, so one through x-y needs another
          c-edge;
        - f at the far end w of a colored edge g = x-w, if the far end of
          f, or y, has g's color: f in color c would close a walk f, g, x-y;
        - f at the far end of w's c-edge, which with g and x-y would close
          a walk in g's color;

        and the same with x and y swapped.
        """
        g = self.g
        m, ends, degs = g.m, g.edges, g.degrees()
        ranked = _max_degree_bfs(g)
        rank = [0] * m
        for r, e in enumerate(ranked):
            rank[e] = r
        inc: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]  # (edge, other end) at x
        for e, (u, v) in enumerate(ends):
            inc[u].append((e, v))
            inc[v].append((e, u))
        weight = [degs[u] + degs[v] for u, v in ends]
        bits, bad = [0] * m, [0] * m
        vmask = [0] * g.n
        col: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]  # as in _Search
        frontier: set[int] = set()  # the uncolored edges that meet a colored one
        palette = (2 << k) - 2
        used = first = 0  # the colors used, always 1..t; no rank below first is uncolored
        stack: list[tuple[int, int, int, int]] = []  # (edge, colors left, used, trail length)
        trail: list[tuple[int, int]] = []  # (edge, its bad mask before a recompute)

        def recompute(f: int) -> None:
            u, v = ends[f]
            free = used & ~(vmask[u] | vmask[v])
            if free:
                found = _bad_colors(u, v, col, vmask, free)
                if (found ^ bad[f]) & free:
                    trail.append((f, bad[f]))
                    bad[f] = found

        nodes = self.nodes
        stop = min(self.budget.max_nodes, nodes + 2 * m)
        while True:
            opened = (used | used + 2) & palette  # used plus the fresh color
            if frontier:
                best = None
                for f in frontier:
                    u, v = ends[f]
                    here = vmask[u] | vmask[v]
                    key = (-(opened & ~(here | bad[f])).bit_count(), here.bit_count() + weight[f],
                           -rank[f])
                    if best is None or key > best:
                        best, e = key, f
            else:
                while bits[ranked[first]]:
                    first += 1
                e = ranked[first]
            x, y = ends[e]
            legal = opened & ~(vmask[x] | vmask[y] | bad[e])
            while not legal:  # undo the last placement
                if not stack:
                    self.nodes = nodes
                    return None
                e, legal, used, mark = stack.pop()
                x, y = ends[e]
                bit, bits[e] = bits[e], 0
                vmask[x] ^= bit
                vmask[y] ^= bit
                col[x].pop()
                col[y].pop()
                for end in x, y:
                    if not vmask[end]:  # its edges leave the frontier, bar those met elsewhere
                        frontier.difference_update(f for f, z in inc[end] if not vmask[z])
                if vmask[x] | vmask[y]:
                    frontier.add(e)
                first = min(first, rank[e])
                while len(trail) > mark:
                    f, mask = trail.pop()
                    bad[f] = mask
            if nodes >= stop or self.elapsed() > self.budget.max_seconds:
                self.nodes = nodes
                return None
            nodes += 1
            bit = 1 << legal.bit_length() - 1
            stack.append((e, legal ^ bit, used, len(trail)))
            fresh = not used & bit
            used |= bit
            bits[e] = bit
            vmask[x] |= bit
            vmask[y] |= bit
            col[x].append((y, bit))
            col[y].append((x, bit))
            frontier.discard(e)
            for end in x, y:
                if vmask[end] == bit:  # its first color: its edges join the frontier
                    frontier.update(f for f, _ in inc[end] if not bits[f])
            if len(stack) == m:
                break
            for end, far in ((x, y), (y, x)):
                if not fresh:
                    for f, _ in inc[end]:
                        if not bits[f]:
                            recompute(f)
                for w, b in col[end]:  # each other colored edge end-w, of color b
                    if b == bit:
                        continue
                    far_has_b = vmask[far] & b
                    for f, z in inc[w]:
                        if not bits[f] and (far_has_b or vmask[z] & b):
                            recompute(f)
                    if vmask[w] & bit:
                        for f, _ in inc[next(z for z, c in col[w] if c == bit)]:
                            if not bits[f]:
                                recompute(f)
        self.nodes = nodes
        return EdgeColoring(g, tuple(b.bit_length() - 1 for b in bits))

    def _descend(self, k: int, slots: tuple[list, list], top_down: bool):
        """One depth-first search for a k-coloring over the slot order
        ``slots``, as a generator.  Each value sent to it is a node count:
        it searches until ``nodes`` reaches it, then yields.  It returns the
        coloring, or None once k is refuted.

        First fit tries the free colors lowest first.  Top-down stores
        color c as bit k+1-c, so the lowest bit first is the highest color
        first: the fresh one while k allows, then the used ones from the
        last opened down.
        """
        order, edges = slots
        m = len(edges)
        vmask = [0] * self.g.n
        col: list[list[tuple[int, int]]] = [[] for _ in range(self.g.n)]  # as in _Search
        palette = (2 << k) - 2
        # per colored slot: its color bit, the colors it has left to try, its
        # bad mask and opened, the colors used so far plus the next fresh one
        stack: list[tuple[int, int, int, int]] = []
        i, opened, free = 0, (1 << k if top_down else 2) & palette, None
        stop = yield
        nodes = self.nodes
        while True:
            if not free:
                if free is None:  # entering slot i
                    if i == m:
                        break
                    u, v = edges[i]
                    free = opened & ~(vmask[u] | vmask[v])
                    bad = _bad_colors(u, v, col, vmask, free) if free else 0
                    continue
                if not stack:  # slot 0 has no color left: k is refuted
                    self.nodes = nodes
                    return None
                i -= 1  # slot i has no color left: uncolor the one below
                u, v = edges[i]
                bit, free, bad, opened = stack.pop()
                vmask[u] ^= bit
                vmask[v] ^= bit
                col[u].pop()
                col[v].pop()
                continue
            bit = free & -free
            free ^= bit
            nodes += 1
            if nodes >= stop:
                self.nodes = nodes
                stop = yield
                nodes = self.nodes
            if bad & bit:
                continue
            vmask[u] |= bit
            vmask[v] |= bit
            col[u].append((v, bit))
            col[v].append((u, bit))
            stack.append((bit, free, bad, opened))
            # opened gains the bit next to the chosen one on the side away
            # from the used colors: above it first fit, below it top-down;
            # the bit on the other side is opened already or off the palette
            i, opened, free = i + 1, (opened | bit << 1 | bit >> 1) & palette, None
        self.nodes = nodes
        colors = [0] * m
        for e, (bit, *_) in zip(order, stack):
            c = bit.bit_length() - 1
            colors[e] = k + 1 - c if top_down else c
        return EdgeColoring(self.g, tuple(colors))


def greedy_star_upper(g: Graph, order_seed: int = 0) -> EdgeColoring:
    """First-fit coloring along a randomized BFS edge order; always validates.

    The palette it ends up using is an upper bound on the star chromatic
    index; the exact solver draws seeds 0 .. GREEDY_SEEDS-1 of it.  It is
    the search's first descent with all m colors open, which never backtracks.
    """
    rng = random.Random(order_seed)
    nbrs = [list(ns) for ns in g.neighbors()]
    for ns in nbrs:
        rng.shuffle(ns)
    starts = list(range(g.n))
    rng.shuffle(starts)
    # a slot tries at most m colors, so the descent never meets this
    # budget, whose hit would draw greedy orders in turn
    search = _Search(g, Budget(g.m * g.m + 1, float("inf")), bfs_edge_order(g, starts, nbrs))
    return search.feasible(g.m)


def star_palette_feasible(g: Graph, k: int, budget: Budget | None = None) -> EdgeColoring | None:
    """A star edge coloring of g with at most k colors, or None if impossible.

    Raises BudgetExhausted if the search cannot be completed in budget and
    no greedy order fits in k colors, with an interval that starts at
    max(D, 1, B), and OutOfRange if k is negative.
    """
    if k < 0:
        raise OutOfRange(f"palette size must be >= 0, got {k}")
    return _Search(g, budget or Budget()).round(k, max(g.max_degree(), 1))


def exact_chi_star(g: Graph, budget: Budget | None = None, lower: int = 0) -> SolveResult:
    """Least k admitting a star edge coloring, with a validating witness.

    ``lower`` must be a proven lower bound on the answer, such as the star
    chromatic index of a subgraph; the palettes below it are not tried.
    ``rounds`` holds one entry per palette tried; their nodes sum to
    ``nodes_expanded``.  The witness of a round ended by a greedy order
    is that greedy coloring.  A ``lower`` above the edge count raises
    OutOfRange: m colors always suffice, so no such bound can be proven.
    """
    if lower > g.m:
        raise OutOfRange(f"lower bound {lower} exceeds the {g.m} edges, which always suffice")
    search = _Search(g, budget or Budget())
    if g.m == 0:
        return SolveResult(0, EdgeColoring(g, ()), 0, search.elapsed())
    k = max(g.max_degree(), 1, lower)
    while k <= g.m:
        witness = search.round(k, k)
        if witness is not None:
            return SolveResult(k, witness, search.nodes, search.elapsed(), tuple(search.rounds))
        k += 1
    raise AssertionError("all-distinct coloring is always feasible")  # pragma: no cover


def brute_force_chi_star(g: Graph) -> int:
    """Oracle: exhaust canonical palette assignments, validate with the checker.

    Independent of the incremental solver: edges go in natural id order, a
    cheap properness test prunes, and full star validation runs at every
    leaf via star_violations.  Only meant for graphs with at most 9 edges.
    """
    if g.m > 9:
        raise TooLarge(f"brute force oracle supports |E| <= 9, got {g.m}")
    if g.m == 0:
        return 0
    m = g.m
    best = m  # all-distinct always works
    colors: dict[tuple[int, int], int] = {}
    at_vertex: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e in g.edges:
        at_vertex[e[0]].append(e)
        at_vertex[e[1]].append(e)

    def proper_here(e: tuple[int, int], c: int) -> bool:
        u, v = e
        for f in at_vertex[u]:
            if f != e and colors.get(f) == c:
                return False
        for f in at_vertex[v]:
            if f != e and colors.get(f) == c:
                return False
        return True

    def assign(i: int, used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if i == m:
            coloring = EdgeColoring.from_mapping(g, colors)
            if not star_violations(coloring):
                best = used
            return
        e = g.edges[i]
        for c in range(1, min(used + 1, best - 1) + 1):
            if proper_here(e, c):
                colors[e] = c
                assign(i + 1, max(used, c))
                del colors[e]

    assign(0, 0)
    return best
