"""The workloads: inputs made from the seed, the timed pass, and the checks.

A workload object has

- ``setup(seed, tmp, pace)``: everything before the first timed call
  (decoding the inputs, choosing the sweep cache file in a fresh temp dir);
- ``run(state, tracer, pace)``: one pass, returning ``(answers, latencies,
  marks)``: per verdict one answer, one latency in seconds as timed, and the
  pace segment it was timed in.  It ticks the pace (pace.py) between
  verdicts, outside their timers;
- ``check(seed, answers, brute_force)``: the errors in one pass's answers, an
  empty list when every answer is right;
- ``decided(answers)``: how many answers are final verdicts;
- ``nodes(answers)``: the solver nodes the pass's answers report;
- ``repeats_cold``: whether a warm pass does the cold pass's work again, as
  when the program keeps nothing between passes.  Then every pass of a run
  is a sample of each verdict's time and of the pass time.

``setup`` and ``run`` execute in the unit process (see unit.py) and reach the
program only through module attributes looked up at call time, so the trace
wrappers of spans.py see every call.  ``check`` runs in the parent process.

The inputs are made by this file alone (its own graph6 coder and generator),
so no change to the program can shift them.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections import Counter
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# OEIS A000207: triangulations of the n-gon up to rotation and reflection.
A000207 = {4: 1, 5: 1, 6: 3, 7: 4, 8: 12, 9: 27, 10: 82, 11: 228, 12: 733}
BRUTE_FORCE_EDGES = 9


# --- graph6 and an isomorphism invariant, independent of the program -------

def g6_encode(n: int, edges) -> str:
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in edge_set else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2))
        for k in range(0, len(bits), 6)
    ]
    return chr(63 + n) + "".join(body)


def g6_decode(text: str) -> tuple[int, list[tuple[int, int]]]:
    n = ord(text[0]) - 63
    bits = [(ord(ch) - 63) >> s & 1 for ch in text[1:] for s in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [p for p, b in zip(pairs, bits) if b]


def invariant(text: str) -> str:
    """Colour-refinement histogram of a graph6 graph, hashed.

    Equal for isomorphic graphs whatever their labels, so the reference
    tables stay valid when the program changes its canonical form.
    """
    n, edges = g6_decode(text)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    colors = [len(ns) for ns in nbrs]
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in nbrs[v]))) for v in range(n)]
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        refined = [ranks[s] for s in sigs]
        if len(ranks) == len(set(colors)):
            break
        colors = refined
    text_form = repr((n, len(edges), sorted(sigs)))
    return hashlib.sha1(text_form.encode()).hexdigest()[:16]


# --- sweep-mop ---------------------------------------------------------------

class SweepMop:
    """``run_sweep(n_max=12)`` into a fresh cache file; answers are the records."""

    name = "sweep-mop"
    repeats_cold = False
    n_max = 12
    reference = DATA / "sweep-mop.txt"

    def setup(self, seed: int, tmp: Path, pace) -> dict:
        from starchrome import sweep

        rooted: dict[int, int] = {}
        marks: dict[str, int] = {}
        enumerate_mops, solve_record = sweep.enumerate_mops, sweep.solve_record

        def recording(n, *args, **kwargs):
            pace.tick()
            catalog = enumerate_mops(n, *args, **kwargs)
            rooted[n] = catalog.rooted_count
            return catalog

        def paced(key, *args, **kwargs):
            # Before the record's own timer starts; a program that stops
            # calling solve_record here leaves the pace to the pass's ends.
            pace.tick()
            marks[key] = pace.mark()
            return solve_record(key, *args, **kwargs)

        # Rooted counts live only in the catalogs; keep them for the check.
        sweep.enumerate_mops = recording
        sweep.solve_record = paced
        return {"cache": tmp / "sweep-cache.jsonl", "rooted": rooted, "marks": marks}

    def run(self, state: dict, tracer, pace) -> tuple[list, list[float], list[int]]:
        from starchrome import sweep

        state["marks"].clear()
        summary = sweep.run_sweep(self.n_max, sweep.ResultCache(state["cache"]))
        end = pace.mark()
        records = [
            [r.graph6, r.n, r.m, r.chi_star, r.status, r.solver_nodes]
            for r in summary.records
        ]
        answers = {
            "records": records,
            "hard_failures": len(summary.hard_failures),
            "rooted": sorted(state["rooted"].items()),
        }
        marks = [state["marks"].get(r.graph6, end) for r in summary.records]
        return answers, [r.elapsed for r in summary.records], marks

    def decided(self, answers: dict) -> int:
        return sum(1 for a in answers["records"] if a[4] == "ok")

    def nodes(self, answers: dict) -> int:
        return sum(a[5] for a in answers["records"])

    def check(self, seed: int, answers: dict, brute_force) -> list[str]:
        records, hard = answers["records"], answers["hard_failures"]
        rooted = dict(answers["rooted"])
        errors = []
        if hard:
            errors.append(f"{hard} proven-bound violations")
        bad = [a[0] for a in records if a[4] != "ok"]
        if bad:
            errors.append(f"{len(bad)} records not ok, e.g. {bad[0]}")
        per_n = Counter(a[1] for a in records)
        if dict(per_n) != A000207:
            errors.append(f"member counts {dict(per_n)} != A000207 {A000207}")
        catalan = {n: math.comb(2 * n - 4, n - 2) // (n - 1) for n in A000207}
        if rooted != catalan:
            errors.append(f"rooted counts {rooted} != Catalan(n-2) {catalan}")
        got = sorted(f"{a[1]} {invariant(a[0])} {a[3]}" for a in records)
        want = sorted(self.reference.read_text().split("\n")[:-1])
        if got != want:
            diff = sorted(set(got) ^ set(want))
            errors.append(f"chi differs from {self.reference.name}, e.g. {diff[:2]}")
        for a in records:
            if a[2] <= BRUTE_FORCE_EDGES and a[3] != brute_force(a[0]):
                errors.append(f"{a[0]}: chi {a[3]} != brute force {brute_force(a[0])}")
        return errors


# --- solve-hard --------------------------------------------------------------

class SolveHard:
    """Exact solves of the stored instances, each witness then validated.

    The stored labels are used for every seed: search size depends on the
    labelling (h_prime delta=7 takes 1 589 023 nodes with ``build_family``'s
    labels and 34 399 to 282 496 under six random relabelings), so a
    relabelling seed would make runs of different seeds incomparable.
    """

    name = "solve-hard"
    repeats_cold = True

    def instances(self) -> list[tuple[str, str, int, int | None]]:
        rows = []
        for line in (DATA / "solve-hard.txt").read_text().splitlines():
            if line and not line.startswith("#"):
                name, text, chi, nodes = line.split()
                rows.append((name, text, int(chi), None if nodes == "-" else int(nodes)))
        return rows

    def setup(self, seed: int, tmp: Path, pace) -> dict:
        from starchrome import graph6, solver

        jobs = []
        for name, text, _chi, nodes in self.instances():
            # A node budget alone decides; the seconds budget never binds.
            budget = solver.Budget() if nodes is None else solver.Budget(nodes, 1e9)
            jobs.append((name, graph6.graph6_decode(text), budget))
        return {"jobs": jobs}

    def run(self, state: dict, tracer, pace) -> tuple[list, list[float], list[int]]:
        from starchrome import coloring, errors, solver

        answers, latencies, marks = [], [], []
        for name, g, budget in state["jobs"]:
            if tracer:
                tracer.input_id = name
            pace.tick()
            marks.append(pace.mark())
            started = time.perf_counter()
            try:
                result = solver.exact_chi_star(g, budget)
                bad = len(coloring.star_violations(result.witness))
                answer = ["chi", result.chi, result.witness.palette_size(), bad,
                          result.nodes_expanded]
            except errors.BudgetExhausted as exc:
                answer = ["budget", exc.lower_bound, exc.upper_bound, exc.nodes]
            latencies.append(time.perf_counter() - started)
            answers.append(answer)
        return answers, latencies, marks

    def decided(self, answers: list) -> int:
        return sum(1 for a in answers if a[0] == "chi")

    def nodes(self, answers: list) -> int:
        return sum(a[-1] for a in answers)

    def check(self, seed: int, answers: list, brute_force) -> list[str]:
        instances = self.instances()
        if len(answers) != len(instances):
            return [f"{len(answers)} answers for {len(instances)} instances"]
        errors = []
        for (name, _text, chi, _nodes), answer in zip(instances, answers):
            if answer[0] == "chi":
                _, got, palette, bad, _ = answer
                if (got, palette, bad) != (chi, chi, 0):
                    errors.append(f"{name}: chi {got}, palette {palette}, "
                                  f"{bad} violations; expected chi {chi}")
            elif not answer[1] <= chi <= answer[2]:
                errors.append(f"{name}: budget interval [{answer[1]}, {answer[2]}] "
                              f"misses chi {chi}")
        return errors


# --- recognize ---------------------------------------------------------------

RECOGNIZE_INPUTS = 200
RECOGNIZE_ORDERS = (9, 10, 11)
RECOGNIZE_SHAPES_SEED = 0


def _triangulation_chords(n: int, rng: random.Random) -> list[tuple[int, int]]:
    chords = []
    stack = [list(range(n))]
    while stack:
        poly = stack.pop()
        if len(poly) <= 3:
            continue
        k = rng.randrange(1, len(poly) - 1)  # apex of the triangle on poly[0]poly[-1]
        if k > 1:
            chords.append((poly[0], poly[k]))
            stack.append(poly[: k + 1])
        if k < len(poly) - 2:
            chords.append((poly[k], poly[-1]))
            stack.append(poly[k:])
    return chords


def _cross(c: tuple[int, int], d: tuple[int, int]) -> bool:
    (a, b), (x, y) = sorted(c), sorted(d)
    return a < x < b < y or x < a < y < b


def recognize_inputs(seed: int) -> list[tuple[str, bool]]:
    """(graph6, outerplanar) pairs: dissections of a polygon plus one chord.

    Input i has order 9, 10 or 11 in turn, alternates the label every three
    inputs, and drops 1 .. n-4 chords in turn within its (order, label)
    class.  The added chord crosses a kept chord (a K4 minor: not
    outerplanar) or crosses none (outerplanar).

    The dissections and chords come from a fixed generator seed and only the
    vertex labels from ``seed``.  The minor search on an outerplanar input
    is exhaustive over label-free memo keys, so its cost hardly depends on
    the labels, while the shapes move the per-input latency quantiles by
    up to a factor of two between generator seeds.
    """
    shapes = random.Random(RECOGNIZE_SHAPES_SEED)
    labels = random.Random(seed)
    out = []
    for i in range(RECOGNIZE_INPUTS):
        n = RECOGNIZE_ORDERS[i % len(RECOGNIZE_ORDERS)]
        outer = (i // len(RECOGNIZE_ORDERS)) % 2 == 1
        removed = 1 + (i // (2 * len(RECOGNIZE_ORDERS))) % (n - 4)
        chords = _triangulation_chords(n, shapes)
        shapes.shuffle(chords)
        kept = chords[removed:]
        present = {(min(u, v), max(u, v)) for u, v in kept}
        present |= {(j, j + 1) for j in range(n - 1)} | {(0, n - 1)}
        candidates = [
            (x, y)
            for x in range(n)
            for y in range(x + 2, n)
            if (x, y) not in present
            and any(_cross((x, y), c) for c in kept) != outer
        ]
        added = shapes.choice(candidates)
        perm = list(range(n))
        labels.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in present | {added}]
        out.append((g6_encode(n, edges), outer))
    return out


class Recognize:
    """``classify`` with no hint on seeded graphs of known outerplanarity."""

    name = "recognize"
    repeats_cold = False

    def setup(self, seed: int, tmp: Path, pace) -> dict:
        from starchrome import graph6

        return {"graphs": [graph6.graph6_decode(t) for t, _ in recognize_inputs(seed)]}

    def run(self, state: dict, tracer, pace) -> tuple[list, list[float], list[int]]:
        from starchrome import outerplanar

        answers, latencies, marks = [], [], []
        for i, g in enumerate(state["graphs"]):
            if tracer:
                tracer.input_id = str(i)
            pace.tick()
            marks.append(pace.mark())
            started = time.perf_counter()
            c = outerplanar.classify(g)
            latencies.append(time.perf_counter() - started)
            answers.append([c.outerplanar, c.maximal, c.two_connected])
        return answers, latencies, marks

    def decided(self, answers: list) -> int:
        return len(answers)

    def nodes(self, answers: list) -> int:
        return 0

    def check(self, seed: int, answers: list, brute_force) -> list[str]:
        inputs = recognize_inputs(seed)
        if len(answers) != len(inputs):
            return [f"{len(answers)} answers for {len(inputs)} inputs"]
        errors = []
        for (text, outer), answer in zip(inputs, answers):
            n, edges = g6_decode(text)
            want = [outer, outer and len(edges) == 2 * n - 3, True]
            if answer != want:
                errors.append(f"{text}: classify gave {answer}, expected {want}")
        return errors


WORKLOADS = {w.name: w for w in (SweepMop(), SolveHard(), Recognize())}
