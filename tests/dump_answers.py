"""Print the exact solver's answers, one line per graph, for digests.

    PYTHONPATH=src python tests/dump_answers.py | sha1sum

One line per MOP of order 4..12 (keyed by its graph6 cache key, solved
from k = D) and one per instance of perfbench's solve-hard workload, under
its node budget.  A line gives chi' (or the budget interval) and every
palette round as k:nodes:outcome.  Round seconds are left out, so two
runs of the same tree print the same bytes, and two trees can be compared
round by round.
"""

from __future__ import annotations

from pathlib import Path

from starchrome.errors import BudgetExhausted
from starchrome.graph6 import graph6_decode
from starchrome.outerplanar import enumerate_mops
from starchrome.solver import Budget, exact_chi_star

SOLVE_HARD = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "solve-hard.txt"


def _rounds(rounds) -> str:
    return " ".join(f"{r.k}:{r.nodes}:{r.outcome}" for r in rounds)


def main() -> None:
    catalog = None
    for n in range(4, 13):
        catalog = enumerate_mops(n, catalog)
        for key in catalog.members:
            result = exact_chi_star(graph6_decode(key))
            print(f"mop {key} chi={result.chi} {_rounds(result.rounds)}")
    for line in SOLVE_HARD.read_text().splitlines():
        if line.startswith("#"):
            continue
        name, key, _, nodes = line.split()
        budget = Budget() if nodes == "-" else Budget(int(nodes), 1e9)
        try:
            result = exact_chi_star(graph6_decode(key), budget)
        except BudgetExhausted as exc:
            print(f"{name} {key} chi=[{exc.lower_bound},{exc.upper_bound}] {_rounds(exc.rounds)}")
        else:
            print(f"{name} {key} chi={result.chi} {_rounds(result.rounds)}")


if __name__ == "__main__":
    main()
