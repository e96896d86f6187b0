"""Write the benchmark's stored inputs and reference answers under data/.

    python3 perfbench/make_data.py

The benchmark never runs this.  It was run once, at the commit that added
the benchmark, so that later changes to `build_family` or the sweep
cannot shift the inputs or the answers they are checked against.  The sweep
table holds ``n invariant chi`` per record (invariant from workloads.py), so
it does not depend on the program's canonical labelling.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from starchrome import ResultCache, build_family, graph6_encode, run_sweep  # noqa: E402
from workloads import DATA, invariant  # noqa: E402

# (family, delta, chi, node budget or None for the default budget).  The chi
# of the budgeted three is known from longer solves: h2 delta=8 in 16.9 M
# nodes, h_prime delta=8 and h2 delta=9 by refuting k=9 exhaustively.
SOLVE_HARD = [
    ("h_prime", 7, 9, None),
    ("h_case1", 7, 9, None),
    ("h2", 8, 9, 500_000),
    ("h_prime", 8, 10, 500_000),
    ("h2", 9, 10, 500_000),
]


def main() -> None:
    DATA.mkdir(exist_ok=True)
    lines = ["# name graph6 chi node-budget ('-': the default Budget())"]
    for family, delta, chi, nodes in SOLVE_HARD:
        g = build_family(family, delta=delta).graph
        lines.append(f"{family}-d{delta} {graph6_encode(g)} {chi} {nodes or '-'}")
    (DATA / "solve-hard.txt").write_text("\n".join(lines) + "\n")

    with tempfile.TemporaryDirectory() as tmp:
        summary = run_sweep(12, ResultCache(Path(tmp) / "cache.jsonl"))
    rows = sorted(f"{r.n} {invariant(r.graph6)} {r.chi_star}" for r in summary.records)
    (DATA / "sweep-mop.txt").write_text("\n".join(rows) + "\n")


if __name__ == "__main__":
    main()
