"""Command-line interface.

Subcommands: solve, verify-figures, family-check, sweep, encode, decode.
Exit codes: 0 success, 1 input/parse/data/file errors or an output pipe closed
early, 2 solver budget exhausted (bounds printed), 3 sweep found a
proven-bound violation.  The families, the report harness and the sweep
are imported by the commands that use them, so ``solve --g6``, ``encode``
and ``decode`` load none of them.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from .errors import BudgetExhausted, MalformedText, StarchromeError
from .graph6 import graph6_decode, graph6_encode
from .graph import from_edges
from .solver import Budget, common_neighbour_bound, exact_chi_star

if TYPE_CHECKING:
    from .harness import ColoringReport


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(max_nodes=args.budget_nodes, max_seconds=args.budget_secs)


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget-nodes", type=int, default=Budget.max_nodes)
    parser.add_argument("--budget-secs", type=float, default=Budget.max_seconds)


def _input_graph(args: argparse.Namespace):
    flags = {name: getattr(args, name) for name in ("family", "n", "delta", "blocks")}
    given = {name: value for name, value in flags.items() if value is not None}
    if args.g6:
        if given:
            raise StarchromeError(f"--g6 takes no {', '.join('--' + name for name in given)}")
        return graph6_decode(args.g6)
    if args.family:
        from .families import build_family  # an unknown id fails there, naming the known ones

        return build_family(given.pop("family"), **given).graph
    raise StarchromeError("provide --g6 or --family")


def _print_rounds(rounds) -> None:
    for r in rounds:
        print(f"round k={r.k} nodes={r.nodes} seconds={r.seconds:.3f} second={r.second} "
              f"dive={r.dive} outcome={r.outcome}")
    ran = [r for r in rounds if r.second]
    if ran:  # the automorphisms the degree-order search checked
        print(f"symmetry maps={ran[0].maps}")


def _print_bound(g) -> None:
    """The common-neighbour bound's certificate, if it is above the maximum degree."""
    bound, certificate = common_neighbour_bound(g, g.max_degree())
    if bound > g.max_degree():
        u, v, t = certificate
        degs = g.degrees()
        print(f"bound: chi_star >= {bound}: vertices {u} and {v} (degrees {degs[u]}, {degs[v]}) "
              f"share {t} neighbour{'s' if t != 1 else ''}")


def cmd_solve(args: argparse.Namespace) -> int:
    g = _input_graph(args)
    try:
        result = exact_chi_star(g, _budget(args))
    except BudgetExhausted as exc:
        print(f"budget exhausted: chi_star in [{exc.lower_bound}, {exc.upper_bound}]")
        _print_bound(g)
        _print_rounds(exc.rounds)
        print(f"nodes={exc.nodes} elapsed={exc.elapsed:.2f}s")
        return 2
    print(f"chi_star = {result.chi}")
    for (u, v), color in result.witness.as_mapping().items():
        print(f"  {u}-{v}: {color}")
    _print_bound(g)
    _print_rounds(result.rounds)
    print(f"nodes={result.nodes_expanded} elapsed={result.elapsed:.3f}s")
    return 0


def _print_reports(reports: list[ColoringReport], out: str | None) -> None:
    """One line per report and, with ``out``, the reports as JSON lines."""
    for rep in reports:
        params = "".join(f" {k}={v}" for k, v in rep.params.items())
        extra = f" first_witness={rep.first_witness}" if rep.first_witness else ""
        if rep.chi_star is not None:
            extra += f" chi_star={rep.chi_star}"
        elif rep.chi_bounds is not None:
            extra += f" chi_star in {list(rep.chi_bounds)}"
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.source} {rep.family}{params}: "
              f"palette={rep.palette} claimed={rep.claimed_palette}{extra}")
    if out:
        with open(out, "w") as fh:
            fh.writelines(rep.to_json() + "\n" for rep in reports)


def cmd_verify_figures(args: argparse.Namespace) -> int:
    from .harness import verify_figures

    reports = verify_figures()
    _print_reports(reports, args.out)
    print(f"figures={len(reports)} findings={sum(not rep.passed for rep in reports)}")
    return 0


def _parse_range(text: str) -> list[int]:
    try:
        lo, hi = text.split("..", 1) if ".." in text else (text, text)
        if int(lo) <= int(hi):  # a range that runs backwards would check nothing
            return list(range(int(lo), int(hi) + 1))
    except ValueError:
        pass
    raise MalformedText(f"bad delta range {text!r}; expected 9 or 9..14")


def cmd_family_check(args: argparse.Namespace) -> int:
    from .harness import family_check

    family = args.family.lower().replace("-", "_")
    rows = family_check(family, _parse_range(args.range), exact=args.exact, budget=_budget(args))
    _print_reports(rows, args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import ResultCache, default_cache_path, run_sweep

    cache_path = args.cache or default_cache_path()
    try:
        cache = ResultCache(cache_path)
    except (OSError, ValueError) as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return 1
    if cache.torn_lines:
        print(f"cache: dropped {cache.torn_lines} torn last line", file=sys.stderr)
    summary = run_sweep(
        args.n_max,
        cache,
        budget=_budget(args),
        expand_subgraphs=args.expand_subgraphs,
    )
    if args.out:
        with open(args.out, "w") as fh:
            for rec in summary.records:
                fh.write(rec.to_json() + "\n")
    print(
        f"records={len(summary.records)} solved={summary.solved} "
        f"cached={summary.from_cache} budget_exhausted={summary.budget_exhausted}"
    )
    for key, msg in summary.findings:
        print(f"FINDING {key}: {msg}")
    for key, msg in summary.hard_failures:
        print(f"HARD FAILURE {key}: {msg}")
    print(f"hard_failures={len(summary.hard_failures)} findings={len(summary.findings)}")
    return 3 if summary.hard_failures else 0


def _parse_edges(text: str) -> list[tuple[int, int]]:
    if not text.strip():
        return []
    out = []
    for part in text.split(","):
        try:
            u, v = part.strip().split("-")
            out.append((int(u), int(v)))
        except ValueError:
            raise MalformedText(f"bad edge {part.strip()!r}; expected u-v") from None
    return out


def cmd_encode(args: argparse.Namespace) -> int:
    g = from_edges(args.n, _parse_edges(args.edges))
    print(graph6_encode(g))
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    g = graph6_decode(args.g6)
    edges = ",".join(f"{u}-{v}" for u, v in g.edges)
    print(f"n={g.n} edges={edges}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="starchrome")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact star chromatic index of one graph")
    p.add_argument("--g6")
    p.add_argument("--family", help="a family id such as h2; an unknown one lists them")
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--blocks", type=int)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify-figures", help="validate every cataloged figure coloring")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_figures)

    p = sub.add_parser("family-check", help="validate a family's closed-form coloring")
    p.add_argument("family", help="h_prime, h_case1 or h2 (spelling h-prime/H2 accepted)")
    p.add_argument("range", help="a delta or a range like 9..14")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--out")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_family_check)

    p = sub.add_parser("sweep", help="enumerate, solve and bound-check small MOPs")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--expand-subgraphs", action="store_true")
    p.add_argument("--cache")
    p.add_argument("--out")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("encode", help="edge list to graph6")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edges", default="", help='comma list like "0-1,1-2"')
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="graph6 to edge list")
    p.add_argument("--g6", required=True)
    p.set_defaults(func=cmd_decode)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # an OSError, so it goes first
        # the reader left early (| head): send what is left, and the flush
        # at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (StarchromeError, OSError) as exc:  # OSError: an --out or --cache file it cannot write
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
