"""What the package root loads: the core at import, everything else on first use."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import starchrome

# every public name the root gave before its lazy names, with its home module
EXPORTS = {
    "coloring": ["EdgeColoring", "Violation", "ViolationKind", "is_proper", "is_star",
                 "star_violations"],
    "errors": ["BadParams", "BudgetExhausted", "DuplicateEdge", "MalformedText", "OutOfRange",
               "PartialColoring", "PostconditionFailed", "SelfLoop", "StarchromeError", "TooLarge",
               "UnknownFigure"],
    "families": ["FAMILY_IDS", "FIGURES", "FamilyInstance", "build_family",
                 "delta5_strip_coloring", "figure_coloring", "formula_coloring"],
    "graph": ["INFINITE", "Graph", "diameter", "from_edges", "is_two_connected", "relabel"],
    "graph6": ["graph6_decode", "graph6_encode"],
    "harness": ["family_check", "verify_figures"],
    "outerplanar": ["Catalog", "Classification", "MopCatalog", "classify",
                    "enumerate_dissections", "enumerate_mops", "is_maximal_outerplanar",
                    "is_outerplanar", "polygon_key"],
    "solver": ["Budget", "SolveResult", "brute_force_chi_star", "exact_chi_star",
               "greedy_star_upper", "star_palette_feasible"],
    "sweep": ["ResultCache", "SweepRecord", "default_cache_path", "run_sweep"],
}
LAZY = ["concurrent.futures", "starchrome.families", "starchrome.harness", "starchrome.sweep",
        "starchrome.symmetry"]


def _loaded_after(statement: str) -> set[str]:
    """The modules of LAZY that a fresh interpreter holds after ``statement``."""
    code = f"{statement}\nimport json, sys\nprint(json.dumps([m for m in {LAZY!r} if m in sys.modules]))"
    src = str(Path(starchrome.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=60, check=True)
    return set(json.loads(run.stdout.splitlines()[-1]))


def test_the_core_loads_no_family_harness_sweep_or_process_pool():
    assert _loaded_after("from starchrome import exact_chi_star, graph6_decode, classify") == set()


def _loaded_by_cli(argv: list[str]) -> set[str]:
    """The modules of LAZY that the command line loads to run ``argv``."""
    return _loaded_after(f"from starchrome.cli import main\nassert main({argv!r}) == 0")


@pytest.mark.parametrize("argv", [["solve", "--g6", "C~"], ["encode", "--n", "3", "--edges", "0-1"],
                                  ["decode", "--g6", "Bg"]], ids=["solve-g6", "encode", "decode"])
def test_a_cli_command_without_families_loads_no_family_harness_or_sweep(argv):
    assert _loaded_by_cli(argv) == set()


def test_a_cli_family_loads_the_families_only():
    assert _loaded_by_cli(["solve", "--family", "fan", "--n", "5"]) == {"starchrome.families"}


def test_the_symmetry_module_loads_only_with_the_degree_order_search():
    # h_prime delta=7's k=8 round passes the cutoff; K4's rounds end before it
    assert _loaded_by_cli(["solve", "--family", "h_prime", "--delta", "7"]) == {
        "starchrome.families", "starchrome.symmetry"}


def test_a_sweep_name_loads_the_sweep_but_not_the_process_pool():
    assert _loaded_after("from starchrome import run_sweep") == {"starchrome.sweep"}


def test_every_public_name_resolves_to_its_modules_object():
    assert set(dir(starchrome)) >= EXPORTS.keys() | {n for ns in EXPORTS.values() for n in ns}
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"starchrome.{module}")
        assert getattr(starchrome, module) is home
        for name in names:
            assert getattr(starchrome, name) is getattr(home, name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'run_sweeps'"):
        starchrome.run_sweeps
    with pytest.raises(ImportError):
        from starchrome import run_sweeps  # noqa: F401
