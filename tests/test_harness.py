from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from starchrome.cli import main
from starchrome.harness import family_check, verify_figures
from starchrome.solver import Budget
from starchrome.sweep import (
    _BOUND,
    CACHE_ENV_VAR,
    ResultCache,
    SweepRecord,
    default_cache_path,
    proven_bound_violations,
    run_sweep,
)


def test_verify_figures_catalog_complete():
    reports = verify_figures()
    ids = [r.source for r in reports]
    assert len(ids) == len(set(ids)) == 21
    for rep in reports:
        if not rep.passed:
            assert rep.first_witness is not None
    reports[2].params["n"] = 99  # a report's params are its own, not the catalog's
    assert verify_figures()[2].params == {"n": 6}


def test_family_check_rows():
    rows = family_check("h_prime", [9, 10])
    assert [r.params["delta"] for r in rows] == [9, 10]
    assert all(r.passed and r.palette == r.params["delta"] + 3 for r in rows)


def test_family_check_exact_gap():
    rows = family_check("h_case1", [7], exact=True, budget=Budget(max_seconds=120))
    assert rows[0].chi_star is not None
    assert rows[0].chi_star <= rows[0].claimed_palette


def test_sweep_example_counts(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    summary = run_sweep(6, cache)
    assert len(summary.records) == 5  # orders 4, 5, 6: 1 + 1 + 3 members
    assert summary.hard_failures == []


def test_sweep_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.jsonl"
    summary = run_sweep(5, ResultCache(path))
    text = path.read_text()
    reloaded = ResultCache(path)
    assert len(reloaded.records) == len(summary.records)
    again = run_sweep(5, reloaded)
    assert again.solved == 0 and again.from_cache == len(summary.records)
    assert path.read_text() == text  # append-only log untouched by a no-op run
    assert [r.to_json() for r in again.records] == [r.to_json() for r in summary.records]


def test_sweep_record_json_is_the_dataclass_dump(tmp_path):
    records = run_sweep(6, ResultCache(tmp_path / "c.jsonl"), budget=Budget(max_nodes=8)).records
    ok = next(r for r in records if r.status == "ok")  # no budget fields
    cut = next(r for r in records if r.status == "budget_exhausted")  # no chi_star
    assert ok.budget_nodes is ok.budget_secs is cut.chi_star is None
    for rec in (ok, cut):
        assert rec.to_json() == json.dumps(asdict(rec))


def test_sweep_record_json_roundtrip(tmp_path):
    summary = run_sweep(4, ResultCache(tmp_path / "c.jsonl"))
    rec = summary.records[0]
    assert SweepRecord.from_json(rec.to_json()) == rec


# A schema-3 cache as the sweep writes it: a record holds only what its
# solve measured ("C^" is the diamond's outer-cycle key).
PARENT_CACHE = (
    '{"schema": 3}\n'
    '{"graph6": "C^", "n": 4, "m": 5, "max_degree": 3, "diameter": 2, "chi_star": 4, '
    '"chi_lower": 4, "chi_upper": 4, "solver_nodes": 11, "elapsed": 0.00013534600020648213, '
    '"status": "ok", "budget_nodes": null, "budget_secs": null}\n'
)

# The same record under schema 2, which also stored the graph classes and
# the bound margins.
SCHEMA_2_CACHE = (
    '{"schema": 2}\n'
    '{"graph6": "C^", "n": 4, "m": 5, "max_degree": 3, "diameter": 2, "two_connected": true, '
    '"maximal": true, "subcubic": true, "outerplanar": true, "chi_star": 4, "chi_lower": 4, '
    '"chi_upper": 4, "bound_margin_conj16": 1, "bound_margin_thm110": 5, '
    '"bound_margin_conj_d6": null, "bound_margin_conj_d4": null, "solver_nodes": 11, '
    '"elapsed": 0.00013534600020648213, "status": "ok"}\n'
)


def test_cache_reads_and_rewrites_parent_records_byte_for_byte(tmp_path):
    old = tmp_path / "old.jsonl"
    old.write_text(PARENT_CACHE)
    rec = ResultCache(old).get("C^")
    assert rec.chi_star == 4 and rec.solver_nodes == 11 and _BOUND["conj_d6"].margin(rec) is None
    assert rec.maximal and rec.subcubic and _BOUND["conj16"].margin(rec) == 1
    fresh = ResultCache(tmp_path / "new.jsonl")
    fresh.append(rec)
    assert fresh.path.read_text() == PARENT_CACHE


def test_cache_survives_torn_last_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    full = run_sweep(6, ResultCache(path))
    text = path.read_text()
    last = text.rstrip("\n").rfind("\n") + 1
    path.write_text(text[: last + 40])  # crash in the middle of the last record
    torn = ResultCache(path)
    assert torn.torn_lines == 1
    assert len(torn.records) == len(full.records) - 1
    again = run_sweep(6, torn)
    assert again.solved == 1 and again.from_cache == len(full.records) - 1
    reloaded = ResultCache(path)
    assert reloaded.torn_lines == 0
    assert set(reloaded.records) == {r.graph6 for r in full.records}
    lines = path.read_text().splitlines()
    assert lines[:-1] == text.splitlines()[:-1]  # only the torn line was replaced
    assert json.loads(lines[-1])["graph6"] == json.loads(text.splitlines()[-1])["graph6"]


def test_cache_torn_header_and_unterminated_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"sche')
    cache = ResultCache(path)
    assert cache.torn_lines == 1 and not cache.records
    rec = SweepRecord.from_json(PARENT_CACHE.splitlines()[1])
    cache.append(rec)
    assert path.read_text() == PARENT_CACHE
    path.write_text(PARENT_CACHE.rstrip("\n"))  # the last record lost its newline
    cache = ResultCache(path)
    assert cache.torn_lines == 0 and "C^" in cache
    other = SweepRecord(**{**json.loads(rec.to_json()), "graph6": "C~"})
    cache.append(other)
    assert path.read_text() == PARENT_CACHE + other.to_json() + "\n"
    assert set(ResultCache(path).records) == {"C^", "C~"}


def test_cache_bad_line_before_the_last_raises(tmp_path):
    path = tmp_path / "cache.jsonl"
    lines = PARENT_CACHE.splitlines()
    path.write_text("\n".join([lines[0], lines[1][:30], lines[1]]) + "\n")
    with pytest.raises(json.JSONDecodeError):
        ResultCache(path)


def test_cli_sweep_reports_torn_line(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    path.write_text(PARENT_CACHE + '{"graph6": "DL')
    assert main(["sweep", "--n-max", "5", "--cache", str(path)]) == 0
    captured = capsys.readouterr()
    assert "dropped 1 torn last line" in captured.err
    assert "records=2 solved=1 cached=1" in captured.out
    assert ResultCache(path).torn_lines == 0


def test_sweep_keys_are_canonical_graph6_of_members(tmp_path):
    from starchrome.outerplanar import enumerate_mops, polygon_key

    summary = run_sweep(9, ResultCache(tmp_path / "c.jsonl"))
    want = sorted(
        (n, polygon_key(g))
        for n in range(4, 10)
        for g in enumerate_mops(n).members.values()
    )
    assert [(r.n, r.graph6) for r in summary.records] == want


def _dissections_up_to_symmetry(n: int) -> int:
    """Non-crossing chord sets of the n-gon, counted up to rotation and reflection.

    A 2-connected outerplanar graph is its unique Hamiltonian cycle plus such
    a chord set, so this counts them up to isomorphism.
    """
    diagonals = [(a, b) for a in range(n) for b in range(a + 2, n) if (a, b) != (0, n - 1)]

    def crossing(c, d):
        return c[0] < d[0] < c[1] < d[1] or d[0] < c[0] < d[1] < c[1]

    def chord_sets(i, chosen):
        if i == len(diagonals):
            yield chosen
            return
        yield from chord_sets(i + 1, chosen)
        if not any(crossing(diagonals[i], c) for c in chosen):
            yield from chord_sets(i + 1, chosen + [diagonals[i]])

    symmetries = [lambda v, r=r: (v + r) % n for r in range(n)]
    symmetries += [lambda v, r=r: (r - v) % n for r in range(n)]
    classes = {
        min(tuple(sorted(tuple(sorted((f(a), f(b)))) for a, b in chords)) for f in symmetries)
        for chords in chord_sets(0, [])
    }
    return len(classes)


def test_sweep_expand_subgraphs(tmp_path):
    from starchrome.graph import is_two_connected
    from starchrome.graph6 import graph6_decode
    from starchrome.outerplanar import is_outerplanar

    summary = run_sweep(8, ResultCache(tmp_path / "c.jsonl"), expand_subgraphs=True)
    # chord-deleted subgraphs join the MOPs (C4, C5 at least)
    assert len(summary.records) > 2
    assert any(not r.maximal for r in summary.records)
    for rec in summary.records:
        g = graph6_decode(rec.graph6)
        assert is_two_connected(g) and is_outerplanar(g)
    # every 2-connected outerplanar graph of each order, once
    per_n = Counter(r.n for r in summary.records)
    assert [per_n[n] for n in range(4, 9)] == [2, 3, 9, 20, 75]
    assert [per_n[n] for n in range(4, 9)] == [_dissections_up_to_symmetry(n) for n in range(4, 9)]


def test_one_canonical_search_per_sweep_record(tmp_path, monkeypatch):
    import iso_oracle
    from starchrome import graph, graph6, outerplanar, sweep

    calls = []
    search = iso_oracle._canonical_search
    monkeypatch.setattr(iso_oracle, "_canonical_search", lambda g: calls.append(g) or search(g))
    path = tmp_path / "c.jsonl"
    cold = run_sweep(9, ResultCache(path), expand_subgraphs=True)
    assert len(cold.records) == cold.solved == 371
    warm = run_sweep(9, ResultCache(path), expand_subgraphs=True)
    assert len(warm.records) == warm.from_cache == 371
    assert calls == []  # the sweep runs no generic canonical search
    for module in (graph, graph6, outerplanar, sweep):
        assert not hasattr(module, "_canonical_search") and not hasattr(module, "canonical_key")


def test_sweep_appends_each_record_as_it_is_solved(tmp_path, monkeypatch):
    from starchrome import sweep

    full_path = tmp_path / "full.jsonl"
    full = run_sweep(7, ResultCache(full_path), workers=2)
    solve, solved = sweep.solve_record, []

    def interrupted(key, budget, lower=0):
        if len(solved) == 4:
            raise KeyboardInterrupt
        solved.append(key)
        return solve(key, budget, lower)

    path = tmp_path / "c.jsonl"
    monkeypatch.setattr(sweep, "solve_record", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(7, ResultCache(path))
    kept = ResultCache(path)
    assert list(kept.records) == solved == [r.graph6 for r in full.records[:4]]

    monkeypatch.setattr(sweep, "solve_record", lambda k, b, lo=0: solved.append(k) or solve(k, b, lo))
    again = run_sweep(7, kept)
    assert again.from_cache == 4 and again.solved == len(full.records) - 4 == 5
    assert solved[4:] == [r.graph6 for r in full.records[4:]]

    def without_elapsed(p):
        return [{**json.loads(line), "elapsed": 0} for line in p.read_text().splitlines()]

    assert without_elapsed(path) == without_elapsed(full_path)


@pytest.mark.parametrize("n_max,expand", [(10, False), (9, True)])
def test_inherited_bounds_give_the_same_answers(tmp_path, n_max, expand):
    from starchrome.graph6 import graph6_decode
    from starchrome.outerplanar import enumerate_dissections, enumerate_mops
    from starchrome.solver import exact_chi_star

    summary = run_sweep(n_max, ResultCache(tmp_path / "c.jsonl"), expand_subgraphs=expand)
    chi = {r.graph6: r.chi_star for r in summary.records}
    for key, got in chi.items():
        assert got == exact_chi_star(graph6_decode(key)).chi, key
    grow, level, pairs = enumerate_dissections if expand else enumerate_mops, None, 0
    for n in range(4, n_max + 1):
        level = grow(n, level)
        for key, children in level.children.items():
            for child in children & chi.keys():
                assert chi[child] <= chi[key], (child, key)
                pairs += 1
    # a MOP of order >= 5 always has an ear-deleted child, itself a MOP
    assert pairs >= sum(r.maximal and r.n >= 5 for r in summary.records)


def test_sweep_margins_reported(tmp_path):
    summary = run_sweep(6, ResultCache(tmp_path / "c.jsonl"))
    for rec in summary.records:
        margin = _BOUND["thm110"].margin(rec)
        assert margin is not None and margin >= 0
        if rec.max_degree >= 3:
            assert _BOUND["conj16"].margin(rec) is not None


def test_proven_bound_violations_check_the_paper_theorems():
    base = SweepRecord.from_json(PARENT_CACHE.splitlines()[1])
    # 2-connected outerplanar, diameter 3, D=6: within floor(3D/2)+5 = 14 but over D+6
    over_d6 = replace(base, m=4, max_degree=6, diameter=3, chi_star=13)
    assert not over_d6.maximal and not over_d6.subcubic
    assert proven_bound_violations(over_d6) == [
        "chi'=13 exceeds 6+6 on a 2-connected outerplanar graph of diameter 3"
    ]
    assert proven_bound_violations(replace(over_d6, diameter=4)) == []
    # 2-connected outerplanar, D=5, diameter 4: within floor(3D/2)+5 = 12 but over 9
    over_9 = replace(over_d6, max_degree=5, diameter=4, chi_star=10)
    assert proven_bound_violations(over_9) == [
        "chi'=10 exceeds 9 on a 2-connected outerplanar graph with max degree 5"
    ]
    assert proven_bound_violations(replace(over_9, chi_star=9)) == []


def test_every_bound_is_checked_from_the_one_table():
    from starchrome.sweep import conjecture_violations

    base = SweepRecord.from_json(PARENT_CACHE.splitlines()[1])  # the diamond: n=4, m=5, D=3
    cases = [
        (replace(base, max_degree=4, diameter=4, chi_star=12),
         ["chi'=12 exceeds floor(1.5*4)+5 on an outerplanar graph"],
         ["conjecture floor(1.5*D)+1 violated by 5"]),
        (replace(base, chi_star=6), ["chi'=6 exceeds 5 on a subcubic outerplanar graph"],
         ["conjecture floor(1.5*D)+1 violated by 1"]),
        (replace(base, n=5, m=7, chi_star=5),
         ["chi'=5 below 6 on a maximal outerplanar graph of order >= 5"], []),
        (replace(base, n=8, m=13, max_degree=5, diameter=4, chi_star=8),
         ["chi'=8 above n-1 on a maximal outerplanar graph of order >= 8"], []),
        (replace(base, n=20, m=37, max_degree=6, diameter=4, chi_star=13), [],
         ["conjecture floor(1.5*D)+1 violated by 3", "conjecture D+6 (2-connected) violated by 1",
          "conjecture D+4 (2-connected maximal) violated by 3"]),
        (replace(base, chi_star=None), [], []),
    ]
    for rec, proven, conjectured in cases:
        assert proven_bound_violations(rec) == proven
        assert conjecture_violations(rec) == conjectured
    big = cases[4][0]
    margins = tuple(_BOUND[name].margin(big) for name in ("conj16", "thm110", "conj_d6", "conj_d4"))
    assert margins == (-3, 1, -1, -3)
    unsolved = cases[5][0]
    assert _BOUND["thm110"].margin(unsolved) is None and _BOUND["conj16"].margin(unsolved) is None
    stored = json.loads(big.to_json())
    assert not {"maximal", "subcubic", "bound_margin_conj16", "two_connected"} & stored.keys()


def test_sweep_runs_no_recognition(tmp_path, monkeypatch):
    # every enumerated graph is 2-connected outerplanar by construction
    from starchrome import outerplanar

    calls = []
    for name in ("_outer_cycle", "_block_edges"):
        real = getattr(outerplanar, name)
        monkeypatch.setattr(outerplanar, name, lambda *a, r=real, n=name: calls.append(n) or r(*a))
    for expand in (False, True):
        summary = run_sweep(9, ResultCache(tmp_path / f"{expand}.jsonl"), expand_subgraphs=expand)
        assert summary.hard_failures == []
    assert calls == []


def test_default_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "override.jsonl"))
    assert default_cache_path() == tmp_path / "override.jsonl"
    monkeypatch.delenv(CACHE_ENV_VAR)
    assert default_cache_path().name == "starchrome-cache.jsonl"


# --- CLI ---------------------------------------------------------------

def test_cli_solve_family(capsys):
    assert main(["solve", "--family", "fan", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "chi_star = 6" in out


def test_cli_solve_g6(capsys):
    assert main(["solve", "--g6", "C~"]) == 0
    assert "chi_star = 5" in capsys.readouterr().out


def test_cli_solve_cycle(capsys):
    assert main(["solve", "--family", "cycle", "--n", "5"]) == 0
    assert "chi_star = 4" in capsys.readouterr().out


def test_cli_solve_budget_exhausted(capsys):
    # h_prime delta=8: chi' = 10, k=8 is below the common-neighbour bound,
    # and the best of the 64 greedy orders gives 11
    rc = main(["solve", "--family", "h_prime", "--delta", "8", "--budget-nodes", "5"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "chi_star in [9, 11]" in out
    assert "round k=8 nodes=0 seconds=" in out and "outcome=bound" in out
    assert "round k=9 nodes=5 seconds=" in out and "outcome=budget" in out


def test_cli_solve_prints_the_common_neighbour_bound(capsys):
    # h2's two degree-9 hubs share a neighbour, so no star 9-edge-coloring
    assert main(["solve", "--family", "h2", "--delta", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("bound:")] == [
        "bound: chi_star >= 10: vertices 2 and 3 (degrees 9, 9) share 1 neighbour"]
    assert "chi_star = 10" in lines
    # its k=10 witness comes from the dive at the 4096-node checkpoint
    [last] = [line.split() for line in lines if line.startswith("round k=10 ")]
    assert (last[2], last[4], last[5], last[6]) == ("nodes=4128", "second=0", "dive=32",
                                                    "outcome=feasible")
    # a 4-vertex path: the bound, 2, is no more than D
    assert main(["solve", "--family", "path", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "chi_star = 2" in out and "bound:" not in out


def test_cli_solve_budget_hit_settled_by_a_greedy_order(capsys):
    # the order-9 fan: chi' = D = 8, and the 5-node budget is hit in the
    # k=8 round, where the best of the 64 greedy orders fits
    rc = main(["solve", "--family", "fan", "--n", "9", "--budget-nodes", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "chi_star = 8"
    rounds = [(f[1], f[2], f[-3], f[-2], f[-1]) for f in map(str.split, lines) if f[0] == "round"]
    assert rounds == [("k=8", "nodes=5", "second=0", "dive=0", "outcome=greedy")]


def test_cli_parse_error():
    assert main(["solve", "--g6", "!!!"]) == 1


def test_cli_encode_decode(capsys):
    assert main(["encode", "--n", "4", "--edges", "0-1,0-2,0-3,1-2,1-3,2-3"]) == 0
    assert capsys.readouterr().out.strip() == "C~"
    assert main(["decode", "--g6", "Bg"]) == 0
    assert capsys.readouterr().out.strip() == "n=3 edges=0-1,1-2"


def test_cli_verify_figures(tmp_path, capsys):
    out_path = tmp_path / "figures.jsonl"
    assert main(["verify-figures", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "findings=1" in out  # the order-7 fan drawing is genuinely invalid
    lines = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert len(lines) == 21


def test_cli_family_check(capsys):
    assert main(["family-check", "h2", "10..11"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_cli_family_check_out_of_range():
    assert main(["family-check", "h2", "3"]) == 1


def test_cli_malformed_arguments_exit_1(capsys):
    assert main(["encode", "--n", "3", "--edges", "0-x"]) == 1
    assert "bad edge '0-x'" in capsys.readouterr().err
    assert main(["family-check", "h2", "a..b"]) == 1
    assert "bad delta range 'a..b'" in capsys.readouterr().err
    assert main(["family-check", "h2", "10..9"]) == 1  # not an empty check
    assert "bad delta range '10..9'" in capsys.readouterr().err
    assert main(["solve", "--family", "h2", "--delta", "3"]) == 1
    assert capsys.readouterr().err == "error: h2 needs delta >= 4, got 3\n"
    # an unknown family id exits 1, as input errors do, and names the known ones
    assert main(["solve", "--family", "h3", "--delta", "9"]) == 1
    assert capsys.readouterr().err == (
        "error: unknown family id 'h3'; the ids are path, cycle, fan, g61, g61_prime, g62, "
        "g_delta, h_prime, h_case1, h2, delta5_strip\n")
    assert main(["solve", "--family", "g61", "--delta", "3"]) == 1
    assert capsys.readouterr().err == "error: g61 takes no delta\n"
    assert main(["solve", "--family", "g61", "--delta", "3", "--blocks", "7"]) == 1
    assert capsys.readouterr().err == "error: g61 takes no blocks, delta\n"
    assert main(["solve", "--family", "h2", "--delta", "9", "--budget-nodes", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: a budget needs max_nodes >= 1")
    # a graph6 input takes no family flags; they were once dropped silently
    assert main(["solve", "--g6", "Bw", "--family", "h2", "--delta", "9"]) == 1
    assert capsys.readouterr().err == "error: --g6 takes no --family, --delta\n"
    assert main(["solve", "--g6", "Bw", "--delta", "9"]) == 1
    assert capsys.readouterr().err == "error: --g6 takes no --delta\n"


def test_cli_sweep_rejects_a_schema_1_cache(tmp_path, capsys):
    # schema 1 keyed records by the generic canonical form; its keys differ
    path = tmp_path / "cache.jsonl"
    path.write_text(PARENT_CACHE.replace('{"schema": 3}', '{"schema": 1}'))
    assert main(["sweep", "--n-max", "4", "--cache", str(path)]) == 1
    assert "cache error: cache schema 1 unsupported" in capsys.readouterr().err


def test_cli_sweep_rejects_a_schema_2_cache(tmp_path, capsys):
    # schema 2 also stored the graph classes and the bound margins
    path = tmp_path / "cache.jsonl"
    path.write_text(SCHEMA_2_CACHE)
    assert main(["sweep", "--n-max", "4", "--cache", str(path)]) == 1
    assert "cache error: cache schema 2 unsupported" in capsys.readouterr().err
    assert path.read_text() == SCHEMA_2_CACHE


def test_cli_sweep_reports_unreadable_cache(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"schema": 99}\n')
    assert main(["sweep", "--n-max", "4", "--cache", str(path)]) == 1
    assert "cache error: cache schema 99 unsupported" in capsys.readouterr().err
    lines = PARENT_CACHE.splitlines()
    path.write_text("\n".join([lines[0], lines[1][:30], lines[1]]) + "\n")
    assert main(["sweep", "--n-max", "4", "--cache", str(path)]) == 1
    assert "cache error:" in capsys.readouterr().err
    assert path.read_text().count("\n") == 3  # left as it was
    for not_a_record in ("[1, 2]", "5", '{"bogus": 1}', json.dumps(lines[1])):
        path.write_text("\n".join([lines[0], not_a_record, lines[1]]) + "\n")
        assert main(["sweep", "--n-max", "4", "--cache", str(path)]) == 1
        assert "cache error: not a sweep record" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["verify-figures", "--out", "{missing}/figures.jsonl"],
    ["family-check", "h2", "9", "--out", "{missing}/h2.jsonl"],
    ["sweep", "--n-max", "4", "--cache", "{tmp}/cache.jsonl", "--out", "{missing}/sweep.jsonl"],
    ["sweep", "--n-max", "4", "--cache", "{missing}/cache.jsonl"],  # fails before any solve
])
def test_cli_unwritable_path_exits_1_with_an_error_line(tmp_path, args):
    import subprocess
    import sys

    import starchrome

    prefix = "cache error: " if "{missing}/cache.jsonl" in args else "error: "
    args = [a.format(tmp=tmp_path, missing=tmp_path / "missing") for a in args]
    env = {**os.environ, "PYTHONPATH": str(Path(starchrome.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-m", "starchrome.cli", *args],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith(prefix) and "No such file or directory" in run.stderr
    assert "Traceback" not in run.stderr


def test_a_cache_in_a_missing_directory_fails_before_any_solve(tmp_path, monkeypatch, capsys):
    import starchrome.sweep

    def refuse(*args):
        raise AssertionError("solved before the cache was opened")

    monkeypatch.setattr(starchrome.sweep, "solve_record", refuse)
    path = tmp_path / "missing" / "cache.jsonl"
    with pytest.raises(FileNotFoundError):
        ResultCache(path)
    assert main(["sweep", "--n-max", "4", "--cache", str(path)]) == 1
    assert "cache error: [Errno 2] No such file or directory" in capsys.readouterr().err


def test_cli_family_check_figure_backed_delta(capsys):
    assert main(["family-check", "H-prime", "5", "--exact"]) == 0
    out = capsys.readouterr().out
    assert "chi_star=8" in out  # within the claimed window [7, 9]


def test_family_check_source_column():
    rows = family_check("h2", [9, 10])
    assert rows[0].source == "fig11f"
    assert rows[1].source == "formula"


def test_cli_sweep(tmp_path, capsys):
    out_path = tmp_path / "sweep.jsonl"
    cache_path = tmp_path / "cache.jsonl"
    rc = main([
        "sweep", "--n-max", "6", "--cache", str(cache_path), "--out", str(out_path),
    ])
    assert rc == 0
    assert "hard_failures=0" in capsys.readouterr().out
    records = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert len(records) == 5
    assert all(r["chi_star"] >= 6 for r in records if r["n"] >= 5)


def test_cli_sweep_into_a_closed_pipe_exits_quietly(tmp_path):
    import subprocess
    import sys

    import starchrome

    path = tmp_path / "cache.jsonl"
    src = str(Path(starchrome.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    with subprocess.Popen(
        [sys.executable, "-m", "starchrome.cli", "sweep", "--n-max", "6", "--cache", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        proc.stdout.close()  # the reader leaves before the sweep prints anything
        err = proc.stderr.read()
    assert b"Traceback" not in err and b"BrokenPipeError" not in err
    assert len(ResultCache(path).records) == 5


def test_sweep_parallel_workers_match_serial(tmp_path):
    def stripped(records):
        out = []
        for r in records:
            data = json.loads(r.to_json())
            data.pop("elapsed")  # wall time is the one nondeterministic field
            out.append(data)
        return out

    serial = run_sweep(6, ResultCache(tmp_path / "a.jsonl"), workers=1)
    parallel = run_sweep(6, ResultCache(tmp_path / "b.jsonl"), workers=2)
    assert stripped(serial.records) == stripped(parallel.records)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_opens_its_cache_once_and_writes_the_same_bytes(tmp_path, monkeypatch, workers):
    import builtins
    import hashlib
    import re

    import starchrome.sweep

    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    opened = []

    def counted(file, *args, **kwargs):
        opened.append(file)
        return builtins.open(file, *args, **kwargs)

    monkeypatch.setattr(starchrome.sweep, "open", counted, raising=False)
    summary = run_sweep(8, cache, workers=workers)
    assert opened == [path] and summary.solved == 21
    text = path.read_text()
    assert text == '{"schema": 3}\n' + "".join(r.to_json() + "\n" for r in summary.records)
    # the log that one open per record wrote, with its wall times zeroed
    zeroed = re.sub(r'"elapsed": [^,]*', '"elapsed": 0', text)
    assert hashlib.sha1(zeroed.encode()).hexdigest() == "3ec70263ad0d9dcfa5553dc5f0224fb7e2dbad87"


def test_sweep_budget_exhaustion_marks_records_and_continues(tmp_path):
    from starchrome.solver import Budget

    summary = run_sweep(6, ResultCache(tmp_path / "c.jsonl"), budget=Budget(max_nodes=8))
    assert len(summary.records) == 5  # nothing aborted
    exhausted = [r for r in summary.records if r.status == "budget_exhausted"]
    assert exhausted and summary.budget_exhausted == len(exhausted)
    for rec in exhausted:
        assert rec.chi_star is None
        assert rec.chi_lower is not None and rec.chi_upper is not None
        assert rec.chi_lower <= rec.chi_upper


def test_sweep_retries_cached_budget_exhausted_records(tmp_path):
    path = tmp_path / "c.jsonl"
    first = run_sweep(6, ResultCache(path), budget=Budget(max_nodes=8))
    exhausted = {r.graph6 for r in first.records if r.status == "budget_exhausted"}
    assert exhausted
    again = run_sweep(6, ResultCache(path))  # the default budget
    assert again.solved == len(exhausted) and again.budget_exhausted == 0
    assert again.from_cache == len(first.records) - len(exhausted)
    assert all(r.status == "ok" for r in again.records)
    reloaded = ResultCache(path)  # the re-solved line comes last and wins
    assert all(reloaded.get(key).status == "ok" for key in exhausted)
    assert len(path.read_text().splitlines()) == 1 + len(first.records) + len(exhausted)
    assert run_sweep(6, reloaded).solved == 0


def test_sweep_keeps_budget_exhausted_records_under_a_budget_no_larger(tmp_path):
    path = tmp_path / "c.jsonl"
    small = Budget(max_nodes=8)
    first = run_sweep(6, ResultCache(path), budget=small)
    exhausted = [r for r in first.records if r.status == "budget_exhausted"]
    assert exhausted and first.budget_exhausted == len(exhausted)
    for rec in first.records:
        ran_under = (8, small.max_seconds) if rec.status == "budget_exhausted" else (None, None)
        assert (rec.budget_nodes, rec.budget_secs) == ran_under
    text = path.read_text()
    for budget in (small, Budget(max_nodes=4), Budget(max_nodes=8, max_seconds=1.0)):
        again = run_sweep(6, ResultCache(path), budget=budget)
        assert again.solved == 0 and again.from_cache == len(first.records)
        assert again.budget_exhausted == len(exhausted)  # cached, still unresolved
        assert path.read_text() == text  # no line appended
    longer = run_sweep(6, ResultCache(path), budget=Budget(max_nodes=8, max_seconds=600.0))
    assert longer.solved == len(exhausted)


def test_sweep_budgets_larger_in_one_each_do_not_re_solve_each_other(tmp_path):
    path = tmp_path / "c.jsonl"
    more_nodes, more_secs = Budget(max_nodes=8), Budget(max_nodes=4, max_seconds=600.0)
    first = run_sweep(6, ResultCache(path), budget=more_nodes)
    assert first.budget_exhausted == 4
    text = path.read_text()
    for budget in (more_secs, more_nodes, more_secs):
        again = run_sweep(6, ResultCache(path), budget=budget)
        assert again.solved == 0 and again.budget_exhausted == 4
        assert path.read_text() == text  # no line appended
