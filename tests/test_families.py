from __future__ import annotations

import pytest

from starchrome import families
from starchrome.coloring import star_violations
from starchrome.errors import BadParams, OutOfRange, UnknownFigure
from starchrome.families import (
    FAMILY_IDS,
    FIGURES,
    build_family,
    claimed_palette,
    delta5_strip_coloring,
    figure_coloring,
    formula_coloring,
)
from starchrome.graph import diameter, is_two_connected
from starchrome.outerplanar import is_maximal_outerplanar


def test_fan_order_eight():
    inst = build_family("fan", n=8)
    assert inst.graph.max_degree() == 7
    assert diameter(inst.graph) == 2


def test_g61_shape():
    inst = build_family("g61")
    assert inst.graph.n == 6 and inst.graph.m == 9
    assert diameter(inst.graph) == 2


def test_g62_diameter_three():
    assert diameter(build_family("g62").graph) == 3


def test_h_prime_delta9_size_and_hub_degrees():
    inst = build_family("h_prime", delta=9)
    assert inst.graph.n == 21
    degs = inst.graph.degrees()
    for hub in ("v0", "v2", "v3"):
        assert degs[inst.vertex(hub)] == 9


def test_h_case1_hub_degrees():
    for delta in (4, 5, 7, 9):
        inst = build_family("h_case1", delta=delta)
        degs = inst.graph.degrees()
        for hub in ("v0", "v3", "v4"):
            assert degs[inst.vertex(hub)] == delta
        assert diameter(inst.graph) == 3


def test_h2_hub_degrees_and_sizes():
    for delta in (4, 5, 10, 12):
        inst = build_family("h2", delta=delta)
        degs = inst.graph.degrees()
        assert degs[inst.vertex("v2")] == delta
        assert degs[inst.vertex("v3")] == delta
        assert inst.graph.n == 7 + 2 * (delta - 4)
        assert inst.graph.m == 4 * delta - 5
        assert is_two_connected(inst.graph)


def test_pendant_family_not_two_connected():
    inst = build_family("g_delta", delta=6)
    assert not is_two_connected(inst.graph)
    assert diameter(inst.graph) == 3


# family id -> (its parameter, the least value it builds at)
_FLOORS = {
    "path": ("n", 2), "cycle": ("n", 3), "fan": ("n", 3), "g_delta": ("delta", 5),
    "h_prime": ("delta", 5), "h_case1": ("delta", 4), "h2": ("delta", 4),
    "delta5_strip": ("blocks", 10),
}


def test_family_param_validation():
    assert set(FAMILY_IDS) - set(_FLOORS) == {"g61", "g61_prime", "g62"}
    for family, (param, least) in _FLOORS.items():
        below = rf"^{family} needs {param} >= {least}\b.*, got {least - 1}$"
        with pytest.raises(BadParams, match=below):
            build_family(family, **{param: least - 1})
        assert build_family(family, **{param: least}).family_id == family
    with pytest.raises(BadParams, match="congruent to 10 mod 6, got 11$"):
        build_family("delta5_strip", blocks=11)  # off the generator period
    with pytest.raises(BadParams):
        build_family("nonsense")
    with pytest.raises(BadParams):
        build_family("fan")
    # a keyword other than the builder's one parameter is an error, not dropped
    with pytest.raises(BadParams, match="^g61 takes no delta$"):
        build_family("g61", delta=3)
    with pytest.raises(BadParams, match="^h2 takes no blocks, n$"):
        build_family("h2", delta=5, n=-3, blocks=1)
    with pytest.raises(BadParams, match="^fan takes no delta$"):
        build_family("fan", n=5, delta=5)


def test_roles_are_bijections():
    for fid, params in [
        ("g61", {}), ("g62", {}), ("h_prime", {"delta": 6}),
        ("h_case1", {"delta": 5}), ("h2", {"delta": 7}),
        ("delta5_strip", {"blocks": 10}),
    ]:
        inst = build_family(fid, **params)
        assert sorted(inst.roles.values()) == list(range(inst.graph.n))


def test_fan_families_keep_their_labels():
    # The closed forms and the figure tables address vertices by role name,
    # and the solver's node counts follow the dense ids the role order sets;
    # one digest pins the graph and every role id at each delta up to 20.
    import hashlib
    import json

    from starchrome.graph6 import graph6_encode

    lines = []
    for fid, least in (("h_prime", 5), ("h_case1", 4), ("h2", 4), ("g_delta", 5)):
        for delta in range(least, 21):
            inst = build_family(fid, delta=delta)
            lines.append(f"{fid} {delta} {graph6_encode(inst.graph)} {json.dumps(inst.roles)}")
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (66, "201aa5b823d5c7b98e7209f7a870600931cdbf7d")


def test_formula_coloring_ranges():
    with pytest.raises(OutOfRange):
        formula_coloring("h_prime", 8)
    with pytest.raises(OutOfRange):
        formula_coloring("h_case1", 6)
    with pytest.raises(OutOfRange):
        formula_coloring("h2", 9)
    with pytest.raises(OutOfRange):
        formula_coloring("fan", 9)
    with pytest.raises(OutOfRange):
        claimed_palette("fan", 5)


@pytest.mark.parametrize("family,delta", [("h_prime", 9), ("h_case1", 7), ("h2", 10)])
def test_formula_matches_its_example_figure(family, delta):
    # the delta=9/7/10 drawings are worked examples of the formulas
    figure_id = {"h_prime": "fig8e", "h_case1": "fig10d", "h2": "fig11g"}[family]
    _, from_figure = figure_coloring(figure_id)
    from_formula = formula_coloring(family, delta)
    assert from_figure.as_mapping() == from_formula.as_mapping()


@pytest.mark.parametrize("family,lo", [("h_prime", 9), ("h_case1", 7), ("h2", 10)])
def test_formula_palette_and_validity(family, lo):
    for delta in range(lo, lo + 4):
        coloring = formula_coloring(family, delta)
        assert coloring.palette_size() == claimed_palette(family, delta)
        assert star_violations(coloring) == []


def test_figures_catalog_total_and_loadable():
    for figure_id in FIGURES:
        inst, coloring = figure_coloring(figure_id)
        assert len(coloring.colors) == inst.graph.m  # total colorings only


def test_unknown_figure():
    with pytest.raises(UnknownFigure):
        figure_coloring("fig99")


def test_known_invalid_figure_is_detected_not_patched():
    # the source drawing of the order-7 fan contains a bichromatic 4-path;
    # the catalog must report it rather than repair it
    _, coloring = figure_coloring("fig3_f7")
    violations = star_violations(coloring)
    assert len(violations) == 1
    edges = {frozenset(e) for e in violations[0].edges}
    inst, _ = figure_coloring("fig3_f7")
    r = inst.roles
    want = {
        frozenset((r["v1"], r["v2"])),
        frozenset((r["v0"], r["v1"])),
        frozenset((r["v0"], r["v4"])),
        frozenset((r["v4"], r["v5"])),
    }
    assert edges == want


def test_strip_sizes_and_structure():
    for blocks in (10, 16):
        inst = build_family("delta5_strip", blocks=blocks)
        assert inst.graph.n == 4 * blocks + 2
        assert inst.graph.m == 8 * blocks + 1
        assert inst.graph.max_degree() == 5
        assert is_maximal_outerplanar(inst.graph)


def test_strip_bad_params():
    with pytest.raises(BadParams):
        build_family("delta5_strip", blocks=9)
    with pytest.raises(BadParams):
        build_family("delta5_strip", blocks=11)  # off the generator period


def test_strip_coloring_validates():
    coloring = delta5_strip_coloring(16)
    assert coloring.palette_size() <= 9
    assert star_violations(coloring) == []


def test_strip_coloring_lays_the_strip_out_once(monkeypatch):
    # the graph and its coloring come from one layout pass, which still goes
    # through build_family's parameter check and fact check
    calls = []
    layout = families._strip_layout
    monkeypatch.setattr(families, "_strip_layout",
                        lambda blocks: calls.append(blocks) or layout(blocks))
    coloring = delta5_strip_coloring(16)
    assert calls == [16]
    assert coloring.graph == build_family("delta5_strip", blocks=16).graph
    with pytest.raises(BadParams):
        delta5_strip_coloring(11)


# Flat transcription of the strip drawing: 42 vertices under their source
# names, 81 edges with colors (a, b, c mapped to 7, 8, 9), plus the mapping
# from source names to builder roles (block t, hub or first-placed path
# slot p).  An independent cross-check of the generator's period tables.
_TIKZ_EDGES = [
    ("v1", "v2", 2), ("v1", "v3", 5), ("v3", "v4", 7), ("v4", "v5", 6),
    ("v5", "v6", 7), ("v6", "v2", 9), ("v6", "v1", 4), ("v6", "v3", 3),
    ("v6", "v4", 1),
    ("v7", "v8", 5), ("v8", "v1", 8), ("v1", "v9", 6), ("v9", "v10", 8),
    ("v10", "v3", 4), ("v3", "v9", 9), ("v9", "v8", 7), ("v9", "v7", 1),
    ("v4", "v11", 8), ("v11", "v12", 5), ("v12", "v4", 4), ("v12", "v5", 9),
    ("v5", "v13", 8), ("v13", "v14", 5), ("v14", "v12", 6), ("v12", "v13", 3),
    ("v15", "v5", 2), ("v15", "v13", 4), ("v13", "v16", 7), ("v16", "v17", 1),
    ("v17", "v18", 3), ("v15", "v18", 5), ("v15", "v17", 8), ("v15", "v16", 9),
    ("v20", "v19", 9), ("v19", "v16", 3), ("v16", "v20", 6), ("v20", "v17", 5),
    ("v17", "v21", 7), ("v21", "v22", 9), ("v22", "v20", 2), ("v20", "v21", 4),
    ("v23", "v24", 6), ("v24", "v21", 5), ("v21", "v23", 8), ("v22", "v23", 3),
    ("v22", "v25", 5), ("v23", "v25", 1),
    ("v27", "v28", 6), ("v28", "v29", 5), ("v29", "v7", 9), ("v30", "v8", 4),
    ("v27", "v29", 8), ("v27", "v7", 3), ("v27", "v8", 1), ("v27", "v30", 9),
    ("v31", "v7", 2), ("v31", "v29", 4), ("v29", "v32", 7), ("v31", "v32", 5),
    ("v31", "v34", 6), ("v31", "v33", 9), ("v34", "v33", 3), ("v34", "v32", 1),
    ("v35", "v25", 4), ("v23", "v35", 9), ("v22", "v26", 1), ("v26", "v25", 7),
    ("v25", "v36", 8), ("v36", "v37", 5), ("v37", "v38", 4), ("v38", "v26", 8),
    ("v26", "v37", 9), ("v36", "v26", 6),
    ("v39", "v40", 2), ("v40", "v41", 4), ("v41", "v39", 8), ("v41", "v34", 7),
    ("v40", "v34", 9), ("v40", "v32", 8), ("v42", "v32", 3), ("v42", "v40", 5),
]

_TIKZ_TO_ROLE = {
    "v40": "b1h", "v39": "b1p1", "v41": "b1p2", "v34": "b1p3", "v32": "b1p4", "v42": "b1p5",
    "v31": "b2h", "v33": "b2p1", "v29": "b2p4", "v7": "b2p5",
    "v27": "b3h", "v28": "b3p1", "v8": "b3p4", "v30": "b3p5",
    "v9": "b4h", "v1": "b4p3", "v3": "b4p4", "v10": "b4p5",
    "v6": "b5h", "v2": "b5p1", "v4": "b5p4", "v5": "b5p5",
    "v12": "b6h", "v11": "b6p1", "v13": "b6p4", "v14": "b6p5",
    "v15": "b7h", "v16": "b7p3", "v17": "b7p4", "v18": "b7p5",
    "v20": "b8h", "v19": "b8p1", "v21": "b8p4", "v22": "b8p5",
    "v23": "b9h", "v24": "b9p1", "v25": "b9p4", "v35": "b9p5",
    "v26": "b10h", "v36": "b10p3", "v37": "b10p4", "v38": "b10p5",
}


def test_strip_at_figure_size_reproduces_the_drawing():
    inst, coloring = figure_coloring("fig12")
    assert len(_TIKZ_EDGES) == 81 == inst.graph.m
    mapping = coloring.as_mapping()
    for name1, name2, color in _TIKZ_EDGES:
        a = inst.vertex(_TIKZ_TO_ROLE[name1])
        b = inst.vertex(_TIKZ_TO_ROLE[name2])
        key = (a, b) if a < b else (b, a)
        assert mapping[key] == color, (name1, name2)


def test_classify_agrees_with_declared_family_facts():
    from starchrome.outerplanar import classify

    declared = {
        ("g61", ()): (2, True),
        ("g61_prime", ()): (3, True),
        ("g62", ()): (3, True),
        ("h_prime", (("delta", 6),)): (3, True),
        ("h_case1", (("delta", 6),)): (3, True),
        ("h2", (("delta", 6),)): (3, True),
        ("g_delta", (("delta", 6),)): (3, False),
    }
    for (fid, params), (diam, two_conn) in declared.items():
        inst = build_family(fid, **dict(params))
        c = classify(inst.graph)
        assert diameter(inst.graph) == diam, fid
        assert c.two_connected == two_conn, fid
        assert c.outerplanar or fid in ("h_prime", "h_case1", "h2", "g_delta")


def test_postcondition_check_fires_on_wrong_declaration():
    from starchrome.errors import PostconditionFailed
    from starchrome.families import FamilyInstance, _check
    from starchrome.graph import from_edges

    g = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    inst = FamilyInstance("k3", g, {"a": 0, "b": 1, "c": 2})
    with pytest.raises(PostconditionFailed):
        _check(inst, {"a": 5}, {})
    with pytest.raises(PostconditionFailed):
        _check(inst, {}, {"diameter": 7})
    with pytest.raises(PostconditionFailed):
        _check(FamilyInstance("bad", g, {"a": 0, "b": 1}), {}, {})


def test_extremal_mop_families_appear_in_the_catalog():
    # h_case1 and h2 carry exactly 2n-3 edges and are genuine members of
    # the enumerated maximal outerplanar graphs of their order
    from starchrome.outerplanar import enumerate_mops

    from iso_oracle import canonical_key

    for fid, delta, order in [("h_case1", 4, 7), ("h2", 4, 7), ("h2", 5, 9)]:
        g = build_family(fid, delta=delta).graph
        assert g.n == order and g.m == 2 * order - 3
        members = enumerate_mops(order).members.values()
        assert canonical_key(g) in {canonical_key(m) for m in members}


def test_deleting_any_two_core_chords_gives_the_same_graph():
    # the three 2-subsets of {v0v2, v0v3, v2v3} all leave isomorphic
    # diameter-3 graphs with star chromatic index 4
    import itertools

    from starchrome.graph import Graph, diameter
    from starchrome.solver import exact_chi_star

    from iso_oracle import canonical_key

    inst = build_family("g61")
    chords = [(inst.vertex("v0"), inst.vertex("v2")),
              (inst.vertex("v0"), inst.vertex("v3")),
              (inst.vertex("v2"), inst.vertex("v3"))]
    chords = [tuple(sorted(e)) for e in chords]
    keys = set()
    for pair in itertools.combinations(chords, 2):
        sub = Graph(6, tuple(e for e in inst.graph.edges if e not in pair))
        assert diameter(sub) == 3
        assert exact_chi_star(sub).chi == 4
        keys.add(canonical_key(sub))
    assert len(keys) == 1
    assert keys == {canonical_key(build_family("g61_prime").graph)}
