"""Named graph families with role-labeled vertices and their colorings.

Each builder returns role edges, hub degrees and the facts the family
is defined by (size, maximum degree, diameter, 2-connectivity, and the
outerplanar or maximal outerplanar class it stands for).  The
hub-and-fan families h_prime, h_case1 and h2 share one builder: their
cores, facts, hubs and chain ends are rows of _FAN_FAMILIES.
build_family alone checks the parameter against its least value and step
in _BUILDERS, rejects any other keyword, maps the roles onto dense ids
and checks every declared fact instead of silently repairing it.
Closed-form colorings (formula_coloring) and the figure tables
(versioned text files loaded by figure_coloring) are kept apart, and
family_coloring picks between them by delta.  None asserts validity;
running the validator is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from importlib import resources

from .coloring import EdgeColoring
from .errors import BadParams, MalformedText, OutOfRange, PostconditionFailed, UnknownFigure
from .graph import Graph, diameter, from_edges
from .outerplanar import classify


@dataclass(frozen=True)
class FamilyInstance:
    family_id: str
    graph: Graph
    roles: dict[str, int]

    def vertex(self, role: str) -> int:
        return self.roles[role]

    def edge_color_map(self, role_colors: dict[tuple[str, str], int]) -> EdgeColoring:
        mapping = {}
        for (r1, r2), color in role_colors.items():
            mapping[(self.roles[r1], self.roles[r2])] = color
        return EdgeColoring.from_mapping(self.graph, mapping)


#: fact a builder may declare -> how it is measured; any other fact is a
#: field of ``classify``, run only when one is declared
_MEASURES = {"n": lambda g: g.n, "m": lambda g: g.m,
             "max_degree": Graph.max_degree, "diameter": diameter}


def _check(instance: FamilyInstance, role_degrees: dict[str, int],
           facts: dict[str, object]) -> FamilyInstance:
    """Raise PostconditionFailed unless the instance has every declared fact."""
    g = instance.graph
    if sorted(instance.roles.values()) != list(range(g.n)):
        raise PostconditionFailed(f"{instance.family_id}: roles are not a bijection")
    degs = g.degrees()
    for role, want in role_degrees.items():
        got = degs[instance.roles[role]]
        if got != want:
            raise PostconditionFailed(f"{instance.family_id}: d({role}) = {got}, declared {want}")
    cls = None
    for name, want in facts.items():
        if name in _MEASURES:
            got = _MEASURES[name](g)
        else:
            cls = cls or classify(g)
            got = getattr(cls, name)
        if got != want:
            raise PostconditionFailed(f"{instance.family_id}: {name} {got}, declared {want}")
    return instance


# --- small fixed cores -------------------------------------------------

_G61_EDGES = [
    ("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v0", "v4"),
    ("v1", "v2"), ("v2", "v5"), ("v3", "v5"), ("v3", "v4"), ("v2", "v3"),
]
_G62_EDGES = [
    ("v0", "v1"), ("v1", "v2"), ("v0", "v2"), ("v0", "v3"), ("v0", "v4"),
    ("v2", "v3"), ("v3", "v4"), ("v3", "v5"), ("v4", "v5"),
]
_H2_EDGES = [
    ("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v0", "v4"),
    ("v1", "v2"), ("v2", "v3"), ("v3", "v4"),
    ("v1", "v5"), ("v2", "v5"), ("v3", "v6"), ("v4", "v6"),
]

_MOP = {"two_connected": True, "maximal": True}


def _from_role_edges(family_id: str, role_edges) -> FamilyInstance:
    roles: dict[str, int] = {}
    for r1, r2 in role_edges:
        for r in (r1, r2):
            if r not in roles:
                roles[r] = len(roles)
    g = from_edges(len(roles), [(roles[r1], roles[r2]) for r1, r2 in role_edges])
    return FamilyInstance(family_id, g, roles)


def _leaf(hub: str, i: int) -> str:
    return f"{hub}^({i})"


def _hub_fan_edges(hub: str, count: int, start: str | None = None,
                   end: str | None = None) -> list[tuple[str, str]]:
    """Spokes hub-hub^(i) plus the consecutive chain between the leaves;
    with any leaves, the chain's ends are joined to ``start`` and ``end``."""
    edges = [(hub, _leaf(hub, i)) for i in range(1, count + 1)]
    edges += [(_leaf(hub, i), _leaf(hub, i + 1)) for i in range(1, count)]
    if count:
        edges += [(start, _leaf(hub, 1))] if start else []
        edges += [(_leaf(hub, count), end)] if end else []
    return edges


def _build_path(n: int):
    return [(f"v{i}", f"v{i + 1}") for i in range(n - 1)], {}, {}


def _build_cycle(n: int):
    return [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)], {}, {}


def _build_fan(order: int):
    """A hub joined to a path on order - 1 >= 2 vertices."""
    edges = [("v0", f"v{i}") for i in range(1, order)]
    edges += [(f"v{i}", f"v{i + 1}") for i in range(1, order - 1)]
    return edges, {"v0": order - 1}, _MOP


def _build_g61():
    return _G61_EDGES, {}, {"diameter": 2, **_MOP}


def _build_g61_prime():
    edges = [e for e in _G61_EDGES if e not in [("v0", "v2"), ("v0", "v3")]]
    return edges, {}, {"diameter": 3, "two_connected": True, "outerplanar": True}


def _build_g62():
    return _G62_EDGES, {}, {"diameter": 3, **_MOP}


def _build_g_delta(delta: int):
    """The g61 core plus delta-4 pendant leaves on each of v0, v2, v3."""
    hubs = ("v0", "v2", "v3")
    edges = list(_G61_EDGES)
    for hub in hubs:
        edges += [(hub, _leaf(hub, i)) for i in range(1, delta - 3)]
    facts = {"diameter": 3, "two_connected": False, "outerplanar": True}
    return edges, dict.fromkeys(hubs, delta), facts


#: family id -> (core edges, declared facts, fans).  A fan is (hub, leaves
#: beyond delta-4, chain start, chain end); every hub has degree delta.
_FAN_FAMILIES = {
    # m = 2n, over the outerplanar bound at every delta: it declares no class
    "h_prime": (_G61_EDGES, {"diameter": 3, "two_connected": True},
                (("v0", 0, "v1", "v4"), ("v2", 0, "v1", "v5"), ("v3", 0, "v5", "v4"))),
    "h_case1": (_G62_EDGES, {"diameter": 3, **_MOP},
                (("v0", 0, None, "v1"), ("v3", 0, None, "v5"), ("v4", 1, "v5", None))),
    # the v2 chain starts at apex v5 and the v3 chain ends at apex v6,
    # the orientation _h2_coloring expects
    "h2": (_H2_EDGES, {"diameter": 3, **_MOP}, (("v2", 0, "v5", None), ("v3", 0, None, "v6"))),
}


def _build_fans(family_id: str, delta: int):
    """A row of _FAN_FAMILIES: its core plus one leaf fan per hub."""
    core, facts, fans = _FAN_FAMILIES[family_id]
    edges = list(core)
    for hub, extra, start, end in fans:
        edges += _hub_fan_edges(hub, delta - 4 + extra, start, end)
    return edges, {hub: delta for hub, *_ in fans}, facts


# --- the max-degree-5 strip -------------------------------------------

# Six-block period read off the figure; colors 7, 8, 9 stand for the
# figure's a, b, c.  Each block is a hub fanned over a 5-vertex path:
# spokes s1..s5 and path edge colors (p1p2, p2p3, p3p4, p4p5).  A block
# shares its left slots with the previous block's right slots.
_STRIP_PHASES = {
    1: {"left": (1, 2), "right": (3, 4), "spokes": (2, 4, 9, 8, 5), "path": (8, 7, 1, 3)},
    2: {"left": (2, 3), "right": (4, 5), "spokes": (9, 6, 5, 4, 2), "path": (3, 1, 7, 9)},
    3: {"left": (2, 3), "right": (3, 4), "spokes": (6, 8, 3, 1, 9), "path": (5, 9, 5, 4)},
    4: {"left": (1, 2), "right": (3, 4), "spokes": (1, 7, 6, 9, 8), "path": (5, 8, 5, 4)},
    5: {"left": (2, 3), "right": (4, 5), "spokes": (9, 4, 3, 1, 7), "path": (2, 5, 7, 6)},
    0: {"left": (2, 3), "right": (3, 4), "spokes": (5, 4, 9, 3, 6), "path": (8, 6, 8, 5)},
}

STRIP_FIGURE_BLOCKS = 10
STRIP_PERIOD = 6


def _strip_layout(blocks: int):
    """Vertex roles, edges and the periodic coloring of the strip.

    Block t reuses the previous block's right-shared slots for its own
    left-shared slots; everything else is fresh.  Returns role edges with
    their colors so the graph and its 9-coloring come from one pass.
    """
    colored_edges: dict[tuple[str, str], int] = {}
    prev_right: tuple[str, str] | None = None
    for t in range(1, blocks + 1):
        phase = _STRIP_PHASES[t % STRIP_PERIOD]
        hub = f"b{t}h"
        slots: list[str | None] = [None] * 6  # 1-based positions
        if prev_right is not None:
            l1, l2 = phase["left"]
            slots[l1], slots[l2] = prev_right
        for pos in range(1, 6):
            if slots[pos] is None:
                slots[pos] = f"b{t}p{pos}"
        for pos in range(1, 6):
            _put(colored_edges, hub, slots[pos], phase["spokes"][pos - 1])
        for pos in range(1, 5):
            _put(colored_edges, slots[pos], slots[pos + 1], phase["path"][pos - 1])
        r1, r2 = phase["right"]
        prev_right = (slots[r1], slots[r2])
    return colored_edges


def _put(table: dict[tuple[str, str], int], r1: str, r2: str, color: int) -> None:
    key = (r1, r2) if r1 < r2 else (r2, r1)
    if key in table and table[key] != color:
        raise PostconditionFailed(
            f"strip period tables disagree on edge {key}: {table[key]} vs {color}"
        )
    table[key] = color


def _build_delta5_strip(blocks: int):
    facts = {"n": 4 * blocks + 2, "m": 8 * blocks + 1, "max_degree": 5, "maximal": True}
    return _strip_layout(blocks), {}, facts  # its role edges are the colored table's keys


def delta5_strip_coloring(blocks: int) -> EdgeColoring:
    """The figure's periodic star 9-coloring extended to the given size."""
    inst, colored_edges = _build("delta5_strip", {"blocks": blocks})
    return inst.edge_color_map(colored_edges)


# --- registry ----------------------------------------------------------

#: family id -> (builder, the parameter it takes or None, its least value, step)
_BUILDERS = {
    "path": (_build_path, "n", 2, 1),
    "cycle": (_build_cycle, "n", 3, 1),
    "fan": (_build_fan, "n", 3, 1),
    "g61": (_build_g61, None, 0, 1),
    "g61_prime": (_build_g61_prime, None, 0, 1),
    "g62": (_build_g62, None, 0, 1),
    "g_delta": (_build_g_delta, "delta", 5, 1),
    "h_prime": (partial(_build_fans, "h_prime"), "delta", 5, 1),
    "h_case1": (partial(_build_fans, "h_case1"), "delta", 4, 1),
    "h2": (partial(_build_fans, "h2"), "delta", 4, 1),
    "delta5_strip": (_build_delta5_strip, "blocks", STRIP_FIGURE_BLOCKS, STRIP_PERIOD),
}

FAMILY_IDS = tuple(_BUILDERS)


def build_family(family_id: str, **params: int) -> FamilyInstance:
    """Build a named family instance and check every fact its builder declares."""
    return _build(family_id, params)[0]


def _build(family_id: str, params: dict[str, int]):
    """The checked instance and the role edges its builder returned."""
    if family_id not in _BUILDERS:
        raise BadParams(f"unknown family id {family_id!r}; the ids are {', '.join(_BUILDERS)}")
    build, name, least, step = _BUILDERS[family_id]
    extra = sorted(set(params) - {name})
    if extra:
        raise BadParams(f"{family_id} takes no {', '.join(extra)}")
    args = ()
    if name is not None:
        value = params.get(name)
        if value is None or value < least or (value - least) % step:
            mod = f" and congruent to {least} mod {step}" if step > 1 else ""
            raise BadParams(f"{family_id} needs {name} >= {least}{mod}, got {value}")
        args = (value,)
    role_edges, role_degrees, facts = build(*args)
    return _check(_from_role_edges(family_id, role_edges), role_degrees, facts), role_edges


# --- closed-form coloring functions -------------------------------------

def _h_prime_coloring(delta: int) -> dict[tuple[str, str], int]:
    d = delta
    c: dict[tuple[str, str], int] = {}
    c[("v0", "v1")] = 1
    c[("v0", "v4")] = d - 2
    c[("v2", "v1")] = 2
    c[("v2", "v5")] = d + 2
    c[("v3", "v5")] = 1
    c[("v3", "v4")] = d + 2
    c[("v0", "v2")] = d
    c[("v0", "v3")] = d - 1
    c[("v2", "v3")] = d + 1
    for l in range(1, d - 3):
        c[("v0", _leaf("v0", l))] = l + 1
        c[("v2", _leaf("v2", l))] = l + 2
        c[("v3", _leaf("v3", l))] = l + 1
    c[("v1", _leaf("v0", 1))] = d + 3
    for m in range(2, d - 4):
        c[(_leaf("v0", m - 1), _leaf("v0", m))] = m + 3
    c[(_leaf("v0", d - 5), _leaf("v0", d - 4))] = d + 1
    c[(_leaf("v0", d - 4), "v4")] = d + 3
    c[("v1", _leaf("v2", 1))] = 5
    for n_ in range(2, d - 4):
        c[(_leaf("v2", n_ - 1), _leaf("v2", n_))] = n_ + 4
    c[(_leaf("v2", d - 5), _leaf("v2", d - 4))] = 2
    c[(_leaf("v2", d - 4), "v5")] = 3
    c[("v5", _leaf("v3", 1))] = 4
    for p in range(2, d - 5):
        c[(_leaf("v3", p - 1), _leaf("v3", p))] = p + 3
    c[(_leaf("v3", d - 6), _leaf("v3", d - 5))] = d + 2
    c[(_leaf("v3", d - 5), _leaf("v3", d - 4))] = d
    c[(_leaf("v3", d - 4), "v4")] = 2
    return c


def _h_case1_coloring(delta: int) -> dict[tuple[str, str], int]:
    d = delta
    c: dict[tuple[str, str], int] = {
        ("v0", "v1"): d - 3,
        ("v0", "v2"): d - 2,
        ("v0", "v3"): d + 1,
        ("v0", "v4"): d + 2,
        ("v3", "v5"): d - 1,
        ("v4", "v5"): d + 4,
        ("v1", "v2"): d + 3,
        ("v2", "v3"): d,
        ("v3", "v4"): d + 3,
    }
    for l in range(1, d - 3):
        c[("v0", _leaf("v0", l))] = l
        c[("v3", _leaf("v3", l))] = l + 2
    for p in range(1, d - 2):
        c[("v4", _leaf("v4", p))] = p + 2
    for l in range(1, d - 4):
        c[(_leaf("v0", l), _leaf("v0", l + 1))] = l + 3
        c[(_leaf("v3", l), _leaf("v3", l + 1))] = l
    for p in range(1, d - 3):
        c[(_leaf("v4", p), _leaf("v4", p + 1))] = p
    # terminus at v1 continues the consecutive rule one step (l+3 at l=d-4)
    c[(_leaf("v0", d - 4), "v1")] = d - 1
    c[(_leaf("v3", d - 4), "v5")] = d - 4
    c[("v5", _leaf("v4", 1))] = d
    return c


def _h2_coloring(delta: int) -> dict[tuple[str, str], int]:
    d = delta
    c: dict[tuple[str, str], int] = {
        ("v0", "v1"): d + 2,
        ("v0", "v2"): d - 1,
        ("v0", "v3"): d + 1,
        ("v0", "v4"): 5,
        ("v1", "v2"): d,
        ("v2", "v3"): d - 2,
        ("v3", "v4"): d,
        ("v1", "v5"): d + 1,
        ("v2", "v5"): 1,
        ("v3", "v6"): d - 3,
        ("v4", "v6"): d + 2,
    }
    for l in range(1, d - 3):
        c[("v2", _leaf("v2", l))] = l + 1
        c[("v3", _leaf("v3", l))] = l
    c[("v5", _leaf("v2", 1))] = 4
    for p in range(1, d - 6):
        c[(_leaf("v2", p), _leaf("v2", p + 1))] = p + 4
    c[(_leaf("v2", d - 6), _leaf("v2", d - 5))] = 1
    c[(_leaf("v2", d - 5), _leaf("v2", d - 4))] = 2
    for q in range(1, d - 5):
        c[(_leaf("v3", q), _leaf("v3", q + 1))] = q + 3
    c[(_leaf("v3", d - 5), _leaf("v3", d - 4))] = 1
    # chain terminus: the v3 fan ends at apex v6 (see _FAN_FAMILIES)
    c[(_leaf("v3", d - 4), "v6")] = 2
    return c


#: family id -> (least delta it is stated for, closed-form rule, claimed palette - delta)
_FORMULAS = {
    "h_prime": (9, _h_prime_coloring, 3),
    "h_case1": (7, _h_case1_coloring, 4),
    "h2": (10, _h2_coloring, 2),
}


def _formula(family_id: str):
    if family_id not in _FORMULAS:
        raise OutOfRange(f"no closed-form coloring for family {family_id!r}")
    return _FORMULAS[family_id]


def formula_coloring(family_id: str, delta: int) -> EdgeColoring:
    """The family's closed-form coloring, index ranges taken literally.

    Claimed palettes: h_prime delta+3, h_case1 delta+4, h2 delta+2, each
    from its least delta in _FORMULAS on.  Validity is not asserted here.
    """
    lo, rule, _ = _formula(family_id)
    if delta < lo:
        raise OutOfRange(f"the {family_id} coloring function is stated for delta >= {lo}")
    return build_family(family_id, delta=delta).edge_color_map(rule(delta))


def claimed_palette(family_id: str, delta: int) -> int:
    return delta + _formula(family_id)[2]


# --- figure catalog ------------------------------------------------------

#: figure id -> (family id, params, claimed palette)
FIGURES: dict[str, tuple[str, dict[str, int], int]] = {
    "fig1": ("g61", {}, 6),
    "fig2": ("g61_prime", {}, 4),
    "fig3_f6": ("fan", {"n": 6}, 6),
    "fig3_f7": ("fan", {"n": 7}, 7),
    "fig8a": ("h_prime", {"delta": 5}, 9),
    "fig8b": ("h_prime", {"delta": 6}, 9),
    "fig8c": ("h_prime", {"delta": 7}, 11),
    "fig8d": ("h_prime", {"delta": 8}, 11),
    "fig8e": ("h_prime", {"delta": 9}, 12),
    "fig10a": ("h_case1", {"delta": 4}, 6),
    "fig10b": ("h_case1", {"delta": 5}, 8),
    "fig10c": ("h_case1", {"delta": 6}, 9),
    "fig10d": ("h_case1", {"delta": 7}, 11),
    "fig11a": ("h2", {"delta": 4}, 7),
    "fig11b": ("h2", {"delta": 5}, 8),
    "fig11c": ("h2", {"delta": 6}, 9),
    "fig11d": ("h2", {"delta": 7}, 10),
    "fig11e": ("h2", {"delta": 8}, 11),
    "fig11f": ("h2", {"delta": 9}, 11),
    "fig11g": ("h2", {"delta": 10}, 12),
    "fig12": ("delta5_strip", {"blocks": STRIP_FIGURE_BLOCKS}, 9),
}


def _load_figure_table(figure_id: str) -> dict[tuple[str, str], int]:
    package = resources.files("starchrome").joinpath("data", "figures")
    path = package.joinpath(f"{figure_id}.txt")
    if not path.is_file():
        raise UnknownFigure(f"figure data file {figure_id}.txt is missing")
    table: dict[tuple[str, str], int] = {}
    text = path.read_text()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# starchrome figure table v1"):
        raise MalformedText(f"{figure_id}.txt lacks the v1 header")
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise MalformedText(f"bad line in {figure_id}.txt: {line!r}")
        r1, r2, color = parts[0], parts[1], int(parts[2])
        table[(r1, r2) if r1 < r2 else (r2, r1)] = color
    return table


def figure_coloring(figure_id: str) -> tuple[FamilyInstance, EdgeColoring]:
    """The literal coloring shipped for one cataloged drawing."""
    if figure_id not in FIGURES:
        raise UnknownFigure(f"unknown figure id {figure_id!r}")
    family_id, params, _ = FIGURES[figure_id]
    inst = build_family(family_id, **params)
    table = _load_figure_table(figure_id)
    return inst, inst.edge_color_map(table)


def family_coloring(family_id: str, delta: int) -> tuple[str, EdgeColoring, int]:
    """The coloring the paper gives for a family at one delta, as
    (source, coloring, claimed palette): the closed form ("formula") from
    its least delta on, else the figure drawn at that delta."""
    if family_id not in _FORMULAS:
        raise OutOfRange(f"family-check supports {sorted(_FORMULAS)}, not {family_id!r}")
    if delta >= _FORMULAS[family_id][0]:
        return "formula", formula_coloring(family_id, delta), claimed_palette(family_id, delta)
    for figure_id, (family, params, claim) in FIGURES.items():
        if family == family_id and params == {"delta": delta}:
            return figure_id, figure_coloring(figure_id)[1], claim
    raise OutOfRange(f"{family_id} has no coloring at delta={delta}")
