"""Seeded random instances: grafts, combs, and ear-grown critical quasicombs.

All sampling runs on ``random.Random`` (Mersenne Twister) seeded explicitly,
so a config reproduces its instances byte for byte on any platform.  Every
draw is valid by construction, so it is assembled without the
constructors' checks (``assemble_graph``, ``assemble_graft``, ``ear_step``).  A comb
takes one draw: every tooth vertex owns exactly one join edge, which makes
that join minimum.  Critical quasicombs are grown forward by composing
random proper ear steps, each drawn by ``random_ear_step``, which by the
characterization theorem cannot produce anything else.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import (
    CapacityError,
    Edge,
    Graft,
    GraftInputError,
    InternalConsistencyError,
    OrderedBipartiteGraft,
    assemble_graft,
    assemble_graph,
    graft_sum,
    odd_degree_vertices,
    sorted_vertices,
)

if TYPE_CHECKING:
    from .combs import EarStep, GraftEarDecomposition

_MODES = ("graft", "comb", "critical-quasicomb")

# The samplers draw one coin per vertex pair, so memory grows as n²: a much
# larger request is refused up front instead of exhausting memory.
_MAX_VERTICES = 500


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the random generators.

    ``vertices`` is the inclusive range, up to _MAX_VERTICES, from which
    a generator draws its vertex count n.  A graft has exactly n
    vertices.  A comb has max(2, n): it needs a spine and a tooth vertex.
    A critical quasicomb grows from its root by whole ears, at least one,
    until it has n vertices, so its last ear may take it up to 2 past n
    (a draw of 1 still gives 2).  The densities are per-slot probabilities
    in [0, 1], and ``budget`` caps the ear steps of a grown critical
    quasicomb, which may stop it short of n, and nothing else.
    """

    seed: int = 0
    vertices: tuple[int, int] = (4, 10)
    edge_density: float = 0.35
    terminal_density: float = 0.5
    budget: int = 300
    mode: str = "graft"

    def __post_init__(self):
        try:
            lo, hi = self.vertices
        except (TypeError, ValueError):
            lo = hi = None
        if type(lo) is not int or type(hi) is not int:
            raise GraftInputError(
                f"vertex-count range {self.vertices!r} is not a pair of ints")
        if lo < 1 or hi < lo:
            raise GraftInputError(f"empty vertex-count range {self.vertices!r}")
        if hi > _MAX_VERTICES:
            raise CapacityError(
                f"{hi} vertices exceed the generator cap of {_MAX_VERTICES}")
        for label, value in (("edge", self.edge_density),
                             ("terminal", self.terminal_density)):
            if not 0.0 <= value <= 1.0:
                raise GraftInputError(f"{label} density {value!r} is not in [0, 1]")
        if self.budget < 1:
            raise GraftInputError("the ear-step budget must be at least 1")
        if self.mode not in _MODES:
            raise GraftInputError(f"unknown generator mode {self.mode!r}")

    def rng(self) -> random.Random:
        return random.Random(self.seed)


def _sample_edges(rng: random.Random, pairs, density: float):
    """One coin per vertex pair, plus a rarer coin for a parallel twin."""
    edges = []
    counter = itertools.count()
    for u, v in pairs:
        if rng.random() < density:
            edges.append((f"e{next(counter)}", u, v))
            if rng.random() < density / 3:
                edges.append((f"e{next(counter)}", u, v))
    return edges


def gen_random_graft(cfg: GenConfig, rng: random.Random | None = None) -> Graft:
    """A random multigraph graft with the terminal parity repaired.

    Terminals are sampled per vertex; any component left with an odd count
    has its least vertex toggled, which restores parity without touching
    the rest of the sample.
    """
    rng = rng or cfg.rng()
    n = rng.randint(*cfg.vertices)
    names = [f"v{i}" for i in range(n)]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    graph = assemble_graph(frozenset(names), (
        Edge(*e) for e in _sample_edges(rng, pairs, cfg.edge_density)))
    terminals = {v for v in names if rng.random() < cfg.terminal_density}
    for root, comp in zip(graph.component_roots, graph.components()):
        if len(terminals & comp) % 2:
            terminals ^= {root}
    return assemble_graft(graph, frozenset(terminals))


def gen_random_comb(cfg: GenConfig,
                    rng: random.Random | None = None) -> OrderedBipartiteGraft:
    """A random comb, in one draw.

    The draw is a bipartite graph in which every tooth vertex gets one
    incident join edge; the terminals are the odd-degree vertices of those
    edges: the tooth side plus the spine vertices of odd join degree.  Each
    edge meets one tooth vertex, so every join has at least one edge per
    tooth vertex: the drawn join is minimum, with as many edges as teeth.
    """
    rng = rng or cfg.rng()
    n = max(2, rng.randint(*cfg.vertices))
    a_count = rng.randint(1, n - 1)
    spine = [f"a{i}" for i in range(a_count)]
    tooth = [f"b{i}" for i in range(n - a_count)]
    edges = _sample_edges(rng, [(a, b) for a in spine for b in tooth],
                          cfg.edge_density)
    counter = itertools.count(len(edges))
    owned: dict = {b: [] for b in tooth}
    for eid, _, b in edges:
        owned[b].append(eid)
    for b in tooth:
        if not owned[b]:
            eid = f"e{next(counter)}"
            edges.append((eid, spine[rng.randrange(a_count)], b))
            owned[b].append(eid)
    fset = frozenset(rng.choice(owned[b]) for b in tooth)
    terminals = odd_degree_vertices(
        (a, b) for eid, a, b in edges if eid in fset)
    return assemble_graft(
        assemble_graph(frozenset(spine + tooth), (Edge(*e) for e in edges)),
        terminals, frozenset(spine), frozenset(tooth))


# ---------------------------------------------------------------------------
# Ear-step composition.
# ---------------------------------------------------------------------------

_KINDS = ("straight", "round", "circuit")
_KIND_WEIGHTS = (0.45, 0.35, 0.2)


def _pick_bond(rng: random.Random, base: OrderedBipartiteGraft):
    return rng.choice(sorted_vertices(base.graph.vertices))


def _side_run(base: OrderedBipartiteGraft, anchor, length: int,
              fresh) -> tuple[list, set]:
    """New vertices walking away from ``anchor``, alternating sides.

    Returns them ordered from the far end toward the anchor, together with
    the set of those that landed on the tooth side.
    """
    anchor_spine = anchor in base.spine
    run: list = []
    toothy: set = set()
    for back in range(1, length + 1):
        on_spine = anchor_spine == (back % 2 == 0)
        name = f"a{next(fresh)}" if on_spine else f"b{next(fresh)}"
        if not on_spine:
            toothy.add(name)
        run.insert(0, name)
    return run, toothy


def _choose_join_edges(rng: random.Random, vs: tuple, eids: tuple,
                       new_tooth: set, forced: dict) -> frozenset:
    """Give every new tooth vertex exactly one incident walk edge.

    ``forced`` maps a vertex to the edge position it must (True) or must
    not (False) select; unconstrained interior vertices choose at random.
    """
    incident: dict = {}
    for i, eid in enumerate(eids):
        for v in (vs[i], vs[i + 1]):
            if v in new_tooth:
                incident.setdefault(v, []).append(i)
    picked = set()
    for v in sorted(incident):
        slots = incident[v]
        want, position = forced.get(v, (None, None))
        if want is True:
            choice = position
        elif want is False:
            others = [i for i in slots if i != position]
            choice = others[0] if len(others) == 1 else rng.choice(others)
        elif len(slots) == 1:
            choice = slots[0]
        else:
            choice = rng.choice(slots)
        picked.add(eids[choice])
    return frozenset(picked)


# Each sampler returns a walk's vertices, its bonds, its new tooth vertices
# and the join choices it forces; ``random_ear_step`` does the rest.
def _straight_step(rng: random.Random, base: OrderedBipartiteGraft, fresh):
    bond = _pick_bond(rng, base)
    run, toothy = _side_run(base, bond, rng.randint(1, 3), fresh)
    vs = tuple(run) + (bond,)
    forced: dict = {}
    if vs[0] not in toothy and len(vs) > 2 and vs[1] in toothy:
        forced[vs[1]] = (False, 0)
    if bond in base.spine and vs[-2] in toothy:
        forced[vs[-2]] = (True, len(vs) - 2)
    return vs, (bond,), toothy, forced


def _round_step(rng: random.Random, base: OrderedBipartiteGraft, fresh):
    s, t = rng.sample(sorted_vertices(base.graph.vertices), 2)
    same_side = (s in base.spine) == (t in base.spine)
    inner = rng.choice((1, 3)) if same_side else rng.choice((0, 2))
    run, toothy = _side_run(base, t, inner, fresh)
    return (s,) + tuple(run) + (t,), (s, t), toothy, {}


def _circuit_step(rng: random.Random, base: OrderedBipartiteGraft, fresh):
    bond = _pick_bond(rng, base)
    run, toothy = _side_run(base, bond, rng.choice((1, 3)), fresh)
    return (bond,) + tuple(run) + (bond,), (bond,), toothy, {}


def random_ear_step(rng: random.Random, base: OrderedBipartiteGraft,
                    fresh) -> tuple[EarStep, frozenset]:
    """One random proper ear step against ``base``.

    ``fresh`` is an iterator of unused integer suffixes shared across steps.
    Every new tooth vertex selects exactly one of its walk edges into the
    join share; straight ears respect the free-end and bond placement rules,
    so the returned step passes validation with no advisory findings.
    Returns the step together with its join share.
    """
    from .combs import ear_step, validate_ear_step
    kind = rng.choices(_KINDS, weights=_KIND_WEIGHTS)[0]
    if kind == "round" and len(base.graph.vertices) < 2:
        kind = rng.choice(("straight", "circuit"))
    if kind == "straight":
        walk = _straight_step(rng, base, fresh)
    elif kind == "round":
        walk = _round_step(rng, base, fresh)
    else:
        walk = _circuit_step(rng, base, fresh)
    vs, bonds, new_tooth, forced = walk
    eids = tuple(f"e{next(fresh)}" for _ in range(len(vs) - 1))
    fpart = _choose_join_edges(rng, vs, eids, new_tooth, forced)
    step = ear_step(vs, eids, bonds, fpart, base.tooth | new_tooth)
    ok, violations = validate_ear_step(base, step)
    if not ok:
        raise InternalConsistencyError(
            "the step sampler produced an invalid ear: "
            + "; ".join(v.message for v in violations))
    return step, fpart


def gen_random_critical_quasicomb(
        cfg: GenConfig,
        rng: random.Random | None = None) -> tuple[GraftEarDecomposition, frozenset]:
    """Grow a critical quasicomb from the bare root ``r`` by random ear steps.

    Returns the recorded decomposition and the accumulated join, which is
    minimum for the target by the per-tooth ownership bound.
    """
    from .combs import GraftEarDecomposition, bare_root
    rng = rng or cfg.rng()
    goal = rng.randint(*cfg.vertices)
    fresh = itertools.count(1)
    current = bare_root("r")
    steps: list[EarStep] = []
    fset: set = set()
    while len(current.graph.vertices) < goal or not steps:
        if len(steps) >= cfg.budget:
            break
        step, share = random_ear_step(rng, current, fresh)
        current = graft_sum(current, step.as_graft())
        steps.append(step)
        fset |= share
    return GraftEarDecomposition("r", tuple(steps), current), frozenset(fset)


def generate(cfg: GenConfig):
    """Dispatch on ``cfg.mode``; the common entry point for the CLI."""
    if cfg.mode == "graft":
        return gen_random_graft(cfg)
    if cfg.mode == "comb":
        return gen_random_comb(cfg)
    return gen_random_critical_quasicomb(cfg)
