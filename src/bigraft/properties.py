"""The property-test suite: every structural claim as a replayable check.

Each property names an invariant, the kind of instance it consumes, and a
check that returns a transcript of what went wrong (empty means pass).
``run_property_suite`` executes selected properties over seeded random
instances and reports counterexamples as certificates carrying the exact
seed string and the serialized instance, so a failure replays byte for
byte.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Callable

from .cathedral import (
    cathedral_poset,
    enumerate_critical_sets,
    is_critical_set,
    upper_bound_check,
)
from .combs import (
    GraftEarDecomposition,
    build_graft_ear_decomposition,
    is_critical_quasicomb,
    verify_graft_ear_decomposition,
)
from .core import (
    BigraftError,
    CapacityError,
    GraftInputError,
    InternalConsistencyError,
    Multigraph,
    OrderedBipartiteGraft,
    contract_graft,
    graft_sum,
    is_join,
    simple_circuits,
    simple_paths,
    sorted_vertices,
    validate_graft,
)
from .decomposition import (
    factor_components,
    induced_subgraft,
    kl_classes_of_component,
    kl_partition,
)
from .formats import REPORT_SCHEMA, graft_document
from .generators import (
    GenConfig,
    gen_random_comb,
    gen_random_critical_quasicomb,
    gen_random_graft,
)
from .joins import (
    all_min_joins,
    extract_shortest_path,
    f_distance,
    f_distance_int,
    f_weight,
    is_allowed_edge,
    is_minimum_join,
    min_join,
    min_join_bruteforce,
    walk_report,
)


@dataclass(frozen=True)
class PropertyCheck:
    """One named invariant: the instance kind it consumes and its check."""

    name: str
    summary: str
    mode: str
    check: Callable


@dataclass(frozen=True)
class Certificate:
    """A replayable counterexample: seed string, instance, and transcript."""

    property_name: str
    trial: int
    seed: str
    instance: dict
    transcript: tuple[str, ...]


@dataclass(frozen=True)
class SuiteReport:
    """Per-property pass/fail counts plus the certificates behind them."""

    trials: int
    results: tuple[tuple[str, int, int], ...]
    certificates: tuple[Certificate, ...]
    wall_time: float

    def __post_init__(self):
        if sum(f for _, _, f in self.results) != len(self.certificates):
            raise InternalConsistencyError(
                "failure counts disagree with the certificate list")

    @property
    def failures(self) -> int:
        return len(self.certificates)

    @property
    def ok(self) -> bool:
        return not self.certificates


def suite_report_document(report: SuiteReport) -> dict:
    """The canonical JSON document for a suite run.

    Timing stays out of the document so identical runs stay byte-identical;
    the caller may surface ``wall_time`` separately.
    """
    return {
        "schema": REPORT_SCHEMA,
        "trials": report.trials,
        "properties": [{"name": n, "passed": p, "failed": f}
                       for n, p, f in report.results],
        "certificates": [{
            "property": c.property_name,
            "trial": c.trial,
            "seed": c.seed,
            "instance": c.instance,
            "transcript": list(c.transcript),
        } for c in report.certificates],
    }


# ---------------------------------------------------------------------------
# Instance makers.  Sizes are clamped per mode so brute-force oracles and
# exhaustive enumerations stay cheap regardless of the caller's config.
# ---------------------------------------------------------------------------

def _clamped(cfg: GenConfig, lo: int, hi: int) -> GenConfig:
    lo2 = max(lo, min(cfg.vertices[0], hi))
    hi2 = max(lo2, min(cfg.vertices[1], hi))
    return replace(cfg, vertices=(lo2, hi2))


_MAKER_DRAWS = 300


def _retrying(generate, lo: int, hi: int, keep, what: str, fallback=None):
    """A maker: the first of _MAKER_DRAWS draws of ``generate``, at sizes
    clamped to [lo, hi], that ``keep`` accepts.

    When every draw is rejected, ``fallback`` turns the last one into an
    instance; without a fallback the maker gives up with CapacityError.
    """
    def make(cfg: GenConfig, rng: random.Random):
        small = _clamped(cfg, lo, hi)
        for _ in range(_MAKER_DRAWS):
            instance = generate(small, rng)
            if keep(instance):
                return instance
        if fallback is not None:
            return fallback(instance)
        raise CapacityError(f"no {what} within {_MAKER_DRAWS} attempts")
    return make


def _largest_factor_part(g):
    """Restrict a draw to its largest factor component X.

    X is separating, so the restriction inherits minimum joins and is
    factor-connected.
    """
    X = max(factor_components(g).vertex_sets(), key=len)
    part = induced_subgraft(g, X)
    if len(factor_components(part)) != 1:
        raise InternalConsistencyError(
            f"the factor component {sorted_vertices(X)!r} of a draw is not "
            "factor-connected on its own")
    return part


def _may_be_factor_connected(g) -> bool:
    """False when a draw with at least two vertices, as the makers it
    serves clamp theirs, surely has a vertex that no allowed edge reaches,
    so it is not factor-connected.

    That holds when the graph is disconnected; when there are no
    terminals (the only minimum join is empty); and when a non-terminal
    vertex has degree 1 (a join meets it in an even number of edges, so
    never in its one edge).  Each test is cheaper than the join table
    ``factor_components`` builds, and none changes a verdict.
    """
    graph = g.graph
    return (bool(g.terminals) and len(graph.components()) == 1
            and all(graph.degree(v) != 1 for v in graph.vertices - g.terminals))


def _factor_connected(g) -> bool:
    """The factor-connected makers' keep-test: the edge cap, then the cheap
    rejections, then the join table."""
    return (len(g.graph.edges) <= 18 and _may_be_factor_connected(g)
            and len(factor_components(g)) == 1)


def _make_critical_quasicomb(cfg, rng):
    """The grown decomposition alone: each check finds its own join."""
    d, _ = gen_random_critical_quasicomb(_clamped(cfg, 3, 10), rng)
    return d


_MAKERS = {
    "graft": _retrying(
        gen_random_graft, 2, 10, lambda g: len(g.graph.edges) <= 20,
        "small graft"),
    "connected-graft": _retrying(
        gen_random_graft, 2, 8,
        lambda g: len(g.graph.components()) == 1 and len(g.graph.edges) <= 18,
        "connected graft"),
    "factor-connected-graft": _retrying(
        gen_random_graft, 2, 8, _factor_connected, "factor-connected graft",
        _largest_factor_part),
    "comb": _retrying(
        gen_random_comb, 2, 10, lambda g: len(g.graph.edges) <= 20,
        "small comb"),
    "factor-connected-comb": _retrying(
        gen_random_comb, 2, 8, _factor_connected, "factor-connected comb",
        _largest_factor_part),
    "component-rich-comb": _retrying(
        gen_random_comb, 4, 9, lambda g: 2 <= len(factor_components(g)) <= 6,
        "comb with 2-6 factor components"),
    "critical-quasicomb": _make_critical_quasicomb,
}


def _instance_document(instance) -> dict:
    if isinstance(instance, GraftEarDecomposition):
        instance = instance.target
    return graft_document(instance)


def _sample_pairs(rng, vertices, count: int):
    vs = sorted_vertices(vertices)
    pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
    if len(pairs) <= count:
        return pairs
    return rng.sample(pairs, count)


def _random_vertex_subset(rng, vertices) -> frozenset:
    vs = sorted_vertices(vertices)
    return frozenset(rng.sample(vs, rng.randint(1, len(vs))))


def _component_union(rng, comps) -> frozenset:
    chosen = [c for c in comps if rng.random() < 0.5]
    if not chosen:
        chosen = [comps.components[rng.randrange(len(comps))]]
    out: frozenset = frozenset()
    for c in chosen:
        out |= c.vertices
    return out


# ---------------------------------------------------------------------------
# Checks.  Each returns a tuple of transcript lines; empty means pass.
# ---------------------------------------------------------------------------

def _check_contraction_valid(g, rng):
    X = _random_vertex_subset(rng, g.graph.vertices)
    contracted, _ = contract_graft(g, X)
    if not validate_graft(contracted.graph, contracted.terminals):
        return (f"contracting {sorted_vertices(X)!r} broke terminal parity",)
    return ()


def _check_disjoint_join_union(g, rng):
    partner = gen_random_comb(GenConfig(seed=0, vertices=(2, 6)), rng)
    renamed = Multigraph.build(
        [f"p{v}" for v in partner.graph.vertices],
        [(f"y{e.id}", f"p{e.u}", f"p{e.v}") for e in partner.graph.edges])
    g2 = OrderedBipartiteGraft(renamed,
                               frozenset(f"p{v}" for v in partner.terminals),
                               frozenset(f"p{v}" for v in partner.spine),
                               frozenset(f"p{v}" for v in partner.tooth))
    union = min_join(g).edge_ids | {f"y{eid}" for eid in min_join(partner)}
    total = graft_sum(g, g2)
    if not is_join(total, union):
        return ("the union of disjoint minimum joins is not a join "
                "of the graft sum",)
    if not is_minimum_join(total, union):
        return ("the union of disjoint minimum joins is not minimum "
                "for the graft sum",)
    return ()


def _check_contraction_keeps_joins(g, rng):
    F = min_join(g).edge_ids
    X = _random_vertex_subset(rng, g.graph.vertices)
    contracted, _ = contract_graft(g, X)
    inside = {e.id for e in g.graph.edges if e.u in X and e.v in X}
    if not is_join(contracted, F - inside):
        return (f"join minus the interior of {sorted_vertices(X)!r} "
                "is not a join of the contraction",)
    return ()


def _check_induced_share(g, rng):
    comps = factor_components(g)
    X = _component_union(rng, comps)
    inner = induced_subgraft(g, X)
    share = min_join(g).edge_ids & inner.graph.edge_ids()
    if not is_join(inner, share):
        return (f"the minimum-join share inside {sorted_vertices(X)!r} "
                "is not a join of the induced subgraft",)
    return ()


def _check_join_sizes(g, rng):
    fast = len(min_join(g).edge_ids)
    brute = len(min_join_bruteforce(g).edge_ids)
    if fast != brute:
        return (f"fast backend found {fast} edges, brute force {brute}",)
    return ()


def _brute_path_distance(g, F, u, v) -> int:
    return min(f_weight(F, walk.edge_ids)
               for walk in simple_paths(g.graph, u, goal=v, cap=20000)
               if walk.edge_ids)


def _pair_distances(g):
    """(u, v, f_distance_int(g, u, v)) for every pair u < v, in sorted
    vertex order."""
    vs = sorted_vertices(g.graph.vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            yield u, v, f_distance_int(g, u, v)


def _check_distance_oracle(g, rng):
    joins = all_min_joins(g)[:2]
    out = []
    for u, v, got in _pair_distances(g):
        for F in joins:
            want = _brute_path_distance(g, F, u, v)
            if got != want:
                out.append(f"f_distance({u!r}, {v!r}) = {got} but the "
                           f"best path weight under {sorted(F)!r} is {want}")
    return tuple(out)


def _check_factor_connected_nonpositive(g, rng):
    return tuple(f"f_distance({u!r}, {v!r}) = {d!r} is positive"
                 for u, v, d in _pair_distances(g) if d > 0)


def _check_zero_circuits(g, rng):
    F = min_join(g)
    out = []
    seen = 0
    for circuit in simple_circuits(g.graph, max_edges=8):
        if f_weight(F, circuit.edge_ids) != 0:
            continue
        seen += 1
        toggled = F.edge_ids ^ frozenset(circuit.edge_ids)
        if not is_minimum_join(g, toggled):
            out.append(f"toggling the weight-zero circuit {circuit.edge_ids!r} "
                       "did not yield a minimum join")
        for eid in circuit.edge_ids:
            if not is_allowed_edge(g, eid):
                out.append(f"edge {eid!r} on a weight-zero circuit is not allowed")
        if seen >= 5:
            break
    return tuple(out)


def _check_distance_basics(g, rng):
    out = []
    for v in sorted_vertices(g.graph.vertices):
        if f_distance(g, v, v).value != 0:
            out.append(f"f_distance({v!r}, {v!r}) is not zero")
    for u, v in _sample_pairs(rng, g.graph.vertices, 6):
        if f_distance(g, u, v).value != f_distance(g, v, u).value:
            out.append(f"f_distance is asymmetric on ({u!r}, {v!r})")
    return tuple(out)


def _check_extracted_weight(g, rng):
    F = min_join(g)
    out = []
    for u, v in _sample_pairs(rng, g.graph.vertices, 6):
        rep = extract_shortest_path(g, F, u, v)
        want = f_distance_int(g, u, v)
        if rep.weight != want:
            out.append(f"extracted {u!r}-{v!r} path weighs {rep.weight}, "
                       f"f_distance says {want}")
    return tuple(out)


def _check_kl_consistent(g, rng):
    try:
        part = kl_partition(g)
    except InternalConsistencyError as exc:
        return (f"partition audit failed: {exc}",)
    comps = factor_components(g)
    out = []
    for u, v in _sample_pairs(rng, g.graph.vertices, 8):
        same = part.same_class(u, v)
        together = (comps.component_of(u).id == comps.component_of(v).id
                    and f_distance_int(g, u, v) == 0)
        if same != together:
            out.append(f"class membership of ({u!r}, {v!r}) disagrees with "
                       "distance zero inside a shared component")
    return tuple(out)


def _check_comb_kl_shape(g, rng):
    part = kl_partition(g)
    out = []
    for comp in factor_components(g):
        classes = kl_classes_of_component(part, comp.id)
        spine_part = comp.vertices & g.spine
        spine_classes = [cls for cls in classes if cls & g.spine]
        if spine_part and spine_classes != [spine_part]:
            out.append(f"component {comp.id!r}: its spine is not a single class")
        if not spine_part and spine_classes:
            out.append(f"component {comp.id!r}: ghost spine class")
        covered: frozenset = frozenset()
        for cls in classes:
            if cls <= g.tooth:
                covered |= cls
        if covered != comp.vertices & g.tooth:
            out.append(f"component {comp.id!r}: tooth classes do not "
                       "partition its tooth vertices")
    return tuple(out)


def _check_comb_distance_signs(g, rng):
    out = []
    for u, v, d in _pair_distances(g):
        ends = (u in g.spine) + (v in g.spine)
        if ends == 2 and d != 0:
            out.append(f"spine pair ({u!r}, {v!r}) at distance {d!r}")
        elif ends == 1 and d != -1:
            out.append(f"mixed pair ({u!r}, {v!r}) at distance {d!r}")
        elif ends == 0 and d not in (0, -2):
            out.append(f"tooth pair ({u!r}, {v!r}) at distance {d!r}")
    return tuple(out)


def _check_cut_misses_joins(g, rng):
    comps = factor_components(g)
    X = _component_union(rng, comps)
    cut = {e.id for e in g.graph.edges if (e.u in X) != (e.v in X)}
    out = []
    for F in all_min_joins(g)[:16]:
        hit = sorted(cut & F)
        if hit:
            out.append(f"minimum join {sorted(F)!r} crosses the separating "
                       f"set {sorted_vertices(X)!r} on {hit!r}")
    return tuple(out)


def _check_composition_critical(d, rng):
    report = is_critical_quasicomb(d.target, d.root)
    if not report.critical:
        return ("a composition of proper ear steps is not critical: "
                + "; ".join(report.problems),)
    return ()


def _check_builder_round_trip(d, rng):
    F = min_join(d.target)
    rebuilt = build_graft_ear_decomposition(d.target, d.root, F)
    report = verify_graft_ear_decomposition(rebuilt, F)
    if not report.valid:
        return ("the rebuilt decomposition fails verification: "
                + "; ".join(report.problems),)
    return ()


def _check_builder_step_joins(d, rng):
    F = min_join(d.target)
    rebuilt = build_graft_ear_decomposition(d.target, d.root, F)
    report = verify_graft_ear_decomposition(rebuilt, F)
    out = []
    for check in report.step_checks:
        if check.step_join_minimum is not True:
            out.append(f"step {check.index} join share is not a minimum join "
                       "of the step graft")
    return tuple(out)


def _check_critical_join_shapes(d, rng):
    g, r = d.target, d.root
    F = min_join(g)
    fset = F.edge_ids
    out = []
    if any(e.id in fset for e in g.graph.incident(r)):
        out.append("the root touches the join")
    for b in sorted_vertices(g.tooth - {r}):
        degree = sum(e.id in fset for e in g.graph.incident(b))
        if degree != 1:
            out.append(f"tooth vertex {b!r} has join degree {degree}")
            continue
        rep = extract_shortest_path(g, F, b, r)
        if rep.weight != 0 or rep.balanced is not True:
            out.append(f"shortest {b!r}-root path: weight {rep.weight}, "
                       f"balanced {rep.balanced!r}")
        elif rep.walk.edge_ids[0] not in fset:
            out.append(f"shortest {b!r}-root path starts off the join")
    for a in sorted_vertices(g.spine):
        rep = extract_shortest_path(g, F, a, r)
        if rep.weight != 1 or rep.balanced is not True:
            out.append(f"shortest {a!r}-root path: weight {rep.weight}, "
                       f"balanced {rep.balanced!r}")
    return tuple(out)


def _check_quasicomb_path_weights(d, rng):
    g = d.target
    F = min_join(g)
    out = []
    for u, v in _sample_pairs(rng, g.graph.vertices, 4):
        for walk in simple_paths(g.graph, u, goal=v, cap=4000):
            if not walk.edge_ids:
                continue
            rep = walk_report(F, walk, g.tooth)
            if not rep.balanced:
                continue
            ends_on_tooth = [w for w in (walk.vertices[0], walk.vertices[-1])
                             if w in g.tooth]
            end_edges = []
            if walk.vertices[0] in g.tooth:
                end_edges.append(walk.edge_ids[0])
            if walk.vertices[-1] in g.tooth:
                end_edges.append(walk.edge_ids[-1])
            in_join = sum(eid in F.edge_ids for eid in end_edges)
            want = {0: 0, 1: 1 - 2 * in_join, 2: 2 - 2 * in_join}[
                len(ends_on_tooth)]
            if rep.weight != want:
                out.append(f"balanced {u!r}-{v!r} path weighs {rep.weight}, "
                           f"expected {want}")
    return tuple(out)


def _check_quasicomb_floors(d, rng):
    g = d.target
    out = []
    for u, v, d_uv in _pair_distances(g):
        floor = -((u in g.tooth) + (v in g.tooth))
        if d_uv < floor:
            out.append(f"f_distance({u!r}, {v!r}) = {d_uv} is below "
                       f"the floor {floor}")
    return tuple(out)


def _check_poset_axioms(g, rng):
    try:
        cathedral_poset(g)
    except InternalConsistencyError as exc:
        return (f"order axioms failed: {exc}",)
    return ()


def _check_monotone_consistency(g, rng):
    comps = factor_components(g)
    precedes = cathedral_poset(g).precedes
    out = []
    for comp in comps:
        for xs in enumerate_critical_sets(g, comp.id):
            for other in comps:
                if other.vertices <= xs and not precedes(comp.id, other.id):
                    out.append(f"{comp.id!r} has a critical set covering "
                               f"{other.id!r} yet does not precede it")
    return tuple(out)


def _check_upper_attachment(g, rng):
    out = []
    for comp in factor_components(g):
        report = upper_bound_check(g, comp.id)
        for entry in report.entries:
            if entry.witness_class is not None and \
                    not entry.witness_class <= g.tooth:
                out.append(f"witness class for {comp.id!r} leaves the tooth side")
        if not report.holds:
            out.append(f"no single tooth class contains an upper piece's "
                       f"neighborhood in {comp.id!r}")
    return tuple(out)


def _check_certificate_shape(g, rng):
    out = []
    for comp in factor_components(g):
        for xs in enumerate_critical_sets(g, comp.id):
            ok, cert = is_critical_set(g, comp.id, xs)
            if not ok:
                out.append(f"enumerated set {sorted_vertices(xs)!r} no longer "
                           f"verifies for {comp.id!r}")
                continue
            if cert.contracted_vertex not in cert.contraction.tooth:
                out.append(f"contracted vertex for {comp.id!r} is off "
                           "the tooth side")
            for v, value in cert.table:
                want = 1 if v in cert.contraction.spine else 0
                if value != want:
                    out.append(f"distance table entry {v!r} is {value}, "
                               f"expected {want}")
    return tuple(out)


PROPERTIES: tuple[PropertyCheck, ...] = (
    PropertyCheck("contraction-stays-valid",
                  "contracting any vertex set preserves graft validity",
                  "graft", _check_contraction_valid),
    PropertyCheck("disjoint-joins-sum",
                  "disjoint joins unite into a join of the graft sum",
                  "comb", _check_disjoint_join_union),
    PropertyCheck("contraction-keeps-joins",
                  "a join minus the contracted interior joins the contraction",
                  "graft", _check_contraction_keeps_joins),
    PropertyCheck("induced-share-is-join",
                  "a minimum join restricted to a separating set joins the "
                  "induced subgraft",
                  "comb", _check_induced_share),
    PropertyCheck("fast-brute-join-sizes",
                  "the fast and brute-force backends agree on join size",
                  "graft", _check_join_sizes),
    PropertyCheck("distance-matches-path-weights",
                  "distances equal brute-force best path weights for any "
                  "minimum join",
                  "connected-graft", _check_distance_oracle),
    PropertyCheck("factor-connected-nonpositive",
                  "factor-connected grafts have nonpositive distances",
                  "factor-connected-graft", _check_factor_connected_nonpositive),
    PropertyCheck("zero-weight-circuits-toggle",
                  "weight-zero circuits toggle joins and consist of allowed "
                  "edges",
                  "graft", _check_zero_circuits),
    PropertyCheck("distance-self-and-symmetry",
                  "distance is zero on the diagonal and symmetric",
                  "graft", _check_distance_basics),
    PropertyCheck("extracted-path-weight",
                  "extracted shortest paths weigh exactly the distance",
                  "connected-graft", _check_extracted_weight),
    PropertyCheck("kl-classes-match-distance",
                  "class membership coincides with distance zero inside a "
                  "component",
                  "graft", _check_kl_consistent),
    PropertyCheck("comb-kl-shape",
                  "per component: one spine class, tooth classes partition "
                  "the rest",
                  "comb", _check_comb_kl_shape),
    PropertyCheck("comb-distance-signs",
                  "factor-connected comb distances are 0, -1, or {0, -2} "
                  "by sides",
                  "factor-connected-comb", _check_comb_distance_signs),
    PropertyCheck("separating-cut-misses-joins",
                  "no minimum join crosses a separating set",
                  "comb", _check_cut_misses_joins),
    PropertyCheck("ear-composition-critical",
                  "composed proper ear steps always land on a critical "
                  "quasicomb",
                  "critical-quasicomb", _check_composition_critical),
    PropertyCheck("builder-round-trip",
                  "the builder succeeds on critical quasicombs and verifies",
                  "critical-quasicomb", _check_builder_round_trip),
    PropertyCheck("builder-step-joins",
                  "each builder step carries a minimum join of its step graft",
                  "critical-quasicomb", _check_builder_step_joins),
    PropertyCheck("critical-join-shapes",
                  "root join degree zero, tooth degree one, and shortest "
                  "paths balanced with the stated weights",
                  "critical-quasicomb", _check_critical_join_shapes),
    PropertyCheck("quasicomb-path-weights",
                  "balanced path weights follow the end-edge classification",
                  "critical-quasicomb", _check_quasicomb_path_weights),
    PropertyCheck("quasicomb-distance-floors",
                  "distances respect the 0/-1/-2 floors by sides",
                  "critical-quasicomb", _check_quasicomb_floors),
    PropertyCheck("component-order-axioms",
                  "the component order is reflexive, antisymmetric, and "
                  "transitive",
                  "component-rich-comb", _check_poset_axioms),
    PropertyCheck("critical-set-monotone",
                  "components covered by a critical set are successors",
                  "component-rich-comb", _check_monotone_consistency),
    PropertyCheck("upper-attachment-single-class",
                  "everything above a component attaches through one tooth "
                  "class",
                  "component-rich-comb", _check_upper_attachment),
    PropertyCheck("critical-certificate-shape",
                  "certificates contract to the tooth side with a 1/0 "
                  "distance table",
                  "component-rich-comb", _check_certificate_shape),
)


def property_names() -> tuple[str, ...]:
    return tuple(p.name for p in PROPERTIES)


def _select(selection) -> tuple[PropertyCheck, ...]:
    if selection is None:
        return PROPERTIES
    names = list(selection)
    if not names:
        raise GraftInputError("empty property selection")
    by_name = {p.name: p for p in PROPERTIES}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise GraftInputError(
            f"unknown properties {unknown!r}; known: {', '.join(by_name)}")
    return tuple(by_name[n] for n in names)


def run_property_suite(trials: int, cfg: GenConfig,
                       selection=None) -> SuiteReport:
    """Run each selected property over ``trials`` fresh seeded instances.

    The per-trial seed string is ``"{seed}:{property}:{trial}"``, hashed by
    the PRNG itself, so any certificate regenerates its instance exactly.
    """
    if trials < 1:
        raise GraftInputError("at least one trial is required")
    chosen = _select(selection)
    started = time.perf_counter()
    results = []
    certificates: list[Certificate] = []
    for prop in chosen:
        passed = failed = 0
        for trial in range(trials):
            seed_key = f"{cfg.seed}:{prop.name}:{trial}"
            rng = random.Random(seed_key)
            try:
                instance = _MAKERS[prop.mode](cfg, rng)
                transcript = prop.check(instance, rng)
            except BigraftError as exc:
                failed += 1
                certificates.append(Certificate(
                    prop.name, trial, seed_key, {},
                    (f"{type(exc).__name__}: {exc}",)))
                continue
            if transcript:
                failed += 1
                certificates.append(Certificate(
                    prop.name, trial, seed_key, _instance_document(instance),
                    tuple(transcript)))
            else:
                passed += 1
        results.append((prop.name, passed, failed))
    return SuiteReport(trials, tuple(results), tuple(certificates),
                       time.perf_counter() - started)
