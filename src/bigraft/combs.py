"""Combs, quasicombs, criticality with respect to a root, and ear growth.

A bipartite graft is a comb when its tooth side consists of terminals and a
minimum join touches each tooth exactly once; a quasicomb relaxes that to
tooth terminals only.  A quasicomb is critical for a root r on the tooth
side when every spine vertex has join distance 1 to r and every tooth
vertex distance 0.  The test reads every distance from join sizes
(``f_distance_reader``), so its report is the whole distance table to the
root.  Critical quasicombs are exactly the grafts that grow from a single
root by ear steps, and this module both builds and checks such
decompositions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

from .core import (
    Edge,
    GraftInputError,
    GraftValidationError,
    InternalConsistencyError,
    Multigraph,
    OrderedBipartiteGraft,
    PreconditionError,
    Walk,
    assemble_graft,
    assemble_graph,
    graft_sum,
    is_vertex_id,
    odd_degree_vertices,
    sorted_vertices,
    vertex_key,
)
from .joins import (
    extract_shortest_path,
    f_degrees,
    f_distance_reader,
    f_weight,
    is_minimum_join,
    nu,
    walk_report,
)


def _require_bipartite(g) -> OrderedBipartiteGraft:
    if not isinstance(g, OrderedBipartiteGraft):
        raise PreconditionError("an ordered bipartite graft is required")
    return g


def require_tooth_root(g: OrderedBipartiteGraft, r) -> None:
    """Refuse a root off the tooth side, where criticality and ear
    decompositions are undefined.  It reads no join, so a caller can
    refuse before computing one."""
    _require_bipartite(g)
    try:
        on_tooth = r in g.tooth
    except TypeError:
        raise GraftInputError(f"unknown vertex id {r!r}") from None
    if not on_tooth:
        raise PreconditionError(f"root {r!r} is not on the tooth side")


@dataclass(frozen=True)
class CombClassification:
    """Outcome of the comb/quasicomb test: kind, sides, and join size."""

    kind: str  # "comb", "quasicomb-not-comb", or "neither"
    spine: frozenset
    tooth: frozenset
    nu: int

    @property
    def is_comb(self) -> bool:
        return self.kind == "comb"

    @property
    def is_quasicomb(self) -> bool:
        return self.kind in ("comb", "quasicomb-not-comb")


def classify_comb(g: OrderedBipartiteGraft) -> CombClassification:
    """Test the two defining size equations against the computed join size."""
    _require_bipartite(g)
    n = nu(g)
    if g.tooth <= g.terminals and n == len(g.tooth):
        kind = "comb"
    elif n == len(g.tooth & g.terminals):
        kind = "quasicomb-not-comb"
    else:
        kind = "neither"
    return CombClassification(kind, g.spine, g.tooth, n)


def is_f_balanced(g: OrderedBipartiteGraft, F, walk) -> bool:
    """Whether the counted tooth vertices each touch exactly one F-edge:
    internal ones for a path, all for a circuit, and for an EarStep its
    walk's vertices other than the bonds and a straight ear's free end."""
    _require_bipartite(g)
    fset = g.graph.edge_id_set(F)
    if isinstance(walk, EarStep):
        return walk_report(fset, walk.walk,
                           g.tooth - frozenset(walk.bonds)).balanced
    walk.validate(g.graph)
    return walk_report(fset, walk, g.tooth).balanced


def midvertex(g: OrderedBipartiteGraft, F, walk: Walk):
    """The unique tooth vertex of a weight-zero tooth-to-tooth path that
    touches no F-edge of the path; both half-paths from it are weight zero
    and balanced, which is asserted."""
    _require_bipartite(g)
    fset = g.graph.edge_id_set(F)
    walk.validate(g.graph, require="path")
    ends = (walk.vertices[0], walk.vertices[-1])
    for x in ends:
        if x not in g.tooth:
            raise PreconditionError(f"path end {x!r} is not on the tooth side")
    if f_weight(fset, walk.edge_ids) != 0:
        raise PreconditionError("the path must have F-weight zero")
    degrees = f_degrees(fset, walk)
    frees = [v for v in walk.vertices if v in g.tooth and degrees[v] == 0]
    if len(frees) != 1:
        raise InternalConsistencyError(
            f"expected one F-free tooth vertex, found {frees!r}")
    z = frees[0]
    zi = walk.vertices.index(z)
    for half in (Walk(tuple(reversed(walk.vertices[:zi + 1])),
                      tuple(reversed(walk.edge_ids[:zi]))),
                 Walk(walk.vertices[zi:], walk.edge_ids[zi:])):
        report = walk_report(fset, half, g.tooth)
        if report.weight != 0 or not report.balanced:
            raise InternalConsistencyError(
                "a half-path from the midvertex is not balanced of weight zero")
    return z


# ---------------------------------------------------------------------------
# Criticality.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalityReport:
    """Verdict, the distance from the root to every vertex (pairs sorted by
    vertex), and one problem line for each vertex off its expected value."""

    critical: bool
    root: object
    table: tuple
    problems: tuple[str, ...]


def is_critical_quasicomb(g: OrderedBipartiteGraft, r) -> CriticalityReport:
    """Check distance 1 to the root from the spine side, 0 from the tooth side.

    Every distance is read from join sizes through ``f_distance_reader``,
    so the report always carries the full table.  A vertex in another
    graph component is unreachable and fails the test.
    """
    require_tooth_root(g, r)
    cls = classify_comb(g)
    if not cls.is_quasicomb:
        raise PreconditionError("criticality is defined for quasicombs only")
    table = []
    problems = []
    distance = f_distance_reader(g)
    reach = g.graph.component_of(r)
    for v in sorted_vertices(g.graph.vertices):
        d = distance(r, v) if v in reach else None
        table.append((v, d))
        want = 1 if v in g.spine else 0
        if d != want:
            shown = "unreachable" if d is None else d
            problems.append(f"distance from {v!r} to the root is {shown}, expected {want}")
    return CriticalityReport(not problems, r, tuple(table), tuple(problems))


# ---------------------------------------------------------------------------
# Ear steps.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepViolation:
    """One failed ear-step condition; fatal ones break the decomposition,
    the rest are tolerated when the replay stays critical."""

    code: str
    message: str
    fatal: bool


@dataclass(frozen=True)
class EarStep:
    """One ear: a path or circuit walk, its bonds, and the step terminals.

    The walk is oriented: a straight ear runs from its free end to its bond,
    a round path carries a bond at each end, and a circuit starts and ends
    at its only bond.  ``spine``/``tooth`` give the sides of the walk's
    vertices and must alternate along it.  The step's graft is built, and so
    validated, once here.
    """

    walk: Walk
    bonds: tuple
    terminals: frozenset
    spine: frozenset
    tooth: frozenset

    def __post_init__(self):
        vs = self.walk.vertices
        if len(vs) < 2:
            raise GraftInputError("an ear needs at least one edge")
        # The id rule comes before any set of these ids is made.
        for v in (*vs, *self.bonds):
            if not is_vertex_id(v):
                raise GraftInputError(f"vertex id {v!r} must be str or int")
        graph = Multigraph(frozenset(vs), tuple(
            Edge(eid, u, v) for u, v, eid in zip(vs, vs[1:], self.walk.edge_ids)))
        self.walk.validate(graph)
        bond_set = set(self.bonds)
        if len(bond_set) != len(self.bonds) or not 1 <= len(self.bonds) <= 2:
            raise GraftInputError("an ear has one or two distinct bonds")
        if self.walk.closed:
            if bond_set != {vs[0]}:
                raise GraftInputError("a circuit ear must start at its bond")
        elif len(self.bonds) == 2:
            if bond_set != {vs[0], vs[-1]}:
                raise GraftInputError("a round path carries its bonds at both ends")
        else:
            if bond_set != {vs[-1]}:
                raise GraftInputError("a straight ear must end at its bond")
        object.__setattr__(self, "bonds",
                           tuple(sorted(bond_set, key=vertex_key)))
        if self.spine | self.tooth != set(vs):
            raise GraftValidationError(
                "bipartition-coverage", "ear sides must partition the walk vertices")
        # The walk graph is connected, so the graft's own checks cover side
        # overlap and alternation, terminals on the walk and their parity.
        object.__setattr__(self, "_graft", OrderedBipartiteGraft(
            graph, self.terminals, self.spine, self.tooth))

    @property
    def kind(self) -> str:
        if self.walk.closed or len(self.bonds) == 2:
            return "round"
        return "straight"

    @property
    def internal_vertices(self) -> frozenset:
        return frozenset(self.walk.vertices) - frozenset(self.bonds)

    @property
    def edge_ids(self) -> frozenset:
        return frozenset(self.walk.edge_ids)

    @property
    def is_effective(self) -> bool:
        """Round ears always; straight ears per the free-end/bond rules."""
        if self.kind == "round":
            return True
        s = self.walk.vertices[0]
        t = self.walk.vertices[-1]
        if s in self.spine and s in self.terminals:
            return False
        if t in self.spine and t not in self.terminals:
            return False
        return True

    def as_graft(self) -> OrderedBipartiteGraft:
        return self._graft


def ear_step(vertices: tuple, edge_ids: tuple, bonds: tuple, join,
             tooth) -> EarStep:
    """The package's step assembler: the step along the walk (vertices,
    edge_ids) with these bonds, read off the graft it grows.  Its terminals
    are the odd vertices of the walk's edges in ``join``, its tooth side
    the walk's vertices in ``tooth`` and its spine side the rest; its bonds
    are sorted as ``EarStep`` sorts them.

    Nothing is checked: the walk must come from a valid bipartite graft
    whose tooth side lies in ``tooth``, with at least one edge and its
    bonds placed as ``EarStep`` requires.  The step, its graph and its
    graft are assembled, and equal what ``EarStep(...)``, the public,
    checked way to build a step, makes from the same fields."""
    vset = frozenset(vertices)
    teeth = vset & tooth
    spine = vset - teeth
    terminals = odd_degree_vertices(
        vertices[i:i + 2] for i, eid in enumerate(edge_ids) if eid in join)
    graph = assemble_graph(vset, map(Edge, edge_ids, vertices, vertices[1:]))
    step = object.__new__(EarStep)
    # A frozen dataclass refuses setattr, not its own __dict__.
    step.__dict__.update(
        walk=Walk(vertices, edge_ids), bonds=tuple(sorted_vertices(bonds)),
        terminals=terminals, spine=spine, tooth=teeth,
        _graft=assemble_graft(graph, terminals, spine, teeth))
    return step


def validate_ear_step(base: OrderedBipartiteGraft,
                      step: EarStep) -> tuple[bool, tuple[StepViolation, ...]]:
    """Check one ear step against the support it is about to extend.

    Shape, side, and edge-reuse conditions are fatal; the tooth-terminal
    placement rules and effectiveness are advisory, because replay
    criticality is the final authority on those.
    """
    _require_bipartite(base)
    out: list[StepViolation] = []

    def add(code: str, message: str, fatal: bool):
        out.append(StepViolation(code, message, fatal))

    support = base.graph.vertices
    for b in step.bonds:
        if b not in support:
            add("bond-outside-support", f"bond {b!r} is not a support vertex", True)
    for v in sorted_vertices(step.internal_vertices & support):
        add("internal-vertex-in-support",
            f"ear vertex {v!r} already belongs to the support", True)
    reused = step.edge_ids & base.graph.edge_ids()
    for eid in sorted(reused):
        add("edge-id-reused", f"edge {eid!r} already belongs to the support", True)
    side_clash = (step.spine & base.tooth) | (step.tooth & base.spine)
    for v in sorted_vertices(side_clash):
        add("side-conflict", f"vertex {v!r} changes sides", True)

    inner = set(step.walk.vertices[1:-1])
    for v in sorted_vertices((inner & step.tooth) - step.terminals):
        add("internal-tooth-not-terminal",
            f"internal tooth vertex {v!r} is not a step terminal", False)
    for b in step.bonds:
        if b in step.tooth and b in step.terminals:
            add("bond-tooth-terminal",
                f"tooth bond {b!r} must not be a step terminal", False)
    if not step.is_effective:
        add("ineffective-step",
            "a straight ear must avoid a spine free end terminal and make "
            "a spine bond terminal", False)
    return not out, tuple(out)


# ---------------------------------------------------------------------------
# Decompositions: build and verify.
# ---------------------------------------------------------------------------

def bare_root(root) -> OrderedBipartiteGraft:
    """The graft every ear growth starts from: the root alone, on the tooth
    side.  It is assembled, so ``root`` must be a vertex id: the generator's
    ``"r"`` or a decomposition's root, which is a target vertex."""
    alone = frozenset({root})
    return assemble_graft(assemble_graph(alone, ()), frozenset(),
                          frozenset(), alone)


@dataclass(frozen=True)
class GraftEarDecomposition:
    """An ordered ear growth from a single root toward a target graft.  It
    keeps no sums: ``replay`` and ``prefixes`` build theirs on each call,
    from ``bare_root`` by ``graft_sum``, and check no graph again."""

    root: object
    steps: tuple[EarStep, ...]
    target: OrderedBipartiteGraft

    def __post_init__(self):
        # An id that only equals a vertex (True for 1) is refused here, as
        # the sums start from the root assembled.
        if not (is_vertex_id(self.root) and self.root in self.target.graph.vertices):
            raise GraftInputError(f"root {self.root!r} is not a target vertex")

    def replay(self) -> OrderedBipartiteGraft:
        """The graft after the last step, built in one sum; the bare root
        when there is none."""
        return graft_sum(bare_root(self.root),
                         *(step.as_graft() for step in self.steps))

    def prefixes(self) -> Iterator[OrderedBipartiteGraft]:
        """Yield the graft after each step, each summed from the one before
        and held only until the next, so a malformed chain still yields up
        to its bad step."""
        g = bare_root(self.root)
        for step in self.steps:
            g = graft_sum(g, step.as_graft())
            yield g


def build_graft_ear_decomposition(g: OrderedBipartiteGraft, r,
                                  F) -> GraftEarDecomposition:
    """Grow the target from its root one ear at a time.

    Every step is the ear of the unused edge of least (rank, edge id), with
    ranks in this order: 0, a non-join edge from a new spine vertex into
    the tooth support, a straight ear; 1, a non-join edge from the spine
    support to a new tooth vertex, completed into a round ear along a
    balanced weight-zero path to the root, cut at the first support
    vertex; 2, a join edge from the spine support to a new tooth vertex, a
    straight ear; 3, an edge inside the support, a round ear whose walk
    runs in ``vertex_key`` order.  A rank-3 ear adds no vertex, so internal
    edges come last, in edge-id order.  ``ear_step`` builds each step from
    F and the target's tooth side.  Throughout, no join edge runs between
    the tooth support and unreached spine vertices.

    A rank-1 ear is forced when the new tooth vertex v has exactly one join
    edge vw and w is in the support: a weight-zero path leaves v on a join
    edge, so every such path is cut at w and the ear is (u, v, w).  Such an
    ear is read off F with no path extracted.  Every tooth terminal of a
    quasicomb has exactly one join edge, since |F| = |tooth ∩ T| and every
    edge has one tooth end.
    """
    _require_bipartite(g)
    fset = g.graph.edge_id_set(F)
    if not is_minimum_join(g, F):
        raise PreconditionError("F must be a minimum join of the target")
    head = is_critical_quasicomb(g, r)
    if not head.critical:
        raise PreconditionError(
            "the target is not critical for this root: " + "; ".join(head.problems))

    # Every edge once, as (spine end, tooth end), in edge-id order; each
    # step removes its own edges.
    unused = {e.id: (e.u, e.v) if e.u in g.spine else (e.v, e.u)
              for e in g.graph.edges}
    spine_sup: set = set()
    tooth_sup: set = {r}
    steps: list[EarStep] = []
    # (rank, edge id) of unused edges.  An edge's rank moves only when one
    # of its ends joins the support, so each step queues the edges at the
    # vertices it adds; an entry whose rank has moved since is skipped.
    queue: list = []

    def rank(eid, a, b):
        """0: a new spine vertex on the tooth support; 1: a non-join edge
        to a new tooth vertex; 2: a join edge to one; 3: both ends in the
        support.  A queued edge has an end in the support, which grows."""
        if b in tooth_sup:
            return 3 if a in spine_sup else 0
        return 2 if eid in fset else 1

    def grown(added):
        """Queue the unused edges at the vertices just added, and check
        that no join edge runs from one of them on the tooth side to an
        unreached spine vertex: only a new tooth vertex can break that."""
        for v in added:
            on_tooth = v in tooth_sup
            for e in g.graph.incident(v):
                if on_tooth and e.id in fset and e.other(v) not in spine_sup:
                    raise InternalConsistencyError(
                        f"join edge {e.id!r} leaks from the tooth support")
                ends = unused.get(e.id)
                if ends is not None:
                    heapq.heappush(queue, (rank(e.id, *ends), e.id))

    def best():
        """The least (rank, edge id) of a queued unused edge, or None."""
        while queue:
            kind, eid = heapq.heappop(queue)
            if eid in unused and rank(eid, *unused[eid]) == kind:
                return kind, eid
        return None

    grown(tooth_sup)
    while unused:
        ear = best()
        if ear is None:
            raise InternalConsistencyError(
                "no ear extends the support, yet vertices remain")
        kind, eid = ear
        a, b = unused[eid]
        if kind == 1:
            step = _round_step_via_balanced_path(
                g, fset, eid, a, b, spine_sup | tooth_sup, r)
        else:
            if (eid in fset) != (kind == 2):
                raise InternalConsistencyError(
                    f"edge {eid!r} of rank {kind} violated the growth invariant")
            if kind == 0:
                vertices, bonds = (a, b), (b,)
            elif kind == 2:
                vertices, bonds = (b, a), (a,)
            else:
                vertices = bonds = tuple(sorted((a, b), key=vertex_key))
            step = ear_step(vertices, (eid,), bonds, fset, g.tooth)
        added = step.internal_vertices
        for v in added:
            (spine_sup if v in g.spine else tooth_sup).add(v)
        for eid in step.edge_ids:
            del unused[eid]
        steps.append(step)
        grown(added)

    if spine_sup | tooth_sup != g.graph.vertices:
        raise InternalConsistencyError("edges ran out before the vertices")
    out = GraftEarDecomposition(r, tuple(steps), g)
    if out.replay() != g:
        raise InternalConsistencyError("the built decomposition does not replay")
    return out


def _round_step_via_balanced_path(g: OrderedBipartiteGraft, fset: frozenset,
                                  fid: str, u, v, support: set, root) -> EarStep:
    """Complete edge fid=uv (u in the spine support, v a new tooth vertex)
    into a round ear along a balanced weight-zero path from v to the root,
    truncated at the first support vertex.

    Such a path leaves v on a join edge.  When v has exactly one, vw, and w
    is in the support, every such path is cut at w, so the ear is (u, v, w)
    whatever path extraction would find, and none is extracted.  Every
    other ear extracts one.
    """
    joined = [e for e in g.graph.incident(v) if e.id in fset]
    if len(joined) == 1 and (w := joined[0].other(v)) in support:
        vertices, edge_ids = (v, w), (joined[0].id,)
    else:
        report = extract_shortest_path(g, fset, v, root)
        if report.weight != 0 or not report.balanced:
            raise InternalConsistencyError(
                "the balanced-path guarantee failed on a critical quasicomb")
        vertices, edge_ids = report.walk.vertices, report.walk.edge_ids
        if edge_ids[0] not in fset:
            raise InternalConsistencyError(
                "a weight-zero path must leave its tooth end on a join edge")
    cut = next(i for i, w in enumerate(vertices) if w in support)
    w = vertices[cut]
    if w not in g.spine:
        raise InternalConsistencyError(
            "the path reentered the support on the tooth side")
    return ear_step((u,) + vertices[:cut + 1], (fid,) + edge_ids[:cut],
                    (u,) if w == u else (u, w), fset, g.tooth)


@dataclass(frozen=True)
class StepCheck:
    """Verification record for one replayed step."""

    index: int
    violations: tuple[StepViolation, ...]
    prefix_critical: bool | None
    step_join_minimum: bool | None


@dataclass(frozen=True)
class VerificationReport:
    """Replay outcome: fatal problems invalidate, warnings are tolerated."""

    valid: bool
    step_checks: tuple[StepCheck, ...]
    problems: tuple[str, ...]
    warnings: tuple[str, ...]


def verify_graft_ear_decomposition(d: GraftEarDecomposition,
                                   F=None) -> VerificationReport:
    """Replay the decomposition and judge it.

    Each step is checked against the prefix before it, then ``d.prefixes()``
    advances and the checked prefix, with its distance tables, is dropped,
    so the verifier holds one prefix at a time.  Fatal: malformed steps, a
    replay that stops being a critical quasicomb for the root after some
    step, or a final graft differing from the target.  Tolerated with a
    warning: tooth-terminal placement and effectiveness violations, provided
    criticality survives.  With F given, each step's share of F must be a
    minimum join of the step graft.
    """
    problems: list[str] = []
    warnings: list[str] = []
    checks: list[StepCheck] = []
    target = d.target

    fset = None
    if F is not None:
        fset = target.graph.edge_id_set(F)
        try:
            minimum = is_minimum_join(target, fset)
        except PreconditionError:
            minimum = False
        if not minimum:
            problems.append("F is not a minimum join of the target")
            fset = None

    if d.root not in target.tooth:
        problems.append(f"root {d.root!r} is not on the target's tooth side")

    current = bare_root(d.root)
    chain = d.prefixes()
    for idx, step in enumerate(d.steps):
        _, violations = validate_ear_step(current, step)
        fatal = [f"step {idx}: {v.message}" for v in violations if v.fatal]
        if not fatal:
            # The validation finds fatal all the sum refuses.
            current = next(chain)
        if fatal:
            problems.extend(fatal)
            checks.append(StepCheck(idx, violations, None, None))
            break
        prefix_critical = _prefix_critical(current, d.root, idx, problems)
        step_join_minimum = None
        if fset is not None:
            share = fset & step.edge_ids
            try:
                step_join_minimum = is_minimum_join(step.as_graft(), share)
            except PreconditionError:
                step_join_minimum = False
            if not step_join_minimum:
                problems.append(
                    f"step {idx}: the join share {sorted(share)!r} is not a "
                    f"minimum join of the step")
        nonfatal = [v for v in violations if not v.fatal]
        if nonfatal:
            if prefix_critical:
                warnings.extend(
                    f"step {idx}: tolerated: {v.message}" for v in nonfatal)
            else:
                problems.extend(f"step {idx}: {v.message}" for v in nonfatal)
        checks.append(StepCheck(idx, violations, prefix_critical, step_join_minimum))
    else:
        if current != target:
            problems.append("the replayed graft differs from the target")

    return VerificationReport(not problems, tuple(checks),
                              tuple(problems), tuple(warnings))


def _prefix_critical(current: OrderedBipartiteGraft, root, idx: int,
                     problems: list) -> bool:
    try:
        report = is_critical_quasicomb(current, root)
    except PreconditionError as exc:
        problems.append(f"step {idx}: replayed prefix is not checkable: {exc}")
        return False
    if not report.critical:
        problems.append(
            f"step {idx}: the replayed prefix is not critical: "
            + "; ".join(report.problems))
    return report.critical
