"""Critical sets and the order they induce on a comb's factor components.

A critical set for a factor component G0 is a separating set X containing
V(G0) whose contraction of G0 to a single tooth vertex is a critical
quasicomb.  Component G1 precedes G2 when some critical set for G1 swallows
all of G2.  The order is read from top(G1), the maximal critical set for
G1, which is grown one component at a time; ``enumerate_critical_sets``
lists every critical set and is kept as the oracle for that growth.  The
relation is a partial order, computed here together with its Hasse
diagram, heights, and the neighborhood containment check for the vertices
lying strictly above a component.

Each public function checks once that its input is a comb, then tests
every candidate union through ``_critical_set``, which assembles the
contraction G[X]/G0 as a single graft, unchecked: it is derived from the
comb and valid by construction, and ``classify_comb`` still tests it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    CapacityError,
    GraftInputError,
    InternalConsistencyError,
    OrderedBipartiteGraft,
    PreconditionError,
    Walk,
    assemble_graft,
    assemble_graph,
    contracted_edges,
    sorted_vertices,
)
from .combs import (
    EarStep,
    classify_comb,
    is_critical_quasicomb,
    is_f_balanced,
)
from .decomposition import (
    FactorComponentSet,
    factor_components,
    is_separating,
    kl_classes_of_component,
    kl_partition,
)
from .joins import f_distance_int


_COMPONENT_LIMIT = 12


def _require_comb(g) -> FactorComponentSet:
    """The factor components of ``g``, which must be a comb."""
    if not isinstance(g, OrderedBipartiteGraft) or not classify_comb(g).is_comb:
        raise PreconditionError("a comb is required")
    return factor_components(g)


@dataclass(frozen=True)
class CriticalSetCertificate:
    """Witness that X is a critical set for the component ``component_id``.

    The contraction collapses the component to ``contracted_vertex`` on the
    tooth side; ``table`` is its distance table to that root (1 on the
    spine, 0 on the tooth).
    """

    component_id: object
    vertices: frozenset
    witness_ids: tuple
    contraction: OrderedBipartiteGraft
    contracted_vertex: object
    table: tuple


def _contracted_name(base_id, taken: frozenset) -> str:
    name = "g0"
    while name in taken:
        name = f"g0#{base_id}" if name == "g0" else name + "#"
    return name


def is_critical_set(comb: OrderedBipartiteGraft, component_id,
                    X) -> tuple[bool, CriticalSetCertificate | None]:
    """Decide whether X is a critical set for the given factor component.

    X must be separating and contain the component; contracting the
    component to a fresh tooth vertex must leave a bipartite graft that is
    a critical quasicomb for that vertex.  The contraction G[X]/G0 is built
    as one ordered bipartite graft, in one pass over the comb's edges
    inside X.  Every contraction is checked to be a quasicomb, as the
    theory guarantees.  A disconnected one is then rejected at once, since
    a critical quasicomb has every vertex at a finite distance from its
    root; only a connected one pays for the distance table.  Returns the
    verdict and, when true, a certificate carrying the contraction and its
    distance table.
    """
    return _critical_set(comb, _require_comb(comb), component_id,
                         comb.graph.vertex_set(X))


def _critical_set(comb: OrderedBipartiteGraft, comps: FactorComponentSet,
                  component_id,
                  xs: frozenset) -> tuple[bool, CriticalSetCertificate | None]:
    """``is_critical_set`` on a comb already checked, whose factor
    components are ``comps``."""
    g0 = comps.by_id(component_id)
    separating, ids = is_separating(comb, xs)
    if not separating:
        return False, None
    if not g0.vertices <= xs:
        return False, None

    outside_tooth = (comb.tooth & xs) - g0.vertices
    for v in g0.vertices & comb.spine:
        for e in comb.graph.incident(v):
            if e.other(v) in outside_tooth:
                # The contraction would put this edge between two tooth
                # vertices, so it cannot be a bipartite quasicomb.
                return False, None
    if len(comb.terminals & g0.vertices) % 2:
        raise InternalConsistencyError(
            f"factor component {component_id!r} holds an odd number of terminals")

    # X is a union of factor components, each with an even number of
    # terminals, so G[X] is a graft and G0 contracts to a non-terminal.
    # The fresh root is a new tooth vertex, and the scan above refused the
    # one edge shape that would join two tooth vertices, so the contraction
    # passes every check of the constructors and is assembled.
    root = _contracted_name(component_id, xs)
    inner = (e for e in comb.graph.edges if e.u in xs and e.v in xs)
    shape = assemble_graft(
        assemble_graph((xs - g0.vertices) | {root},
                       contracted_edges(inner, g0.vertices, root)),
        (comb.terminals & xs) - g0.vertices,
        (comb.spine & xs) - g0.vertices, outside_tooth | {root})
    if not classify_comb(shape).is_quasicomb:
        raise InternalConsistencyError(
            "the contraction of a comb stopped being a quasicomb")
    if len(shape.graph.components()) > 1:
        return False, None
    report = is_critical_quasicomb(shape, root)
    if not report.critical:
        return False, None
    return True, CriticalSetCertificate(component_id, xs, ids, shape, root,
                                        report.table)


def enumerate_critical_sets(comb: OrderedBipartiteGraft,
                            component_id) -> tuple[frozenset, ...]:
    """All critical sets for the component, smallest first.

    Candidates are the unions of factor components that include the base
    one, so the search is exponential in the component count; a comb with
    more than 12 factor components is refused with CapacityError.
    """
    comps = _require_comb(comb)
    if len(comps) > _COMPONENT_LIMIT:
        raise CapacityError(
            f"{len(comps)} factor components exceed the limit of {_COMPONENT_LIMIT}")
    g0 = comps.by_id(component_id)
    others = [c for c in comps if c.id != g0.id]
    found: list[frozenset] = []
    for size in range(len(others) + 1):
        for chosen in itertools.combinations(others, size):
            xs = g0.vertices.union(*(c.vertices for c in chosen)) \
                if chosen else g0.vertices
            ok, _ = _critical_set(comb, comps, component_id, xs)
            if ok:
                found.append(xs)
    return tuple(found)


def _neighbourhoods(comb: OrderedBipartiteGraft, comps) -> list:
    """Each factor component's bit row, aligned with ``comps``: bit j is
    set where an edge joins it to component j."""
    position = comps.position
    rows = [0] * len(comps)
    for e in comb.graph.edges:
        i, j = position[e.u], position[e.v]
        if i != j:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def _top_critical_set(comb: OrderedBipartiteGraft, comps, near,
                      cid) -> frozenset:
    """top(c): the maximal critical set for the component ``cid``.

    Growth starts from the component's own vertices and adds, in component
    order, each adjacent component whose union with the current set is
    still critical, repeating until a full pass adds nothing.  A component
    with no edge into the set is not tested: that union contracts to a
    disconnected graft, never critical.  A pass walks the bits of the
    components that are adjacent and not yet inside, ascending, so a
    component that an addition makes adjacent is tried later in the same
    pass where it comes after that addition.  The result is the union of
    all critical sets for c provided two critical sets for c unite into a
    critical set and that union is reached one component at a time.  No
    lemma is cited for this union closure: it is checked by test, against
    ``enumerate_critical_sets`` in tests/test_cathedral.py.  ``near`` is
    ``_neighbourhoods(comb, comps)``.
    """
    top = comps.by_id(cid).vertices
    i = comps.position[cid]
    inside, adjacent = 1 << i, near[i]
    grown = True
    while grown:
        grown, start = False, 0
        while todo := (adjacent & ~inside) >> start << start:
            j = (todo & -todo).bit_length() - 1
            start = j + 1
            candidate = top | comps.components[j].vertices
            if _critical_set(comb, comps, cid, candidate)[0]:
                top, inside, adjacent = candidate, inside | 1 << j, adjacent | near[j]
                grown = True
    return top


def precedes(comb: OrderedBipartiteGraft, first_id, second_id) -> bool:
    """Whether some critical set for the first component covers the second,
    that is, whether the second lies inside top(first)."""
    comps = _require_comb(comb)
    target = comps.by_id(second_id).vertices
    return target <= _top_critical_set(comb, comps,
                                       _neighbourhoods(comb, comps), first_id)


@dataclass(frozen=True)
class CathedralPoset:
    """The critical-set order over factor components.

    ``relation[i][j]`` says component i precedes component j, indices
    following ``component_ids``.  ``hasse`` lists the covering pairs and
    ``heights`` the longest-chain height of each component, minimal
    elements at height 1.
    """

    component_ids: tuple
    relation: tuple[tuple[bool, ...], ...]
    hasse: tuple[tuple[object, object], ...]
    heights: tuple[tuple[object, int], ...]

    def _index(self, cid) -> int:
        try:
            return self.component_ids.index(cid)
        except ValueError:
            raise GraftInputError(f"unknown factor-component id {cid!r}") from None

    def precedes(self, first_id, second_id) -> bool:
        return self.relation[self._index(first_id)][self._index(second_id)]

    def height_of(self, cid) -> int:
        self._index(cid)
        return dict(self.heights)[cid]


def cathedral_poset(comb: OrderedBipartiteGraft) -> CathedralPoset:
    """Compute the full order, check its axioms, and lay out the diagram.

    Component a precedes b exactly when b lies inside top(a), the maximal
    critical set grown by ``_top_critical_set`` through adjacent components
    only, so no component count is refused.
    Any antisymmetry or transitivity failure is raised as an internal
    consistency error, since the theory guarantees both; a growth that
    stopped short of top(a) shows up as a transitivity failure.  The
    checks, the covers and the heights read one bit row per component, so
    no step loops over triples of components.
    """
    comps = _require_comb(comb)
    ids = comps.ids()
    near = _neighbourhoods(comb, comps)
    # rows[i] has bit j set when component j lies inside top(i): a top is a
    # union of components, so its vertices name them.
    rows = []
    for cid in ids:
        row = 0
        for j in {comps.position[v] for v in _top_critical_set(comb, comps, near, cid)}:
            row |= 1 << j
        rows.append(row)
    n = len(ids)
    strict = [row & ~(1 << i) for i, row in enumerate(rows)]

    for i, row in enumerate(rows):
        if not row >> i & 1:
            raise InternalConsistencyError(
                f"component {ids[i]!r} does not precede itself")
        for j in _bits(strict[i]):
            if rows[j] >> i & 1:
                raise InternalConsistencyError(
                    f"components {ids[i]!r} and {ids[j]!r} precede each other")
    for i, row in enumerate(rows):
        for j in _bits(row):
            outside = rows[j] & ~row
            if outside:
                k = next(_bits(outside))
                raise InternalConsistencyError(
                    f"precedence is not transitive at "
                    f"({ids[i]!r}, {ids[j]!r}, {ids[k]!r})")

    # (i, j) is a cover when j follows i strictly but follows no k that
    # follows i strictly.
    hasse = []
    below: list = [[] for _ in range(n)]
    for i in range(n):
        above = 0
        for k in _bits(strict[i]):
            above |= strict[k]
            below[k].append(i)
        hasse += [(ids[i], ids[j]) for j in _bits(strict[i] & ~above)]

    # A strict predecessor has strictly fewer strict predecessors, so this
    # order sets every height after the heights below it.
    heights = [0] * n
    for j in sorted(range(n), key=lambda j: len(below[j])):
        heights[j] = 1 + max((heights[i] for i in below[j]), default=0)

    relation = tuple(tuple(map("1".__eq__, f"{row:0{n}b}"[::-1])) for row in rows)
    return CathedralPoset(ids, relation, tuple(hasse), tuple(zip(ids, heights)))


def _bits(mask: int):
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union_criticality_check(comb: OrderedBipartiteGraft, first_id, second_id,
                            third_id, X, Y) -> bool:
    """Check that chained critical sets compose: X for G1 covering G2 and Y
    for G2 covering G3 should make X ∪ Y critical for G1 and cover G3."""
    comps = _require_comb(comb)
    second = comps.by_id(second_id).vertices
    third = comps.by_id(third_id).vertices
    xs, ys = comb.graph.vertex_set(X), comb.graph.vertex_set(Y)
    ok_x, _ = _critical_set(comb, comps, first_id, xs)
    if not ok_x:
        raise PreconditionError(f"X is not a critical set for {first_id!r}")
    if not second <= xs:
        raise PreconditionError(f"X does not cover component {second_id!r}")
    ok_y, _ = _critical_set(comb, comps, second_id, ys)
    if not ok_y:
        raise PreconditionError(f"Y is not a critical set for {second_id!r}")
    if not third <= ys:
        raise PreconditionError(f"Y does not cover component {third_id!r}")
    union_ok, _ = _critical_set(comb, comps, first_id, xs | ys)
    return union_ok and third <= (xs | ys)


@dataclass(frozen=True)
class UpperBoundEntry:
    """One connected piece above the component, its neighborhood inside the
    component, and the tooth class containing that neighborhood (None when
    no class works, or when the neighborhood is empty)."""

    piece: tuple
    neighborhood: tuple
    witness_class: frozenset | None

    @property
    def ok(self) -> bool:
        return not self.neighborhood or self.witness_class is not None


@dataclass(frozen=True)
class UpperBoundReport:
    """Containment check for the vertices strictly above a component."""

    component_id: object
    upper_vertices: frozenset
    entries: tuple[UpperBoundEntry, ...]
    holds: bool


def upper_bound_check(comb: OrderedBipartiteGraft,
                      component_id) -> UpperBoundReport:
    """Verify that everything strictly above the component attaches to it
    through a single tooth class.

    The upper set is top(c) minus c, the union of the components that
    ``component_id`` strictly precedes; each connected piece of it must have
    its neighborhood inside the component contained in one tooth-side
    distance class.
    """
    comps = _require_comb(comb)
    g0 = comps.by_id(component_id)
    upper = _top_critical_set(comb, comps, _neighbourhoods(comb, comps),
                              component_id) - g0.vertices

    classes = [cls for cls in kl_classes_of_component(kl_partition(comb), g0.id)
               if cls <= comb.tooth]

    entries = []
    if upper:
        for piece in comb.graph.induced(upper).components():
            near: set = set()
            for v in piece:
                for e in comb.graph.incident(v):
                    w = e.other(v)
                    if w in g0.vertices:
                        near.add(w)
            witness = None
            for cls in classes:
                if near <= cls:
                    witness = cls
                    break
            entries.append(UpperBoundEntry(tuple(sorted_vertices(piece)),
                                           tuple(sorted_vertices(near)),
                                           witness))
    return UpperBoundReport(component_id, upper, tuple(entries),
                            all(e.ok for e in entries))


def round_ear_bond_check(comb: OrderedBipartiteGraft, F, component_id,
                         P) -> bool:
    """For a balanced round ear hanging off a factor component, confirm its
    bonds sit on the tooth side of the component at distance zero.

    P may be an EarStep or a Walk (bonds then taken from its ends).  The
    ear must be round, balanced for F, bonded inside the component, and
    internally disjoint from it.
    """
    comps = _require_comb(comb)
    home = comps.by_id(component_id)
    if isinstance(P, Walk):
        # The walk is input: ``validate`` ties it to the comb, and the
        # checked ``EarStep`` refuses what else is wrong with it.
        P.validate(comb.graph)
        bonds = (P.vertices[0],) if P.closed else (P.vertices[0], P.vertices[-1])
        vertices = frozenset(P.vertices)
        step = EarStep(P, bonds, frozenset(), vertices - comb.tooth,
                       vertices & comb.tooth)
    elif isinstance(P, EarStep):
        step = P
    else:
        raise PreconditionError("P must be an EarStep or a Walk")
    if step.kind != "round":
        raise PreconditionError("only round ears are covered by this check")
    if not frozenset(step.bonds) <= home.vertices:
        raise PreconditionError("the ear must bond inside the component")
    if step.internal_vertices & home.vertices:
        raise PreconditionError(
            "the ear must be internally disjoint from the component")
    if not is_f_balanced(comb, F, step):
        raise PreconditionError("the ear is not balanced for F")
    if not frozenset(step.bonds) <= comb.tooth:
        return False
    if len(step.bonds) == 2:
        s, t = step.bonds
        return f_distance_int(comb, s, t) == 0
    return True
