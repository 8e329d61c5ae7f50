"""Factor components and the distance-zero partition refining them.

Factor components are the components of the allowed subgraph, the edges
of some minimum join (``joins.allowed_edge_set``).  They cut a graft into
the pieces that exchange minimum-join structure; inside each piece,
distance zero is an equivalence whose classes this module computes and
audits.  ``kl_partition`` groups the classes per factor component, and
every reader of the classes reads that grouping.  Every join size and
distance comes from ``joins``; this module reads no join table itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .core import (
    Graft,
    GraftInputError,
    InternalConsistencyError,
    Multigraph,
    OrderedBipartiteGraft,
    PreconditionError,
    assemble_graft,
    cached_on_graph,
    least_vertex,
    sorted_vertices,
)
from .joins import allowed_edge_set, f_distance_reader


@dataclass(frozen=True)
class FactorComponent:
    """One component of the allowed subgraph ``skeleton``.

    ``id`` is the least vertex id inside.
    """

    id: object
    vertices: frozenset
    skeleton: Multigraph = field(compare=False, repr=False)

    def __post_init__(self):
        if self.id != least_vertex(self.vertices):
            raise InternalConsistencyError(
                f"component id {self.id!r} is not its least vertex")

    @property
    def subgraph(self) -> Multigraph:
        """The component with only its allowed edges, built on each read."""
        return self.skeleton.induced(self.vertices)


@dataclass(frozen=True)
class FactorComponentSet:
    """All factor components of a graft, sorted by component id.

    ``position`` maps each vertex to its component's position in
    ``components``; it is built once with the set and must not be changed.
    """

    components: tuple[FactorComponent, ...]

    def __post_init__(self):
        ids = [c.id for c in self.components]
        if ids != sorted_vertices(ids):
            raise InternalConsistencyError("components are not sorted by id")
        position: dict = {}
        for i, c in enumerate(self.components):
            position.update(dict.fromkeys(c.vertices, i))
        if len(position) != sum(len(c.vertices) for c in self.components):
            raise InternalConsistencyError("components overlap")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "_by_id", dict(zip(ids, self.components)))

    def ids(self) -> tuple:
        return tuple(c.id for c in self.components)

    def by_id(self, cid) -> FactorComponent:
        try:
            return self._by_id[cid]
        except (KeyError, TypeError):
            raise GraftInputError(f"unknown factor-component id {cid!r}") from None

    def component_of(self, v) -> FactorComponent:
        try:
            return self.components[self.position[v]]
        except (KeyError, TypeError):
            raise GraftInputError(f"unknown vertex id {v!r}") from None

    def vertex_sets(self) -> tuple[frozenset, ...]:
        return tuple(c.vertices for c in self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)


@cached_on_graph
def _factor_components(graph: Multigraph, allowed: frozenset) -> FactorComponentSet:
    """Keyed by the allowed set, the one input the components depend on."""
    skeleton = graph.spanning(allowed)
    comps = tuple(FactorComponent(root, vs, skeleton) for root, vs in
                  zip(skeleton.component_roots, skeleton.components()))
    out = FactorComponentSet(comps)
    covered = frozenset().union(*out.vertex_sets()) if comps else frozenset()
    if covered != graph.vertices:
        raise InternalConsistencyError("factor components do not cover V")
    return out


def factor_components(g: Graft) -> FactorComponentSet:
    """Components of the allowed subgraph; isolated vertices are singletons."""
    return _factor_components(g.graph, allowed_edge_set(g))


def is_separating(g: Graft, X: Iterable) -> tuple[bool, tuple]:
    """Whether X is a union of factor-component vertex sets.

    Returns (True, ids of the components whose union is X) or
    (False, ids of the components X cuts).
    """
    xs = g.graph.vertex_set(X)
    comps = factor_components(g)
    inside, cut = [], []
    for c in comps:
        if c.vertices <= xs:
            inside.append(c.id)
        elif c.vertices & xs:
            cut.append(c.id)
    if cut:
        return False, tuple(cut)
    return True, tuple(inside)


def induced_subgraft(g: Graft, X: Iterable) -> Graft:
    """Restrict ``g`` to a separating vertex set ``X``.

    X must be a union of factor components, which is what makes the
    restriction a graft that inherits minimum joins.  The result is a graft
    of the same kind: an ordered bipartite graft keeps spine ∩ X and
    tooth ∩ X.
    """
    xs = g.graph.vertex_set(X)
    separating, cut = is_separating(g, xs)
    if not separating:
        raise PreconditionError(
            f"{sorted_vertices(xs)!r} is not separating: it cuts the factor "
            f"components {list(cut)!r}")
    graph, terminals = g.graph.induced(xs), g.terminals & xs
    if isinstance(g, OrderedBipartiteGraft):
        return assemble_graft(graph, terminals, g.spine & xs, g.tooth & xs)
    return assemble_graft(graph, terminals)


@dataclass(frozen=True)
class KLPartition:
    """Distance-zero classes, grouped by the factor component they refine.

    ``by_component`` pairs each factor-component id with its classes, in
    ``factor_components`` order.  The classes are disjoint vertex sets
    covering V; a class id is its least vertex.
    """

    by_component: tuple[tuple[object, tuple[frozenset, ...]], ...]

    def __post_init__(self):
        lookup: dict = {}
        for _, classes in self.by_component:
            for cls in classes:
                if not cls:
                    raise InternalConsistencyError("empty class")
                class_id = least_vertex(cls)
                for v in cls:
                    if v in lookup:
                        raise InternalConsistencyError("classes overlap")
                    lookup[v] = class_id
        object.__setattr__(self, "_lookup", lookup)

    def class_id_of(self, v):
        try:
            return self._lookup[v]
        except (KeyError, TypeError):
            raise GraftInputError(f"unknown vertex id {v!r}") from None

    def same_class(self, u, v) -> bool:
        return self.class_id_of(u) == self.class_id_of(v)


def kl_partition(g: Graft) -> KLPartition:
    """Group vertices by distance zero inside their factor component.

    Vertices are visited in sorted order, and each reads its distance to
    every earlier vertex of its component once.  It joins the class of the
    first of them at distance zero, or opens a class, and every pair read
    is audited then: same class must coincide with distance zero, which in
    particular certifies transitivity.  Every distance comes through one
    ``f_distance_reader`` as a read of its graph component's table.  An
    audit failure raises InternalConsistencyError.  A one-vertex component
    is its own class at once: it has no pair to read or audit.
    """
    comps = factor_components(g)
    distance = f_distance_reader(g)
    groups: list[tuple] = []
    for comp in comps:
        if len(comp.vertices) == 1:
            groups.append((comp.id, (comp.vertices,)))
            continue
        local: list[list] = []
        class_of: dict = {}
        for v in sorted_vertices(comp.vertices):
            zero = {u: distance(u, v) == 0 for u in class_of}
            members = next((class_of[u] for u, z in zero.items() if z), None)
            if members is None:
                members = []
                local.append(members)
            for u, z in zero.items():
                if (class_of[u] is members) != z:
                    raise InternalConsistencyError(
                        f"distance-zero relation is not an equivalence at "
                        f"({u!r}, {v!r}) in component {comp.id!r}")
            members.append(v)
            class_of[v] = members
        groups.append((comp.id, tuple(frozenset(m) for m in local)))
    return KLPartition(tuple(groups))


def kl_classes_of_component(part: KLPartition, cid) -> tuple[frozenset, ...]:
    """The classes refining one factor component."""
    for owner, classes in part.by_component:
        if owner == cid:
            return classes
    raise GraftInputError(f"unknown factor-component id {cid!r}")
