"""Multigraphs, grafts, and the structural operations that build and combine them.

A graft pairs a multigraph with a terminal vertex set whose size is even in
every connected component; an ordered bipartite graft additionally carries a
bipartition into a spine side and a tooth side.  Every value here is frozen
and hashable, so instances can be shared freely.

Checks run where data enters: the public constructors ``Multigraph``,
``Graft`` and ``OrderedBipartiteGraft`` refuse every malformed value, and
the parser checks its fields before it builds.  A value the package
derives from valid ones passes those checks by construction, so it is
assembled instead: ``assemble_graph`` turns each edge as the constructor
does and indexes the graph, and ``assemble_graft`` sets a graft's fields.
Both build the value the checking constructor would build from the same
arguments, and neither checks anything.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import wraps
from operator import attrgetter
from typing import Iterable, Iterator

VertexId = str | int
_edge_id = attrgetter("id")


class BigraftError(Exception):
    """Base class for all library errors."""


class GraftInputError(BigraftError):
    """Malformed input: unknown ids, duplicate ids, bad document structure."""


class GraftValidationError(BigraftError):
    """A structural invariant failed; ``invariant`` names which one."""

    def __init__(self, invariant: str, message: str):
        super().__init__(message)
        self.invariant = invariant


class PreconditionError(BigraftError):
    """An operation was called outside its stated precondition."""


class CapacityError(BigraftError):
    """A configured exhaustive-search bound was exceeded."""


class InternalConsistencyError(BigraftError):
    """A theorem-backed internal check failed; report as a bug if raised."""


def is_vertex_id(v) -> bool:
    """True for a str or an int that is not a bool: the ids a vertex, an
    edge end, a terminal or a side member may carry."""
    return isinstance(v, (str, int)) and not isinstance(v, bool)


# The id rule of each kind of id: the types an id may have, never a bool.
_VERTEX_ID = (frozenset({str, int}), "str or int")
_EDGE_ID = (frozenset({str}), "str")


def _id_set(ids: Iterable, kind: tuple, what: str) -> frozenset:
    """``ids`` as a frozenset once no member breaks the id rule of ``kind``:
    the first that does, unhashable or a look-alike such as True or 2.0
    that set membership would let through, is refused.  Members of exactly
    the kind's types pass unchecked."""
    types, names = kind
    if not isinstance(ids, (set, frozenset)):
        ids = tuple(ids)  # read once; a set holds nothing unhashable
    if not types.issuperset(map(type, ids)):
        for v in ids:
            if not isinstance(v, tuple(types)) or isinstance(v, bool):
                raise GraftInputError(f"{what} {v!r} must be {names}")
    return frozenset(ids)


def vertex_key(v: VertexId):
    """Sort key giving a total order over mixed int/str vertex ids."""
    return (0, v) if isinstance(v, int) else (1, v)


def least_vertex(vs: Iterable[VertexId]) -> VertexId:
    """The least of ``vs`` in ``vertex_key`` order.  Ids of one type take a
    plain ``min``; only a str/int mix, on which it raises TypeError, takes
    the key."""
    try:
        return min(vs)
    except TypeError:
        return min(vs, key=vertex_key)


def sorted_vertices(vs: Iterable[VertexId]) -> list[VertexId]:
    """``vs`` in ``vertex_key`` order.  Ids of one type sort without the
    key; a str/int mix makes the plain sort raise TypeError."""
    out = list(vs)
    try:
        out.sort()
    except TypeError:
        out.sort(key=vertex_key)
    return out


@dataclass(frozen=True)
class Edge:
    """One edge of a multigraph.  Parallel edges differ only in ``id``."""

    id: str
    u: VertexId
    v: VertexId

    def other(self, w: VertexId) -> VertexId:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise GraftInputError(f"vertex {w!r} is not an end of edge {self.id!r}")

    def ends(self) -> frozenset:
        return frozenset((self.u, self.v))


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph without loops.  Edges are kept sorted by id.

    The constructor checks that every vertex id is a str or an int (not a
    bool) and that every edge has a str id of its own and two distinct,
    known ends, each a vertex id itself.  It turns each edge so that its
    ends ascend in ``vertex_key`` order, and then runs ``_index``, which
    builds from nothing the sorted edge tuple, the edge map, the adjacency
    and the components.  A search starts from each unseen vertex in
    ``vertex_key`` order, so ``component_roots[i]``, the start of
    ``components()[i]``, is its least vertex and the roots ascend.
    ``component_index`` maps each vertex to its component's position.
    Anything else derived lives in ``_memo``.  ``assemble_graph`` turns
    and indexes a graph without the checks: it serves every graph the
    package derives from valid ones, such as ``induced`` (a vertex subset
    with the edges inside it), ``spanning`` (every vertex with an edge
    subset), ear steps, contractions, generator draws and every sum that
    does not extend its first operand.
    ``_extended`` builds each sum of connected operands, each meeting
    those before it (``graft_sum``): it extends the first operand's index
    by the edges the sum adds, with every field equal to what ``_index``
    would build, adjacency order included, and grows the operand's memo
    entries that ``grown_by_sums`` names.
    """

    vertices: frozenset
    edges: tuple[Edge, ...]

    def __post_init__(self):
        _id_set(self.vertices, _VERTEX_ID, "vertex id")
        by_id: dict[str, Edge] = {}
        for e in self.edges:
            eid, u, v = e.id, e.u, e.v
            if not isinstance(eid, str) or not eid:
                raise GraftInputError(f"edge id {eid!r} must be a nonempty string")
            if eid in by_id:
                raise GraftInputError(f"duplicate edge id {eid!r}")
            if u not in self.vertices or v not in self.vertices:
                raise GraftInputError(f"edge {eid!r} has an unknown endpoint")
            if u == v:
                raise GraftInputError(f"edge {eid!r} is a loop")
            # An end that is no exact str or int must pass the id rule,
            # which ``in`` does not enforce.
            tu = type(u)
            if not (tu is type(v) and (tu is str or tu is int)):
                _id_set((u, v), _VERTEX_ID, f"edge {eid!r} end")
            by_id[eid] = _canonical(e)
        self._index(by_id)

    def _index(self, by_id: dict[str, Edge]) -> Multigraph:
        edges = tuple(by_id[eid] for eid in sorted(by_id))
        adj: dict[VertexId, list[Edge]] = {v: [] for v in self.vertices}
        for e in edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        index: dict = {}
        roots: list = []
        components: list[frozenset] = []
        for root in sorted_vertices(self.vertices):
            if root in index:
                continue
            i = len(roots)
            index[root] = i
            comp = [root]
            for v in comp:
                for e in adj[v]:
                    w = e.v if e.u == v else e.u
                    if w not in index:
                        index[w] = i
                        comp.append(w)
            roots.append(root)
            components.append(frozenset(comp))
        return self._set_index(edges, by_id,
                               {v: tuple(es) for v, es in adj.items()},
                               tuple(components), tuple(roots), index)

    def _set_index(self, edges, by_id, adjacency, components, roots,
                   index) -> Multigraph:
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_edge_map", by_id)
        object.__setattr__(self, "_adjacency", adjacency)
        object.__setattr__(self, "_components", components)
        object.__setattr__(self, "component_roots", roots)
        object.__setattr__(self, "component_index", index)
        object.__setattr__(self, "_memo", {})
        return self

    def _extended(self, vertices: frozenset, fresh: set,
                  added: dict[str, Edge]) -> Multigraph:
        """This connected graph with the vertices ``vertices``, its own plus
        the new ones ``fresh``, and the canonical edges ``added``, whose ids
        are new, indexed by extending this graph's index: its fields equal
        ``_index``'s.  The edges come from connected operands, each sharing
        a vertex with this graph or an operand before it, so they reach
        every new vertex and the sum is connected.

        New edges are put into the edge tuple and the adjacency tuples in
        place; only the vertices an added edge touches get new tuples.  The
        sum is one component, rooted at the least of the old root and the
        new vertices.  Each entry of this graph's memo that
        ``grown_by_sums`` registered is grown into the new graph's memo;
        no other entry is carried over, and the new graph holds nothing of
        this one.
        """
        edges = list(self.edges)
        adjacency = self._adjacency.copy()
        for e in sorted(added.values(), key=_edge_id):
            insort(edges, e, key=_edge_id)
            for x in (e.u, e.v):
                # Every new vertex is an end of an added edge.
                es = adjacency.get(x, ()) + (e,)
                # The new edges come in id order; an old one may follow.
                if len(es) > 1 and es[-2].id > e.id:
                    es = tuple(sorted(es, key=_edge_id))
                adjacency[x] = es
        index = self.component_index.copy()
        index.update(dict.fromkeys(fresh, 0))
        out = _unchecked(Multigraph, vertices=vertices)._set_index(
            tuple(edges), {**self._edge_map, **added}, adjacency, (vertices,),
            (least_vertex((self.component_roots[0], *fresh)),), index)
        for (name, _), value in list(self._memo.items()):
            if name in _GROWERS:
                key, value = _GROWERS[name](out, added, value)
                out._memo[name, key] = value
        return out

    @classmethod
    def build(cls, vertices: Iterable[VertexId],
              edges: Iterable[Edge | tuple[str, VertexId, VertexId]]) -> Multigraph:
        made = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        return cls(frozenset(vertices), made)

    def edge(self, eid: str) -> Edge:
        try:
            return self._edge_map[eid]
        except (KeyError, TypeError):
            raise GraftInputError(f"unknown edge id {eid!r}") from None

    def edge_ids(self) -> frozenset:
        return frozenset(self._edge_map)

    def incident(self, v: VertexId) -> tuple[Edge, ...]:
        return self._adjacency.get(v, ())

    def degree(self, v: VertexId) -> int:
        return len(self.incident(v))

    def components(self) -> tuple[frozenset, ...]:
        return self._components

    def component_of(self, v: VertexId) -> frozenset:
        try:
            return self._components[self.component_index[v]]
        except (KeyError, TypeError):
            raise GraftInputError(f"unknown vertex id {v!r}") from None

    def vertex_set(self, X: Iterable) -> frozenset:
        """A caller's vertex ids as a frozenset of this graph's vertices: a
        non-id member (``_id_set``), then an unknown id, is refused."""
        keep = _id_set(X, _VERTEX_ID, "vertex id")
        missing = keep - self.vertices
        if missing:
            raise GraftInputError(f"unknown vertex ids {sorted_vertices(missing)!r}")
        return keep

    def edge_id_set(self, F: Iterable) -> frozenset:
        """``vertex_set``'s twin for edge ids, which must be strs."""
        keep = _id_set(F, _EDGE_ID, "edge id")
        unknown = keep.difference(self._edge_map)
        if unknown:
            raise GraftInputError(f"unknown edge ids {sorted(unknown)!r}")
        return keep

    def induced(self, X: Iterable[VertexId]) -> Multigraph:
        keep = self.vertex_set(X)
        return assemble_graph(
            keep, (e for e in self.edges if e.u in keep and e.v in keep))

    def spanning(self, edge_ids: Iterable[str]) -> Multigraph:
        """The graph on the same vertices with only the given edges: the
        edge-subset twin of ``induced``."""
        keep = self.edge_id_set(edge_ids)
        return assemble_graph(
            self.vertices, (e for e in self.edges if e.id in keep))


def _unchecked(cls, **fields):
    """A ``cls`` with ``fields`` set and its ``__post_init__`` not run: for
    a value whose checks its construction already implies."""
    out = object.__new__(cls)
    # A frozen dataclass refuses setattr, not its own __dict__.
    out.__dict__.update(fields)
    return out


def _canonical(e: Edge) -> Edge:
    """``e`` with its ends in ``vertex_key`` order.  Endpoint order inside
    an edge carries no meaning, so graphs built along different routes
    compare equal."""
    u, v = e.u, e.v
    tu = type(u)
    # Exact str or int ends of one type compare as their keys do: the
    # keys' first items tie, and the ends differ.
    if tu is type(v) and (tu is str or tu is int):
        ascending = u <= v
    else:
        ascending = vertex_key(u) <= vertex_key(v)
    return e if ascending else Edge(e.id, v, u)


def assemble_graph(vertices: frozenset, edges: Iterable[Edge]) -> Multigraph:
    """``Multigraph(vertices, edges)`` without its checks: each edge is
    turned as the constructor turns it, and ``_index`` runs alone.  For a
    graph derived from valid data, whose edges carry distinct nonempty str
    ids and two distinct ends in ``vertices``, each a vertex id."""
    return _unchecked(Multigraph, vertices=vertices)._index(
        {e.id: _canonical(e) for e in edges})


def assemble_graft(graph: Multigraph, terminals: frozenset,
                   spine: frozenset | None = None,
                   tooth: frozenset | None = None) -> Graft:
    """``Graft(graph, terminals)``, or with sides
    ``OrderedBipartiteGraft(graph, terminals, spine, tooth)``, without
    their checks.  For a graft derived from valid data: its terminals are
    vertices, even in every component, and its sides partition the
    vertices with every edge running between them."""
    if spine is None:
        return _unchecked(Graft, graph=graph, terminals=terminals)
    return _unchecked(OrderedBipartiteGraft, graph=graph, terminals=terminals,
                      spine=spine, tooth=tooth)


# The memo entries a sum grows from its first operand's: a function's name
# and how to grow its entries (see ``grown_by_sums``).
_GROWERS: dict = {}


def cached_on_graph(fn):
    """Memoize ``fn(graph, key)`` in ``graph._memo``, which dies with the
    graph."""
    @wraps(fn)
    def cached(graph: Multigraph, key):
        slot = (fn.__name__, key)
        try:
            return graph._memo[slot]
        except KeyError:
            return graph._memo.setdefault(slot, fn(graph, key))
    return cached


def grown_by_sums(grow):
    """Let ``Multigraph._extended`` grow each entry that a
    ``cached_on_graph`` function holds for a connected graph into the
    connected sum that extends it: ``grow(total, added, value)`` gets the
    sum, already indexed, the edges it added and the entry's value, and
    returns the sum's (key, value).  It sees nothing of the graph it grows
    from, so no graph holds its predecessor."""
    def register(cached):
        _GROWERS[cached.__name__] = grow
        return cached
    return register


@dataclass(frozen=True)
class Graft:
    """A multigraph with an even number of terminals in every component."""

    graph: Multigraph
    terminals: frozenset

    def __post_init__(self):
        _id_set(self.terminals, _VERTEX_ID, "terminal")
        stray = self.terminals - self.graph.vertices
        if stray:
            raise GraftInputError(
                f"terminals {sorted_vertices(stray)!r} are not vertices")
        for comp in self.graph.components():
            if len(comp & self.terminals) % 2:
                raise GraftValidationError(
                    "terminal-parity",
                    f"component {sorted_vertices(comp)!r} holds an odd number of terminals")


@dataclass(frozen=True)
class OrderedBipartiteGraft(Graft):
    """A graft whose vertices split into a spine side and a tooth side.

    Every edge runs between the two sides.  The pair (spine, tooth) is
    ordered: swapping the sides yields a different value.
    """

    spine: frozenset
    tooth: frozenset

    def __post_init__(self):
        super().__post_init__()
        spine = self.spine
        sides = spine | self.tooth
        _id_set(sides, _VERTEX_ID, "side vertex")
        overlap = spine & self.tooth
        if overlap:
            raise GraftValidationError(
                "bipartition-overlap",
                f"vertices {sorted_vertices(overlap)!r} appear on both sides")
        uncovered = self.graph.vertices - spine - self.tooth
        if uncovered:
            raise GraftValidationError(
                "bipartition-coverage",
                f"vertices {sorted_vertices(uncovered)!r} are on neither side")
        stray = sides - self.graph.vertices
        if stray:
            raise GraftInputError(
                f"bipartition names unknown vertices {sorted_vertices(stray)!r}")
        for e in self.graph.edges:
            if (e.u in spine) == (e.v in spine):
                raise GraftValidationError(
                    "not-bipartite",
                    f"edge {e.id!r} joins two vertices of the same side")


def validate_graft(graph: Multigraph, terminals: Iterable[VertexId]) -> bool:
    """True when every component of ``graph`` has an even terminal count:
    the check of ``Graft``, whose input errors it lets through."""
    try:
        Graft(graph, _id_set(terminals, _VERTEX_ID, "terminal"))
    except GraftValidationError:
        return False
    return True


def build_bipartite_graft(graph: Multigraph, terminals: Iterable[VertexId],
                          spine: Iterable[VertexId],
                          tooth: Iterable[VertexId]) -> OrderedBipartiteGraft:
    """Validating constructor for ordered bipartite grafts."""
    return OrderedBipartiteGraft(
        graph, _id_set(terminals, _VERTEX_ID, "terminal"),
        _id_set(spine, _VERTEX_ID, "side vertex"),
        _id_set(tooth, _VERTEX_ID, "side vertex"))


def contract_graft(g: Graft, X: Iterable[VertexId],
                   contracted_id: VertexId | None = None) -> tuple[Graft, VertexId]:
    """Collapse ``X`` to one vertex, keeping parallel edges, dropping inner ones.

    The contracted vertex becomes a terminal exactly when ``X`` held an odd
    number of terminals, which keeps the result a graft.
    """
    keep = g.graph.vertex_set(X)
    if not keep:
        raise PreconditionError("cannot contract an empty vertex set")
    if contracted_id is None:
        contracted_id = f"X#{least_vertex(keep)}"
    _id_set((contracted_id,), _VERTEX_ID, "contracted id")
    if contracted_id in g.graph.vertices - keep:
        raise GraftInputError(f"contracted id {contracted_id!r} is already a vertex")
    vertices = (g.graph.vertices - keep) | {contracted_id}
    edges = contracted_edges(g.graph.edges, keep, contracted_id)
    terminals = g.terminals - keep
    if len(g.terminals & keep) % 2:
        terminals |= {contracted_id}
    return assemble_graft(assemble_graph(frozenset(vertices), edges),
                          frozenset(terminals)), contracted_id


def contracted_edges(edges: Iterable[Edge], keep: frozenset,
                     contracted_id: VertexId) -> tuple[Edge, ...]:
    """The edges as they run once ``keep`` is one vertex ``contracted_id``:
    an end inside ``keep`` moves to it, and an edge inside ``keep`` goes."""
    out = []
    for e in edges:
        inside_u, inside_v = e.u in keep, e.v in keep
        if inside_u and inside_v:
            continue
        if inside_u:
            out.append(Edge(e.id, contracted_id, e.v))
        elif inside_v:
            out.append(Edge(e.id, e.u, contracted_id))
        else:
            out.append(e)
    return tuple(out)


def graft_sum(first: OrderedBipartiteGraft,
              *more: OrderedBipartiteGraft) -> OrderedBipartiteGraft:
    """Union the graphs and take the symmetric difference of the terminals.

    Operands, each an ``OrderedBipartiteGraft``, are added left to right,
    and each must agree with the sum so far: no vertex may sit on the
    spine side of one and the tooth side of the other, and an edge id they
    share must join the same ends.

    Those two checks are all the sum needs, so it is assembled without
    re-running the constructors' checks, in one of two ways, read off the
    operands' indexes.  Where the first operand is connected and each
    later one is connected and shares a vertex with those before it, as
    an ear meets the prefix it grows, the sum is one component: it
    extends that operand's index and its grown tables
    (``Multigraph._extended``).  Every other sum is assembled afresh
    (``assemble_graph``) with an empty memo.  And:

    - every edge id, end, loop-freedom and orientation is an operand's,
      and the end check keeps a shared id to one pair of ends;
    - the union of valid sides covers the union of the vertices, and the
      side check keeps the sides apart, so every edge still runs from the
      spine side to the tooth side;
    - each operand's component lies inside one component of the sum, and
      the terminals are the XOR of the operands' terminals, so every
      component of the sum holds a sum of even terminal counts.
    """
    if not all(isinstance(g, OrderedBipartiteGraft) for g in (first, *more)):
        raise PreconditionError("graft_sum adds ordered bipartite grafts only")
    base = first.graph
    known = base._edge_map
    added: dict[str, Edge] = {}
    # What the later operands bring, gathered in place and joined to the
    # first operand's sets once, so that n operands cost one pass.
    vertices, odd, spine, tooth = set(), set(), set(), set()
    grows = len(base.component_roots) == 1
    for g in more:
        grows = grows and len(g.graph.component_roots) == 1 and not (
            base.vertices.isdisjoint(g.graph.vertices)
            and vertices.isdisjoint(g.graph.vertices))
        if not (first.spine.isdisjoint(g.tooth) and spine.isdisjoint(g.tooth)
                and first.tooth.isdisjoint(g.spine) and tooth.isdisjoint(g.spine)):
            clash = (((first.spine | spine) & g.tooth)
                     | (g.spine & (first.tooth | tooth)))
            raise PreconditionError(
                f"vertices {sorted_vertices(clash)!r} change sides between the operands")
        for e in g.graph.edges:
            old = known.get(e.id) or added.get(e.id)
            if old is None:
                added[e.id] = e
            elif old.ends() != e.ends():
                raise GraftInputError(
                    f"edge id {e.id!r} appears in both operands with different ends")
        vertices |= g.graph.vertices
        odd ^= g.terminals
        spine |= g.spine
        tooth |= g.tooth
    fresh = vertices - base.vertices
    vertices = base.vertices | fresh
    if grows:
        graph = base._extended(vertices, fresh, added)
    else:
        graph = assemble_graph(vertices, (*base.edges, *added.values()))
    return assemble_graft(graph, first.terminals ^ odd, first.spine | spine,
                          first.tooth | tooth)


def is_join(g: Graft, F: Iterable[str]) -> bool:
    """True when the edge set has odd degree exactly at the terminals."""
    fset = g.graph.edge_id_set(F)
    return odd_degree_vertices((e.u, e.v) for e in map(g.graph.edge, fset)) == g.terminals


def odd_degree_vertices(ends: Iterable[tuple]) -> frozenset:
    """Vertices of odd degree among the edges with the given end pairs."""
    odd: set = set()
    for u, v in ends:
        odd ^= {u, v}
    return frozenset(odd)


@dataclass(frozen=True)
class Walk:
    """A vertex/edge sequence; simple path, or circuit when closed."""

    vertices: tuple
    edge_ids: tuple[str, ...]

    @property
    def closed(self) -> bool:
        return len(self.vertices) > 1 and self.vertices[0] == self.vertices[-1]

    def validate(self, graph: Multigraph, require: str | None = None) -> None:
        """Check incidence and simplicity; ``require`` may pin path/circuit."""
        vs, eids = self.vertices, self.edge_ids
        if not vs or len(eids) != len(vs) - 1:
            raise GraftInputError("walk vertex/edge counts do not line up")
        graph.vertex_set(vs)  # refuses a non-id or an unknown vertex
        for i, eid in enumerate(eids):
            e = graph.edge(eid)
            if e.ends() != frozenset((vs[i], vs[i + 1])):
                raise GraftInputError(
                    f"edge {eid!r} does not join {vs[i]!r} and {vs[i + 1]!r}")
        if len(set(eids)) != len(eids):
            raise GraftInputError("walk repeats an edge")
        if self.closed:
            if len(set(vs[:-1])) != len(vs) - 1:
                raise GraftInputError("circuit repeats a vertex")
            if require == "path":
                raise PreconditionError("expected a path, got a circuit")
        else:
            if len(set(vs)) != len(vs):
                raise GraftInputError("path repeats a vertex")
            if require == "circuit":
                raise PreconditionError("expected a circuit, got a path")


def simple_paths(graph: Multigraph, start: VertexId,
                 goal: VertexId | None = None,
                 cap: int | None = None) -> Iterator[Walk]:
    """Yield simple paths from ``start`` by depth-first search.

    With ``goal`` set, only paths ending there are yielded; otherwise every
    simple path out of ``start`` (including the trivial one) is produced.
    ``cap`` bounds the number of yielded paths; exceeding it raises
    CapacityError.  The search keeps an explicit stack of incidence
    iterators, one per path vertex, so path length is not bounded by the
    recursion limit.
    """
    graph.component_of(start)  # refuses an unknown or unhashable id
    if goal is not None:
        graph.component_of(goal)
    emitted = 0

    def counted(walk: Walk) -> Walk:
        nonlocal emitted
        emitted += 1
        if cap is not None and emitted > cap:
            raise CapacityError(f"more than {cap} simple paths from {start!r}")
        return walk

    if goal is None or goal == start:
        yield counted(Walk((start,), ()))
    if goal == start:
        return
    vs, eids, seen = [start], [], {start}
    stack = [iter(graph.incident(start))]
    while stack:
        for e in stack[-1]:
            w = e.other(vs[-1])
            if w in seen:
                continue
            vs.append(w)
            eids.append(e.id)
            if goal is None or w == goal:
                yield counted(Walk(tuple(vs), tuple(eids)))
            if w == goal:
                vs.pop()
                eids.pop()
                continue
            seen.add(w)
            stack.append(iter(graph.incident(w)))
            break
        else:
            stack.pop()
            if stack:
                seen.discard(vs.pop())
                eids.pop()


def simple_circuits(graph: Multigraph, max_edges: int | None = None) -> Iterator[Walk]:
    """Yield every simple circuit once, including two-edge parallel circuits.

    Each circuit is found from its least vertex by a depth-first search
    over an explicit stack of incidence iterators.
    """
    seen_sets: set[frozenset] = set()
    order = {v: i for i, v in enumerate(sorted_vertices(graph.vertices))}

    for root in sorted_vertices(graph.vertices):
        vs, eids, onpath = [root], [], {root}
        stack = [iter(graph.incident(root))]
        while stack:
            v = vs[-1]
            for e in stack[-1]:
                w = e.other(v)
                if order[w] < order[root]:
                    continue
                if w == root and len(eids) >= 1 and e.id != eids[0]:
                    key = frozenset(eids) | {e.id}
                    if key not in seen_sets:
                        seen_sets.add(key)
                        yield Walk(tuple(vs + [w]), tuple(eids + [e.id]))
                    continue
                if w in onpath:
                    continue
                if max_edges is not None and len(eids) + 1 >= max_edges:
                    continue
                vs.append(w)
                eids.append(e.id)
                onpath.add(w)
                stack.append(iter(graph.incident(w)))
                break
            else:
                stack.pop()
                if stack:
                    onpath.discard(vs.pop())
                    eids.pop()
