"""Independent slow oracles the test suite checks fast code against.

Everything here goes through exhaustive enumeration only: the GF(2) scan for
joins and simple-path/circuit sweeps for distances.  The scan
(``all_min_joins``) reads its space from ``joins._cycle_space``, which the
cycle table reads too; the sweeps share no logic with the backends under
test.  The recursive path and circuit
sweeps are also the order oracle for the explicit-stack ones in
``bigraft.core``.  ``chain_comb`` is the one fixture two suites share.
"""

from bigraft.core import (
    CapacityError,
    Graft,
    GraftInputError,
    Multigraph,
    Walk,
    build_bipartite_graft,
    sorted_vertices,
)
from bigraft.joins import all_min_joins, f_weight


def recursive_simple_paths(graph, start, goal=None, cap=None):
    """Simple paths from ``start`` by recursive depth-first search, in the
    order ``bigraft.core.simple_paths`` must match."""
    if start not in graph.vertices:
        raise GraftInputError(f"unknown vertex id {start!r}")
    if goal is not None and goal not in graph.vertices:
        raise GraftInputError(f"unknown vertex id {goal!r}")
    emitted = 0

    def emit(walk):
        nonlocal emitted
        emitted += 1
        if cap is not None and emitted > cap:
            raise CapacityError(f"more than {cap} simple paths from {start!r}")
        yield walk

    def rec(v, vs, eids, seen):
        if goal is None or v == goal:
            yield from emit(Walk(tuple(vs), tuple(eids)))
        if goal is not None and v == goal:
            return
        for e in graph.incident(v):
            w = e.other(v)
            if w in seen:
                continue
            vs.append(w)
            eids.append(e.id)
            seen.add(w)
            yield from rec(w, vs, eids, seen)
            seen.discard(w)
            eids.pop()
            vs.pop()

    yield from rec(start, [start], [], {start})


def recursive_simple_circuits(graph, max_edges=None):
    """Every simple circuit once, by recursive search from each least
    vertex, in the order ``bigraft.core.simple_circuits`` must match."""
    seen_sets = set()
    order = {v: i for i, v in enumerate(sorted_vertices(graph.vertices))}

    def rec(root, v, vs, eids, onpath):
        for e in graph.incident(v):
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
            yield from rec(root, w, vs, eids, onpath)
            onpath.discard(w)
            eids.pop()
            vs.pop()

    for root in sorted_vertices(graph.vertices):
        yield from rec(root, root, [root], [], {root})


def brute_distance(g: Graft, u, v, max_edges: int = 22):
    """Minimum F-weight over all simple u-v paths, for every minimum join F.

    Asserts the minimum is the same for each F (join independence) and
    returns the common value; None when u, v are in different components.
    """
    if u == v:
        return 0
    if v not in g.graph.component_of(u):
        return None
    values = set()
    for F in all_min_joins(g, max_edges=max_edges):
        best = min(f_weight(F, p.edge_ids) for p in recursive_simple_paths(g.graph, u, goal=v))
        values.add(best)
    assert len(values) == 1, f"distance depends on the join choice: {values}"
    return values.pop()


def brute_allowed(g: Graft, eid: str, max_edges: int = 22) -> bool:
    """True when the edge shows up in some exhaustively found minimum join."""
    return any(eid in F for F in all_min_joins(g, max_edges=max_edges))


def has_multiple_min_joins(g: Graft, max_edges: int = 22) -> bool:
    try:
        return len(all_min_joins(g, max_edges=max_edges)) > 1
    except CapacityError:
        return False


def chain_comb(k):
    """Path a0-b0-a1-b1-...-b(k-1) with every vertex terminal: k factor
    components {ai, bi}, ordered in a chain."""
    spine = [f"a{i}" for i in range(k)]
    tooth = [f"b{i}" for i in range(k)]
    edges = [(f"e{i}", f"a{i}", f"b{i}") for i in range(k)]
    edges += [(f"c{i}", f"b{i}", f"a{i + 1}") for i in range(k - 1)]
    g = Multigraph.build(spine + tooth, edges)
    return build_bipartite_graft(g, spine + tooth, spine=spine, tooth=tooth)
