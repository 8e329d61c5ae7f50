"""Independent slow oracles the test suite checks fast code against.

Everything here goes through exhaustive enumeration only: the GF(2) scan for
joins and simple-path/circuit sweeps for distances.  The scan
(``all_min_joins``) reads its space from ``joins._cycle_space``, which
nothing else reads: it shares only the BFS tree (``joins._bfs_tree``) with
the cycle table.  The sweeps share no logic with the backends under test.
The recursive path and circuit sweeps are also the order oracle for the
explicit-stack ones in ``bigraft.core``.

``DMOracle`` is the one oracle that enumerates nothing: the
Dulmage–Mendelsohn decomposition predicts the components, classes, order
and distances of a bipartite comb in which every vertex is a terminal, at
sizes no exhaustive scan reaches, from a matching and a digraph search
that share no code with the package; ``order_disagreements`` reads a
poset against it.  ``pin_digest`` hashes a row of the pinned outputs,
which ``pinned_stdout`` makes once a session, running the CLI through
``run_cli``.
"""

import functools
import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from bigraft import instances
from bigraft.cli import cli_main
from bigraft.combs import EarStep
from bigraft.core import (
    CapacityError,
    Graft,
    GraftInputError,
    Multigraph,
    OrderedBipartiteGraft,
    Walk,
    sorted_vertices,
)
from bigraft.decomposition import factor_components
from bigraft.formats import serialize_graft
from bigraft.joins import all_min_joins, f_weight

# Rows [command, family, arguments, ``pin_digest``]: a null command pins
# the document of the ``bigraft.instances`` family on the arguments, any
# other the command's ``--format json`` stdout on that document.
PINS = Path(__file__).with_name("pins.json")


def run_cli(*argv, stdin: str = "", main=None):
    """(exit code, stdout, stderr) of ``main(argv)``, by default
    ``cli_main(argv)``, reading ``stdin``."""
    out, err = io.StringIO(), io.StringIO()
    real_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = (main or cli_main)(list(argv))
    finally:
        sys.stdin = real_stdin
    return code, out.getvalue(), err.getvalue()


@functools.cache
def pinned_stdout(command: str | None, family: str, args: tuple) -> str:
    """The output a row of ``PINS`` pins, made once a session so that a
    test reading it too shares the run; the command must exit 0."""
    out = serialize_graft(getattr(instances, family)(*args))
    if command is not None:
        code, out, err = run_cli(*command.split(), "--format", "json", stdin=out)
        assert code == 0, err
    return out


def pin_digest(command: str | None, family: str, args: list) -> str:
    """The sha256 of ``pinned_stdout``."""
    out = pinned_stdout(command, family, tuple(args))
    return hashlib.sha256(out.encode()).hexdigest()


def index_fields(graph) -> tuple:
    """Every field the indexing builds: the edge tuple and map, the
    adjacency (its tuples in order), the components, their roots and the
    component index."""
    return (graph.edges, graph._edge_map, graph._adjacency,
            graph.components(), graph.component_roots, graph.component_index)


def checked_rebuild(value):
    """``value``, an ``EarStep`` or a graft, built again from its own fields
    through the checking constructors."""
    if isinstance(value, EarStep):
        return EarStep(value.walk, value.bonds, value.terminals, value.spine,
                       value.tooth)
    graph = Multigraph(value.graph.vertices, value.graph.edges)
    if isinstance(value, OrderedBipartiteGraft):
        return OrderedBipartiteGraft(graph, value.terminals, value.spine,
                                     value.tooth)
    return Graft(graph, value.terminals)


def obg(vertices, edges, terminals, spine, tooth):
    """An ``OrderedBipartiteGraft`` built from its ids by the checking
    constructors."""
    return OrderedBipartiteGraft(Multigraph.build(vertices, edges),
                                 frozenset(terminals), frozenset(spine),
                                 frozenset(tooth))


def recorded(monkeypatch, module, name: str) -> list:
    """Every value that ``module.name`` returns from now on."""
    real, out = getattr(module, name), []

    def record(*args):
        out.append(real(*args))
        return out[-1]

    monkeypatch.setattr(module, name, record)
    return out


def assert_rebuilds(value):
    """An assembled value passes every check of its constructors and equals
    its checked rebuild, its graph indexed alike: edges turned and sorted,
    adjacency in order, components and roots."""
    want = checked_rebuild(value)
    assert type(value) is type(want) and value == want
    if isinstance(value, EarStep):
        value, want = value.as_graft(), want.as_graft()
        assert type(value) is type(want) and value == want
    assert index_fields(value.graph) == index_fields(want.graph)


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


def _search(start, step) -> frozenset:
    """Every vertex reachable from ``start`` by ``step``, start included."""
    seen, stack = {start}, [start]
    while stack:
        for w in step(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


class DMOracle:
    """The Dulmage–Mendelsohn decomposition of a bipartite graph with sides
    ``a_side`` and ``b_side`` that has a perfect matching.

    ``partner`` is a perfect matching M, found by augmenting paths.  D is
    the digraph on A with an arc a → a' when a ≠ a' and a is adjacent to
    M(a'); ``reach[a]`` holds every A vertex that a reaches in D, a itself
    included.  ``components`` are the DM components: the strong components
    of D, each with its partners.  ``graph_component`` maps each vertex to
    its component in the graph.  Only the graph's vertices and edges are
    read.
    """

    def __init__(self, graph, a_side, b_side):
        near = {v: [] for v in graph.vertices}
        for e in graph.edges:
            near[e.u].append(e.v)
            near[e.v].append(e.u)
        a_side = sorted(a_side, key=str)
        self.partner = _perfect_matching(near, a_side)
        if len(self.partner) != len(a_side) + len(frozenset(b_side)):
            raise ValueError("the matching is not perfect")
        self.reach = {a: _search(a, lambda x: [self.partner[b] for b in near[x]])
                      for a in a_side}
        self.components = []
        placed: set = set()
        for a in a_side:
            if a not in placed:
                strong = {x for x in self.reach[a] if a in self.reach[x]}
                placed |= strong
                self.components.append(frozenset(
                    strong | {self.partner[x] for x in strong}))
        self.graph_component = {}
        for v in graph.vertices:
            if v not in self.graph_component:
                piece = _search(v, near.__getitem__)
                self.graph_component.update(dict.fromkeys(piece, piece))


def order_disagreements(g, ids, relation, oracle: DMOracle,
                        swapped: bool = False) -> list:
    """Each (x, y, precedes) where g's order, ``relation[i][j]`` saying
    whether ``ids[i]`` precedes ``ids[j]`` as ``CathedralPoset`` holds it
    and ``poset --format json`` prints it, answers against the DM order:
    x precedes y exactly when y's A side reaches x's in D, read in reverse
    when ``swapped``."""
    # Any A vertex stands for its strong component.
    a_of = {c.id: min(v for v in c.vertices if v.startswith("a"))
            for c in factor_components(g)}
    out = []
    for i, x in enumerate(ids):
        for j, y in enumerate(ids):
            first, second = (y, x) if swapped else (x, y)
            if relation[i][j] != (a_of[first] in oracle.reach[a_of[second]]):
                out.append((x, y, relation[i][j]))
    return out


def _perfect_matching(near: dict, a_side) -> dict:
    """A maximum matching, as a map from each matched vertex to its
    partner, grown by one augmenting path from each A vertex in turn."""
    mate: dict = {}
    for root in a_side:
        # parent[b] is the A vertex that b hangs from in the alternating
        # tree grown from root; free is the first unmatched b it meets.
        parent, frontier, free = {}, [root], None
        while frontier and free is None:
            a = frontier.pop()
            for b in near[a]:
                if b not in parent:
                    parent[b] = a
                    if b not in mate:
                        free = b
                        break
                    frontier.append(mate[b])
        # Flip the tree path from free back to root.
        b = free
        while b is not None:
            a = parent[b]
            before = mate.get(a)
            mate[a], mate[b] = b, a
            b = before
    return mate


def matching_critical(g, r) -> bool:
    """Whether the quasicomb ``g`` with spine A, tooth B ∪ {r}, every
    vertex but r a terminal, and a perfect matching M of G − r (``mq``) is
    critical for r.  It is exactly when an M-alternating search from r
    reaches every b: from r or a reached b, step to each A neighbour; from
    a reached a, to M(a).  Only the graph's vertices and edges are read.

    Proof.  Let T = A ∪ B, so |A| = |B| = k and nu(T) = k: M is a join,
    and each edge makes at most two vertices odd.  For b in B, a join of
    T Δ {r, b} with k edges is a perfect matching of G − b, which exists
    exactly when an M-alternating path runs from r to b; so f(r, b) = 0
    exactly when the search reaches b.  For a in A, a join F of
    T Δ {r, a} has |F| ≡ k − 1 modulo 2 (count F's ends on the A side),
    so nu ≥ k + 1; and where a has a reached neighbour b, a perfect
    matching of G − b plus the edge ab is such a join, so f(r, a) = 1.
    Every a has its partner M(a) as a neighbour, so once every b is
    reached, every a is at distance 1.
    """
    near = {v: [] for v in g.graph.vertices}
    for e in g.graph.edges:
        near[e.u].append(e.v)
        near[e.v].append(e.u)
    rest = {v: [w for w in ws if w != r] for v, ws in near.items() if v != r}
    mate = _perfect_matching(rest, sorted(g.spine, key=str))
    if len(mate) != len(rest):
        raise ValueError("G - r has no perfect matching")
    return g.tooth <= _search(r, lambda x: [mate[x]] if x in g.spine else near[x])
