"""Minimum joins, the weights they induce on edges, and join-based distances.

Two backends compute minimum joins.  The exhaustive one scans the whole
affine solution space over GF(2), one particular join plus the cycle
space, and canonicalizes ties; the matching one pairs terminals over the
shortest-path metric and realizes the pairing by breadth-first paths.
Their agreement is the package's root oracle.  They share only _bfs_tree:
the exhaustive scan alone reads _cycle_space, which is checked on its own
against is_join and degree parity.

_join_tables gives a terminal set one table per graph component, aligned
with graph.components(), so vertex v reads tables[component_index[v]]: the
subset table where the component's terminal count t is at most
_TABLE_LIMIT and at most its cycle rank mu = m - n + 1, else the cycle
table.  A table's nu_of(mask), the join size of a terminal subset, is one
entry of the pairing DP or a sum over blocks (2-connected pieces) of each
block's least: a scan of its stored span where the block has at most
_TABLE_LIMIT independent cycles, else the blossom pairing of the block's
odd vertices.  A cycle table roots its blocks at its component's root,
the least vertex (graph.component_roots), so every terminal set of a
component, T Δ {u, v} included, shares its blocks, spans and block memos.
A table serves nu, f_distance(u, v) = nu(T Δ {u, v}) - nu(T), an O(t) or
O(blocks) read that f_distance_reader hands to callers reading many, the
allowed edges and, up to _TABLE_LIMIT terminals, min_join's pairs
(_table_pairs).  Above that the pairs come from the blossom matching in
``_blossom``, a port of networkx's that returns networkx's pairs.  The
tables store the difference unsigned; the sign hook is applied when
f_distance reads it.

The allowed edges, those of some minimum join, live here too.
allowed_edge_set asks each component's table once for the allowed edges
among the component's edges: the subset table tests each edge against
the terminal pairs some minimum pairing uses and reads no difference, the
cycle table reads one difference per edge.  is_allowed_edge and the factor
components of ``decomposition`` read the set.  No other module reads the
tables.

Blocks are only ever grown (``_grown``).  A component's entry built from
nothing is the one-vertex entry at its root grown by every edge of the
component, and nothing outside it.  Along an ear chain each sum
(``core.graft_sum``) adds a connected ear that meets a connected prefix,
which the operands' own indexes show.  Such a sum extends that prefix's
index (``core.Multigraph._extended``), which grows the prefix's
``_cycle_blocks`` entry into its own (``_grow_cycle_blocks``) by the
edges it added; that search is the only one a sum makes.  Every other
sum is indexed afresh and builds its entries from nothing.  Edges take
bits in the order a breadth-first search meets them, after the entry's
own, so every old mask stays valid; an entry carries ``bits``, its
bit-to-edge tuple, which ``_pairing_least`` reads.  ``to_root`` keeps
the base vertex of the entry it grew from, which need not be the
component's root any more.  Tables read it only in XORs of pairs: a
terminal set is even in each component and a distance flips two
vertices, so the base cancels.  A new cycle merges the blocks it meets
(``_fold_cycles``); every other block keeps its span and memo objects,
so its leasts carry along the chain with no key.

The tables of each terminal set, BFS trees, cycle spaces, blocks with
their spans and the allowed set live in their graph's own memo
(``core.cached_on_graph``) and die with it; only the blocks a grown entry
shares with the one it grew from outlive a prefix, held by the next.  The
memo takes no lock, so two threads may both compute one entry; both get
the one stored first.  A table's fields, the subset table's rest rows
among them, never change once built; its caches (the subset table's best_u
lists, the block memos) only gain entries, each the value any thread would
compute.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from operator import add
from typing import Iterable, Iterator

from ._blossom import min_weight_matching
from .core import (
    CapacityError,
    Graft,
    InternalConsistencyError,
    Multigraph,
    OrderedBipartiteGraft,
    PreconditionError,
    Walk,
    assemble_graft,
    cached_on_graph,
    grown_by_sums,
    is_join,
    simple_circuits,
    sorted_vertices,
)

# Test hook: multiplies the nu-difference inside f_distance.  The shipped
# orientation makes distances nonpositive inside factor components; flipping
# it must visibly break the distance-dependent property suites.
_DISTANCE_SIGN = 1


@contextmanager
def flipped_distance_sign():
    """Temporarily negate f_distance.  Only for sensitivity testing."""
    global _DISTANCE_SIGN
    _DISTANCE_SIGN = -_DISTANCE_SIGN
    try:
        yield
    finally:
        _DISTANCE_SIGN = -_DISTANCE_SIGN


@dataclass(frozen=True)
class JoinSet:
    """An edge set with odd degree exactly at the terminals of its graft."""

    graft: Graft
    edge_ids: frozenset

    def __post_init__(self):
        if not is_join(self.graft, self.edge_ids):
            raise PreconditionError(
                f"{sorted(self.edge_ids)!r} is not a join of the given graft")

    @property
    def size(self) -> int:
        return len(self.edge_ids)

    def __contains__(self, eid: str) -> bool:
        return eid in self.edge_ids

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.edge_ids))


@dataclass(frozen=True)
class DistanceValue:
    """A join-induced distance; ``value`` is None when no join connects."""

    value: int | None

    @property
    def finite(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class WeightedWalkReport:
    """A walk together with its F-weight and the tooth-balance flag.

    ``balanced`` records whether every counted tooth vertex touches exactly
    one walk edge belonging to F: the internal vertices for a path, every
    vertex for a circuit.  It is None when the walk was weighed without a
    bipartition in scope.
    """

    walk: Walk
    weight: int
    balanced: bool | None


def _edge_id_set(F) -> frozenset:
    if isinstance(F, JoinSet):
        return F.edge_ids
    return frozenset(F)


def f_weight(F, edge_ids: Iterable[str]) -> int:
    """Weight of an edge set: +1 per edge outside F, -1 per edge inside."""
    fset = _edge_id_set(F)
    w = 0
    for eid in edge_ids:
        w += -1 if eid in fset else 1
    return w


def f_degrees(fset: frozenset, walk: Walk) -> dict:
    """How many of the walk's F-edges touch each of its vertices."""
    degrees = dict.fromkeys(walk.vertices, 0)
    for i, eid in enumerate(walk.edge_ids):
        if eid in fset:
            degrees[walk.vertices[i]] += 1
            degrees[walk.vertices[i + 1]] += 1
    return degrees


def _tooth_balance(fset: frozenset, walk: Walk, tooth: frozenset) -> bool:
    if walk.closed:
        counted = walk.vertices[:-1]
    else:
        counted = walk.vertices[1:-1]
    degrees = f_degrees(fset, walk)
    return all(degrees[v] == 1 for v in counted if v in tooth)


def walk_report(F, walk: Walk, tooth: frozenset | None = None) -> WeightedWalkReport:
    fset = _edge_id_set(F)
    balanced = None if tooth is None else _tooth_balance(fset, walk, tooth)
    return WeightedWalkReport(walk, f_weight(fset, walk.edge_ids), balanced)


# ---------------------------------------------------------------------------
# Exhaustive backend: the join space is an affine subspace over GF(2), one
# particular join plus the cycle space.  _cycle_space, which nothing else
# reads, gives both.  Scanning the space with a Gray code touches each
# candidate in O(1).
# ---------------------------------------------------------------------------

# The default edge bound of the exhaustive backends, and the bound of
# negative_circuit_witness's circuit scan: past it, CapacityError.
_EXHAUSTIVE_EDGES = 22


def _require_exhaustive(graph: Multigraph, max_edges: int) -> None:
    if len(graph.edges) > max_edges:
        raise CapacityError(
            f"{len(graph.edges)} edges exceed the exhaustive bound {max_edges}")


def _mask_to_ids(graph: Multigraph, mask: int) -> frozenset:
    return frozenset(e.id for i, e in enumerate(graph.edges) if mask >> i & 1)


def _char_vector(mask: int, nbits: int) -> tuple:
    return tuple((mask >> i) & 1 for i in range(nbits))


def _min_join_masks(graph: Multigraph, terminals: frozenset, max_edges: int):
    """All minimum-join masks, found by Gray-code walk of the affine space:
    the XOR of the terminals' path masks plus the span of every
    component's cycle basis."""
    _require_exhaustive(graph, max_edges)
    particular = 0
    basis: list = []
    for root, comp in zip(graph.component_roots, graph.components()):
        to_root, cycles = _cycle_space(graph, root)
        terms = comp & terminals
        if len(terms) % 2:
            raise InternalConsistencyError("a valid graft must admit a join")
        for w in terms:
            particular ^= to_root[w]
        basis += cycles
    best = particular.bit_count()
    best_masks = [particular]
    cur = particular
    for i in range(1, 1 << len(basis)):
        cur ^= basis[(i & -i).bit_length() - 1]
        size = cur.bit_count()
        if size < best:
            best = size
            best_masks = [cur]
        elif size == best:
            best_masks.append(cur)
    return best_masks


def min_join_bruteforce(g: Graft, max_edges: int = _EXHAUSTIVE_EDGES) -> JoinSet:
    """Exhaustive minimum join; ties broken toward the lexicographically
    least characteristic vector over id-sorted edges."""
    masks = _min_join_masks(g.graph, g.terminals, max_edges)
    nbits = len(g.graph.edges)
    winner = min(masks, key=lambda m: _char_vector(m, nbits))
    return JoinSet(g, _mask_to_ids(g.graph, winner))


def all_min_joins(g: Graft,
                  max_edges: int = _EXHAUSTIVE_EDGES) -> tuple[frozenset, ...]:
    """Every minimum join, sorted by characteristic vector."""
    masks = _min_join_masks(g.graph, g.terminals, max_edges)
    nbits = len(g.graph.edges)
    uniq = sorted(set(masks), key=lambda m: _char_vector(m, nbits))
    return tuple(_mask_to_ids(g.graph, m) for m in uniq)


# ---------------------------------------------------------------------------
# Polynomial backend: match terminals over the BFS metric, realize the pairs
# by shortest paths, and take the symmetric difference.
# ---------------------------------------------------------------------------

@cached_on_graph
def _bfs_tree(graph: Multigraph, source) -> tuple[dict, dict]:
    """Distances and deterministic parent edges from ``source``."""
    dist = {source: 0}
    parent_edge: dict = {source: None}
    queue = [source]
    incident = graph.incident
    # The loop also visits what it appends to ``queue``.
    for v in queue:
        d = dist[v] + 1
        for e in incident(v):
            w = e.v if e.u == v else e.u
            if w not in dist:
                dist[w] = d
                parent_edge[w] = e
                queue.append(w)
    return dist, parent_edge


@cached_on_graph
def _cycle_space(graph: Multigraph, root) -> tuple[dict, tuple]:
    """The cycle space of root's component over the BFS tree from root.

    ``to_root`` maps each vertex of the component to the edge mask of its
    tree path to root, so the XOR of the masks of an even terminal set is
    a join of it.  ``basis`` holds the fundamental-cycle mask of every
    non-tree edge, in edge order.  Bit i stands for ``graph.edges[i]``.
    """
    _, parent_edge = _bfs_tree(graph, root)
    index = {e.id: i for i, e in enumerate(graph.edges)}
    to_root: dict = {}
    for w, e in parent_edge.items():
        to_root[w] = 0 if e is None else to_root[e.other(w)] ^ (1 << index[e.id])
    tree = {e.id for e in parent_edge.values() if e is not None}
    basis = tuple((1 << i) ^ to_root[e.u] ^ to_root[e.v]
                  for i, e in enumerate(graph.edges)
                  if e.u in to_root and e.id not in tree)
    return to_root, basis


def _bfs_path_ids(graph: Multigraph, u, v) -> frozenset:
    """Edge ids of the canonical shortest u-v path (BFS parents from u)."""
    dist, parent_edge = _bfs_tree(graph, u)
    if v not in dist:
        raise InternalConsistencyError(f"{u!r} and {v!r} ended up disconnected")
    ids = []
    w = v
    while w != u:
        e = parent_edge[w]
        ids.append(e.id)
        w = e.other(w)
    return frozenset(ids)


def _subset_dp(cost: list[list[int]]) -> list:
    """dp[mask]: least perfect-pairing cost of the indices in mask.

    Only even masks are filled; the lowest set index is always paired
    first, which visits each pairing once.  Its partners are the set bits
    of the rest of the mask, taken one at a time by ``r & -r``, so no
    absent index is tested.
    """
    t = len(cost)
    full = (1 << t) - 1
    INF = float("inf")
    dp = [INF] * (full + 1)
    dp[0] = 0
    for mask in range(3, full + 1):
        if mask.bit_count() % 2:
            continue
        low = mask & -mask
        rest = r = mask ^ low
        row = cost[low.bit_length() - 1]
        best = INF
        while r:
            bit = r & -r
            r ^= bit
            cand = dp[rest ^ bit] + row[bit.bit_length() - 1]
            if cand < best:
                best = cand
        dp[mask] = best
    return dp


_TABLE_LIMIT = 10


def _blossom_pairing(graph: Multigraph, terms: tuple) -> tuple[tuple, ...]:
    """Matched terminal pairs minimizing total distance, by the blossom
    matching of ``_blossom`` over the BFS metric: the port of networkx's,
    so the pairs are the ones networkx would return.  ``terms`` is sorted:
    one component's terminals for min_join, or a block's odd vertices for
    the cycle table's blocks past _TABLE_LIMIT."""
    rows = [_bfs_tree(graph, u)[0] for u in terms]
    W = [[row[w] for w in terms] for row in rows]
    return tuple((terms[i], terms[j]) for i, j in min_weight_matching(W))


def _matched_terminal_pairs(graph: Multigraph, terminals: frozenset) -> list[tuple]:
    """Minimum-distance terminal pairs: read back from the component's own
    table up to _TABLE_LIMIT terminals, else by blossom."""
    out: list[tuple] = []
    for table in _join_tables(graph, terminals):
        if len(table.terms) > _TABLE_LIMIT:
            out.extend(_blossom_pairing(graph, table.terms))
        else:
            out.extend(_table_pairs(graph, table))
    return out


def _nu(graph: Multigraph, terminals: frozenset) -> int:
    """Join size: the sum of each component table's nu."""
    return sum(table.nu for table in _join_tables(graph, terminals))


def nu(g: Graft) -> int:
    """Size of a minimum join."""
    return _nu(g.graph, g.terminals)


def min_join(g: Graft) -> JoinSet:
    """A minimum join from the matching backend.

    Deterministic, but not canonicalized across the tie set; use the
    exhaustive backend when the canonical representative matters.
    """
    F: set = set()
    weight = 0
    for u, v in _matched_terminal_pairs(g.graph, g.terminals):
        dist, _ = _bfs_tree(g.graph, u)
        weight += dist[v]
        F ^= _bfs_path_ids(g.graph, u, v)
    if len(F) != weight:
        raise InternalConsistencyError(
            "realized paths overlapped; matching weight must equal join size")
    return JoinSet(g, frozenset(F))


def is_minimum_join(g: Graft, F) -> bool:
    """True when the join F has minimum cardinality.  A ``JoinSet`` of
    another graft is checked against ``g`` like a plain id set.  A forest,
    such as the graft of an ear that is a path, holds one join of each
    terminal set, so there F is minimum as soon as it is a join."""
    if isinstance(F, JoinSet) and (F.graft is g or F.graft == g):
        js = F
    else:
        js = JoinSet(g, g.graph.edge_id_set(F))
    graph = g.graph
    if len(graph.edges) == len(graph.vertices) - len(graph.components()):
        return True
    return js.size == _nu(graph, g.terminals)


def negative_circuit_witness(g: Graft, F) -> WeightedWalkReport | None:
    """A circuit of negative F-weight, or None when there is none.  For a
    join F, a witness certifies that F is not minimum and None that it is.
    Every simple circuit may be tried, so a graph past _EXHAUSTIVE_EDGES
    edges raises CapacityError."""
    _require_exhaustive(g.graph, _EXHAUSTIVE_EDGES)
    fset = g.graph.edge_id_set(F)
    tooth = g.tooth if isinstance(g, OrderedBipartiteGraft) else None
    for circuit in simple_circuits(g.graph):
        w = f_weight(fset, circuit.edge_ids)
        if w < 0:
            return walk_report(fset, circuit, tooth)
    return None


# ---------------------------------------------------------------------------
# Distances induced by minimum joins.
# ---------------------------------------------------------------------------

class _SubsetTable:
    """Join sizes inside one graph component with few terminals.

    ``rows[i]`` maps each vertex of the component to its BFS distance from
    terminal i and ``dp`` is the pairing DP's full subset table.  A pair
    with a terminal reads nu(T Δ {u, v}) from them in O(t): two terminals
    read one rest entry, and terminal i with a non-terminal v reads the
    min-plus row min over k of d(k, v) + rest[i][k], where rest[k][m] =
    nu(T - k - m) off the diagonal and inf on it.  For a non-terminal u,
    ``_best(u)`` caches best_u[m] = nu(T - m + u), the least pairing in
    which u takes some terminal other than m, one min-plus row per m, so
    a pair of non-terminals reads in O(t) too: nu(T + u + v) is the lesser
    of d(u, v) + nu and min over m of best_u[m] + d(m, v).  Only when the
    triangle inequality leaves the first able to win does d(u, v) cost a
    BFS from u.  ``rest`` is built with ``dp``, at t^2 entries: every read
    other than nu needs it, an ear prefix's criticality reads included,
    and a step graft, a walk with mu <= 1 < t, gets no subset table with
    terminals.
    """

    __slots__ = ("terms", "index", "rows", "dp", "nu", "rest", "best")

    def __init__(self, graph: Multigraph, terms: tuple):
        self.terms = terms
        self.index = {w: i for i, w in enumerate(terms)}
        self.rows = tuple(_bfs_tree(graph, w)[0] for w in terms)
        dp = self.dp = _subset_dp([[row[w] for w in terms] for row in self.rows])
        self.nu = dp[-1]
        full, t, INF = len(dp) - 1, len(terms), float("inf")
        self.rest = [[dp[full ^ (1 << k) ^ (1 << m)] if m != k else INF
                      for m in range(t)] for k in range(t)]
        self.best: dict = {}

    def nu_of(self, graph: Multigraph, mask: int) -> int:
        """Join size of the terminals whose bits are set (bit k: terms[k])."""
        return self.dp[mask]

    def _best(self, u) -> list:
        """best_u[m] = nu(T - m + u) for a non-terminal u, one per m."""
        best = self.best.get(u)
        if best is None:
            du = [row[u] for row in self.rows]
            best = self.best[u] = [min(map(add, du, r)) for r in self.rest]
        return best

    def delta(self, graph: Multigraph, u, v) -> int:
        """nu(T Δ {u, v}) - nu(T) for distinct u, v of this component."""
        rows, rest, nu = self.rows, self.rest, self.nu
        i, j = self.index.get(u), self.index.get(v)
        if i is None and j is not None:
            u, v, i, j = v, u, j, i
        if j is not None:
            # Both are terminals: they leave T.
            return rest[i][j] - nu
        if i is not None:
            # u leaves T and v, entering, takes one of the others.
            return min(map(add, [row[v] for row in rows], rest[i])) - nu
        # Both enter: v takes a terminal m while u takes another, or u and
        # v pair up.  d(u, v) >= |d(k, u) - d(k, v)| for every terminal k,
        # so below that bound the pair cannot win and needs no BFS.
        flipped, bound = float("inf"), 1
        for b, row in zip(self._best(u), rows):
            dv = row[v]
            if b + dv < flipped:
                flipped = b + dv
            gap = abs(row[u] - dv)
            if gap > bound:
                bound = gap
        if bound + nu < flipped:
            flipped = min(flipped, _bfs_tree(graph, u)[0][v] + nu)
        return flipped - nu

    def allowed_ids(self, graph: Multigraph, edges: Iterable) -> list:
        """Ids of the allowed edges among ``edges``, all of this table's
        component: those on a shortest path between the two terminals of a
        pair (a, b) that some minimum pairing uses, nu(T - a - b) + d(a, b)
        = nu.  No ``delta`` is read.

        ``key[w]`` sets bit p * stride + d(a, w) for each usable pair p =
        (a, b) with w on a shortest a-b path, d(a, w) + d(w, b) = d(a, b).
        Then uv lies on one such path exactly when some bit of u, moved
        one level up, is a bit of v, or the same with u and v swapped.
        """
        rows, rest, nu, terms = self.rows, self.rest, self.nu, self.terms
        if not rows:
            return []
        stride = len(rows[0]) + 1
        key = dict.fromkeys(rows[0], 0)
        base = 0
        for i, ra in enumerate(rows):
            for j in range(i + 1, len(rows)):
                rb = rows[j]
                d = ra[terms[j]]
                if rest[i][j] + d == nu:
                    for w, x in ra.items():
                        if x + rb[w] == d:
                            key[w] |= 1 << (base + x)
                    base += stride
        return [e.id for e in edges
                if key[e.u] << 1 & key[e.v] or key[e.v] << 1 & key[e.u]]


def _fold_cycles(blocks: tuple, cycles) -> tuple:
    """``blocks`` with ``cycles``, independent cycle masks, folded in.

    Each cycle merges with every block it shares an edge bit with; blocks
    share no edge, so the mask merged so far meets a block exactly when
    the cycle does.  A block that no cycle meets is returned as the same
    tuple, so its span and memo carry over.  Each block the fold forms
    gets an empty memo and, up to _TABLE_LIMIT cycles, a span: the sums of
    its new cycles and of the spans of the blocks it took in.
    """
    if not cycles:
        return blocks
    groups = [(b[0], b[1], [b]) for b in blocks]
    for c in cycles:
        mask, mu, parts, apart = c, 1, [c], []
        for group in groups:
            if group[0] & mask:
                mask |= group[0]
                mu += group[1]
                parts += group[2]
            else:
                apart.append(group)
        groups = apart + [(mask, mu, parts)]
    out = []
    for mask, mu, parts in groups:
        if len(parts) == 1 and type(parts[0]) is tuple:
            out.append(parts[0])
            continue
        span = None
        if mu <= _TABLE_LIMIT:
            span = [0]
            for part in parts:
                if type(part) is tuple:
                    span = [x ^ y for y in part[2] for x in span]
                else:
                    span += [x ^ part for x in span]
        out.append((mask, mu, span, {}))
    return tuple(out)


def _grown(graph: Multigraph, entry: tuple, queue: list, added):
    """``entry`` grown by the edges that a breadth-first search from the
    vertices ``queue`` meets in ``graph``: those whose ids are in
    ``added``, or every one where ``added`` is None.

    Each edge gets the next bit after ``entry``'s, so every mask of the
    entry stays valid.  An edge to a new vertex extends the spanning tree,
    and with it ``to_root``, and is a bridge until a cycle takes it in; an
    edge between reached vertices closes one fundamental cycle.
    ``_fold_cycles`` folds those into the blocks.
    """
    to_root, bridges, blocks, bits = entry
    to_root = to_root.copy()
    grown: list = []
    tree, cycles, bit = 0, [], 1 << len(bits)
    done: set = set()
    for v in queue:
        for e in graph.incident(v):
            if e.id in done or added is not None and e.id not in added:
                continue
            done.add(e.id)
            grown.append(e)
            w = e.v if e.u == v else e.u
            if w in to_root:
                cycles.append(bit ^ to_root[v] ^ to_root[w])
            else:
                to_root[w] = to_root[v] ^ bit
                tree |= bit
                queue.append(w)
            bit <<= 1
    for c in cycles:
        tree &= ~c
        bridges &= ~c
    return to_root, bridges | tree, _fold_cycles(blocks, cycles), bits + tuple(grown)


def _grow_cycle_blocks(total: Multigraph, added: dict, entry: tuple):
    """The ``_cycle_blocks`` entry of ``total``, a connected sum whose
    connected first operand holds ``entry``: ``entry`` grown by the added
    edges, from the old vertices they touch."""
    queue = [x for e in added.values() for x in (e.u, e.v) if x in entry[0]]
    return total.component_roots[0], _grown(total, entry, queue, added)


@grown_by_sums(_grow_cycle_blocks)
@cached_on_graph
def _cycle_blocks(graph: Multigraph, root) -> tuple[dict, int, tuple, tuple]:
    """root's component cut into blocks: the one-vertex entry at root grown
    (``_grown``) by every edge of the component, and nothing outside it.

    Every cycle lies inside one block, a 2-connected piece, and any two
    edges of a block lie on a common cycle.  So fundamental cycles joined
    by chains of shared edge bits span exactly one block's cycle space, and
    a tree edge on no cycle is a bridge.  Returns ``to_root``, the mask of
    the bridges, each block as (edge mask, rank mu_b, span, memo), and
    ``bits``, the edge of each mask bit, in the order the search met them.
    The span lists all 2^mu_b sums of the block's basis, or is None where
    mu_b exceeds _TABLE_LIMIT.  The memo maps a start mask's part inside
    the block to its least (``_CycleTable._least``) and only gains entries.
    Every cycle table of the component roots its blocks at its least
    vertex, so all of them share this entry, and each sum of an ear chain
    grows it by the same search (``Multigraph._extended``).  The blocks, as edge sets, are
    the component's whichever way the entry was grown, so every least is
    the same.
    """
    return _grown(graph, ({root: 0}, 0, (), ()), [root], None)


def _pairing_least(graph: Multigraph, bits: tuple, part: int) -> int:
    """Least size of a join of the odd vertices T_b of the edge set
    ``part`` (bit i: ``bits[i]``): the length of their blossom pairing over
    the BFS metric (Edmonds-Johnson).  Shortest paths between two vertices
    of one block stay inside it, so for ``part`` inside a block this is the
    least popcount of part XOR the block's cycles."""
    odd: set = set()
    while part:
        low = part & -part
        e = bits[low.bit_length() - 1]
        odd ^= {e.u, e.v}
        part ^= low
    return sum(_bfs_tree(graph, u)[0][v]
               for u, v in _blossom_pairing(graph, tuple(sorted_vertices(odd))))


class _CycleTable:
    """Join sizes inside one graph component, summed over its blocks.

    Over ``_cycle_blocks`` rooted at ``root``, its component's root,
    ``particular``, the XOR of the terminals' path masks, is a join of T,
    and every join of T is ``particular`` XOR a sum of cycles.
    Blocks share no edge, so the least join takes every bridge it meets
    and, in each block b, the least popcount of its part of the start XOR
    a cycle of b: a scan of span(b) where b has one, else the pairing of
    the part's odd vertices.  A read costs O(blocks), and one memo lookup
    per block once a start has been seen.  The same sum from
    ``particular ^ to_root[u] ^ to_root[v]`` gives nu(T Δ {u, v}), and
    the table of T Δ {u, v} starts from that very mask.  The blocks, spans
    and memos are shared by every terminal set of the component, and a span
    holds at most 2^_TABLE_LIMIT masks, never 2^mu.
    """

    __slots__ = ("terms", "to_root", "bridges", "blocks", "bits", "particular", "nu")

    def __init__(self, graph: Multigraph, root, terms: tuple):
        self.terms = terms
        self.to_root, self.bridges, self.blocks, self.bits = _cycle_blocks(graph, root)
        particular = 0
        for w in terms:
            particular ^= self.to_root[w]
        self.particular = particular
        self.nu = self._least(graph, particular)

    def _least(self, graph: Multigraph, start: int) -> int:
        """Least popcount of start XOR any sum of cycles."""
        size = (start & self.bridges).bit_count()
        for mask, _, span, memo in self.blocks:
            part = start & mask
            least = memo.get(part)
            if least is None:
                if span is None:
                    least = _pairing_least(graph, self.bits, part)
                else:
                    least = min(map(int.bit_count, map(part.__xor__, span)))
                memo[part] = least
            size += least
        return size

    def nu_of(self, graph: Multigraph, mask: int) -> int:
        """Join size of the terminals whose bits are set (bit k: terms[k])."""
        start = 0
        for k, w in enumerate(self.terms):
            if mask >> k & 1:
                start ^= self.to_root[w]
        return self._least(graph, start)

    def delta(self, graph: Multigraph, u, v) -> int:
        """nu(T Δ {u, v}) - nu(T) for distinct u, v of this component."""
        to_root = self.to_root
        return self._least(graph, self.particular ^ to_root[u] ^ to_root[v]) - self.nu

    def allowed_ids(self, graph: Multigraph, edges: Iterable) -> list:
        """Ids of the allowed edges among ``edges``, all of this table's
        component: one ``delta`` read per edge, -1 where it is allowed."""
        return [e.id for e in edges if self.delta(graph, e.u, e.v) == -1]


@cached_on_graph
def _join_tables(graph: Multigraph, terminals: frozenset) -> tuple:
    """One table per component, aligned with ``graph.components()``: the
    subset table where the component's terminal count t is at most
    _TABLE_LIMIT and at most its cycle rank mu = m - n + 1, else the cycle
    table.  The components without terminals share one empty subset table,
    built on the first of them."""
    out = []
    empty = None
    for root, comp in zip(graph.component_roots, graph.components()):
        terms = tuple(sorted_vertices(comp & terminals))
        t = len(terms)
        if t % 2:
            raise PreconditionError(
                f"component {sorted_vertices(comp)!r} holds an odd number of terminals")
        if not t:
            empty = empty or _SubsetTable(graph, ())
            out.append(empty)
        # t > min(mu, _TABLE_LIMIT), with mu summed only where it decides.
        elif t > _TABLE_LIMIT or t > sum(map(graph.degree, comp)) // 2 - len(comp) + 1:
            out.append(_CycleTable(graph, root, terms))
        else:
            out.append(_SubsetTable(graph, terms))
    return tuple(out)


def _table_pairs(graph: Multigraph, table: _SubsetTable | _CycleTable) -> list[tuple]:
    """A minimum pairing read back from ``table.nu_of``: the least unpaired
    terminal takes the first partner that keeps the sizes exact.  Join sizes
    are least pairing costs (Edmonds-Johnson), so every table gives these."""
    terms = table.terms
    out = []
    mask = (1 << len(terms)) - 1
    while mask:
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        dist, _ = _bfs_tree(graph, terms[i])
        size = table.nu_of(graph, mask)
        for j in range(i + 1, len(terms)):
            if rest >> j & 1 and size == table.nu_of(graph, rest ^ (1 << j)) + dist[terms[j]]:
                out.append((terms[i], terms[j]))
                mask = rest ^ (1 << j)
                break
        else:
            raise InternalConsistencyError("pairing reconstruction lost its trail")
    return out


def f_distance_reader(g: Graft):
    """f_distance for many pairs of one graft: ``read(u, v)`` is the
    distance of two vertices known to share a component, read straight
    from the component's table.  The read is unchecked by contract: it
    refuses no id, as f_distance does, since it is the hot path."""
    graph = g.graph
    tables, index = _join_tables(graph, g.terminals), graph.component_index

    def read(u, v) -> int:
        return 0 if u == v else _DISTANCE_SIGN * tables[index[u]].delta(graph, u, v)
    return read


def f_distance(g: Graft, u, v) -> DistanceValue:
    """Change in minimum-join size when the terminal status of u, v flips.

    Vertices in different components are unreachable (value None): flipping
    them strands odd terminal counts on both sides.
    """
    # ``component_of`` refuses an unknown or unhashable id.
    if g.graph.component_of(u) is not g.graph.component_of(v):
        return DistanceValue(None)
    if u == v:
        return DistanceValue(0)
    return DistanceValue(f_distance_reader(g)(u, v))


def f_distance_int(g: Graft, u, v) -> int:
    """f_distance for pairs known to share a component."""
    d = f_distance(g, u, v)
    if not d.finite:
        raise PreconditionError(f"{u!r} and {v!r} lie in different components")
    return d.value


def extract_shortest_path(g: Graft, F, u, v) -> WeightedWalkReport:
    """A simple u-v path whose F-weight equals f_distance(g, u, v).

    The symmetric difference of F with a minimum join of the flipped graft
    splits into one u-v path plus zero-weight circuits, so a depth-first
    search inside that difference finds a path of exactly the right weight.
    """
    fset = g.graph.edge_id_set(F)
    if not is_minimum_join(g, F):
        raise PreconditionError("F must be a minimum join")
    tooth = g.tooth if isinstance(g, OrderedBipartiteGraft) else None
    d = f_distance_int(g, u, v)
    if u == v:
        return walk_report(fset, Walk((u,), ()), tooth)
    # u and v share a component, or ``f_distance_int`` refused them: the
    # flipped terminals stay even in every component.
    flipped = assemble_graft(g.graph, g.terminals ^ {u, v})
    fprime = min_join(flipped).edge_ids
    diff = fset ^ fprime
    path = _dfs_path_within(g.graph, diff, u, v)
    if path is None:
        raise InternalConsistencyError(
            "the join difference must connect the flipped pair")
    report = walk_report(fset, path, tooth)
    if report.weight != d:
        raise InternalConsistencyError(
            f"extracted path weighs {report.weight}, distance says {d}")
    return report


def _dfs_path_within(graph: Multigraph, allowed: frozenset, u, v) -> Walk | None:
    """Deterministic DFS for a simple u-v path using only ``allowed`` edges."""
    stack = [(u, None)]
    parent: dict = {}
    seen = {u}
    while stack:
        w, via = stack.pop()
        if via is not None:
            parent[w] = via
        if w == v:
            ids = []
            vs = [v]
            x = v
            while x != u:
                e = parent[x]
                ids.append(e.id)
                x = e.other(x)
                vs.append(x)
            return Walk(tuple(reversed(vs)), tuple(reversed(ids)))
        for e in reversed(graph.incident(w)):
            if e.id in allowed:
                nxt = e.other(w)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, e))
    return None


@cached_on_graph
def _allowed_edge_set(graph: Multigraph, terminals: frozenset) -> frozenset:
    tables, index = _join_tables(graph, terminals), graph.component_index
    edges_of: list = [[] for _ in tables]
    for e in graph.edges:
        edges_of[index[e.u]].append(e)
    return frozenset(eid for table, edges in zip(tables, edges_of)
                     for eid in table.allowed_ids(graph, edges))


def allowed_edge_set(g: Graft) -> frozenset:
    """Ids of every edge contained in at least one minimum join.

    An edge e = uv is allowed exactly when nu(T Δ {u, v}) = nu(T) - 1.  If
    a minimum join F contains e, F - e joins T Δ {u, v}, and adding or
    removing e moves a join size by one, so the difference is -1.
    Conversely a join F' of T Δ {u, v} of size nu(T) - 1 cannot contain e
    (F' - e would join T with nu(T) - 2 edges), so F' + e is a minimum join
    through e.  The cycle table reads that difference, unsigned, for each
    edge, so flipped_distance_sign leaves the set alone.

    The subset table, which holds d and the pairing DP, uses the pairable
    pairs instead (Edmonds-Johnson): e is allowed exactly when, for some
    terminals a, b with nu(T - a - b) + d(a, b) = nu(T), d(a, u) + 1 +
    d(v, b) = d(a, b) or the same with u and v swapped.  A minimum join is
    a forest, so it splits into paths pairing T; they weigh at least their
    pairing, which weighs at least nu(T), so each is a shortest path
    between a pairable pair.  Conversely a shortest a-b path P and a
    minimum join J of T - a - b weigh nu(T) together, so J Δ P is a minimum
    join of T, and J and P share no edge: every edge of P is allowed.
    """
    return _allowed_edge_set(g.graph, g.terminals)


def is_allowed_edge(g: Graft, eid: str) -> bool:
    """True when some minimum join contains the edge: a read of
    allowed_edge_set."""
    g.graph.edge(eid)
    return eid in allowed_edge_set(g)
