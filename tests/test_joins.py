"""Join engine: both backends, weights, distances, path extraction."""

import hashlib
import itertools
import json
import random
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from bigraft import combs, core, joins
from bigraft._blossom import _verify_optimum, min_weight_matching
from bigraft.core import (
    CapacityError,
    Graft,
    GraftInputError,
    InternalConsistencyError,
    Multigraph,
    PreconditionError,
    Walk,
    is_join,
    odd_degree_vertices,
    simple_circuits,
    sorted_vertices,
)
from bigraft.combs import build_graft_ear_decomposition, is_critical_quasicomb
from bigraft.decomposition import factor_components
from bigraft.formats import graft_document
from bigraft.generators import (
    GenConfig,
    gen_random_critical_quasicomb,
    gen_random_graft,
)
from bigraft.instances import c4, chain4, comb_path, k2, p3r, quasicomb
from bigraft.joins import (
    _TABLE_LIMIT,
    DistanceValue,
    JoinSet,
    _CycleTable,
    _SubsetTable,
    _bfs_tree,
    _blossom_pairing,
    _cycle_blocks,
    _cycle_space,
    _join_tables,
    _nu,
    _subset_dp,
    _table_pairs,
    all_min_joins,
    allowed_edge_set,
    extract_shortest_path,
    f_distance,
    f_distance_int,
    f_distance_reader,
    f_weight,
    flipped_distance_sign,
    is_allowed_edge,
    is_minimum_join,
    min_join,
    min_join_bruteforce,
    negative_circuit_witness,
    nu,
    walk_report,
)
from oracles import brute_allowed, brute_distance, run_cli


def c4_alt():
    """C4 with adjacent terminals v1, v2; nu = 1 via the single edge f1."""
    return Graft(c4().graph, frozenset({"v1", "v2"}))


class TestJoinSet:
    def test_rejects_non_join(self):
        with pytest.raises(PreconditionError, match="not a join"):
            JoinSet(k2(), frozenset())

    def test_size_and_iteration(self):
        js = JoinSet(c4(), frozenset({"f2", "f3"}))
        assert js.size == 2
        assert list(js) == ["f2", "f3"]
        assert "f2" in js and "f1" not in js


class TestFWeight:
    def test_join_edge_counts_negative(self):
        assert f_weight({"e"}, ["e"]) == -1

    def test_zero_weight_circuit(self):
        assert f_weight({"f1", "f4"}, ["f1", "f2", "f3", "f4"]) == 0

    def test_empty_edge_set(self):
        assert f_weight({"f1"}, []) == 0

    def test_accepts_joinset(self):
        js = JoinSet(k2(), frozenset({"e"}))
        assert f_weight(js, ["e"]) == -1


class TestBruteforce:
    def test_k2(self):
        js = min_join_bruteforce(k2())
        assert js.edge_ids == {"e"}
        assert js.size == 1

    def test_c4_canonical_tie_break(self):
        # both {f1,f4} and {f2,f3} are minimum; the characteristic vector
        # (0,1,1,0) precedes (1,0,0,1), so {f2,f3} wins
        assert min_join_bruteforce(c4()).edge_ids == {"f2", "f3"}

    def test_chain4(self):
        assert min_join_bruteforce(chain4()).edge_ids == {"e0", "e1"}

    def test_all_min_joins_sorted(self):
        assert all_min_joins(c4()) == (frozenset({"f2", "f3"}), frozenset({"f1", "f4"}))

    def test_capacity_bound(self):
        with pytest.raises(CapacityError, match="exceed"):
            min_join_bruteforce(c4(), max_edges=3)

    def test_empty_terminals(self):
        g = Graft(c4().graph, frozenset())
        assert min_join_bruteforce(g).edge_ids == frozenset()

    def test_parallel_edges(self):
        graph = Multigraph.build(["x", "y"], [("p1", "x", "y"), ("p2", "x", "y")])
        g = Graft(graph, frozenset({"x", "y"}))
        # the characteristic vector (0,1) precedes (1,0): ties prefer
        # avoiding the smaller edge id
        assert min_join_bruteforce(g).edge_ids == {"p2"}
        assert all_min_joins(g) == (frozenset({"p2"}), frozenset({"p1"}))


def tied_split_grafts(count: int = 12) -> list:
    """The first ``count`` fixed-seed random grafts with at least two graph
    components and at least two minimum joins."""
    found = []
    seed = 0
    while len(found) < count:
        g = gen_random_graft(GenConfig(seed=seed, vertices=(6, 10),
                                       edge_density=0.3))
        if (len(g.graph.components()) >= 2 and len(g.graph.edges) <= 20
                and len(all_min_joins(g)) >= 2):
            found.append(g)
        seed += 1
    return found


# sha256 of the exhaustive backend's output on tied_split_grafts(); a change
# to its tie-breaking, its join order or the CLI's --oracle stdout changes it.
ORACLE_DIGEST = (
    "99972c9bd4f2c626ec6d5ee9a9c858bd868fa2c3b919d6bf6394c7df199eb6bf")


class TestOracleDigest:
    """The exhaustive backend's tie-breaking across several components:
    its canonical join, every minimum join in order, and the CLI's
    ``--oracle`` stdout."""

    def test_fixed_seed_oracle_output_unchanged(self):
        h = hashlib.sha256()
        for g in tied_split_grafts():
            h.update(repr(sorted(min_join_bruteforce(g).edge_ids)).encode())
            h.update(repr([sorted(F) for F in all_min_joins(g)]).encode())
            stdin = json.dumps(graft_document(g))
            vs = sorted(g.graph.vertices)
            pairs = [(vs[0], v) for v in vs[1:]] + list(zip(vs[1:], vs[2:]))
            argvs = [["min-join", "--oracle", "--format", fmt] for fmt in ("text", "json")]
            argvs += [["dist", u, v, "--oracle"] for u, v in pairs]
            for argv in argvs:
                code, out, _ = run_cli(*argv, stdin=stdin)
                h.update(f"{argv} {code}\n{out}".encode())
        assert h.hexdigest() == ORACLE_DIGEST


class TestMinJoinFast:
    def test_reference_sizes(self):
        for g, expected in [(k2(), 1), (c4(), 2), (chain4(), 2), (p3r(), 1)]:
            js = min_join(g)
            assert js.size == expected
            assert nu(g) == expected

    def test_empty_terminals(self):
        assert nu(Graft(c4().graph, frozenset())) == 0
        assert min_join(Graft(c4().graph, frozenset())).edge_ids == frozenset()

    def test_disconnected(self):
        graph = Multigraph.build(
            ["a", "b", "x", "y", "z"],
            [("e1", "a", "b"), ("e2", "x", "y"), ("e3", "y", "z")])
        g = Graft(graph, frozenset({"a", "b", "x", "z"}))
        js = min_join(g)
        assert js.edge_ids == {"e1", "e2", "e3"}

    def test_exhaustive_mini_corpus(self):
        # every even terminal subset of a few small shapes; both backends
        # must agree on nu
        shapes = [
            Multigraph.build(["u1", "u2", "u3", "u4"],
                             [("e1", "u1", "u2"), ("e2", "u2", "u3"), ("e3", "u3", "u4")]),
            c4().graph,
            Multigraph.build(["u1", "u2", "u3", "u4"],
                             [("e1", "u1", "u2"), ("e2", "u2", "u3"), ("e3", "u3", "u4"),
                              ("e4", "u4", "u1"), ("e5", "u1", "u3")]),
            Multigraph.build(["u1", "u2", "u3"],
                             [("e1", "u1", "u2"), ("e2", "u2", "u3"), ("e3", "u1", "u3"),
                              ("p", "u1", "u2")]),
        ]
        checked = 0
        for graph in shapes:
            vs = sorted(graph.vertices)
            for r in range(0, len(vs) + 1, 2):
                for terms in itertools.combinations(vs, r):
                    g = Graft(graph, frozenset(terms))
                    fast = min_join(g)
                    brute = min_join_bruteforce(g)
                    assert fast.size == brute.size
                    checked += 1
        assert checked > 20


class TestIsMinimumJoin:
    def test_chain_join_is_minimum(self):
        assert is_minimum_join(chain4(), {"e0", "e1"})

    def test_larger_join_is_not(self):
        g = c4_alt()
        assert is_minimum_join(g, {"f1"})
        assert not is_minimum_join(g, {"f2", "f3", "f4"})

    def test_non_join_rejected(self):
        with pytest.raises(PreconditionError):
            is_minimum_join(k2(), set())

    def test_join_set_of_another_graft_is_checked_against_g(self):
        """A JoinSet carries its own graft; its ids must still be edges
        of g, as they must be when passed as a plain set."""
        F = min_join(chain4())
        with pytest.raises(GraftInputError, match=r"unknown edge ids \['e0', 'e1'\]"):
            is_minimum_join(c4(), frozenset(F))
        with pytest.raises(GraftInputError, match=r"unknown edge ids \['e0', 'e1'\]"):
            is_minimum_join(c4(), F)

    def test_a_forest_answers_without_its_tables(self, monkeypatch):
        """A forest holds one join of each terminal set: for random edge
        sets J of random forests, J is the join the exhaustive backend
        finds for the odd vertices of J, and is_minimum_join accepts it
        without a table."""
        rng = random.Random(0)
        monkeypatch.setattr(joins, "_nu", None)
        for _ in range(60):
            n = rng.randint(1, 9)
            graph = Multigraph.build(range(n), [
                (f"e{v}", rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8])
            J = frozenset(e.id for e in graph.edges if rng.random() < 0.5)
            g = Graft(graph, odd_degree_vertices(
                [graph.edge(eid).ends() for eid in J]))
            assert min_join_bruteforce(g).edge_ids == J
            assert is_minimum_join(g, J)

    def test_join_set_of_an_equal_graft_is_taken(self):
        g, twin = c4_alt(), c4_alt()
        assert g is not twin and g == twin
        assert is_minimum_join(g, min_join(twin))
        assert not is_minimum_join(g, JoinSet(twin, frozenset({"f2", "f3", "f4"})))

    def test_negative_circuit_witness(self):
        g = c4_alt()
        report = negative_circuit_witness(g, {"f2", "f3", "f4"})
        assert report is not None
        assert report.weight == -2
        assert report.walk.closed
        assert negative_circuit_witness(g, {"f1"}) is None

    def test_negative_circuit_witness_is_bounded(self):
        """The circuit scan takes at most 22 edges, as the exhaustive
        backends do."""
        def cycle_and_detour(n):
            graph = Multigraph.build(
                range(n), [(f"e{i}", i, (i + 1) % n) for i in range(n)])
            return (Graft(graph, frozenset({0, 1})),
                    {f"e{i}" for i in range(1, n)})

        assert negative_circuit_witness(*cycle_and_detour(22)).weight == -20
        with pytest.raises(CapacityError,
                           match="23 edges exceed the exhaustive bound 22"):
            negative_circuit_witness(*cycle_and_detour(23))


class TestFDistance:
    def test_k2(self):
        assert f_distance(k2(), "a", "b") == DistanceValue(-1)

    def test_c4_opposite_terminals(self):
        assert f_distance(c4(), "v2", "v4").value == -2

    def test_c4_spine_pair(self):
        assert f_distance(c4(), "v1", "v3").value == 0

    def test_same_vertex(self):
        assert f_distance(c4(), "v2", "v2").value == 0

    def test_symmetry(self):
        g = chain4()
        for u in g.graph.vertices:
            for v in g.graph.vertices:
                assert f_distance(g, u, v) == f_distance(g, v, u)

    def test_unreachable_is_a_value(self):
        graph = Multigraph.build(["a", "b", "x", "y"],
                                 [("e1", "a", "b"), ("e2", "x", "y")])
        g = Graft(graph, frozenset({"a", "b"}))
        d = f_distance(g, "a", "x")
        assert d == DistanceValue(None)
        assert not d.finite

    def test_unknown_vertex(self):
        with pytest.raises(GraftInputError):
            f_distance(k2(), "a", "zz")

    def test_int_helper(self):
        assert f_distance_int(k2(), "a", "b") == -1
        graph = Multigraph.build(["a", "b", "x", "y"],
                                 [("e1", "a", "b"), ("e2", "x", "y")])
        with pytest.raises(PreconditionError):
            f_distance_int(Graft(graph, frozenset({"a", "b"})), "a", "x")

    def test_against_path_oracle_on_references(self):
        for g in (k2(), c4(), chain4(), p3r()):
            for u in sorted(g.graph.vertices):
                for v in sorted(g.graph.vertices):
                    expected = brute_distance(g, u, v)
                    assert f_distance(g, u, v).value == expected, (u, v)

    def test_chain4_cross_component_pair_is_positive(self):
        # b0 and a1 sit in different factor components; the join distance
        # between them is +1, showing nonpositivity needs factor-connectivity
        assert f_distance(chain4(), "b0", "a1").value == 1


def random_graft(seed: int, sizes: tuple, terminals: tuple, extra: int) -> Graft:
    """Fixed-seed graft: one random tree per entry of ``sizes``, ``extra``
    more edges inside the pieces, and one edge doubled in each piece.
    ``terminals[i]`` (even) vertices of piece i are terminals."""
    rng = random.Random(seed)
    vertices, edges, terms = [], [], []
    pieces = []
    for p, (n, t) in enumerate(zip(sizes, terminals)):
        vs = [f"p{p}v{i}" for i in range(n)]
        rng.shuffle(vs)
        for i in range(1, n):
            edges.append((vs[i], rng.choice(vs[:i])))
        edges.append(edges[-1])
        vertices += vs
        terms += rng.sample(vs, t)
        pieces.append(vs)
    for _ in range(extra):
        vs = rng.choice(pieces)
        u, v = rng.sample(vs, 2)
        edges.append((u, v))
    graph = Multigraph.build(
        vertices, [(f"e{i:02d}", u, v) for i, (u, v) in enumerate(edges)])
    return Graft(graph, frozenset(terms))


# (seed, piece sizes, terminals per piece, extra edges)
TABLE_CASES = [
    (1, (9,), (4,), 5),
    (2, (8,), (0,), 4),
    (3, (5, 6, 4), (2, 4, 0), 5),
    (4, (12,), (_TABLE_LIMIT,), 5),
    (5, (14,), (_TABLE_LIMIT + 2,), 4),
    (6, (14,), (_TABLE_LIMIT + 2,), _TABLE_LIMIT),
    (7, (8,), (4,), 3),
    (8, (8,), (4,), 2),
    (9, (12,), (_TABLE_LIMIT,), _TABLE_LIMIT - 1),
    (10, (14,), (_TABLE_LIMIT + 2,), _TABLE_LIMIT),
]

# The table every component of a case gets, by seed.  A one-piece case has
# cycle rank mu = extra + 1 (the doubled edge).  The subset DP serves where
# the terminal count t is at most _TABLE_LIMIT and at most mu, else the
# cycle table.  Cases 7-9 sit at the mu = t boundary: t = 4 with mu = 4 and
# with mu = 3, and t = mu = _TABLE_LIMIT.  Case 6 (mu = 11) splits into
# blocks of rank 1 and 10; case 10 (mu = 11) is one block, past
# _TABLE_LIMIT, so its reads pair the block's odd vertices.
TABLE_KINDS = {1: _SubsetTable, 2: _SubsetTable, 3: _SubsetTable,
               4: _CycleTable, 5: _CycleTable, 6: _CycleTable,
               7: _SubsetTable, 8: _CycleTable, 9: _SubsetTable,
               10: _CycleTable}


def table_of(g, v):
    """The join table of v's component, as f_distance reads it."""
    return _join_tables(g.graph, g.terminals)[g.graph.component_index[v]]


def cycle_rank(graph, comp) -> int:
    return sum(graph.degree(w) for w in comp) // 2 - len(comp) + 1


def block_ranks(graph, comp) -> list:
    """Sorted cycle ranks of the blocks of ``comp`` that hold a cycle,
    found from simple circuits alone: edges on one circuit share a block."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for circuit in simple_circuits(graph):
        if circuit.vertices[0] not in comp:
            continue
        ids = circuit.edge_ids
        for eid in ids:
            parent.setdefault(eid, eid)
        for eid in ids[1:]:
            parent[find(eid)] = find(ids[0])
    blocks: dict = {}
    for eid in parent:
        blocks.setdefault(find(eid), []).append(graph.edge(eid))
    return sorted(len(es) - len({w for e in es for w in (e.u, e.v)}) + 1
                  for es in blocks.values())


def block_graft(edges: str, terminals: str) -> Graft:
    """A graft from space-separated ``u-v`` edges (ids e00, e01, ...) and
    space-separated terminals."""
    pairs = [tuple(uv.split("-")) for uv in edges.split()]
    graph = Multigraph.build({w for uv in pairs for w in uv},
                             [(f"e{i:02d}", u, v) for i, (u, v) in enumerate(pairs)])
    return Graft(graph, frozenset(terminals.split()))


# Hand-built components served by the cycle table block by block:
# name: (edges, terminals).
BLOCK_CASES = {
    # A 4-cycle with a chord, a triangle and a 4-cycle with a doubled edge,
    # strung together by bridges a2-b0, b1-c0 and c0-c1: mu = 5, t = 6.
    "bridged": ("a0-a1 a1-a2 a2-a3 a3-a0 a0-a2 a2-b0 b0-b1 b1-b2 b2-b0 "
                "b1-c0 c0-c1 c1-c2 c2-c3 c3-c4 c4-c1 c2-c3",
                "a1 a3 b2 c0 c2 c4"),
    # One 2-cycle of parallel edges and a pendant bridge: mu = 1, t = 2.
    "two-cycle": ("x-y x-y y-z", "x z"),
    # Cycles meeting at single vertices: triangles h and m, a 4-cycle k, a
    # 2-cycle h0=n1, and a pendant bridge m1-p: mu = 4, t = 6.
    "cactus": ("h0-h1 h1-h2 h2-h0 h2-k1 k1-k2 k2-k3 k3-h2 k2-m1 m1-m2 "
               "m2-k2 h0-n1 h0-n1 m1-p",
               "h1 k1 k3 m2 n1 p"),
    # Three K4s at the centre c, one with two doubled edges, and a pendant
    # path c-z-y-x-w: mu = 11 and t = 12, but no block has rank above 5.
    "small-blocks": ("c-a1 c-a2 c-a3 a1-a2 a1-a3 a2-a3 a1-a2 a2-a3 "
                     "c-b1 c-b2 c-b3 b1-b2 b1-b3 b2-b3 "
                     "c-d1 c-d2 c-d3 d1-d2 d1-d3 d2-d3 c-z z-y y-x x-w",
                     "a1 a2 a3 b1 b2 b3 d1 d2 d3 z x w"),
}


def quadratic_delta(table, graph, u, v) -> int:
    """nu(T Δ {u, v}) - nu(T) by the subset table's rows and DP alone:
    every pairing of two terminals with the pair, plus d(u, v) by BFS."""
    rows, dp, index = table.rows, table.dp, table.index
    t, full = len(rows), len(dp) - 1
    i, j = index.get(u), index.get(v)
    if i is None and j is not None:
        u, v, i, j = v, u, j, i
    if j is not None:
        flipped = dp[full ^ (1 << i) ^ (1 << j)]
    elif i is not None:
        flipped = min(rows[k][v] + dp[full ^ (1 << i) ^ (1 << k)]
                      for k in range(t) if k != i)
    else:
        flipped = _bfs_tree(graph, u)[0][v] + dp[full]
        for k in range(t):
            for m in range(t):
                if m != k:
                    flipped = min(flipped, rows[k][u] + rows[m][v]
                                  + dp[full ^ (1 << k) ^ (1 << m)])
    return flipped - dp[full]


def gf2_rank(masks) -> int:
    """Rank over GF(2), by elimination on the highest set bit."""
    pivots: dict = {}
    for m in masks:
        while m:
            top = m.bit_length() - 1
            if top not in pivots:
                pivots[top] = m
                break
            m ^= pivots[top]
    return len(pivots)


def odd_ends(graph, mask: int) -> set:
    """Vertices of odd degree in the edge set ``mask`` (bit i = edges[i])."""
    odd: set = set()
    for i, e in enumerate(graph.edges):
        if mask >> i & 1:
            odd ^= {e.u, e.v}
    return odd


def multi_component_graph(seed: int):
    """2-4 random pieces of 2-7 vertices, each with a doubled edge, and up
    to 8 more edges inside the pieces."""
    rng = random.Random(seed)
    sizes = tuple(rng.randint(2, 7) for _ in range(rng.randint(2, 4)))
    return random_graft(seed, sizes, (0,) * len(sizes), rng.randint(0, 8)).graph


class TestCycleSpace:
    """_cycle_space against the definitions it must meet, from every root
    of every component."""

    @pytest.mark.parametrize("seed", range(10))
    def test_path_and_cycle_masks(self, seed):
        graph = multi_component_graph(seed)
        assert len(graph.components()) >= 2
        for comp in graph.components():
            comp_bits = sum(1 << i for i, e in enumerate(graph.edges) if e.u in comp)
            for root in sorted(comp):
                to_root, basis = _cycle_space(graph, root)
                assert set(to_root) == comp
                for w, mask in to_root.items():
                    assert mask & ~comp_bits == 0
                    assert odd_ends(graph, mask) == ({w, root} if w != root else set())
                for mask in basis:
                    assert mask & ~comp_bits == 0
                    assert odd_ends(graph, mask) == set()
                assert gf2_rank(basis) == len(basis) == cycle_rank(graph, comp)

    @pytest.mark.parametrize("seed", range(10))
    def test_even_terminal_sets_are_joined(self, seed):
        graph = multi_component_graph(seed)
        rng = random.Random(seed)
        spaces = [_cycle_space(graph, rng.choice(sorted(comp)))
                  for comp in graph.components()]
        for _ in range(20):
            terminals, mask = set(), 0
            for comp, (to_root, basis) in zip(graph.components(), spaces):
                vs = sorted(comp)
                terms = rng.sample(vs, rng.randrange(0, len(vs) + 1, 2))
                terminals.update(terms)
                for w in terms:
                    mask ^= to_root[w]
                for c in basis:
                    if rng.random() < 0.5:
                        mask ^= c
            ids = {e.id for i, e in enumerate(graph.edges) if mask >> i & 1}
            assert is_join(Graft(graph, frozenset(terminals)), ids)

    def test_only_the_exhaustive_scan_reads_it(self, monkeypatch):
        """The tables, min_join, the allowed edges and ear-decomp build
        their cycle blocks without _cycle_space, so the exhaustive scan
        checks a cycle space that nothing else reads."""
        d, _ = gen_random_critical_quasicomb(GenConfig(vertices=(16, 20)),
                                             random.Random(0))
        argv = ["ear-decomp", d.root, "--format", "json"]
        doc = json.dumps(graft_document(d.target))
        want = run_cli(*argv, stdin=doc)
        grafts = ([random_graft(*case) for case in TABLE_CASES]
                  + [block_graft(*case) for case in BLOCK_CASES.values()])
        kinds = set()

        def refused(graph, root):
            raise AssertionError("only the exhaustive scan reads _cycle_space")

        monkeypatch.setattr(joins, "_cycle_space", refused)
        assert run_cli(*argv, stdin=doc) == want
        for g in grafts + [d.target]:
            assert min_join(g).size == nu(g)
            allowed_edge_set(g)
            kinds.update(map(type, _join_tables(g.graph, g.terminals)))
            for comp in g.graph.components():
                u = min(comp)
                for v in sorted(comp):
                    f_distance(g, u, v)
        assert kinds == {_SubsetTable, _CycleTable}
        with pytest.raises(AssertionError, match="exhaustive"):
            min_join_bruteforce(grafts[0])


class TestDistanceTable:
    @pytest.mark.parametrize("seed,sizes,terminals,extra", TABLE_CASES)
    def test_matches_the_oracles(self, seed, sizes, terminals, extra):
        g = random_graft(seed, sizes, terminals, extra)
        table_kind = TABLE_KINDS[seed]
        tables = _join_tables(g.graph, g.terminals)
        assert len(tables) == len(g.graph.components())
        for comp, table in zip(g.graph.components(), tables):
            assert type(table) is table_kind
            assert all(table_of(g, w) is table for w in comp)
            t, mu = len(comp & g.terminals), cycle_rank(g.graph, comp)
            assert (table_kind is _SubsetTable) == (t <= _TABLE_LIMIT and t <= mu)
            paired = max(block_ranks(g.graph, comp), default=0) > _TABLE_LIMIT
            assert paired == (seed == 10)
            if table_kind is _CycleTable:
                assert paired == any(span is None for _, _, span, _ in table.blocks)
        # Case 10, whose one block is paired, has more edges than the
        # oracles' default bound.
        bound = max(22, len(g.graph.edges))
        kinds = set()
        vs = sorted(g.graph.vertices)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                want = brute_distance(g, u, v, max_edges=bound)
                assert f_distance(g, u, v).value == want, (u, v)
                if want is not None:
                    kinds.add((u in g.terminals) + (v in g.terminals))
        if g.terminals:
            assert kinds == {0, 1, 2}
        ends = [e.ends() for e in g.graph.edges]
        assert any(ends.count(x) > 1 for x in ends)
        for e in g.graph.edges:
            assert is_allowed_edge(g, e.id) == brute_allowed(g, e.id, max_edges=bound), e.id
        assert min_join(g).size == nu(g) == min_join_bruteforce(g, max_edges=bound).size

    @pytest.mark.parametrize("name", BLOCK_CASES)
    def test_blocks_match_the_oracles(self, name):
        g = block_graft(*BLOCK_CASES[name])
        graph, T = g.graph, g.terminals
        (comp,) = graph.components()
        (table,) = _join_tables(graph, T)
        assert type(table) is _CycleTable
        assert table.blocks is _cycle_blocks(graph, min(comp))[2]
        assert sorted(rank for _, rank, _, _ in table.blocks) == block_ranks(graph, comp)
        base = pairing_nu(graph, T)
        assert table.nu == _nu(graph, T) == base
        vs = sorted(graph.vertices)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                got = f_distance(g, u, v).value
                assert got == brute_distance(g, u, v, max_edges=len(graph.edges)), (u, v)
                assert got == _nu(graph, T ^ {u, v}) - _nu(graph, T), (u, v)
                assert got == pairing_nu(graph, T ^ {u, v}) - base, (u, v)
        for e in graph.edges:
            assert is_allowed_edge(g, e.id) == brute_allowed(
                g, e.id, max_edges=len(graph.edges)), e.id
        assert min_join(g).size == nu(g) == base

    @pytest.mark.parametrize("t", range(0, _TABLE_LIMIT + 1, 2))
    def test_subset_rows_match_the_quadratic_formula(self, t):
        """The per-vertex rows and the triangle bound give the O(t²)
        formula's distance on every ordered pair, t = 0 included."""
        for seed in range(4):
            g = random_graft(300 + 10 * t + seed, (12,), (t,), 4)
            table = _SubsetTable(g.graph, tuple(sorted(g.terminals)))
            for u, v in itertools.permutations(sorted(g.graph.vertices), 2):
                assert table.delta(g.graph, u, v) == quadratic_delta(
                    table, g.graph, u, v), (seed, u, v)

    @pytest.mark.parametrize("t", range(2, _TABLE_LIMIT + 1, 2))
    def test_subset_rest_matches_the_bruteforce(self, t):
        """rest[k][m] is the exhaustive join size of T - k - m for k != m,
        and inf on the diagonal."""
        for seed in range(2):
            g = random_graft(400 + 10 * t + seed, (10,), (t,), 3)
            terms = tuple(sorted(g.terminals))
            table = _SubsetTable(g.graph, terms)
            for k, m in itertools.product(range(t), repeat=2):
                want = float("inf") if k == m else min_join_bruteforce(
                    Graft(g.graph, g.terminals - {terms[k], terms[m]})).size
                assert table.rest[k][m] == want, (seed, k, m)

    def test_no_span_above_the_limit(self, monkeypatch):
        """A dense graft with many terminals has one block far above
        _TABLE_LIMIT: its cycle table keeps no span for that block, and no
        span longer than 2^_TABLE_LIMIT is ever built."""
        real = joins._cycle_blocks
        spans = []

        def guarded(graph, root):
            out = real(graph, root)
            spans.extend(len(span) for _, _, span, _ in out[2] if span is not None)
            return out

        monkeypatch.setattr(joins, "_cycle_blocks", guarded)
        rng = random.Random(20)
        dense = []
        while len(dense) < 2:
            g = gen_random_graft(GenConfig(vertices=(18, 18), edge_density=0.35,
                                           terminal_density=0.7), rng)
            if len(g.graph.components()) == 1 and len(g.terminals) > _TABLE_LIMIT:
                dense.append(g)
        argv = ["analyze", "--format", "json"]
        for g in dense + [block_graft(*BLOCK_CASES["small-blocks"])]:
            assert run_cli(*argv, stdin=json.dumps(graft_document(g)))[0] == 0
        for g in dense:
            (table,) = _join_tables(g.graph, g.terminals)
            assert type(table) is _CycleTable
            giant = max(table.blocks, key=lambda block: block[1])
            assert giant[1] > _TABLE_LIMIT and giant[2] is None
        assert spans and max(spans) <= 1 << _TABLE_LIMIT

    def test_one_subset_dp_per_component_terminal_set(self, monkeypatch):
        g = random_graft(*TABLE_CASES[2])
        calls = []

        def counted(cost):
            calls.append(len(cost))
            return _subset_dp(cost)

        monkeypatch.setattr(joins, "_subset_dp", counted)
        min_join(g)
        nu(g)
        vs = sorted(g.graph.vertices)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                f_distance(g, u, v)
        allowed_edge_set(g)
        assert sorted(calls) == sorted(len(comp & g.terminals)
                                       for comp in g.graph.components())

    def test_a_cycle_table_component_pairs_without_a_subset_dp(self, monkeypatch):
        """min_join reads its pairs from the component's own table, so a
        component served by the cycle table builds no subset DP."""
        g = random_graft(*TABLE_CASES[7])
        calls = []

        def counted(cost):
            calls.append(len(cost))
            return _subset_dp(cost)

        monkeypatch.setattr(joins, "_subset_dp", counted)
        F = min_join(g)
        assert type(table_of(g, min(g.terminals))) is _CycleTable
        assert F.size == min_join_bruteforce(g).size
        assert [t for t in calls if t] == []

    @pytest.mark.parametrize("seed", range(60))
    def test_both_tables_agree(self, seed):
        """Where both tables apply, the subset DP and the cycle walk, which
        share only _bfs_tree, give the same join size of every even
        terminal subset, the same distances and the same pairs."""
        rng = random.Random(seed)
        n = rng.randint(6, 12)
        t = rng.randrange(2, min(n, _TABLE_LIMIT) + 1, 2)
        g = random_graft(100 + seed, (n,), (t,), rng.randint(0, _TABLE_LIMIT - 1))
        graph, terms = g.graph, tuple(sorted(g.terminals))
        assert cycle_rank(graph, graph.vertices) <= _TABLE_LIMIT
        subset = _SubsetTable(graph, terms)
        (root,) = graph.component_roots
        cycle = _CycleTable(graph, root, terms)
        assert subset.nu == cycle.nu
        for mask in range(1 << t):
            if mask.bit_count() % 2 == 0:
                assert subset.nu_of(graph, mask) == cycle.nu_of(graph, mask), mask
        for u, v in itertools.combinations(sorted(graph.vertices), 2):
            assert subset.delta(graph, u, v) == cycle.delta(graph, u, v), (u, v)
        assert _table_pairs(graph, subset) == _table_pairs(graph, cycle)

    def test_flipped_sets_share_the_blocks(self):
        """Every terminal set of a component reads one _cycle_blocks entry,
        rooted at the component's least vertex.  The flips drop the least
        terminal with another terminal or with a non-terminal, or add two
        non-terminals."""
        g = random_graft(*TABLE_CASES[4])
        graph, T = g.graph, g.terminals
        (comp,) = graph.components()
        (table,) = _join_tables(graph, T)
        assert type(table) is _CycleTable
        entry = _cycle_blocks(graph, min(comp))
        assert (table.to_root, table.bridges, table.blocks, table.bits) == entry
        assert table.to_root is entry[0] and table.blocks is entry[2]
        assert table.bits is entry[3]
        others = sorted(comp - T)
        flips = [(min(T), max(T)), (min(T), others[-1]), (others[0], others[1])]
        for u, v in flips:
            (flipped,) = _join_tables(graph, T ^ {u, v})
            assert type(flipped) is _CycleTable
            assert flipped.to_root is entry[0] and flipped.bits is entry[3], (u, v)
            assert flipped.blocks is entry[2], (u, v)
            assert flipped.nu == table.nu + f_distance(g, u, v).value, (u, v)


    def test_terminal_free_components_share_one_table(self):
        """The components without terminals share one empty subset table,
        and inside each of them f_distance is the BFS distance."""
        g = random_graft(7, (5, 4, 6), (0, 2, 0), 3)
        graph, T = g.graph, g.terminals
        free = [(comp, table) for comp, table
                in zip(graph.components(), _join_tables(graph, T)) if not comp & T]
        assert len(free) == 2
        assert free[0][1] is free[1][1]
        assert free[0][1].terms == ()
        for comp, _ in free:
            for u, v in itertools.combinations(sorted(comp), 2):
                assert f_distance(g, u, v).value == _bfs_tree(graph, u)[0][v], (u, v)


def pairing_nu(graph, terminals) -> int:
    """nu as the sum of matched pairs' BFS distances, each component paired
    by a subset table built here or by blossom: the pairing side of the
    engine, which never builds or reads a cycle table.  It walks the
    components itself, so it shares no iteration with _join_tables."""
    total = 0
    for comp in graph.components():
        terms = tuple(sorted_vertices(comp & terminals))
        if len(terms) > _TABLE_LIMIT:
            pairs = _blossom_pairing(graph, terms)
        else:
            pairs = _table_pairs(graph, _SubsetTable(graph, terms))
        total += sum(_bfs_tree(graph, u)[0][v] for u, v in pairs)
    return total


def many_terminal_quasicombs(count: int = 12) -> list:
    """The first ``count`` fixed-seed critical quasicombs on 16-20 vertices
    whose target holds at least 12 terminals."""
    found = []
    seed = 0
    while len(found) < count:
        d, _ = gen_random_critical_quasicomb(GenConfig(vertices=(16, 20)),
                                             random.Random(seed))
        if len(d.target.terminals) >= 12:
            found.append(d)
        seed += 1
    return found


class TestCycleTableOnQuasicombs:
    """On every prefix of ear-grown quasicombs with many terminals, the
    cycle walk gives the same nu and root distances as the pairing."""

    @pytest.fixture(scope="class")
    def prefixes(self):
        return [(d.root, g) for d in many_terminal_quasicombs()
                for g in d.prefixes()]

    def test_the_cycle_table_serves_the_large_prefixes(self, prefixes):
        large = [(r, g) for r, g in prefixes if len(g.terminals) > _TABLE_LIMIT]
        assert len(large) >= 8
        for r, g in large:
            assert type(table_of(g, r)) is _CycleTable

    def test_few_cycles_build_no_subset_dp(self, prefixes, monkeypatch):
        """A prefix with fewer independent cycles than terminals reads its
        root distances from the cycle table, even at _TABLE_LIMIT
        terminals or fewer, so its criticality check runs no subset DP."""
        calls = []

        def counted(cost):
            calls.append(len(cost))
            return _subset_dp(cost)

        monkeypatch.setattr(joins, "_subset_dp", counted)
        small = 0
        for r, g in prefixes:
            (comp,) = g.graph.components()
            if cycle_rank(g.graph, comp) >= len(g.terminals):
                continue
            # A fresh graph has an empty memo, so no earlier test's tables
            # serve it.
            g = replace(g, graph=Multigraph(g.graph.vertices, g.graph.edges))
            small += len(g.terminals) <= _TABLE_LIMIT
            assert is_critical_quasicomb(g, r).critical
            assert type(table_of(g, r)) is _CycleTable
        assert small >= 8
        assert [t for t in calls if t] == []

    def test_nu_matches_the_pairing(self, prefixes):
        for _, g in prefixes:
            assert nu(g) == pairing_nu(g.graph, g.terminals)

    def test_root_distances_match_the_pairing(self, prefixes):
        for r, g in prefixes:
            base = pairing_nu(g.graph, g.terminals)
            assert f_distance(g, r, r).value == 0
            for v in sorted(g.graph.vertices - {r}):
                want = pairing_nu(g.graph, g.terminals ^ {r, v}) - base
                assert f_distance(g, r, v).value == want, (r, v)


class TestBlocksPastTheLimit:
    """Quasicombs whose cycle rank and terminal count pass _TABLE_LIMIT;
    the ``ear-decomp r`` rows of ``pins.json`` pin their stdout."""

    def test_every_block_is_within_the_limit(self):
        """mu = 15 and t = 40, but every block has at most _TABLE_LIMIT
        independent cycles."""
        g = quasicomb(58, 0)
        (comp,) = g.graph.components()
        assert (cycle_rank(g.graph, comp), len(g.terminals)) == (15, 40)
        assert max(block_ranks(g.graph, comp)) <= _TABLE_LIMIT

    def test_a_paired_block_gives_the_pairing_distances(self):
        """mu = 17 with one block of rank 12: the cycle table keeps no span
        for it and pairs its odd vertices.  On every other prefix with such
        a block, nu and a third of the root distances equal sums of
        pairings over all terminals."""
        d, _ = gen_random_critical_quasicomb(GenConfig(vertices=(58, 58)),
                                             random.Random(1))
        g = d.target
        (comp,) = g.graph.components()
        assert cycle_rank(g.graph, comp) == 17
        assert max(block_ranks(g.graph, comp)) == 12
        paired = [p for p in d.prefixes() if len(p.terminals) > _TABLE_LIMIT
                  and any(span is None for _, _, span, _ in
                          table_of(p, d.root).blocks)]
        assert len(paired) >= 4
        for p in paired[::-2]:
            base = pairing_nu(p.graph, p.terminals)
            assert nu(p) == base
            for v in sorted(p.graph.vertices - {d.root})[::3]:
                want = pairing_nu(p.graph, p.terminals ^ {d.root, v}) - base
                assert f_distance(p, d.root, v).value == want, v

    def test_the_target_at_scale_reads_the_pairing(self, monkeypatch):
        """n = 90: some blocks hold more than _TABLE_LIMIT independent
        cycles, so the criticality check's reads pair the odd vertices of
        their parts."""
        parts = []
        real = joins._pairing_least
        monkeypatch.setattr(joins, "_pairing_least",
                            lambda graph, bits, part:
                            parts.append(part) or real(graph, bits, part))
        assert is_critical_quasicomb(quasicomb(90, 0), "r").critical
        assert parts


def tabled_prefixes(d):
    """d's prefixes, each yielded once its join tables are built, as the
    verifier's criticality check builds them, so that the next sum grows
    the cycle blocks of the one before."""
    for p in d.prefixes():
        nu(p)
        yield p


def cold_copy(g):
    """g rebuilt through the checking constructors: ``_index`` builds its
    index and nothing is grown into its memo."""
    return type(g)(Multigraph(g.graph.vertices, g.graph.edges), g.terminals,
                   g.spine, g.tooth)


def grown_mismatches(p, every_pair: bool, root=None) -> list:
    """Where the prefix p, summed and grown, differs from its cold copy:
    the index fields, nu, the distance of every vertex pair of a component
    (with every_pair off, from ``root`` to each vertex) and the allowed
    edges."""
    c = cold_copy(p)
    a, b = p.graph, c.graph
    out = [name for name, x, y in (
        ("edges", a.edges, b.edges),
        ("edge map", a._edge_map, b._edge_map),
        ("components", a.components(), b.components()),
        ("roots", a.component_roots, b.component_roots),
        ("index", a.component_index, b.component_index),
        ("adjacency", a._adjacency, b._adjacency)) if x != y]
    if nu(p) != nu(c):
        out.append("nu")
    grown, cold = f_distance_reader(p), f_distance_reader(c)
    for comp in a.components():
        vs = sorted_vertices(comp)
        pairs = (itertools.combinations(vs, 2) if every_pair
                 else [(root, v) for v in vs if root in comp])
        out += [(u, v) for u, v in pairs if grown(u, v) != cold(u, v)]
    if allowed_edge_set(p) != allowed_edge_set(c):
        out.append("allowed edges")
    return out


def grown_corpus() -> list:
    """Decompositions whose prefixes grow their cycle blocks: fixed-seed
    quasicombs, whose round ears and circuits add cycles and merge blocks,
    and a comb path, a tree, whose ears only extend to_root and the
    bridges."""
    out = [gen_random_critical_quasicomb(GenConfig(vertices=(8, 20)),
                                         random.Random(seed))[0]
           for seed in range(30)]
    g = comb_path(20)
    return out + [build_graft_ear_decomposition(g, "r", min_join(g))]


@contextmanager
def grown_entries():
    """A dict that gathers, while the context is open, every _cycle_blocks
    entry that _grow_cycle_blocks returns, keyed by the id of its bits."""
    out: dict = {}
    real = core._GROWERS["_cycle_blocks"]

    def recorded(total, added, entry):
        grown = real(total, added, entry)
        out[id(grown[1][3])] = grown[1]
        return grown

    with patch.dict(core._GROWERS, {"_cycle_blocks": recorded}):
        yield out


def grown_reads(d) -> int:
    """How many of d's prefixes read their distances from a cycle table
    over a _cycle_blocks entry that _grow_cycle_blocks returned."""
    count = 0
    with grown_entries() as grown:
        for p in tabled_prefixes(d):
            for table in _join_tables(p.graph, p.terminals):
                count += type(table) is _CycleTable and id(table.bits) in grown
    return count


class TestGrownCycleBlocks:
    """A sum grows its first operand's cycle blocks, and its index, from
    the one before; every answer must equal a cold rebuild's."""

    def test_grown_prefixes_equal_cold_rebuilds(self):
        corpus = grown_corpus()
        assert sum(map(grown_reads, corpus)) > 150
        for d in corpus:
            for k, p in enumerate(tabled_prefixes(d)):
                assert grown_mismatches(p, every_pair=True) == [], (d.root, k)

    def test_blocks_past_the_limit_grow_too(self):
        """n = 90, seed 0, whose blocks past _TABLE_LIMIT take the pairing
        branch.  Every pair on every prefix would take a cold pairing per
        pair, so most prefixes compare the verifier's reads: the root to
        each vertex, and one per edge for the allowed set.  The first
        prefix with a paired block and the last, the target, compare every
        pair, which reads the parts of non-root pairs through
        _pairing_least over grown bits."""
        d, _ = gen_random_critical_quasicomb(GenConfig(vertices=(90, 90)),
                                             random.Random(0))
        assert grown_reads(d) > 40
        paired = every = 0
        for k, p in enumerate(tabled_prefixes(d)):
            table = table_of(p, d.root)
            is_paired = any(span is None for _, _, span, _ in table.blocks)
            paired += is_paired
            every_pair = is_paired and (paired == 1 or k == len(d.steps) - 1)
            every += every_pair
            assert grown_mismatches(p, every_pair, root=d.root) == [], k
        assert paired > 10 and every == 2

    def test_every_connected_growth_extends_and_grows(self, monkeypatch):
        """Every prefix, whatever its size, and the n-ary replay from the
        bare root, which adds every edge at once, grow a connected graft
        into a connected one, so each extends the index of the graft it
        grows (``_extended``) and no sum is indexed afresh.  Each prefix
        past the first carries the cycle blocks grown from the one before,
        and every sum answers as its cold copy, index fields included."""
        extended = []
        real = Multigraph._extended
        monkeypatch.setattr(Multigraph, "_extended", lambda self, *a:
                            extended.append(real(self, *a)) or extended[-1])
        grown = 0
        for seed in range(6):
            d, _ = gen_random_critical_quasicomb(GenConfig(vertices=(24, 32)),
                                                 random.Random(seed))
            extended.clear()
            with grown_entries() as entries:
                for k, p in enumerate(tabled_prefixes(d)):
                    assert [g is p.graph for g in extended] == [False] * k + [True], (seed, k)
                    grown += any(slot[0] == "_cycle_blocks" and id(entry[3]) in entries
                                 for slot, entry in p.graph._memo.items())
                    assert grown_mismatches(p, every_pair=True) == [], (seed, k)
            replayed = d.replay()
            assert extended[-1] is replayed.graph and len(extended) == len(d.steps) + 1
            assert grown_mismatches(replayed, every_pair=False, root=d.root) == []
        assert grown > 60

    def test_a_fold_that_skips_a_block_is_caught(self, monkeypatch):
        """A growth that leaves out one block that the new cycle meets
        makes overlapping blocks; the comparison must see it."""
        real = joins._fold_cycles

        def skipping(blocks, cycles):
            for c in cycles:
                met = [b for b in blocks if b[0] & c]
                if met:
                    rest = tuple(b for b in blocks if b is not met[0])
                    return real(rest, cycles) + (met[0],)
            return real(blocks, cycles)

        monkeypatch.setattr(joins, "_fold_cycles", skipping)
        found = [grown_mismatches(p, every_pair=True)
                 for d in grown_corpus() for p in tabled_prefixes(d)]
        assert sum(map(bool, found)) > 10


def networkx_pairs(W) -> list:
    """The pairs networkx's min_weight_matching returns on the graph that
    _blossom_pairing handed it before the port: vertices 0..t-1 and an
    edge i-j of weight W[i][j] for each i < j, added in that order."""
    nx = pytest.importorskip("networkx")
    kg = nx.Graph()
    for i in range(len(W)):
        for j in range(i + 1, len(W)):
            kg.add_edge(i, j, weight=W[i][j])
    return sorted((min(p), max(p)) for p in nx.min_weight_matching(kg))


def random_metric(rng: random.Random, t: int, top: int) -> list:
    """L1 distances of t random points of the grid {0..top}²: a metric
    with small integers and many ties (repeated points are 0 apart)."""
    points = [(rng.randint(0, top), rng.randint(0, top)) for _ in range(t)]
    return [[abs(x - a) + abs(y - b) for a, b in points] for x, y in points]


def bfs_metric(graph, terms) -> list:
    rows = [_bfs_tree(graph, u)[0] for u in terms]
    return [[row[w] for w in terms] for row in rows]


def round_step_metrics(seed: int) -> list:
    """BFS metrics of the flipped terminal sets T Δ {v, r} of the round
    steps (rank 1) of build_graft_ear_decomposition, from new tooth vertex
    v to the root r, on one generated critical quasicomb of the
    quasicombs-ears size, where min_join pairs them by blossom (more than
    _TABLE_LIMIT terminals).  Every such step is recorded, whether it
    extracts a path or reads a forced ear off the join."""
    d, _ = gen_random_critical_quasicomb(GenConfig(vertices=(16, 20)),
                                         random.Random(seed))
    g = d.target
    flipped = []
    round_step = combs._round_step_via_balanced_path

    def recorded(g, fset, fid, u, v, support, root):
        flipped.append(g.terminals ^ {v, root})
        return round_step(g, fset, fid, u, v, support, root)

    with patch.object(combs, "_round_step_via_balanced_path", recorded):
        build_graft_ear_decomposition(g, d.root, min_join(g))
    return [bfs_metric(g.graph, sorted_vertices(T)) for T in flipped
            if len(T) > _TABLE_LIMIT]


def port_test_metrics() -> list:
    """Fixed-seed weight matrices: random small-integer metrics, all-equal
    metrics (the most tied), BFS metrics of the terminals of generated
    critical quasicombs, those of the flipped terminal sets of their ear
    builds, those of comb paths, and the weights of ``BRANCH_DRAWS``."""
    rng = random.Random(19)
    out = [random_metric(rng, rng.randrange(2, 25, 2), rng.choice((1, 2, 3, 6)))
           for _ in range(1600)]
    out += [[[0 if i == j else w for j in range(t)] for i in range(t)]
            for t in range(2, 31, 2) for w in (1, 2, 7)]
    for seed in range(400):
        d, _ = gen_random_critical_quasicomb(
            GenConfig(vertices=(6, 26)), random.Random(seed))
        g = d.target
        out.append(bfs_metric(g.graph, sorted_vertices(g.terminals)))
    for seed in range(60):
        out += round_step_metrics(seed)
    for k in range(1, 16):
        g = comb_path(k)
        out.append(bfs_metric(g.graph, sorted_vertices(g.terminals)))
    out += large_metrics()
    out += [drawn_weights(*draw) for draw in BRANCH_DRAWS]
    return out


# (seed, ts, tops) of ``drawn_weights`` matrices that reach branches of
# ``expandBlossom``'s mid-stage relabel of a T-blossom that no other input
# here reaches: the walk backward round the blossom (seed 351), and a
# sub-blossom past the base that is itself a blossom, whose leaves are
# scanned for a labelled vertex (755) and hold one (13969).
BRANCH_DRAWS = [
    (351, [4, 6, 8, 10, 12, 14, 16], [3, 5, 10, 30]),
    (755, [12, 16, 20, 24, 30, 40], [2, 4, 8, 50]),
    (13969, [8, 10, 12, 16, 20, 24], [1, 2, 3, 6, 50]),
]


def drawn_weights(seed: int, ts: list, tops: list) -> list:
    """Weights W[i][j] = W[j][i] drawn from 0..top for i < j in row order,
    with t and top first drawn from ``ts`` and ``tops``, all by
    ``random.Random(seed)``: not a metric."""
    rng = random.Random(seed)
    t, top = rng.choice(ts), rng.choice(tops)
    W = [[0] * t for _ in range(t)]
    for i, j in itertools.combinations(range(t), 2):
        W[i][j] = W[j][i] = rng.randint(0, top)
    return W


def large_metrics() -> list:
    """Metrics with t = 60-120: the terminals of comb paths, whose
    pairings take about t/2 stages each, where an allowed edge left over
    from an earlier stage would have the most chances to mislead, and
    random metrics."""
    rng = random.Random(25)
    out = []
    for k in range(30, 61, 5):
        g = comb_path(k)
        out.append(bfs_metric(g.graph, sorted_vertices(g.terminals)))
    out += [random_metric(rng, t, rng.choice((3, 9, 40))) for t in range(60, 121, 20)]
    return out


def recorded_inputs() -> list:
    """The matrices of tests/blossom_inputs.txt (see its header)."""
    path = Path(__file__).with_name("blossom_inputs.txt")
    out = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        t = round((2 * len(line)) ** 0.5) + 1
        assert t * (t - 1) // 2 == len(line)
        weights = iter(int(c, 16) for c in line)
        W = [[0] * t for _ in range(t)]
        for i, j in itertools.combinations(range(t), 2):
            W[i][j] = W[j][i] = next(weights)
        out.append(W)
    return out


class TestBlossomPort:
    """``_blossom.min_weight_matching`` returns networkx's pairs, pair for
    pair, and a least-cost perfect pairing without networkx."""

    def test_same_pairs_as_networkx(self):
        metrics = port_test_metrics()
        assert len(metrics) == 2264
        assert max(map(len, metrics)) == 120
        for W in metrics:
            assert min_weight_matching(W) == networkx_pairs(W), W

    def test_same_pairs_on_the_benchmark_inputs(self):
        recorded = recorded_inputs()
        assert len(recorded) == 367
        for W in recorded:
            assert min_weight_matching(W) == networkx_pairs(W), W

    @pytest.mark.parametrize("W", [[], [[0, 5], [5, 0]]], ids=["t0", "t2"])
    def test_smallest(self, W):
        assert min_weight_matching(W) == networkx_pairs(W) == (
            [(0, 1)] if W else [])

    def test_least_cost_perfect_pairing(self):
        """Checked against the pairing DP alone, on metrics and on
        arbitrary small weights, with no networkx involved."""
        rng = random.Random(1973)
        for trial in range(300):
            t = rng.randrange(0, 13, 2)
            if trial % 2:
                W = random_metric(rng, t, rng.choice((1, 3, 9)))
            else:
                W = [[0] * t for _ in range(t)]
                for i, j in itertools.combinations(range(t), 2):
                    W[i][j] = W[j][i] = rng.randint(0, 4)
            pairs = min_weight_matching(W)
            assert sorted(v for p in pairs for v in p) == list(range(t))
            assert sum(W[i][j] for i, j in pairs) == _subset_dp(W)[-1]

    # Kernel weights for the certificate: two heavy pairs 01 and 23.
    # The duals 2u(v) = 5 give the heavy edges zero slack, the others 8.
    HEAVY = [[0, 5, 1, 1], [5, 0, 1, 1], [1, 1, 0, 5], [1, 1, 5, 0]]

    def certify(self, mate, dualvar):
        _verify_optimum(self.HEAVY, mate, dualvar, [-1] * 8, [0] * 8,
                        [None] * 8, [])

    def test_certificate_accepts_the_optimum(self):
        self.certify([1, 0, 3, 2], [5, 5, 5, 5])

    def test_certificate_rejects_a_matching_that_is_not_optimal(self):
        with pytest.raises(InternalConsistencyError, match="nonzero slack"):
            self.certify([2, 3, 0, 1], [5, 5, 5, 5])

    def test_certificate_rejects_a_negative_slack(self):
        with pytest.raises(InternalConsistencyError, match="negative slack"):
            self.certify([1, 0, 3, 2], [4, 5, 5, 5])

    def test_certificate_checks_run_under_optimize(self):
        """The kernel's checks are not asserts: ``python -O``, which strips
        asserts, still rejects the matching that is not optimal."""
        script = (
            "from bigraft._blossom import _verify_optimum\n"
            "from bigraft.core import InternalConsistencyError\n"
            f"W = {self.HEAVY!r}\n"
            "try:\n"
            "    _verify_optimum(W, [2, 3, 0, 1], [5] * 4, [-1] * 8, [0] * 8,"
            " [None] * 8, [])\n"
            "except InternalConsistencyError as e:\n"
            "    print(__debug__, e)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.stdout == (
            "False certificate: a matched edge has nonzero slack\n"), proc.stderr

    def test_analyze_imports_no_networkx(self):
        """A component of 12 terminals takes the blossom side, and the CLI
        gets there without networkx."""
        cycle = {"vertices": [f"v{i}" for i in range(12)],
                 "edges": [{"id": f"e{i}", "u": f"v{i}", "v": f"v{(i + 1) % 12}"}
                           for i in range(12)],
                 "terminals": [f"v{i}" for i in range(12)]}
        script = (
            "import sys\n"
            "from bigraft import cli_main, joins\n"
            "sizes = []\n"
            "port = joins.min_weight_matching\n"
            "joins.min_weight_matching = lambda W: sizes.append(len(W)) or port(W)\n"
            "code = cli_main(['analyze', '--format', 'json'])\n"
            "print(code, sizes, 'networkx' in sys.modules, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              input=json.dumps(cycle),
                              capture_output=True, text=True)
        assert proc.stderr == "0 [12] False\n"
        assert json.loads(proc.stdout)["join"]


class TestFlippedSign:
    def test_flip_and_restore(self):
        assert f_distance(k2(), "a", "b").value == -1
        with flipped_distance_sign():
            assert f_distance(k2(), "a", "b").value == 1
        assert f_distance(k2(), "a", "b").value == -1

    def test_flip_acts_on_tables_built_before_it(self):
        g = random_graft(*TABLE_CASES[2])
        pairs = list(itertools.combinations(sorted(g.graph.vertices), 2))
        before = {(u, v): f_distance(g, u, v).value for u, v in pairs}
        allowed = allowed_edge_set(g)
        comps = factor_components(g)
        assert any(before.values())
        with flipped_distance_sign():
            for (u, v), d in before.items():
                assert f_distance(g, u, v).value == (None if d is None else -d)
            # An equal graft on a freshly built graph has an empty memo, so
            # its allowed edges and components are computed under the flip.
            cold = Graft(Multigraph(g.graph.vertices, g.graph.edges), g.terminals)
            assert allowed_edge_set(cold) == allowed
            assert factor_components(cold) == comps


class TestWalkReport:
    def test_without_bipartition_balance_is_unknown(self):
        report = walk_report({"e1"}, Walk(("b1", "a1", "r"), ("e1", "c")))
        assert report.weight == 0
        assert report.balanced is None

    def test_path_counts_internal_tooth_vertices_only(self):
        tooth = frozenset({"r", "b1"})
        walk = Walk(("b1", "a1", "r"), ("e1", "c"))
        # the only internal vertex a1 is on the spine side, so any F passes
        assert walk_report(set(), walk, tooth).balanced
        assert walk_report({"e1", "c"}, walk, tooth).balanced

    def test_path_internal_tooth_needs_exactly_one(self):
        tooth = frozenset({"v2", "v4"})
        walk = Walk(("v1", "v2", "v3"), ("f1", "f2"))
        assert walk_report({"f1"}, walk, tooth).balanced
        assert walk_report({"f2"}, walk, tooth).balanced
        assert not walk_report(set(), walk, tooth).balanced
        assert not walk_report({"f1", "f2"}, walk, tooth).balanced

    def test_circuit_counts_every_tooth_vertex(self):
        tooth = frozenset({"v2", "v4"})
        circuit = Walk(("v1", "v2", "v3", "v4", "v1"), ("f1", "f2", "f3", "f4"))
        # {f1,f4} gives v2 and v4 one incident join edge each; the doubled
        # spine vertex v1 does not matter
        assert walk_report({"f1", "f4"}, circuit, tooth).balanced
        assert walk_report({"f2", "f3"}, circuit, tooth).balanced
        assert not walk_report({"f1", "f2"}, circuit, tooth).balanced
        assert not walk_report(set(), circuit, tooth).balanced


class TestExtractShortestPath:
    def test_k2(self):
        report = extract_shortest_path(k2(), {"e"}, "a", "b")
        assert report.walk.vertices == ("a", "b")
        assert report.weight == -1

    def test_c4_with_the_other_join(self):
        report = extract_shortest_path(c4(), {"f1", "f4"}, "v2", "v4")
        assert report.walk.vertices == ("v2", "v1", "v4")
        assert report.weight == -2

    def test_p3r_balanced_zero_path(self):
        report = extract_shortest_path(p3r(), {"e1"}, "b1", "r")
        assert report.walk.vertices == ("b1", "a1", "r")
        assert report.weight == 0
        assert report.balanced

    def test_trivial(self):
        report = extract_shortest_path(c4(), {"f2", "f3"}, "v1", "v1")
        assert report.walk.vertices == ("v1",)
        assert report.weight == 0

    def test_trivial_pair_of_an_unknown_vertex_raises(self):
        with pytest.raises(GraftInputError, match="unknown vertex id 'zz'"):
            f_distance(c4(), "zz", "zz")
        with pytest.raises(GraftInputError, match="unknown vertex id 'zz'"):
            extract_shortest_path(c4(), {"f2", "f3"}, "zz", "zz")

    def test_requires_minimum_join(self):
        g = c4_alt()
        with pytest.raises(PreconditionError, match="minimum"):
            extract_shortest_path(g, {"f2", "f3", "f4"}, "v1", "v2")

    def test_unreachable_raises(self):
        graph = Multigraph.build(["a", "b", "x", "y"],
                                 [("e1", "a", "b"), ("e2", "x", "y")])
        g = Graft(graph, frozenset({"a", "b"}))
        with pytest.raises(PreconditionError, match="different components"):
            extract_shortest_path(g, {"e1"}, "a", "x")

    def test_weight_matches_distance_everywhere(self):
        for g in (k2(), c4(), chain4(), p3r()):
            F = min_join(g)
            for u in sorted(g.graph.vertices):
                for v in sorted(g.graph.vertices):
                    d = f_distance(g, u, v)
                    if not d.finite:
                        continue
                    report = extract_shortest_path(g, F, u, v)
                    assert report.weight == d.value


class TestAllowedEdge:
    def test_k2_edge_allowed(self):
        assert is_allowed_edge(k2(), "e")

    def test_chain_middle_not_allowed(self):
        assert not is_allowed_edge(chain4(), "c")
        assert is_allowed_edge(chain4(), "e0")
        assert is_allowed_edge(chain4(), "e1")

    def test_c4_all_allowed(self):
        for eid in ("f1", "f2", "f3", "f4"):
            assert is_allowed_edge(c4(), eid)

    def test_against_brute_oracle(self):
        for g in (k2(), c4(), chain4(), p3r(), c4_alt()):
            for e in g.graph.edges:
                assert is_allowed_edge(g, e.id) == brute_allowed(g, e.id), e.id

    def test_unknown_edge(self):
        with pytest.raises(GraftInputError):
            is_allowed_edge(k2(), "zz")

    @pytest.mark.parametrize("case", [2, 7])
    def test_each_query_reads_the_cached_set(self, monkeypatch, case):
        """allowed_edge_set reads no table difference on a subset-table
        component and one per edge on a cycle-table one; after it,
        is_allowed_edge answers every edge without reading a table."""
        g = random_graft(*TABLE_CASES[case])
        reads = []
        for table in (_SubsetTable, _CycleTable):
            def counted(self, graph, u, v, real=table.delta):
                reads.append((u, v))
                return real(self, graph, u, v)
            monkeypatch.setattr(table, "delta", counted)
        allowed = allowed_edge_set(g)
        assert len(reads) == sum(type(table_of(g, e.u)) is _CycleTable
                                 for e in g.graph.edges)
        reads.clear()
        assert {e.id for e in g.graph.edges if is_allowed_edge(g, e.id)} == allowed
        assert reads == []


def dense_grafts(count: int = 12) -> list:
    """Fixed-seed grafts of the grafts-dense benchmark's shape: 18
    vertices, edge density 0.35, one component, 6 or 8 terminals."""
    rng = random.Random(26)
    out = []
    while len(out) < count:
        g = gen_random_graft(GenConfig(vertices=(18, 18), edge_density=0.35,
                                       terminal_density=0.3), rng)
        if len(g.graph.components()) == 1 and len(g.terminals) in (6, 8):
            out.append(g)
    return out


@st.composite
def subset_table_grafts(draw):
    """A connected graft of 2-12 vertices whose terminal count t is at most
    min(mu, _TABLE_LIMIT), so the subset table serves it."""
    n = draw(st.integers(2, 12))
    pairs = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda p: p[0] != p[1]), max_size=10))
    mu = len(pairs) - n + 1
    t = 2 * draw(st.integers(0, min(mu, _TABLE_LIMIT, n) // 2))
    terminals = draw(st.permutations(range(n)))[:t]
    graph = Multigraph.build([f"v{i}" for i in range(n)],
                             [(f"e{k:02d}", f"v{u}", f"v{v}")
                              for k, (u, v) in enumerate(pairs)])
    return Graft(graph, frozenset(f"v{i}" for i in terminals))


class TestPairablePairs:
    """The subset table answers its allowed edges from the terminal pairs
    some minimum pairing uses.  Its answer must be the set of edges whose
    difference reads -1 and, within the exhaustive scan's edge cap, the
    union of every minimum join."""

    def check(self, g) -> list:
        """The subset-table components' allowed sets, checked."""
        graph = g.graph
        tables = _join_tables(graph, g.terminals)
        brute = None
        if len(graph.edges) <= 22:
            brute = set().union(*all_min_joins(g))
        out = []
        for comp, table in zip(graph.components(), tables):
            if type(table) is not _SubsetTable:
                continue
            edges = [e for e in graph.edges if e.u in comp]
            got = set(table.allowed_ids(graph, edges))
            assert got == {e.id for e in edges
                           if table.delta(graph, e.u, e.v) == -1}
            if brute is not None:
                assert got == {e.id for e in edges if e.id in brute}
            out.append(got)
        return out

    @pytest.mark.parametrize("case", [i for i, c in enumerate(TABLE_CASES)
                                      if TABLE_KINDS[c[0]] is _SubsetTable])
    def test_table_cases(self, case):
        g = random_graft(*TABLE_CASES[case])
        assert len(g.graph.edges) <= 22
        assert self.check(g)

    def test_dense_grafts(self):
        """Most edges of these grafts are not allowed; some are, and some
        lie on a shortest path between terminals no minimum pairing uses."""
        grafts = dense_grafts()
        allowed = unpaired = 0
        for g in grafts:
            (got,) = self.check(g)
            allowed += len(got)
            (table,) = _join_tables(g.graph, g.terminals)
            rows, terms = table.rows, table.terms
            every_pair = {e.id for e in g.graph.edges if any(
                rows[i][x] + 1 + rows[j][y] == rows[i][terms[j]]
                for i, j in itertools.combinations(range(len(terms)), 2)
                for x, y in ((e.u, e.v), (e.v, e.u)))}
            unpaired += len(every_pair - got)
        assert 0 < allowed < sum(len(g.graph.edges) for g in grafts) / 2
        assert unpaired

    @settings(max_examples=100, deadline=None)
    @given(subset_table_grafts())
    def test_random_grafts(self, g):
        assert len(self.check(g)) == 1
