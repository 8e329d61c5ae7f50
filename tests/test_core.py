"""Data model: multigraphs, grafts, bipartitions, contraction, sums, walks."""

import random
import re
import sys
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from bigraft.core import (
    CapacityError,
    Edge,
    Graft,
    GraftInputError,
    GraftValidationError,
    Multigraph,
    OrderedBipartiteGraft,
    PreconditionError,
    Walk,
    build_bipartite_graft,
    contract_graft,
    graft_sum,
    is_join,
    least_vertex,
    simple_circuits,
    simple_paths,
    sorted_vertices,
    validate_graft,
    vertex_key,
)
from bigraft.cathedral import is_critical_set, union_criticality_check
from bigraft.combs import (
    EarStep,
    bare_root,
    build_graft_ear_decomposition,
    is_critical_quasicomb,
    is_f_balanced,
    midvertex,
    verify_graft_ear_decomposition,
)
from bigraft.decomposition import (
    factor_components,
    induced_subgraft,
    is_separating,
    kl_partition,
)
from bigraft.generators import (
    GenConfig,
    gen_random_comb,
    gen_random_critical_quasicomb,
    gen_random_graft,
)
from bigraft.instances import c4, chain4, fan, k2, p3r, path2
from bigraft.joins import (
    JoinSet,
    allowed_edge_set,
    extract_shortest_path,
    f_distance,
    is_minimum_join,
    min_join,
    negative_circuit_witness,
)

from oracles import index_fields, obg, recursive_simple_circuits, recursive_simple_paths


def test_vertex_key_orders_ints_before_strs():
    vs = ["b", 2, "a", 10, 1]
    assert sorted(vs, key=vertex_key) == [1, 2, 10, "a", "b"]


ID_SETS = st.one_of(st.frozensets(st.text(max_size=4)),
                    st.frozensets(st.integers()),
                    st.frozensets(st.one_of(st.text(max_size=4), st.integers())))


@settings(deadline=None, max_examples=300)
@given(ID_SETS)
def test_sorted_vertices_is_the_vertex_key_order(vs):
    assert sorted_vertices(vs) == sorted(vs, key=vertex_key)
    assert sorted_vertices(iter(vs)) == sorted(vs, key=vertex_key)
    if vs:
        assert least_vertex(vs) == sorted(vs, key=vertex_key)[0]


class Grade(IntEnum):
    LOW = 3
    HIGH = 7


class Name(str):
    """A str subclass, as a caller's own id type might be."""


@pytest.mark.parametrize("ids", [
    ["b", "a", "c"],
    [5, -2, 9],
    [3, "a", 1, "b", 0],
    [Grade.HIGH, 5, Grade.LOW, "z"],
    [Name("q"), "b", Name("a"), 2],
], ids=["str", "int", "mixed", "intenum", "str-subclass"])
def test_edge_orientation_and_least_vertex_follow_vertex_key(ids):
    """Ends of one type skip vertex_key when the constructor orients an
    edge, and least_vertex takes a plain min where it can; both agree with
    vertex_key, on an int or str subclass too."""
    assert least_vertex(ids) is min(ids, key=vertex_key)
    pairs = {f"e{i}": (u, v) for i, (u, v) in enumerate(
        (u, v) for u in ids for v in ids if u is not v)}
    g = Multigraph.build(ids, [(eid, u, v) for eid, (u, v) in pairs.items()])
    for eid, pair in pairs.items():
        e = g.edge(eid)
        want = sorted(pair, key=vertex_key)
        assert e.u is want[0] and e.v is want[1]


class TestMultigraph:
    def test_edges_normalize_sorted_by_id(self):
        g = Multigraph.build(["x", "y"], [("b", "x", "y"), ("a", "x", "y")])
        assert [e.id for e in g.edges] == ["a", "b"]

    def test_parallel_edges_are_kept(self):
        g = Multigraph.build(["x", "y"], [("e1", "x", "y"), ("e2", "x", "y")])
        assert g.degree("x") == 2

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(GraftInputError, match="duplicate edge id"):
            Multigraph.build(["x", "y", "z"], [("e", "x", "y"), ("e", "y", "z")])

    def test_loop_rejected(self):
        with pytest.raises(GraftInputError, match="loop"):
            Multigraph.build(["x"], [("e", "x", "x")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraftInputError, match="unknown endpoint"):
            Multigraph.build(["x"], [("e", "x", "y")])

    def test_components_deterministic_order(self):
        g = Multigraph.build(["d", "c", "b", "a"], [("e1", "d", "c"), ("e2", "b", "a")])
        comps = g.components()
        assert comps == (frozenset({"a", "b"}), frozenset({"c", "d"}))

    @pytest.mark.parametrize("seed", range(40))
    def test_components_carry_their_roots_and_index(self, seed):
        """``component_roots[i]`` is the least vertex of ``components()[i]``,
        the roots ascend in ``vertex_key`` order, and ``component_index``
        maps exactly the vertices of component i to i.  The graphs mix int
        and str ids and keep some vertices isolated."""
        rng = random.Random(seed)
        ids = rng.sample([*range(12), *(f"v{i}" for i in range(12))],
                         rng.randint(0, 14))
        edges = [(f"e{k}", *rng.sample(ids, 2))
                 for k in range(rng.randint(0, len(ids))) if len(ids) > 1]
        g = Multigraph.build(ids, edges)
        comps, roots = g.components(), g.component_roots
        assert len(roots) == len(comps)
        assert list(roots) == [sorted_vertices(comp)[0] for comp in comps]
        assert list(roots) == sorted(roots, key=vertex_key)
        assert len(set(roots)) == len(roots)
        assert g.component_index == {v: i for i, comp in enumerate(comps)
                                     for v in comp}
        assert set(g.component_index) == g.vertices

    def test_empty_graph_has_no_components(self):
        g = Multigraph.build([], [])
        assert g.components() == g.component_roots == ()
        assert g.component_index == {}

    def test_equal_graphs_from_different_routes_hash_equal(self):
        a = Multigraph.build(["x", "y", "z"],
                             [("e1", "x", "y"), ("e2", "y", "z"), ("e3", "x", "y")])
        b = Multigraph.build(["z", "y", "x"],
                             [("e3", "y", "x"), ("e1", "x", "y"), ("e2", "z", "y")])
        c = Multigraph.build(["x", "y", "z", "w"],
                             [("e2", "z", "y"), ("e4", "w", "x"), ("e1", "y", "x"),
                              ("e3", "x", "y")]).induced({"x", "y", "z"})
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert len({a, b, c}) == 1

    def test_induced_drops_crossing_edges(self):
        g = chain4().graph
        sub = g.induced({"a0", "b0"})
        assert sub.edge_ids() == {"e0"}

    def test_spanning_matches_the_checking_constructor(self):
        """On the allowed set, the empty set and every edge of 20
        fixed-seed grafts and 20 fixed-seed combs, ``spanning`` equals the
        graph the checking constructor builds from the same edges, down to
        the components, their roots and index, and adjacency order."""
        grafts = [gen_random_graft(GenConfig(seed=seed, vertices=(6, 12)))
                  for seed in range(20)]
        grafts += [gen_random_comb(GenConfig(seed=seed, vertices=(6, 12)))
                   for seed in range(20)]
        for g in grafts:
            graph = g.graph
            for keep in (allowed_edge_set(g), frozenset(), graph.edge_ids()):
                got = graph.spanning(keep)
                want = Multigraph(graph.vertices, tuple(
                    e for e in graph.edges if e.id in keep))
                assert (got.vertices, got.edges) == (want.vertices, want.edges)
                assert got == want
                assert index_fields(got) == index_fields(want)

    def test_spanning_refuses_an_unknown_edge_id(self):
        with pytest.raises(GraftInputError, match=r"unknown edge ids \['zz'\]"):
            chain4().graph.spanning({"e0", "zz"})


class TestGraft:
    def test_k2_is_a_graft(self):
        assert validate_graft(k2().graph, {"a", "b"})

    def test_odd_component_rejected(self):
        g = Multigraph.build(["a", "b"], [])
        assert not validate_graft(g, {"a", "b"})
        with pytest.raises(GraftValidationError) as exc:
            Graft(g, frozenset({"a", "b"}))
        assert exc.value.invariant == "terminal-parity"

    def test_terminals_must_be_vertices(self):
        g = Multigraph.build(["a"], [])
        with pytest.raises(GraftInputError, match="not vertices"):
            Graft(g, frozenset({"zz", "a"}))


class TestBipartition:
    def test_same_side_edge_rejected(self):
        g = Multigraph.build(["x", "y"], [("e", "x", "y")])
        with pytest.raises(GraftValidationError) as exc:
            build_bipartite_graft(g, [], spine=["x", "y"], tooth=[])
        assert exc.value.invariant == "not-bipartite"

    def test_sides_must_cover(self):
        g = Multigraph.build(["x", "y"], [("e", "x", "y")])
        with pytest.raises(GraftValidationError) as exc:
            build_bipartite_graft(g, [], spine=["x"], tooth=[])
        assert exc.value.invariant == "bipartition-coverage"

    def test_sides_must_not_overlap(self):
        g = Multigraph.build(["x", "y"], [])
        with pytest.raises(GraftValidationError) as exc:
            build_bipartite_graft(g, [], spine=["x", "y"], tooth=["y"])
        assert exc.value.invariant == "bipartition-overlap"


class TestContract:
    def test_chain4_contract_front(self):
        g = chain4()
        out, cid = contract_graft(g, {"a0", "b0"})
        assert cid == "X#a0"
        assert out.graph.vertices == {"X#a0", "a1", "b1"}
        assert out.graph.edge_ids() == {"c", "e1"}
        assert out.graph.edge("c").ends() == frozenset({"X#a0", "a1"})
        assert out.terminals == {"a1", "b1"}

    def test_odd_terminal_count_marks_contracted_vertex(self):
        g = p3r()
        out, cid = contract_graft(g, {"a1", "r"}, contracted_id="g0")
        assert cid == "g0"
        assert out.terminals == {"g0", "b1"}

    def test_contracted_id_clash_rejected(self):
        g = chain4()
        with pytest.raises(GraftInputError, match="already a vertex"):
            contract_graft(g, {"a0", "b0"}, contracted_id="a1")


class TestGraftSum:
    def test_p3r_builds_from_singleton_plus_ear(self):
        ga = build_bipartite_graft(
            Multigraph.build(["r"], []), [], spine=[], tooth=["r"])
        ear = build_bipartite_graft(
            Multigraph.build(["r", "a1", "b1"], [("c", "r", "a1"), ("e1", "a1", "b1")]),
            ["a1", "b1"], spine=["a1"], tooth=["r", "b1"])
        total = graft_sum(ga, ear)
        assert total == p3r()

    def test_terminals_use_symmetric_difference(self):
        ga = build_bipartite_graft(
            Multigraph.build(["x", "y"], [("e", "x", "y")]), ["x", "y"],
            spine=["x"], tooth=["y"])
        gb = build_bipartite_graft(
            Multigraph.build(["y", "z"], [("f", "y", "z")]), ["y", "z"],
            spine=["z"], tooth=["y"])
        total = graft_sum(ga, gb)
        assert total.terminals == {"x", "z"}

    def test_side_clash_rejected(self):
        ga = build_bipartite_graft(Multigraph.build(["x"], []), [], spine=["x"], tooth=[])
        gb = build_bipartite_graft(Multigraph.build(["x"], []), [], spine=[], tooth=["x"])
        with pytest.raises(PreconditionError, match="change sides"):
            graft_sum(ga, gb)

    def test_shared_edge_id_must_agree(self):
        ga = build_bipartite_graft(
            Multigraph.build(["x", "y"], [("e", "x", "y")]), [], spine=["x"], tooth=["y"])
        gb = build_bipartite_graft(
            Multigraph.build(["x", "z"], [("e", "x", "z")]), [], spine=["x"], tooth=["z"])
        with pytest.raises(GraftInputError, match="different ends"):
            graft_sum(ga, gb)


class TestNaryGraftSum:
    """Three operands sum, and fail, as the chained two-operand sums do."""

    @staticmethod
    def operands(third):
        return (obg(["x", "y"], [("e", "x", "y")], ["x", "y"], ["x"], ["y"]),
                obg(["y", "z"], [("f", "y", "z")], ["y", "z"], ["z"], ["y"]),
                third)

    @staticmethod
    def failure(thunk):
        with pytest.raises(Exception) as info:
            thunk()
        return type(info.value), str(info.value)

    def test_equals_the_chained_sums(self):
        ga, gb, gc = self.operands(obg(["z", "w"], [("g", "z", "w")], [], ["z"], ["w"]))
        total = graft_sum(ga, gb, gc)
        assert total == graft_sum(graft_sum(ga, gb), gc)
        assert total == graft_sum(ga, graft_sum(gb, gc))
        assert total.terminals == {"x", "z"}
        assert graft_sum(ga) == ga

    @pytest.mark.parametrize("third, error, match", [
        (obg(["x"], [], [], [], ["x"]), PreconditionError, "change sides"),
        (obg(["x", "w"], [("e", "x", "w")], [], ["x"], ["w"]), GraftInputError,
         "different ends"),
        (Graft(Multigraph.build(["w"], []), frozenset()), PreconditionError,
         "ordered bipartite grafts only"),
    ], ids=["side-clash", "edge-end-conflict", "plain-graft"])
    def test_third_operand_fails_as_the_chained_sum(self, third, error, match):
        ga, gb, gc = self.operands(third)
        chained = self.failure(lambda: graft_sum(graft_sum(ga, gb), gc))
        assert chained[0] is error and match in chained[1]
        assert self.failure(lambda: graft_sum(ga, gb, gc)) == chained


def checked_sum(*operands):
    """The sum of the operands, built from its parts by the checking
    constructors."""
    terminals = frozenset()
    for g in operands:
        terminals ^= g.terminals
    edges = {e.id: e for g in operands for e in g.graph.edges}
    return OrderedBipartiteGraft(
        Multigraph(frozenset().union(*(g.graph.vertices for g in operands)),
                   tuple(edges.values())),
        terminals,
        frozenset().union(*(g.spine for g in operands)),
        frozenset().union(*(g.tooth for g in operands)))


def assert_same_graft(got, want):
    """Equal, and equal in everything the indexing derives, in order."""
    assert got == want and hash(got) == hash(want)
    assert index_fields(got.graph) == index_fields(want.graph)
    assert min_join(got).edge_ids == min_join(want).edge_ids


class TestGraftSumAssembly:
    """A sum skips the constructors' checks, yet equals the sum built
    through them, down to adjacency order."""

    def test_every_prefix_of_grown_chains(self):
        for seed in range(40):
            d, _ = gen_random_critical_quasicomb(
                GenConfig(seed=seed, vertices=(4, 16)))
            operands = [bare_root(d.root)]
            for step, prefix in zip(d.steps, d.prefixes()):
                operands.append(step.as_graft())
                assert_same_graft(prefix, checked_sum(*operands))
            assert_same_graft(d.replay(), checked_sum(*operands))

    @staticmethod
    def operands(kind):
        if kind == "disjoint":
            return (obg(["x", "y"], [("e", "x", "y")], ["x", "y"], ["x"], ["y"]),
                    obg(["u", "w"], [("f", "w", "u")], [], ["w"], ["u"]),
                    obg(["p"], [], [], [], ["p"]))
        if kind == "multi-component":
            return (obg(["a", "b", "c", "d"], [("e1", "a", "b"), ("e2", "d", "c")],
                        ["a", "b", "c", "d"], ["a", "c"], ["b", "d"]),
                    obg(["b", "z"], [("e0", "z", "b")], ["b", "z"], ["z"], ["b"]),
                    obg(["q", "s", "d"], [("e3", "s", "q"), ("e4", "q", "d")],
                        ["q", "s"], ["q"], ["s", "d"]))
        return (obg([1, "x"], [("e", "x", 1)], [1, "x"], ["x"], [1]),
                obg([1, 2, "y"], [("f", 2, 1), ("g", "y", 1)], [], [2, "y"], [1]),
                obg([1, 2, 10], [("h", 2, 10), ("f", 1, 2)], [2, 10], [2], [1, 10]))

    @pytest.mark.parametrize("kind", ["disjoint", "multi-component", "mixed-ids"])
    def test_two_and_three_operands(self, kind):
        ga, gb, gc = self.operands(kind)
        assert_same_graft(graft_sum(ga, gb), checked_sum(ga, gb))
        assert_same_graft(graft_sum(ga, gb, gc), checked_sum(ga, gb, gc))
        assert_same_graft(graft_sum(graft_sum(ga, gb), gc), checked_sum(ga, gb, gc))

    @staticmethod
    def spied_extensions(monkeypatch) -> list:
        """The graphs ``Multigraph._extended`` returns from now on."""
        extended = []
        real = Multigraph._extended
        monkeypatch.setattr(Multigraph, "_extended", lambda self, *a:
                            extended.append(real(self, *a)) or extended[-1])
        return extended

    @pytest.mark.parametrize("seed", range(80))
    def test_extension_equals_the_index(self, seed, monkeypatch):
        """Sums of random bipartite shapes, past the ear case that sums
        mostly take: added edges that merge old components, new vertices
        left isolated or in components of their own, roots that move, and
        int and str ids mixed, with edge ids that sort between old ones.
        Each shape is summed as drawn, with its first operand padded by 24
        parallel edges, and with it also joined up by a star.  Every sum's
        index equals ``_index``'s, and it extends exactly where both
        operands are connected and share a vertex, whatever the sizes."""
        extended = self.spied_extensions(monkeypatch)
        rng = random.Random(seed)
        names = [f"v{i}" for i in range(rng.randint(2, 9))] + list(range(rng.randint(0, 4)))
        fresh = [f"{rng.choice('aw')}{i}" for i in range(rng.randint(0, 4))]
        fresh += [-1 - i for i in range(rng.randint(0, 2))]
        tooth = {v for v in names + fresh if rng.random() < 0.5} - {names[0]} | {names[1]}

        def across(pool):
            while True:
                u, v = rng.sample(pool, 2)
                if (u in tooth) != (v in tooth):
                    return u, v

        edges, ids = [], rng.sample(range(100), 30)
        for k in range(rng.randint(1, 14)):
            edges.append((f"e{ids[k]}", *across(names)))
        added = []
        for k in range(14, 14 + rng.randint(0, 6)):
            added.append((f"e{ids[k]}", *across(names + fresh)))

        def obg(vertices, edges):
            return build_bipartite_graft(Multigraph.build(vertices, edges), [],
                                         set(vertices) - tooth, set(vertices) & tooth)

        second = obg({x for e in added for x in e[1:]} | set(fresh), added)
        parallel = [(f"p{k:02}", *edges[0][1:]) for k in range(24)]
        hub = {True: names[0], False: names[1]}
        star = [(f"s{k:02}", hub[v in tooth], v) for k, v in enumerate(names[1:])]
        for padded in (edges, edges + parallel, edges + star + parallel):
            first = obg(names, padded)
            got = graft_sum(first, second).graph
            full = Multigraph.build(names + fresh, padded + added)
            assert index_fields(got) == index_fields(full)
            meets = (len(first.graph.component_roots) == 1
                     == len(second.graph.component_roots)
                     and not first.graph.vertices.isdisjoint(second.graph.vertices))
            assert any(g is got for g in extended) == meets

    @pytest.mark.parametrize("kind, extends", [
        ("disconnected-operand-connected-union", False),
        ("connected-operand-apart", False),
        ("edge-between-old-vertices", True),
    ])
    def test_the_shape_is_read_off_the_operands(self, kind, extends, monkeypatch):
        """A sum extends its first operand where that operand is connected
        and the second is connected and shares a vertex with it.  A second
        operand of two edges apart whose union with the first is still
        connected, and a connected one apart from the first, are assembled
        afresh; an edge between two old vertices extends.  Every sum's
        index equals ``_index``'s."""
        extended = self.spied_extensions(monkeypatch)
        path = [("e1", "a0", "b0"), ("e2", "b0", "a1"), ("e3", "a1", "b1")]
        second = {
            "disconnected-operand-connected-union":
                [("f1", "a0", "b2"), ("f2", "a1", "b3")],
            "connected-operand-apart": [("f1", "a2", "b2")],
            "edge-between-old-vertices": [("f1", "a0", "b1")],
        }[kind]

        def obg(edges):
            vertices = {x for e in edges for x in e[1:]}
            return build_bipartite_graft(
                Multigraph.build(vertices, edges), [],
                [v for v in vertices if v[0] == "a"], [v for v in vertices if v[0] == "b"])

        got = graft_sum(obg(path), obg(second)).graph
        assert [g is got for g in extended] == [True] * extends
        full = obg(path + second).graph
        assert index_fields(got) == index_fields(full)
        assert len(full.component_roots) == (2 if kind == "connected-operand-apart" else 1)

    def test_an_ear_whose_vertex_takes_the_lead(self, monkeypatch):
        """An ear on a connected 25-edge path whose new vertex sorts before
        the old root becomes the root of the one component, and its first
        edge id sorts before every old one."""
        extended = self.spied_extensions(monkeypatch)
        spine, tooth = [f"b{i:02}" for i in range(13)], [f"c{i:02}" for i in range(13)]
        path = [x for pair in zip(spine, tooth) for x in pair]
        edges = [(f"e{k:02}", u, v) for k, (u, v) in enumerate(zip(path, path[1:]), 1)]
        ear = [("e00", "a", "b00"), ("e99", "a", "b05")]
        first = build_bipartite_graft(Multigraph.build(path, edges), [], spine, tooth)
        second = build_bipartite_graft(Multigraph.build(["a", "b00", "b05"], ear),
                                       [], ["b00", "b05"], ["a"])
        got = graft_sum(first, second).graph
        assert [g is got for g in extended] == [True]
        assert got.component_roots == ("a",) and got.edges[0].id == "e00"
        assert index_fields(got) == index_fields(Multigraph.build(["a", *path], edges + ear))

    def test_a_wide_replay_extends_the_bare_root(self, monkeypatch):
        """The replay of fan(300) from the bare root adds 301 edges, 300 of
        them at the centre, to a graph with none: one extension, edge by
        edge, whose index equals ``_index``'s."""
        extended = self.spied_extensions(monkeypatch)
        g = fan(300)
        d = build_graft_ear_decomposition(g, "r", min_join(g))
        extended.clear()
        got = d.replay()
        assert [x is got.graph for x in extended] == [True]
        assert got == g and index_fields(got.graph) == index_fields(g.graph)

    @pytest.mark.parametrize("kind", ["merging", "ear-on-one-of-two", "apart"])
    def test_only_a_connected_growth_grows_the_blocks(self, kind):
        """A sum that merges two components of its first operand, one that
        grows one component of a disconnected operand, and one that adds a
        component of its own carry no grown ``_cycle_blocks`` entry, yet
        answer like their cold copies.  The same ear on a connected operand
        does carry one."""
        def obg(vertices, edges, terminals):
            return build_bipartite_graft(
                Multigraph.build(vertices, edges), terminals,
                [v for v in vertices if v[0] in "ac"], [v for v in vertices if v[0] in "bd"])

        square = ["a0", "b0", "a1", "b1"]
        edges = [("e1", "a0", "b0"), ("e2", "b0", "a1"), ("e3", "a1", "b1"), ("e4", "b1", "a0")]
        if kind != "apart":
            square += ["c0", "d0", "c1", "d1"]
            edges += [("f1", "c0", "d0"), ("f2", "d0", "c1"), ("f3", "c1", "d1"),
                      ("f4", "d1", "c0")]
        ear = obg(["a0", "a1", "b2"], [("g1", "a0", "b2"), ("g2", "a1", "b2")], [])
        second = {"merging": obg(["a0", "d0"], [("m", "a0", "d0")], []),
                  "ear-on-one-of-two": ear,
                  "apart": obg(["c5", "d5"], [("m", "c5", "d5")], ["c5", "d5"])}[kind]

        def blocks(g):
            return [key for (name, key) in g.graph._memo if name == "_cycle_blocks"]

        def summed(first, second):
            for u in first.graph.vertices:
                for v in first.graph.vertices:
                    f_distance(first, u, v)
            assert blocks(first)
            return graft_sum(first, second)

        got = summed(obg(square, edges, square), second)
        assert blocks(got) == []
        cold = checked_sum(obg(square, edges, square), second)
        assert_same_graft(got, cold)
        vertices = sorted_vertices(got.graph.vertices)
        assert [f_distance(got, u, v) for u in vertices for v in vertices] == \
            [f_distance(cold, u, v) for u in vertices for v in vertices]
        connected = summed(obg(square[:4], edges[:4], square[:4]), ear)
        assert blocks(connected) == ["a0"]

    def test_induced_equals_the_checked_subgraph(self):
        g = graft_sum(*self.operands("mixed-ids")).graph
        for keep in ({1, 2, "x"}, {10, "y"}, set(), g.vertices):
            sub = g.induced(keep)
            want = Multigraph(frozenset(keep), tuple(
                e for e in g.edges if e.u in keep and e.v in keep))
            assert sub == want and index_fields(sub) == index_fields(want)


class TestInducedSubgraft:
    def test_requires_union_of_witness_parts(self):
        g = chain4()
        sub = induced_subgraft(g, {"a0", "b0"})
        assert sub.graph.edge_ids() == {"e0"}
        assert sub.terminals == {"a0", "b0"}
        assert (sub.spine, sub.tooth) == ({"a0"}, {"b0"})
        with pytest.raises(PreconditionError, match=r"cuts the factor components \['a0'\]"):
            induced_subgraft(g, {"a0"})

    def test_keeps_the_graft_kind(self):
        g = chain4()
        plain = Graft(g.graph, g.terminals)
        sub = induced_subgraft(plain, {"a1", "b1"})
        assert sub == Graft(g.graph.induced({"a1", "b1"}), frozenset({"a1", "b1"}))


class TestIsJoin:
    def test_k2(self):
        assert is_join(k2(), {"e"})
        assert not is_join(k2(), set())

    def test_c4(self):
        g = c4()
        assert is_join(g, {"f2", "f3"})
        assert is_join(g, {"f1", "f4"})
        assert not is_join(g, {"f1", "f2"})
        # the symmetric difference of two joins has even degree everywhere
        assert not is_join(g, {"f1", "f2", "f3", "f4"})

    def test_unknown_edge_rejected(self):
        with pytest.raises(GraftInputError, match="unknown edge ids"):
            is_join(k2(), {"zz"})


class TestWalks:
    def test_walk_validation(self):
        g = c4().graph
        Walk(("v1", "v2", "v3"), ("f1", "f2")).validate(g)
        circuit = Walk(("v1", "v2", "v3", "v4", "v1"), ("f1", "f2", "f3", "f4"))
        circuit.validate(g, require="circuit")
        assert circuit.closed
        with pytest.raises(GraftInputError, match="does not join"):
            Walk(("v1", "v3"), ("f1",)).validate(g)
        with pytest.raises(PreconditionError, match="expected a path"):
            circuit.validate(g, require="path")

    def test_one_edge_circuit_fails_incidence(self):
        # A closed walk of one edge would need a loop, which no multigraph has.
        g = Multigraph.build(["a", "b"], [("e", "a", "b")])
        with pytest.raises(GraftInputError, match="edge 'e' does not join 'a' and 'a'"):
            Walk(("a", "a"), ("e",)).validate(g)

    def test_simple_paths_between(self):
        g = c4().graph
        paths = sorted(p.edge_ids for p in simple_paths(g, "v1", "v3"))
        assert paths == [("f1", "f2"), ("f4", "f3")]

    def test_trivial_path(self):
        g = c4().graph
        paths = [p for p in simple_paths(g, "v1", "v1")]
        assert paths == [Walk(("v1",), ())]

    def test_simple_circuits_dedup(self):
        g = c4().graph
        circs = list(simple_circuits(g))
        assert len(circs) == 1
        assert set(circs[0].edge_ids) == {"f1", "f2", "f3", "f4"}

    def test_two_edge_parallel_circuit(self):
        g = Multigraph.build(["x", "y"], [("e1", "x", "y"), ("e2", "x", "y")])
        circs = list(simple_circuits(g))
        assert len(circs) == 1
        assert set(circs[0].edge_ids) == {"e1", "e2"}


def _walk_corpus():
    """Fixed-seed random multigraphs (parallel twins and several components
    included) plus a graph with integer vertex ids."""
    out = [c4().graph, chain4().graph,
           Multigraph.build([1, 2, 3, 4, 10],
                            [("a", 1, 2), ("b", 2, 3), ("c", 3, 1),
                             ("d", 3, 10), ("e", 10, 4), ("f", 4, 1)])]
    for seed in range(30):
        cfg = GenConfig(seed=seed, vertices=(2, 7), edge_density=0.45)
        out.append(gen_random_graft(cfg).graph)
    return out


def _drain(walks):
    """The walks in order, then the error type that ended them, if any."""
    out = []
    try:
        for walk in walks:
            out.append(walk)
    except CapacityError:
        out.append(CapacityError)
    return out


class TestInputErrors:
    """Each malformed id, set or walk the data model rejects, by type and
    message."""

    def test_edge_other_needs_an_end(self):
        with pytest.raises(GraftInputError, match="not an end of edge"):
            Edge("e", "a", "b").other("c")

    @pytest.mark.parametrize("vertex", [1.5, True, None])
    def test_vertex_ids_are_str_or_int(self, vertex):
        with pytest.raises(GraftInputError, match="must be str or int"):
            Multigraph(frozenset({vertex}), ())

    def test_edge_ends_are_vertex_ids(self):
        """An end that only compares equal to a vertex id is refused; an
        int subclass such as an IntEnum member is an int id."""
        for ends in ((True, 2), (2.0, 3), (1, 3.0)):
            with pytest.raises(GraftInputError, match="end .* must be str or int"):
                Multigraph.build([1, 2, 3], [("e", *ends)])
        g = Multigraph.build([3, 7, 9], [("e", Grade.HIGH, 9), ("f", 3, Grade.HIGH)])
        assert g.edge("e").u is Grade.HIGH and g.edge("f").v is Grade.HIGH

    def test_terminals_and_sides_are_vertex_ids(self):
        g = Multigraph.build([1, 2], [("e", 1, 2)])
        for terminals in ({True, 2}, {1, 2.0}):
            with pytest.raises(GraftInputError, match="terminal .* must be str or int"):
                Graft(g, frozenset(terminals))
        with pytest.raises(GraftInputError, match="side vertex True must be str or int"):
            build_bipartite_graft(g, [], spine=[True], tooth=[2])
        with pytest.raises(GraftInputError, match="side vertex 2.0 must be str or int"):
            build_bipartite_graft(g, [], spine=[1], tooth=[2.0])
        g = Multigraph.build([3, 7], [("e", 3, 7)])
        graft = build_bipartite_graft(g, [Grade.LOW, Grade.HIGH],
                                      spine=[Grade.LOW], tooth=[Grade.HIGH])
        assert graft.terminals == graft.graph.vertices == {3, 7}

    def test_edge_ids_are_strings(self):
        """Nonempty ones, as a graft document's must be."""
        for eid in (7, ""):
            with pytest.raises(GraftInputError,
                               match=f"{eid!r} must be a nonempty string"):
                Multigraph.build(["a", "b"], [(eid, "a", "b")])

    def test_unknown_vertex_ids(self):
        g = chain4()
        with pytest.raises(GraftInputError, match="unknown vertex id 'zz'"):
            g.graph.component_of("zz")
        with pytest.raises(GraftInputError, match=r"unknown vertex ids \['zz'\]"):
            g.graph.induced({"a0", "zz"})
        with pytest.raises(GraftInputError, match=r"\['zz'\] are not vertices"):
            validate_graft(g.graph, {"a0", "zz"})
        with pytest.raises(GraftInputError, match=r"unknown vertex ids \['zz'\]"):
            induced_subgraft(g, {"zz"})

    def test_unhashable_ids_are_unknown(self):
        """An unhashable id is refused as an unknown one, as
        ``FactorComponentSet`` refuses it, also where ``f_distance`` and the
        root check of ``is_critical_quasicomb`` look it up."""
        g = chain4()
        with pytest.raises(GraftInputError, match=r"unknown edge id \['c'\]"):
            g.graph.edge(["c"])
        with pytest.raises(GraftInputError, match=r"unknown vertex id \['r'\]"):
            g.graph.component_of(["r"])
        with pytest.raises(GraftInputError, match=r"unknown vertex id \['r'\]"):
            factor_components(g).component_of(["r"])
        with pytest.raises(GraftInputError, match=r"unknown factor-component id \['c'\]"):
            factor_components(g).by_id(["c"])
        with pytest.raises(GraftInputError, match=r"^unknown vertex id \['a'\]$"):
            f_distance(g, ["a"], "b0")
        with pytest.raises(GraftInputError, match=r"^unknown vertex id \['b'\]$"):
            f_distance(g, "a0", ["b"])
        with pytest.raises(GraftInputError, match=r"^unknown vertex id \['r'\]$"):
            is_critical_quasicomb(g, ["r"])

    def test_bipartition_names_unknown_vertices(self):
        g = Multigraph.build(["x", "y"], [("e", "x", "y")])
        with pytest.raises(GraftInputError, match="bipartition names unknown"):
            build_bipartite_graft(g, [], spine=["x", "zz"], tooth=["y"])

    def test_contract_needs_known_nonempty_set(self):
        with pytest.raises(PreconditionError, match="empty vertex set"):
            contract_graft(chain4(), set())
        with pytest.raises(GraftInputError, match="unknown vertex ids"):
            contract_graft(chain4(), {"a0", "zz"})

    def test_malformed_walks(self):
        bundle = Multigraph.build(
            ["a", "b"], [(f"p{i}", "a", "b") for i in range(4)])
        with pytest.raises(GraftInputError, match="repeats an edge"):
            Walk(("a", "b", "a"), ("p0", "p0")).validate(bundle)
        with pytest.raises(GraftInputError, match="circuit repeats a vertex"):
            Walk(("a", "b", "a", "b", "a"),
                 ("p0", "p1", "p2", "p3")).validate(bundle)
        with pytest.raises(GraftInputError, match="path repeats a vertex"):
            Walk(("a", "b", "a", "b"), ("p0", "p1", "p2")).validate(bundle)
        with pytest.raises(PreconditionError, match="expected a circuit"):
            Walk(("a", "b"), ("p0",)).validate(bundle, require="circuit")

    def test_simple_paths_need_known_ends(self):
        g = c4().graph
        with pytest.raises(GraftInputError, match="unknown vertex id 'zz'"):
            list(simple_paths(g, "zz"))
        with pytest.raises(GraftInputError, match="unknown vertex id 'zz'"):
            list(simple_paths(g, "v1", "zz"))


def _p3r_decomposition():
    g = p3r()
    return build_graft_ear_decomposition(g, "r", min_join(g))


# Every public call form that reads a caller's ids against the graph, or
# before it builds one as ``EarStep`` does, by the kind of value it reads:
# one vertex id, a vertex set or an edge set.
# The graft constructors apply the id rule before they look for stray ids,
# so ``validate_graft`` and ``build_bipartite_graft`` take every row.
ID_READERS = [
    ("simple_paths-start", "vertex", lambda v: list(simple_paths(chain4().graph, v))),
    ("simple_paths-goal", "vertex",
     lambda v: list(simple_paths(chain4().graph, "a0", v))),
    ("induced", "vertices", lambda X: chain4().graph.induced(X)),
    ("spanning", "edges", lambda F: chain4().graph.spanning(F)),
    ("contract_graft", "vertices", lambda X: contract_graft(chain4(), X)),
    ("contract_graft-id", "vertex", lambda v: contract_graft(chain4(), {"a0"}, v)),
    ("is_join", "edges", lambda F: is_join(chain4(), F)),
    ("JoinSet", "edges", lambda F: JoinSet(chain4(), F)),
    ("is_minimum_join", "edges", lambda F: is_minimum_join(chain4(), F)),
    ("extract_shortest_path", "edges",
     lambda F: extract_shortest_path(chain4(), F, "a0", "b1")),
    ("is_f_balanced", "edges",
     lambda F: is_f_balanced(chain4(), F, Walk(("a0", "b0"), ("e0",)))),
    ("midvertex", "edges",
     lambda F: midvertex(chain4(), F, Walk(("a0", "b0", "a1"), ("e0", "c")))),
    ("negative_circuit_witness", "edges", lambda F: negative_circuit_witness(chain4(), F)),
    ("Walk.validate", "vertex", lambda v: Walk((v,), ()).validate(chain4().graph)),
    ("EarStep-walk", "vertex",
     lambda v: EarStep(Walk((v, "y"), ("e",)), ("y",), frozenset(), frozenset(),
                       frozenset({"y"}))),
    ("EarStep-bond", "vertex",
     lambda v: EarStep(Walk(("x", "y"), ("e",)), (v,), frozenset(),
                       frozenset({"x"}), frozenset({"y"}))),
    ("build_graft_ear_decomposition", "edges",
     lambda F: build_graft_ear_decomposition(p3r(), "r", F)),
    ("verify_graft_ear_decomposition", "edges",
     lambda F: verify_graft_ear_decomposition(_p3r_decomposition(), F)),
    ("is_separating", "vertices", lambda X: is_separating(chain4(), X)),
    ("induced_subgraft", "vertices", lambda X: induced_subgraft(chain4(), X)),
    ("is_critical_set", "vertices", lambda X: is_critical_set(chain4(), "a0", X)),
    ("union_criticality_check-X", "vertices",
     lambda X: union_criticality_check(chain4(), "a0", "a1", "a1", X, {"a1", "b1"})),
    ("union_criticality_check-Y", "vertices",
     lambda Y: union_criticality_check(chain4(), "a0", "a1", "a1", {"a0", "b0"}, Y)),
    ("class_id_of", "vertex", lambda v: kl_partition(chain4()).class_id_of(v)),
    ("same_class", "vertex", lambda v: kl_partition(chain4()).same_class("a0", v)),
    ("validate_graft", "vertices", lambda X: validate_graft(chain4().graph, X)),
    ("build_bipartite_graft-terminals", "vertices",
     lambda X: build_bipartite_graft(chain4().graph, X, ["a0", "a1"], ["b0", "b1"])),
    ("build_bipartite_graft-spine", "vertices",
     lambda X: build_bipartite_graft(chain4().graph, [], X, ["b0", "b1"])),
    ("build_bipartite_graft-tooth", "vertices",
     lambda X: build_bipartite_graft(chain4().graph, [], ["a0", "a1"], X)),
]
# (argument, the id it must name): an unhashable id, and for a set a
# hashable non-id beside an unknown one.
BAD_IDS = {
    "vertex": [(["a"], ["a"])],
    "vertices": [([["a"]], ["a"]), ({1.5, "zz"}, 1.5)],
    "edges": [([["a"]], ["a"]), ({1, "zz"}, 1)],
}


@pytest.mark.parametrize("call, argument, named", [
    pytest.param(call, argument, named, id=f"{label}-{named!r}")
    for label, kind, call in ID_READERS for argument, named in BAD_IDS[kind]
] + [
    # A look-alike that equals a vertex id is refused, not built in.
    pytest.param(lambda X: Multigraph.build([1, 2, 3], [("e", 1, 2)]).induced(X),
                 {True, 2}, True, id="induced-look-alike"),
])
def test_every_id_reader_refuses_a_non_id(call, argument, named):
    with pytest.raises(GraftInputError, match=re.escape(repr(named))):
        call(argument)


class TestWalkOrderOracle:
    def test_paths_match_the_recursive_order(self):
        for g in _walk_corpus():
            for start in g.vertices:
                for goal in (None, *g.vertices):
                    for cap in (None, 3):
                        assert _drain(simple_paths(g, start, goal, cap)) == \
                            _drain(recursive_simple_paths(g, start, goal, cap))

    def test_circuits_match_the_recursive_order(self):
        for g in _walk_corpus():
            for max_edges in (None, 3, 4):
                assert list(simple_circuits(g, max_edges)) == \
                    list(recursive_simple_circuits(g, max_edges))

    def test_paths_longer_than_the_recursion_limit(self):
        n = sys.getrecursionlimit() + 50
        g = path2(n).graph
        (path,) = simple_paths(g, 0, goal=n - 1)
        assert path.vertices == tuple(range(n))
        assert sum(1 for _ in simple_paths(g, 0)) == n
        cycle = Multigraph.build(range(n), [(f"p{i}", i, (i + 1) % n)
                                            for i in range(n)])
        (circuit,) = simple_circuits(cycle)
        assert len(circuit.edge_ids) == n
