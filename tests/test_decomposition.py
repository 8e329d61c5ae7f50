"""Factor components, separating sets, and the distance-zero partition."""

import gc
import random
import weakref

import pytest

from bigraft import core, decomposition
from bigraft.core import GraftInputError, InternalConsistencyError
from bigraft.decomposition import (
    factor_components,
    is_separating,
    kl_classes_of_component,
    kl_partition,
)
from bigraft.generators import (
    GenConfig,
    gen_random_comb,
    gen_random_critical_quasicomb,
    gen_random_graft,
)
from bigraft.instances import c4, chain4, k2, p3r
from bigraft.joins import (
    all_min_joins,
    allowed_edge_set,
    f_distance_int,
    f_distance_reader,
    nu,
)
from oracles import brute_allowed


class TestAllowedEdgeSet:
    def test_k2(self):
        assert allowed_edge_set(k2()) == {"e"}

    def test_c4_all_allowed(self):
        assert allowed_edge_set(c4()) == {"f1", "f2", "f3", "f4"}

    def test_chain4_bridge_not_allowed(self):
        assert allowed_edge_set(chain4()) == {"e0", "e1"}

    def test_matches_brute_union(self):
        for g in (k2(), c4(), chain4(), p3r()):
            union = frozenset().union(*all_min_joins(g)) if all_min_joins(g) else frozenset()
            assert allowed_edge_set(g) == frozenset(
                eid for eid in g.graph.edge_ids() if brute_allowed(g, eid))
            assert allowed_edge_set(g) == union


class TestFactorComponents:
    def test_chain4_two_components(self):
        comps = factor_components(chain4())
        assert comps.vertex_sets() == (frozenset({"a0", "b0"}), frozenset({"a1", "b1"}))
        assert comps.ids() == ("a0", "a1")

    def test_c4_single_component(self):
        comps = factor_components(c4())
        assert len(comps) == 1
        assert comps.components[0].vertices == {"v1", "v2", "v3", "v4"}
        assert comps.components[0].id == "v1"

    def test_p3r_isolated_root(self):
        comps = factor_components(p3r())
        assert comps.vertex_sets() == (frozenset({"a1", "b1"}), frozenset({"r"}))

    def test_subgraph_keeps_only_allowed_edges(self):
        g = chain4()
        front = factor_components(g).by_id("a0")
        inside = {e.id for e in g.graph.induced(front.vertices).edges}
        assert allowed_edge_set(g) & inside == {"e0"}
        assert front.subgraph.edge_ids() == {"e0"}

    def test_component_lookup(self):
        comps = factor_components(chain4())
        assert comps.component_of("b1").id == "a1"
        assert [comps.by_id(cid) for cid in comps.ids()] == list(comps)
        with pytest.raises(GraftInputError):
            comps.by_id("zz")
        with pytest.raises(GraftInputError, match=r"id \['a1'\]"):
            comps.by_id(["a1"])
        with pytest.raises(GraftInputError):
            comps.component_of("zz")

    def test_component_of_reads_the_vertex_map(self):
        """Every vertex finds the one component holding it, and an unknown
        or unhashable vertex is refused as ``by_id`` refuses an id."""
        rng = random.Random(5)
        for _ in range(20):
            g = gen_random_comb(GenConfig(vertices=(4, 14)), rng)
            comps = factor_components(g)
            for v in g.graph.vertices:
                (want,) = [c for c in comps if v in c.vertices]
                assert comps.component_of(v) is want
                assert comps.components[comps.position[v]] is want
        for v in ("zz", -1, ["a1"], {"a1"}):
            with pytest.raises(GraftInputError, match="unknown vertex id"):
                comps.component_of(v)


class TestIsSeparating:
    def test_chain4_first_component(self):
        ok, witness = is_separating(chain4(), {"a0", "b0"})
        assert ok
        assert witness == ("a0",)

    def test_chain4_diagonal_is_not(self):
        ok, witness = is_separating(chain4(), {"a0", "a1"})
        assert not ok
        assert set(witness) == {"a0", "a1"}

    def test_empty_set_separates(self):
        ok, witness = is_separating(chain4(), set())
        assert ok
        assert witness == ()

    def test_whole_vertex_set(self):
        g = p3r()
        ok, witness = is_separating(g, g.graph.vertices)
        assert ok
        assert witness == ("a1", "r")

    def test_unknown_vertex(self):
        with pytest.raises(GraftInputError):
            is_separating(k2(), {"zz"})

    def test_cut_property_on_references(self):
        # no minimum join crosses the boundary of a separating set
        for g in (chain4(), p3r()):
            comps = factor_components(g)
            for comp in comps:
                boundary = {e.id for e in g.graph.edges
                            if (e.u in comp.vertices) != (e.v in comp.vertices)}
                for F in all_min_joins(g):
                    assert not (F & boundary)


def all_classes(part) -> set:
    return {cls for _, classes in part.by_component for cls in classes}


def seeded_targets():
    """Seeds 0-29 of each generator: grafts, combs and the targets of grown
    critical quasicombs."""
    for seed in range(30):
        cfg = GenConfig(seed=seed)
        yield gen_random_graft(cfg)
        yield gen_random_comb(cfg)
        yield gen_random_critical_quasicomb(cfg)[0].target


class TestKLPartition:
    def test_c4(self):
        part = kl_partition(c4())
        assert all_classes(part) == {
            frozenset({"v1", "v3"}), frozenset({"v2"}), frozenset({"v4"})}

    def test_k2(self):
        part = kl_partition(k2())
        assert all_classes(part) == {frozenset({"a"}), frozenset({"b"})}

    def test_chain4_all_singletons(self):
        part = kl_partition(chain4())
        assert all_classes(part) == {
            frozenset({"a0"}), frozenset({"b0"}), frozenset({"a1"}), frozenset({"b1"})}

    def test_lookup_maps(self):
        part = kl_partition(c4())
        assert part.class_id_of("v3") == "v1"
        assert frozenset({"v1", "v3"}) in kl_classes_of_component(part, "v1")
        assert part.same_class("v1", "v3")
        assert not part.same_class("v1", "v2")
        with pytest.raises(GraftInputError):
            part.class_id_of("zz")

    def test_each_class_id_taken_once(self, monkeypatch):
        calls = []

        def counted(name):
            def wrapped(vs):
                calls.append(name)
                return getattr(core, name)(vs)
            return wrapped

        for name in ("least_vertex", "sorted_vertices"):
            monkeypatch.setattr(decomposition, name, counted(name))
        big, small = frozenset(range(1, 400)), frozenset({"x", 0})
        part = decomposition.KLPartition(((1, (big,)), (0, (small,))))
        assert calls == ["least_vertex", "least_vertex"]
        assert kl_classes_of_component(part, 1) == (big,)
        assert part.class_id_of(7) == 1
        assert kl_classes_of_component(part, 0) == (small,)
        assert part.class_id_of("x") == 0

    def test_classes_refine_components(self):
        for g in (c4(), chain4(), p3r(), *seeded_targets()):
            part = kl_partition(g)
            comps = factor_components(g)
            assert tuple(cid for cid, _ in part.by_component) == comps.ids()
            for comp, (cid, classes) in zip(comps, part.by_component):
                assert frozenset().union(*classes) == comp.vertices
                for cls in classes:
                    assert cls <= comp.vertices
                assert kl_classes_of_component(part, cid) is classes

    def test_classes_are_the_distance_zero_relation(self):
        for seed in range(30):
            g = gen_random_graft(GenConfig(seed=seed, vertices=(4, 9)))
            part = kl_partition(g)
            for comp in factor_components(g):
                want = {frozenset(w for w in comp.vertices
                                  if f_distance_int(g, v, w) == 0)
                        for v in comp.vertices}
                assert set(kl_classes_of_component(part, comp.id)) == want

    def test_reads_each_pair_once(self, monkeypatch):
        calls = []

        def counted_reader(g):
            read = f_distance_reader(g)

            def counted(u, v):
                calls.append(frozenset((u, v)))
                assert read(u, v) == f_distance_int(g, u, v)
                return read(u, v)
            return counted

        monkeypatch.setattr(decomposition, "f_distance_reader", counted_reader)
        rng = random.Random(7)
        for _ in range(10):
            g = gen_random_graft(GenConfig(vertices=(4, 9)), rng)
            calls.clear()
            kl_partition(g)
            pairs = sum(len(c.vertices) * (len(c.vertices) - 1) // 2
                        for c in factor_components(g))
            assert len(calls) == len(set(calls)) == pairs

    def test_a_non_transitive_relation_is_caught(self, monkeypatch):
        # v1 ~ v2 and v2 ~ v3 but not v1 ~ v3: v3 joins v1's class through
        # v2, and its pair with v1 fails the audit.
        zero = {frozenset({"v1", "v2"}), frozenset({"v2", "v3"})}
        monkeypatch.setattr(decomposition, "f_distance_reader",
                            lambda g: lambda u, v: 0 if {u, v} in zero else -1)
        with pytest.raises(InternalConsistencyError,
                           match=r"not an equivalence at \('v1', 'v3'\)"):
            kl_partition(c4())


class TestKLClassesOfComponent:
    def test_c4(self):
        part = kl_partition(c4())
        assert len(kl_classes_of_component(part, "v1")) == 3

    def test_chain4(self):
        part = kl_partition(chain4())
        assert set(kl_classes_of_component(part, "a0")) == {
            frozenset({"a0"}), frozenset({"b0"})}

    def test_singleton_component(self):
        part = kl_partition(p3r())
        assert kl_classes_of_component(part, "r") == (frozenset({"r"}),)

    def test_unknown_id(self):
        part = kl_partition(c4())
        with pytest.raises(GraftInputError):
            kl_classes_of_component(part, "zz")


class TestCombSpecialization:
    def test_spine_side_is_one_class_per_component(self):
        # in a comb, the spine vertices of each factor component form
        # exactly one distance-zero class
        for g in (k2(), c4(), chain4()):
            part = kl_partition(g)
            comps = factor_components(g)
            for comp in comps:
                spine_side = comp.vertices & g.spine
                if not spine_side:
                    continue
                ids = {part.class_id_of(v) for v in spine_side}
                assert len(ids) == 1
                assert spine_side in kl_classes_of_component(part, comp.id)

    def test_comb_distance_table_values(self):
        from bigraft.joins import f_distance_int
        for g in (k2(), c4(), chain4()):
            comps = factor_components(g)
            for comp in comps:
                for u in comp.vertices:
                    for v in comp.vertices:
                        d = f_distance_int(g, u, v)
                        if u in g.spine and v in g.spine:
                            assert d == 0
                        elif (u in g.spine) != (v in g.spine):
                            assert d == -1
                        else:
                            assert d in (0, -2)


class TestDerivedStateLifetime:
    def test_no_graph_outlives_its_last_reference(self):
        g = c4()
        factor_components(g)
        kl_partition(g)
        assert nu(g) == 2
        graph = weakref.ref(g.graph)
        del g
        gc.collect()
        assert graph() is None
