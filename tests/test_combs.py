"""Comb classification, criticality, ear steps, and decompositions."""

import hashlib
import json
import random
import sys
import weakref
from collections import Counter
from dataclasses import fields
from unittest.mock import patch

import pytest

from bigraft import combs, core, joins
from bigraft.core import (
    GraftInputError,
    GraftValidationError,
    InternalConsistencyError,
    Multigraph,
    OrderedBipartiteGraft,
    PreconditionError,
    Walk,
    graft_sum,
    is_join,
)
from bigraft.combs import (
    CombClassification,
    EarStep,
    GraftEarDecomposition,
    StepViolation,
    bare_root,
    build_graft_ear_decomposition,
    classify_comb,
    ear_step,
    is_critical_quasicomb,
    is_f_balanced,
    midvertex,
    validate_ear_step,
    verify_graft_ear_decomposition,
)
from bigraft.decomposition import factor_components
from bigraft.formats import decomposition_document
from bigraft.generators import GenConfig, gen_random_critical_quasicomb
from bigraft.instances import c4, chain4, comb_path, k2, p3r
from bigraft.joins import extract_shortest_path, f_distance_int, min_join
from bigraft.core import Graft

from oracles import obg


def square():
    """A four-cycle hung on the root: r-a1-b1-a2-r, join edge a1-b1."""
    return obg(["r", "a1", "b1", "a2"],
               [("c1", "r", "a1"), ("e1", "a1", "b1"),
                ("c2", "b1", "a2"), ("c3", "a2", "r")],
               {"a1", "b1"}, {"a1", "a2"}, {"r", "b1"})


def parallel_pair():
    """Root plus a parallel pair: two a1-b1 edges, one of them join."""
    return obg(["r", "a1", "b1"],
               [("c", "r", "a1"), ("d", "a1", "b1"), ("e", "a1", "b1")],
               {"a1", "b1"}, {"a1"}, {"r", "b1"})


def outward_stub():
    """Quasicomb whose tooth vertex pairs away from the root; not critical."""
    return obg(["r", "a1", "b1", "a2"],
               [("c1", "r", "a1"), ("c2", "a1", "b1"), ("e1", "b1", "a2")],
               {"a2", "b1"}, {"a1", "a2"}, {"r", "b1"})


def singleton(v="r"):
    return obg([v], [], set(), set(), {v})


class TestClassify:
    def test_reference_kinds(self):
        assert classify_comb(k2()).kind == "comb"
        assert classify_comb(c4()).kind == "comb"
        assert classify_comb(chain4()).kind == "comb"
        assert classify_comb(p3r()).kind == "quasicomb-not-comb"

    def test_neither(self):
        base = c4()
        swapped = OrderedBipartiteGraft(base.graph, frozenset({"v1", "v3"}),
                                        frozenset({"v1", "v3"}),
                                        frozenset({"v2", "v4"}))
        cls = classify_comb(swapped)
        assert cls.kind == "neither"
        assert not cls.is_quasicomb

    def test_fields(self):
        cls = classify_comb(p3r())
        assert cls == CombClassification("quasicomb-not-comb",
                                         frozenset({"a1"}),
                                         frozenset({"r", "b1"}), 1)
        assert cls.is_quasicomb and not cls.is_comb
        assert classify_comb(k2()).is_comb

    def test_requires_bipartite(self):
        g = k2()
        with pytest.raises(PreconditionError):
            classify_comb(Graft(g.graph, g.terminals))


class TestBalanced:
    def test_c4_circuit_both_joins(self):
        g = c4()
        circuit = Walk(("v1", "v2", "v3", "v4", "v1"), ("f1", "f2", "f3", "f4"))
        assert is_f_balanced(g, {"f1", "f4"}, circuit)
        assert is_f_balanced(g, {"f2", "f3"}, circuit)

    def test_tooth_vertex_with_two_edges(self):
        g = c4()
        path = Walk(("v3", "v4", "v1"), ("f3", "f4"))
        assert not is_f_balanced(g, {"f3", "f4"}, path)

    def test_spine_vertices_unconstrained(self):
        g = chain4()
        path = Walk(("b0", "a1", "b1"), ("c", "e1"))
        assert is_f_balanced(g, {"e0", "e1"}, path)

    def test_ear_counts_internal_vertices_only(self):
        g = parallel_pair()
        ear = EarStep(Walk(("a1", "b1", "a1"), ("e", "d")), ("a1",),
                      frozenset({"a1", "b1"}), frozenset({"a1"}),
                      frozenset({"b1"}))
        assert is_f_balanced(g, {"d"}, ear)
        assert not is_f_balanced(g, frozenset(), ear)

    def test_ear_free_tooth_end_not_counted(self):
        g = p3r()
        ear = EarStep(Walk(("b1", "a1"), ("e1",)), ("a1",),
                      frozenset({"a1", "b1"}), frozenset({"a1"}),
                      frozenset({"b1"}))
        assert is_f_balanced(g, frozenset(), ear)


class TestMidvertex:
    def test_p3r(self):
        g = p3r()
        assert midvertex(g, {"e1"}, Walk(("b1", "a1", "r"), ("e1", "c"))) == "r"

    def test_chain4(self):
        g = chain4()
        walk = Walk(("b0", "a1", "b1"), ("c", "e1"))
        assert midvertex(g, {"e0", "e1"}, walk) == "b0"

    def test_end_must_be_tooth(self):
        g = chain4()
        with pytest.raises(PreconditionError):
            midvertex(g, {"e0", "e1"}, Walk(("a0", "b0"), ("e0",)))

    def test_weight_must_be_zero(self):
        g = square()
        with pytest.raises(PreconditionError, match="must have F-weight zero"):
            midvertex(g, {"e1"}, Walk(("b1", "a2", "r"), ("c2", "c3")))

    def test_circuit_rejected(self):
        g = c4()
        circuit = Walk(("v2", "v3", "v4", "v1", "v2"), ("f2", "f3", "f4", "f1"))
        with pytest.raises(PreconditionError):
            midvertex(g, {"f2", "f3"}, circuit)

    def test_nonunique_raises(self):
        g = obg(["b1", "a1", "b2", "a2", "b3"],
                [("e1", "b1", "a1"), ("c1", "a1", "b2"),
                 ("c2", "b2", "a2"), ("e2", "a2", "b3")],
                {"a1", "a2"}, {"a1", "a2"}, {"b1", "b2", "b3"})
        walk = Walk(("b1", "a1", "b2", "a2", "b3"), ("e1", "c1", "c2", "e2"))
        with pytest.raises(InternalConsistencyError):
            midvertex(g, {"c1", "c2"}, walk)

    def test_chain_of_two_joins(self):
        g = obg(["b1", "a1", "b2", "a2", "b3"],
                [("e1", "b1", "a1"), ("c1", "a1", "b2"),
                 ("c2", "b2", "a2"), ("e2", "a2", "b3")],
                {"a1", "b1", "a2", "b3"}, {"a1", "a2"}, {"b1", "b2", "b3"})
        walk = Walk(("b1", "a1", "b2", "a2", "b3"), ("e1", "c1", "c2", "e2"))
        assert midvertex(g, {"e1", "e2"}, walk) == "b2"


class TestCriticality:
    def test_p3r_exact(self):
        rep = is_critical_quasicomb(p3r(), "r")
        assert rep.critical
        assert rep.table == (("a1", 1), ("b1", 0), ("r", 0))
        assert dict(rep.table)["a1"] == 1
        assert rep.problems == ()

    def test_singleton(self):
        g = singleton()
        assert is_critical_quasicomb(g, "r").critical

    def test_k2_root_is_terminal(self):
        rep = is_critical_quasicomb(k2(), "b")
        assert not rep.critical
        assert dict(rep.table)["a"] == -1
        assert rep.problems == (
            "distance from 'a' to the root is -1, expected 1",)

    def test_square_and_parallel(self):
        for g in (square(), parallel_pair()):
            assert is_critical_quasicomb(g, "r").critical

    def test_outward_stub_not_critical(self):
        exact = is_critical_quasicomb(outward_stub(), "r")
        assert not exact.critical
        assert dict(exact.table)["b1"] == 2

    def test_tooth_not_terminal_premise(self):
        g = obg(["r", "a1", "b1"], [("c", "r", "a1"), ("d", "a1", "b1")],
                set(), {"a1"}, {"r", "b1"})
        rep = is_critical_quasicomb(g, "r")
        assert not rep.critical
        assert dict(rep.table)["b1"] == 2
        assert rep.problems == (
            "distance from 'b1' to the root is 2, expected 0",)

    def test_disconnected(self):
        g = obg(["r", "a1", "b1", "b2"],
                [("c", "r", "a1"), ("e1", "a1", "b1")],
                {"a1", "b1"}, {"a1"}, {"r", "b1", "b2"})
        rep = is_critical_quasicomb(g, "r")
        assert not rep.critical
        assert dict(rep.table)["b2"] is None
        assert rep.problems == (
            "distance from 'b2' to the root is unreachable, expected 0",)

    def test_root_must_be_tooth(self):
        with pytest.raises(PreconditionError):
            is_critical_quasicomb(p3r(), "a1")

    def test_non_quasicomb_rejected(self):
        base = c4()
        swapped = OrderedBipartiteGraft(base.graph, frozenset({"v1", "v3"}),
                                        frozenset({"v1", "v3"}),
                                        frozenset({"v2", "v4"}))
        with pytest.raises(PreconditionError):
            is_critical_quasicomb(swapped, "v2")


class TestDeepCombPath:
    """The comb path r-a0-b0-..., deeper than the recursion limit at k = 1200."""

    @pytest.mark.parametrize("k", [100, 1200])
    def test_critical_with_one_factor_component_per_pair(self, k):
        g = comb_path(k)
        if k == 1200:
            assert len(g.graph.vertices) == 2401 > sys.getrecursionlimit()
        report = is_critical_quasicomb(g, "r")
        assert report.critical
        assert dict(report.table)[f"a{k - 1}"] == 1
        assert dict(report.table)[f"b{k - 1}"] == 0
        comps = factor_components(g)
        assert len(comps.components) == k + 1
        assert comps.component_of(f"a{k - 1}").vertices == {f"a{k - 1}", f"b{k - 1}"}


class TestEarStep:
    def test_straight(self):
        step = EarStep(Walk(("a1", "r"), ("c",)), ("r",), frozenset(),
                       frozenset({"a1"}), frozenset({"r"}))
        assert step.kind == "straight"
        assert step.internal_vertices == frozenset({"a1"})
        assert step.is_effective
        g = step.as_graft()
        assert g.terminals == frozenset()
        assert g.tooth == frozenset({"r"})

    def test_round_path(self):
        step = EarStep(Walk(("a2", "b1", "a1"), ("c2", "e1")), ("a1", "a2"),
                       frozenset({"a1", "b1"}), frozenset({"a1", "a2"}),
                       frozenset({"b1"}))
        assert step.kind == "round"
        assert step.bonds == ("a1", "a2")
        assert step.internal_vertices == frozenset({"b1"})

    def test_circuit(self):
        step = EarStep(Walk(("a1", "b1", "a1"), ("e", "d")), ("a1",),
                       frozenset({"a1", "b1"}), frozenset({"a1"}),
                       frozenset({"b1"}))
        assert step.kind == "round"
        assert step.walk.closed
        assert step.internal_vertices == frozenset({"b1"})

    def test_more_edge_ids_than_steps(self):
        with pytest.raises(GraftInputError, match="do not line up"):
            EarStep(Walk(("a1", "r"), ("c", "d")), ("r",), frozenset(),
                    frozenset({"a1"}), frozenset({"r"}))

    def test_needs_an_edge(self):
        with pytest.raises(GraftInputError):
            EarStep(Walk(("r",), ()), ("r",), frozenset(), frozenset(),
                    frozenset({"r"}))

    def test_straight_bond_must_be_last(self):
        with pytest.raises(GraftInputError):
            EarStep(Walk(("a1", "r"), ("c",)), ("a1",), frozenset(),
                    frozenset({"a1"}), frozenset({"r"}))

    def test_one_or_two_distinct_bonds(self):
        with pytest.raises(GraftInputError, match="one or two distinct bonds"):
            EarStep(Walk(("a2", "b1", "a1"), ("c2", "e1")), ("a1", "a2", "b1"),
                    frozenset({"a1", "b1"}), frozenset({"a1", "a2"}),
                    frozenset({"b1"}))
        with pytest.raises(GraftInputError, match="one or two distinct bonds"):
            EarStep(Walk(("a1", "r"), ("c",)), ("r", "r"), frozenset(),
                    frozenset({"a1"}), frozenset({"r"}))

    def test_circuit_bond_must_be_first(self):
        with pytest.raises(GraftInputError, match="must start at its bond"):
            EarStep(Walk(("a1", "b1", "a1"), ("e", "d")), ("b1",),
                    frozenset({"a1", "b1"}), frozenset({"a1"}),
                    frozenset({"b1"}))

    def test_round_bonds_at_both_ends(self):
        with pytest.raises(GraftInputError):
            EarStep(Walk(("a2", "b1", "a1"), ("c2", "e1")), ("a2", "b1"),
                    frozenset({"a1", "b1"}), frozenset({"a1", "a2"}),
                    frozenset({"b1"}))

    def test_sides_must_alternate(self):
        with pytest.raises(GraftValidationError):
            EarStep(Walk(("a1", "r"), ("c",)), ("r",), frozenset(),
                    frozenset(), frozenset({"a1", "r"}))

    def test_sides_must_cover(self):
        with pytest.raises(GraftValidationError):
            EarStep(Walk(("a1", "r"), ("c",)), ("r",), frozenset(),
                    frozenset(), frozenset({"r"}))

    def test_terminal_parity(self):
        with pytest.raises(GraftValidationError):
            EarStep(Walk(("a1", "r"), ("c",)), ("r",), frozenset({"a1"}),
                    frozenset({"a1"}), frozenset({"r"}))

    def test_sides_must_not_overlap(self):
        with pytest.raises(GraftValidationError):
            EarStep(Walk(("a1", "r"), ("c",)), ("r",), frozenset(),
                    frozenset({"a1", "r"}), frozenset({"r"}))

    def test_sides_must_stay_on_walk(self):
        with pytest.raises(GraftValidationError):
            EarStep(Walk(("a1", "r"), ("c",)), ("r",), frozenset(),
                    frozenset({"a1", "zz"}), frozenset({"r"}))

    def test_terminals_on_walk(self):
        with pytest.raises(GraftInputError):
            EarStep(Walk(("a1", "r"), ("c",)), ("r",),
                    frozenset({"a1", "zz"}), frozenset({"a1"}),
                    frozenset({"r"}))

    def test_effectiveness(self):
        ineffective = EarStep(Walk(("a1", "r"), ("c",)), ("r",),
                              frozenset({"a1", "r"}), frozenset({"a1"}),
                              frozenset({"r"}))
        assert not ineffective.is_effective
        spine_bond = EarStep(Walk(("b1", "a1"), ("e1",)), ("a1",),
                             frozenset(), frozenset({"a1"}),
                             frozenset({"b1"}))
        assert not spine_bond.is_effective
        good = EarStep(Walk(("b1", "a1"), ("e1",)), ("a1",),
                       frozenset({"a1", "b1"}), frozenset({"a1"}),
                       frozenset({"b1"}))
        assert good.is_effective


class TestEarStepConstructor:
    """``ear_step`` reads a step off the graft it grows: terminals from the
    walk's edges in the join, the tooth side from the tooth pool."""

    def test_straight_ears_on_the_square(self):
        g = square()
        assert ear_step(("a1", "r"), ("c1",), ("r",), {"e1"}, g.tooth) == \
            EarStep(Walk(("a1", "r"), ("c1",)), ("r",), frozenset(),
                    frozenset({"a1"}), frozenset({"r"}))
        assert ear_step(("b1", "a1"), ("e1",), ("a1",), {"e1"}, g.tooth) == \
            EarStep(Walk(("b1", "a1"), ("e1",)), ("a1",),
                    frozenset({"a1", "b1"}), frozenset({"a1"}),
                    frozenset({"b1"}))

    def test_round_path_on_the_square(self):
        g = square()
        step = ear_step(("a2", "b1", "a1"), ("c2", "e1"), ("a2", "a1"),
                        {"e1"}, g.tooth)
        assert step == EarStep(Walk(("a2", "b1", "a1"), ("c2", "e1")),
                               ("a1", "a2"), frozenset({"a1", "b1"}),
                               frozenset({"a1", "a2"}), frozenset({"b1"}))
        assert step.kind == "round" and step.bonds == ("a1", "a2")

    def test_circuit_on_the_parallel_pair(self):
        g = parallel_pair()
        step = ear_step(("a1", "b1", "a1"), ("e", "d"), ("a1",), {"d"},
                        g.tooth)
        assert step == EarStep(Walk(("a1", "b1", "a1"), ("e", "d")), ("a1",),
                               frozenset({"a1", "b1"}), frozenset({"a1"}),
                               frozenset({"b1"}))
        assert step.walk.closed

    def test_new_tooth_vertices_come_from_the_pool(self):
        """The generator's case: the walk runs off the base, whose tooth
        side plus the drawn new teeth make the pool, and the join is the
        step's own share."""
        base = bare_root("r")
        step = ear_step(("b1", "a1", "r"), ("e2", "e1"), ("r",), {"e2"},
                        base.tooth | {"b1"})
        assert step == EarStep(Walk(("b1", "a1", "r"), ("e2", "e1")), ("r",),
                               frozenset({"a1", "b1"}), frozenset({"a1"}),
                               frozenset({"r", "b1"}))

    @pytest.mark.parametrize("seed", range(6))
    def test_every_grown_and_built_step_is_read_off_the_target(self, seed):
        d, F = gen_random_critical_quasicomb(
            GenConfig(vertices=(8, 14)), random.Random(seed))
        built = build_graft_ear_decomposition(d.target, "r", F)
        for step in d.steps + built.steps:
            assert step == ear_step(step.walk.vertices, step.walk.edge_ids,
                                    step.bonds, F, d.target.tooth)


class TestValidateEarStep:
    def test_clean_first_step(self):
        base = singleton()
        step = EarStep(Walk(("a1", "r"), ("c",)), ("r",), frozenset(),
                       frozenset({"a1"}), frozenset({"r"}))
        ok, violations = validate_ear_step(base, step)
        assert ok and violations == ()

    def test_bond_outside_support(self):
        base = singleton()
        step = EarStep(Walk(("b1", "a1"), ("e1",)), ("a1",),
                       frozenset({"a1", "b1"}), frozenset({"a1"}),
                       frozenset({"b1"}))
        ok, violations = validate_ear_step(base, step)
        assert not ok
        assert any(v.code == "bond-outside-support" and v.fatal
                   for v in violations)

    def test_internal_vertex_in_support(self):
        base = p3r()
        step = EarStep(Walk(("a1", "r"), ("c9",)), ("r",), frozenset(),
                       frozenset({"a1"}), frozenset({"r"}))
        ok, violations = validate_ear_step(base, step)
        assert any(v.code == "internal-vertex-in-support" and v.fatal
                   for v in violations)

    def test_edge_id_reused(self):
        base = p3r()
        step = EarStep(Walk(("a2", "r"), ("c",)), ("r",), frozenset(),
                       frozenset({"a2"}), frozenset({"r"}))
        ok, violations = validate_ear_step(base, step)
        assert any(v.code == "edge-id-reused" and v.fatal for v in violations)

    def test_side_conflict(self):
        base = singleton()
        step = EarStep(Walk(("r", "x1"), ("c",)), ("x1",), frozenset(),
                       frozenset({"r"}), frozenset({"x1"}))
        ok, violations = validate_ear_step(base, step)
        assert any(v.code == "side-conflict" and v.fatal for v in violations)

    def test_internal_tooth_not_terminal(self):
        base = obg(["r", "a1", "a2"], [("c1", "r", "a1"), ("c3", "a2", "r")],
                   set(), {"a1", "a2"}, {"r"})
        step = EarStep(Walk(("a2", "b1", "a1"), ("c2", "e1")), ("a1", "a2"),
                       frozenset(), frozenset({"a1", "a2"}),
                       frozenset({"b1"}))
        ok, violations = validate_ear_step(base, step)
        assert not ok
        offence = [v for v in violations
                   if v.code == "internal-tooth-not-terminal"]
        assert offence and not offence[0].fatal

    def test_bond_tooth_terminal(self):
        base = singleton()
        step = EarStep(Walk(("a1", "r"), ("c",)), ("r",),
                       frozenset({"a1", "r"}), frozenset({"a1"}),
                       frozenset({"r"}))
        ok, violations = validate_ear_step(base, step)
        codes = {v.code for v in violations}
        assert "bond-tooth-terminal" in codes
        assert all(not v.fatal for v in violations)

    def test_ineffective_straight(self):
        base = obg(["r", "a1"], [("c", "r", "a1")], set(), {"a1"}, {"r"})
        step = EarStep(Walk(("b1", "a1"), ("e1",)), ("a1",), frozenset(),
                       frozenset({"a1"}), frozenset({"b1"}))
        ok, violations = validate_ear_step(base, step)
        assert any(v.code == "ineffective-step" and not v.fatal
                   for v in violations)


class TestBuilder:
    def test_p3r_steps(self):
        g = p3r()
        d = build_graft_ear_decomposition(g, "r", min_join(g))
        assert len(d.steps) == 2
        first, second = d.steps
        assert first.walk == Walk(("a1", "r"), ("c",))
        assert first.bonds == ("r",) and first.terminals == frozenset()
        assert second.walk == Walk(("b1", "a1"), ("e1",))
        assert second.bonds == ("a1",)
        assert second.terminals == frozenset({"a1", "b1"})
        assert d.replay() == g

    def test_square_round_ear(self):
        g = square()
        d = build_graft_ear_decomposition(g, "r", min_join(g))
        kinds = [s.kind for s in d.steps]
        assert kinds == ["straight", "straight", "round"]
        last = d.steps[-1]
        assert last.bonds == ("a1", "a2")
        assert last.terminals == frozenset({"a1", "b1"})
        assert not last.walk.closed
        assert d.replay() == g

    def test_parallel_circuit_ear(self):
        g = parallel_pair()
        d = build_graft_ear_decomposition(g, "r", min_join(g))
        assert [s.kind for s in d.steps] == ["straight", "round"]
        assert d.steps[-1].walk.closed
        assert d.steps[-1].bonds == ("a1",)
        assert d.replay() == g

    def test_star_prefers_round_over_join_edge(self):
        g = obg(["r", "a1", "a2", "b1"],
                [("c1", "r", "a1"), ("c2", "r", "a2"),
                 ("d", "a2", "b1"), ("e1", "a1", "b1")],
                {"a1", "b1"}, {"a1", "a2"}, {"r", "b1"})
        d = build_graft_ear_decomposition(g, "r", min_join(g))
        assert [s.kind for s in d.steps] == ["straight", "straight", "round"]
        round_ear = d.steps[-1]
        assert round_ear.walk == Walk(("a2", "b1", "a1"), ("d", "e1"))
        assert round_ear.terminals == frozenset({"a1", "b1"})
        assert d.replay() == g

    def test_leftover_support_edge(self):
        g = obg(["r", "a1", "b1", "a2"],
                [("c1", "r", "a1"), ("e1", "a1", "b1"), ("c2", "b1", "a2"),
                 ("c3", "a2", "r"), ("d", "a1", "b1")],
                {"a1", "b1"}, {"a1", "a2"}, {"r", "b1"})
        F = min_join(g)
        d = build_graft_ear_decomposition(g, "r", F)
        leftover = d.steps[-1]
        assert leftover.kind == "round"
        spare = {"d", "e1"} - set(F.edge_ids)
        assert set(leftover.walk.edge_ids) == spare
        assert leftover.terminals == frozenset()
        assert d.replay() == g

    @pytest.mark.parametrize("names, internal", [
        (("r", "x1", "b1", "x2"), Walk(("b1", "x1"), ("e1",))),
        ((0, 5, 2, 7), Walk((2, 5), ("e1",))),
    ], ids=["str", "int"])
    def test_internal_ear_runs_in_vertex_order(self, names, internal):
        """The leftover-edge graft renamed so that the spine end of the
        internal edge sorts after its tooth end: the internal ear's walk
        and bonds still run in vertex_key order."""
        r, a1, b1, a2 = names
        g = obg(names,
                [("c1", r, a1), ("e1", a1, b1), ("c2", b1, a2),
                 ("c3", a2, r), ("d", a1, b1)],
                {a1, b1}, {a1, a2}, {r, b1})
        d = build_graft_ear_decomposition(g, r, min_join(g))
        got = [(s.walk, s.bonds, s.terminals) for s in d.steps]
        assert got == [
            (Walk((a1, r), ("c1",)), (r,), frozenset()),
            (Walk((a2, r), ("c3",)), (r,), frozenset()),
            (Walk((a2, b1, a1), ("c2", "d")), (a1, a2), frozenset({b1, a1})),
            (internal, internal.vertices, frozenset()),
        ]
        assert d.replay() == g

    def test_singleton_target(self):
        g = singleton()
        d = build_graft_ear_decomposition(g, "r", frozenset())
        assert d.steps == ()
        assert d.replay() == g

    def test_rejects_non_critical(self):
        g = chain4()
        with pytest.raises(PreconditionError):
            build_graft_ear_decomposition(g, "b0", min_join(g))

    def test_rejects_non_minimum_join(self):
        g = square()
        with pytest.raises(PreconditionError, match="F must be a minimum join"):
            build_graft_ear_decomposition(g, "r", {"c1", "c2", "c3"})

    def test_rejects_spine_root(self):
        g = p3r()
        with pytest.raises(PreconditionError):
            build_graft_ear_decomposition(g, "a1", min_join(g))

    def test_prefix_grafts_are_critical(self):
        g = square()
        d = build_graft_ear_decomposition(g, "r", min_join(g))
        for prefix in d.prefixes():
            assert is_critical_quasicomb(prefix, "r").critical

    def test_steps_balanced_for_build_join(self):
        g = square()
        F = min_join(g)
        d = build_graft_ear_decomposition(g, "r", F)
        for step in d.steps:
            share = frozenset(F.edge_ids) & step.edge_ids
            assert is_f_balanced(g, share, step)


def is_forced(g, fset, v, support) -> bool:
    """Whether tooth vertex v has exactly one join edge and it ends in the
    support."""
    joined = [e for e in g.graph.incident(v) if e.id in fset]
    return len(joined) == 1 and joined[0].other(v) in support


def round_steps(g, r, F) -> list:
    """(u, v, edge id, support, step, extractions, matchings) for each
    rank-1 step of build_graft_ear_decomposition(g, r, F): the step's
    non-join edge uv, the support it grows, the step, and the
    extract_shortest_path and min_weight_matching calls it made."""
    calls: Counter = Counter()
    out = []

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    round_step = combs._round_step_via_balanced_path

    def recorded(g, fset, fid, u, v, support, root):
        before = calls.copy()
        step = round_step(g, fset, fid, u, v, support, root)
        made = calls - before
        out.append((u, v, fid, frozenset(support), step,
                    made["extract"], made["blossom"]))
        return step

    with patch.object(combs, "extract_shortest_path",
                      counted("extract", extract_shortest_path)), \
            patch.object(joins, "min_weight_matching",
                         counted("blossom", joins.min_weight_matching)), \
            patch.object(combs, "_round_step_via_balanced_path", recorded):
        build_graft_ear_decomposition(g, r, F)
    return out


class TestForcedRoundEar:
    """A round ear whose new tooth vertex v has one join edge vw, with w in
    the support, is (u, v, w) whatever balanced path runs from v to the
    root: it is read off the join, with no path extracted."""

    @pytest.mark.parametrize("vertices", [(16, 20), (6, 14)])
    def test_forced_ear_is_the_extracted_ear(self, vertices):
        forced = open_ = 0
        for seed in range(30):
            d, _ = gen_random_critical_quasicomb(GenConfig(vertices=vertices),
                                                 random.Random(seed))
            g = d.target
            fset = frozenset(min_join(g).edge_ids)
            for u, v, fid, support, step, _, _ in round_steps(g, d.root, fset):
                if not is_forced(g, fset, v, support):
                    # Every tooth terminal has one join edge: an open ear's
                    # leaves the support, so the extracted path runs on.
                    assert sum(e.id in fset for e in g.graph.incident(v)) == 1
                    open_ += 1
                    continue
                forced += 1
                report = extract_shortest_path(g, fset, v, d.root)
                assert report.weight == 0 and report.balanced
                P = report.walk
                cut = next(i for i, w in enumerate(P.vertices) if w in support)
                assert cut == 1
                w = P.vertices[1]
                assert step == ear_step(
                    (u, v, w), (fid, P.edge_ids[0]),
                    (u,) if w == u else (u, w), fset, g.tooth)
        assert forced > open_ > 0

    def test_only_open_ears_extract_and_match(self):
        d, _ = gen_random_critical_quasicomb(GenConfig(vertices=(16, 20)),
                                             random.Random(5))
        g = d.target
        fset = frozenset(min_join(g).edge_ids)
        got = [(is_forced(g, fset, v, support), extractions, matchings)
               for _, v, _, support, _, extractions, matchings
               in round_steps(g, d.root, fset)]
        assert got == [(False, 1, 1), (False, 1, 1), (True, 0, 0), (True, 0, 0)]

    def test_join_edge_back_to_u(self):
        """A non-join edge uv beside the join edge vu: the forced ear is a
        circuit with the one bond u."""
        g = parallel_pair()
        [(u, v, fid, _, step, extractions, _)] = round_steps(
            g, "r", min_join(g).edge_ids)
        assert (u, v, fid, extractions) == ("a1", "b1", "e", 0)
        assert step.walk == Walk(("a1", "b1", "a1"), ("e", "d"))
        assert step.bonds == ("a1",)


# sha256 over the builder's and verifier's output on fixed-seed draws; a
# change to the ear layer that alters any step, report line or step check
# changes it.
EAR_LAYER_DIGEST = "19187c2d933c3ae2a8af14b6d4eb3c49f126269abed160b4cf04ca6ca2350ac5"


class TestEarLayerDigest:
    def test_fixed_seed_builds_unchanged(self):
        h = hashlib.sha256()
        for vertices in ((3, 10), (16, 20)):
            for seed in range(20):
                d, F = gen_random_critical_quasicomb(GenConfig(
                    seed=seed, vertices=vertices, mode="critical-quasicomb"))
                g = d.target
                for join in (min_join(g).edge_ids, F):
                    built = build_graft_ear_decomposition(g, d.root, join)
                    report = verify_graft_ear_decomposition(built, join)
                    checks = [[c.index,
                               [[v.code, v.message, v.fatal]
                                for v in c.violations],
                               c.prefix_critical, c.step_join_minimum]
                              for c in report.step_checks]
                    doc = {"decomposition": decomposition_document(built),
                           "valid": report.valid,
                           "problems": list(report.problems),
                           "warnings": list(report.warnings),
                           "checks": checks}
                    h.update(json.dumps(doc, sort_keys=True).encode())
        assert h.hexdigest() == EAR_LAYER_DIGEST


class TestVerifier:
    def test_builds_verify(self):
        for g in (p3r(), square(), parallel_pair()):
            F = min_join(g)
            d = build_graft_ear_decomposition(g, "r", F)
            plain = verify_graft_ear_decomposition(d)
            assert plain.valid and plain.problems == ()
            with_join = verify_graft_ear_decomposition(d, F)
            assert with_join.valid
            assert all(c.prefix_critical for c in with_join.step_checks)
            assert all(c.step_join_minimum for c in with_join.step_checks)

    def test_other_minimum_join_also_passes(self):
        g = parallel_pair()
        d = build_graft_ear_decomposition(g, "r", {"d"})
        report = verify_graft_ear_decomposition(d, {"e"})
        assert report.valid

    def test_swapped_steps_fatal(self):
        g = p3r()
        d = build_graft_ear_decomposition(g, "r", min_join(g))
        swapped = GraftEarDecomposition("r", (d.steps[1], d.steps[0]), g)
        report = verify_graft_ear_decomposition(swapped)
        assert not report.valid
        assert any("bond" in p for p in report.problems)

    def test_dropped_terminals_breaks_criticality(self):
        g = p3r()
        d = build_graft_ear_decomposition(g, "r", min_join(g))
        s = d.steps[1]
        bad = EarStep(s.walk, s.bonds, frozenset(), s.spine, s.tooth)
        report = verify_graft_ear_decomposition(
            GraftEarDecomposition("r", (d.steps[0], bad), g))
        assert not report.valid
        assert any("not critical" in p for p in report.problems)
        assert any("differs from the target" in p for p in report.problems)

    def test_non_minimum_join_reported(self):
        """Neither an edge set that is no join nor a join longer than the
        minimum passes, and no step share is judged against it."""
        for g, F in ((p3r(), {"c"}), (square(), {"c1", "c2", "c3"})):
            d = build_graft_ear_decomposition(g, "r", min_join(g))
            report = verify_graft_ear_decomposition(d, F)
            assert report.valid is False
            assert report.problems == ("F is not a minimum join of the target",)
            assert [c.step_join_minimum for c in report.step_checks] == \
                [None] * len(d.steps)
        assert not is_join(p3r(), {"c"})
        assert is_join(square(), {"c1", "c2", "c3"})

    def test_spine_root_reported(self):
        g = p3r()
        d = build_graft_ear_decomposition(g, "r", min_join(g))
        relabeled = GraftEarDecomposition("a1", d.steps, g)
        report = verify_graft_ear_decomposition(relabeled)
        assert report.valid is False
        assert report.problems == (
            "root 'a1' is not on the target's tooth side",
            "step 0: bond 'r' is not a support vertex",
            "step 0: ear vertex 'a1' already belongs to the support",
            "step 0: vertex 'a1' changes sides")

    @pytest.mark.parametrize("walk, terminals, spine, tooth, problem", [
        (Walk(("x", "a1"), ("e1",)), (), {"x"}, {"a1"},
         "step 1: vertex 'a1' changes sides"),
        (Walk(("b1", "a1"), ("c",)), {"a1", "b1"}, {"a1"}, {"b1"},
         "step 1: edge 'c' already belongs to the support"),
    ], ids=["side-conflict", "edge-id-reused"])
    def test_a_step_the_sum_refuses_is_reported(self, walk, terminals, spine,
                                                tooth, problem):
        """The two things graft_sum refuses, a side clash and a shared edge
        id with other ends, each as a step's one fatal finding: the
        verifier reports it and sums nothing past it."""
        g = p3r()
        first = build_graft_ear_decomposition(g, "r", min_join(g)).steps[0]
        bad = EarStep(walk, ("a1",), frozenset(terminals), frozenset(spine),
                      frozenset(tooth))
        prefix = graft_sum(bare_root("r"), first.as_graft())
        _, violations = validate_ear_step(prefix, bad)
        assert [v.fatal for v in violations] == [True]
        report = verify_graft_ear_decomposition(
            GraftEarDecomposition("r", (first, bad), g))
        assert report.valid is False
        assert report.problems == (problem,)

    def test_empty_decomposition(self):
        g = singleton()
        good = verify_graft_ear_decomposition(
            GraftEarDecomposition("r", (), g))
        assert good.valid
        bad = verify_graft_ear_decomposition(
            GraftEarDecomposition("r", (), p3r()))
        assert not bad.valid

    def test_root_must_be_target_vertex(self):
        with pytest.raises(GraftInputError):
            GraftEarDecomposition("zz", (), p3r())

    def test_other_target_join_that_splits_badly_over_steps(self):
        """{e6, e9} is a minimum join of the target, but its share of
        step 1 is not a minimum join of that step."""
        d, _ = gen_random_critical_quasicomb(GenConfig(seed=7, vertices=(3, 7)))
        report = verify_graft_ear_decomposition(d, {"e6", "e9"})
        assert not report.valid
        assert report.step_checks[1].step_join_minimum is False
        assert ("step 1: the join share ['e6'] is not a minimum join of the "
                "step") in report.problems

    def test_tolerated_violation_warns_only_while_critical(self, monkeypatch):
        """A non-fatal violation is a warning when the prefix after it
        stays critical, and a problem when it does not."""
        real = validate_ear_step

        def forced(base, step):
            ok, violations = real(base, step)
            if step is d.steps[1]:
                violations += (StepViolation("forced", "forced advisory", False),)
            return ok, violations

        monkeypatch.setattr("bigraft.combs.validate_ear_step", forced)
        g = p3r()
        d = build_graft_ear_decomposition(g, "r", min_join(g))
        report = verify_graft_ear_decomposition(d)
        assert report.valid and report.problems == ()
        assert report.warnings == ("step 1: tolerated: forced advisory",)

        s = d.steps[1]
        d = GraftEarDecomposition(
            "r", (d.steps[0], EarStep(s.walk, s.bonds, frozenset(), s.spine,
                                      s.tooth)), g)
        report = verify_graft_ear_decomposition(d)
        assert not report.valid and report.warnings == ()
        assert report.step_checks[1].prefix_critical is False
        assert "step 1: forced advisory" in report.problems

    def test_prefix_that_is_not_a_quasicomb(self):
        """A circuit ear whose inner tooth vertex is no terminal: the
        replayed prefix is not even a quasicomb."""
        step = EarStep(Walk(("r", "a1", "b1", "a2", "r"),
                            ("e1", "e2", "e3", "e4")),
                       ("r",), frozenset({"a1", "a2"}),
                       frozenset({"a1", "a2"}), frozenset({"r", "b1"}))
        report = verify_graft_ear_decomposition(
            GraftEarDecomposition("r", (step,), step.as_graft()))
        assert not report.valid
        assert report.problems == (
            "step 0: replayed prefix is not checkable: criticality is "
            "defined for quasicombs only",
            "step 0: internal tooth vertex 'b1' is not a step terminal")
        assert report.step_checks[0].prefix_critical is False


class TestPrefixChain:
    """A decomposition keeps no sums: the verifier sums each step once and
    drops each prefix once checked, and a replay is one sum."""

    def test_verifier_sums_each_step_once_and_replay_sums_once(
            self, monkeypatch):
        real = graft_sum
        calls = []

        def counted(*grafts):
            calls.append(len(grafts))
            return real(*grafts)

        monkeypatch.setattr("bigraft.combs.graft_sum", counted)
        for seed in range(6):
            d, F = gen_random_critical_quasicomb(
                GenConfig(seed=seed, vertices=(6, 12)))
            calls.clear()
            built = build_graft_ear_decomposition(d.target, d.root, F)
            n = len(built.steps)
            assert calls == [n + 1]
            calls.clear()
            assert verify_graft_ear_decomposition(built, F).valid
            assert calls == [2] * n
            calls.clear()
            assert built.replay() == d.target
            assert calls == [n + 1]

    def test_no_checked_prefix_outlives_the_verifier(self, monkeypatch):
        real = GraftEarDecomposition.prefixes
        refs = []

        def watched(self):
            for g in real(self):
                # Only the prefix checked last may still be held.
                assert sum(r() is not None for r in refs) <= 1
                refs.append(weakref.ref(g))
                yield g

        monkeypatch.setattr(GraftEarDecomposition, "prefixes", watched)
        for seed in range(4):
            d, F = gen_random_critical_quasicomb(
                GenConfig(seed=seed, vertices=(8, 12)))
            refs.clear()
            report = verify_graft_ear_decomposition(d, F)
            assert report.valid and len(refs) == len(d.steps) > 2
            assert [r() for r in refs] == [None] * len(refs)

    def test_grown_prefixes_hold_no_predecessor(self, monkeypatch):
        """Each prefix grows its index and cycle blocks from the one
        before, yet at most two prefix graphs are alive at once, none
        outlives the verifier, and a probe left in each prefix's memo dies
        with it: no grown entry holds the memo it grew from."""
        real = GraftEarDecomposition.prefixes
        graphs, probes = [], []

        class Probe:
            pass

        def watched(self):
            for g in real(self):
                graphs.append(weakref.ref(g.graph))
                assert sum(r() is not None for r in graphs) <= 2
                probe = Probe()
                g.graph._memo["probe", None] = probe
                probes.append(weakref.ref(probe))
                assert sum(r() is not None for r in probes) <= 2
                yield g

        grows = []
        real_grow = joins._grow_cycle_blocks
        monkeypatch.setitem(core._GROWERS, "_cycle_blocks",
                            lambda total, added, entry: grows.append(1)
                            or real_grow(total, added, entry))
        monkeypatch.setattr(GraftEarDecomposition, "prefixes", watched)
        for n, seed in ((12, 0), (16, 1), (58, 0)):
            d, F = gen_random_critical_quasicomb(
                GenConfig(seed=seed, vertices=(n, n)))
            graphs.clear()
            probes.clear()
            grows.clear()
            assert verify_graft_ear_decomposition(d, F).valid
            assert len(graphs) == len(d.steps) and len(grows) > len(d.steps) // 2
            assert [r() for r in graphs] == [None] * len(graphs)
            assert [r() for r in probes] == [None] * len(probes)

    def test_a_generated_chain_keeps_no_predecessor(self, monkeypatch):
        """The generator reads no table, so its sums grow nothing: every
        graph it summed but the target's is gone, and the target's memo is
        empty."""
        real = graft_sum
        sums = []

        def recorded(*grafts):
            out = real(*grafts)
            sums.append(weakref.ref(out.graph))
            return out

        monkeypatch.setattr("bigraft.generators.graft_sum", recorded)
        for seed in range(4):
            sums.clear()
            d, _ = gen_random_critical_quasicomb(
                GenConfig(seed=seed, vertices=(10, 16)))
            assert len(sums) == len(d.steps) > 2
            assert [r() for r in sums] == [None] * (len(sums) - 1) + [d.target.graph]
            assert d.target.graph._memo == {}

    def test_the_fold_validates_nothing(self, monkeypatch):
        d, _ = gen_random_critical_quasicomb(GenConfig(seed=3, vertices=(10, 14)))
        step = d.steps[0]
        real = Multigraph.__post_init__
        checked = []

        def counted(self):
            checked.append(self)
            real(self)

        monkeypatch.setattr(Multigraph, "__post_init__", counted)
        assert len(list(d.prefixes())) == len(d.steps) > 2
        assert d.replay() == d.target
        assert checked == []
        EarStep(step.walk, step.bonds, step.terminals, step.spine, step.tooth)
        assert len(checked) == 1

    def test_a_sum_holds_no_operand_graph(self):
        def summed():
            ga, gb = p3r(), obg(["b1", "a2"], [("e2", "a2", "b1")], [],
                                ["a2"], ["b1"])
            return graft_sum(ga, gb), weakref.ref(ga.graph), weakref.ref(gb.graph)

        total, ra, rb = summed()
        assert total.graph.vertices == {"r", "a1", "b1", "a2"}
        assert ra() is None and rb() is None

    def test_chain_is_not_a_field(self):
        g = square()
        d = build_graft_ear_decomposition(g, "r", min_join(g))
        assert verify_graft_ear_decomposition(d).valid
        fresh = GraftEarDecomposition("r", d.steps, g)
        assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
        assert [f.name for f in fields(d)] == ["root", "steps", "target"]

    def test_malformed_chain_yields_up_to_its_bad_step(self):
        g = p3r()
        first = build_graft_ear_decomposition(g, "r", min_join(g)).steps[0]
        flipped = EarStep(Walk(("x", "a1"), ("d",)), ("a1",), frozenset(),
                          frozenset({"x"}), frozenset({"a1"}))
        d = GraftEarDecomposition("r", (first, flipped), g)
        chain = d.prefixes()
        assert next(chain) == first.as_graft()
        with pytest.raises(PreconditionError, match="change sides"):
            next(chain)
        with pytest.raises(PreconditionError, match="change sides"):
            d.replay()


class TestRootedDistances:
    """Criticality tables agree with independently computed distances."""

    def test_tables_match_f_distance(self):
        for g in (p3r(), square(), parallel_pair(), outward_stub()):
            rep = is_critical_quasicomb(g, "r")
            for v, value in rep.table:
                assert value == f_distance_int(g, v, "r")

    def test_weight_zero_paths_from_tooth(self):
        from bigraft.joins import extract_shortest_path
        for g in (square(), parallel_pair()):
            F = min_join(g)
            for b in sorted(g.tooth - {"r"}, key=str):
                report = extract_shortest_path(g, F, b, "r")
                assert report.weight == 0
                assert report.balanced
                assert report.walk.edge_ids[0] in F
