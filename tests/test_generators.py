"""Random instance generators: determinism, validity, and mode dispatch."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bigraft.combs import (
    classify_comb,
    is_critical_quasicomb,
    verify_graft_ear_decomposition,
)
from bigraft.core import (
    GraftInputError,
    OrderedBipartiteGraft,
    validate_graft,
)
from bigraft.generators import (
    GenConfig,
    gen_random_comb,
    gen_random_critical_quasicomb,
    gen_random_graft,
    generate,
    random_ear_step,
)
from bigraft.joins import is_minimum_join, min_join


class TestGenConfig:

    def test_defaults_are_valid(self):
        cfg = GenConfig()
        assert cfg.mode == "graft"
        assert cfg.vertices[0] <= cfg.vertices[1]

    def test_empty_vertex_range(self):
        with pytest.raises(GraftInputError, match="empty vertex-count range"):
            GenConfig(vertices=(5, 3))

    @pytest.mark.parametrize("vertices", [(1,), (1, 2, 3), (1.0, 4), (True, 4), None],
                             ids=["one", "three", "float", "bool", "none"])
    def test_vertex_range_not_a_pair_of_ints(self, vertices):
        with pytest.raises(GraftInputError, match="not a pair of ints"):
            GenConfig(vertices=vertices)

    @pytest.mark.parametrize("field,value", [
        ("edge_density", -0.1), ("edge_density", 1.5),
        ("terminal_density", 2.0), ("terminal_density", -1e-9),
    ])
    def test_density_bounds(self, field, value):
        with pytest.raises(GraftInputError, match="is not in"):
            GenConfig(**{field: value})

    def test_budget_floor(self):
        with pytest.raises(GraftInputError, match="at least 1"):
            GenConfig(budget=0)

    def test_unknown_mode(self):
        with pytest.raises(GraftInputError, match="unknown generator mode"):
            GenConfig(mode="lattice")

    def test_rng_is_seed_determined(self):
        cfg = GenConfig(seed=99)
        assert cfg.rng().random() == cfg.rng().random()


class TestRandomGraft:

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_every_output_is_a_graft(self, seed):
        g = gen_random_graft(GenConfig(seed=seed, vertices=(1, 9)))
        assert validate_graft(g.graph, g.terminals)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_same_seed_same_graft(self, seed):
        cfg = GenConfig(seed=seed, vertices=(2, 8), edge_density=0.4)
        assert gen_random_graft(cfg) == gen_random_graft(cfg)

    def test_respects_vertex_bounds(self):
        for seed in range(40):
            g = gen_random_graft(GenConfig(seed=seed, vertices=(3, 6)))
            assert 3 <= len(g.graph.vertices) <= 6

    def test_sparse_and_dense_extremes(self):
        lonely = gen_random_graft(GenConfig(seed=1, edge_density=0.0,
                                            terminal_density=0.0))
        assert not lonely.graph.edges
        packed = gen_random_graft(GenConfig(seed=1, vertices=(5, 5),
                                            edge_density=1.0,
                                            terminal_density=1.0))
        assert len(packed.graph.edges) >= 10

    def test_explicit_rng_overrides_seed(self):
        cfg = GenConfig(seed=5)
        r = random.Random(5)
        assert gen_random_graft(cfg, r) == gen_random_graft(cfg)


class TestRandomComb:

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_every_output_classifies_as_comb(self, seed):
        g = gen_random_comb(GenConfig(seed=seed, vertices=(2, 9)))
        report = classify_comb(g)
        assert report.is_quasicomb and report.is_comb

    @settings(deadline=None, max_examples=15)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_same_seed_same_comb(self, seed):
        cfg = GenConfig(seed=seed, vertices=(2, 8))
        assert gen_random_comb(cfg) == gen_random_comb(cfg)

    def test_tooth_is_terminal_and_owns_a_join_edge(self):
        for seed in range(30):
            g = gen_random_comb(GenConfig(seed=seed, vertices=(3, 9)))
            assert g.tooth <= g.terminals
            F = min_join(g)
            for b in g.tooth:
                assert sum(e.id in F.edge_ids
                           for e in g.graph.incident(b)) == 1

    def test_a_draw_of_one_vertex_gives_two(self):
        """A comb needs one spine and one tooth vertex, so the vertex
        count is at least 2 whatever the range says."""
        for seed in range(10):
            g = gen_random_comb(GenConfig(seed=seed, vertices=(1, 1)))
            assert len(g.spine) == len(g.tooth) == 1
            assert len(g.graph.vertices) == 2

    def test_every_edge_meets_both_sides(self):
        g = gen_random_comb(GenConfig(seed=4, vertices=(6, 9)))
        for e in g.graph.edges:
            assert (e.u in g.spine) != (e.v in g.spine)


class TestRandomCriticalQuasicomb:

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_composition_is_critical(self, seed):
        d, F = gen_random_critical_quasicomb(
            GenConfig(seed=seed, vertices=(3, 9)))
        assert is_critical_quasicomb(d.target, d.root).critical
        assert is_minimum_join(d.target, F)

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_recorded_decomposition_verifies(self, seed):
        d, F = gen_random_critical_quasicomb(
            GenConfig(seed=seed, vertices=(3, 8)))
        report = verify_graft_ear_decomposition(d, F)
        assert report.valid and not report.problems

    def test_same_seed_same_decomposition(self):
        cfg = GenConfig(seed=77, vertices=(4, 9))
        d1, f1 = gen_random_critical_quasicomb(cfg)
        d2, f2 = gen_random_critical_quasicomb(cfg)
        assert d1 == d2 and f1 == f2

    def test_single_vertex_goal_still_takes_one_step(self):
        d, _ = gen_random_critical_quasicomb(
            GenConfig(seed=0, vertices=(1, 1)))
        assert len(d.steps) >= 1
        assert len(d.target.graph.vertices) >= 2

    def test_step_budget_caps_growth(self):
        d, _ = gen_random_critical_quasicomb(
            GenConfig(seed=8, vertices=(30, 30), budget=2))
        assert len(d.steps) == 2


class TestRandomEarStep:

    def test_steps_grow_and_stay_effective(self):
        rng = random.Random(12)
        import itertools
        from bigraft.core import Multigraph, graft_sum
        fresh = itertools.count(1)
        base = OrderedBipartiteGraft(Multigraph(frozenset({"r"}), ()),
                                     frozenset(), frozenset(),
                                     frozenset({"r"}))
        for _ in range(12):
            step, share = random_ear_step(rng, base, fresh)
            assert step.is_effective
            assert share <= step.edge_ids
            base = graft_sum(base, step.as_graft())
        assert len(base.graph.vertices) > 1

    @pytest.mark.parametrize("seed", range(4))
    def test_draws_the_steps_the_quasicomb_generator_draws(self, seed):
        """The public one-step sampler and the generator's loop share one
        sampler: from the same stream they draw the same steps and join."""
        import itertools
        from bigraft.combs import bare_root
        from bigraft.core import graft_sum
        cfg = GenConfig(seed=seed, vertices=(6, 12))
        d, F = gen_random_critical_quasicomb(cfg)
        rng = cfg.rng()
        rng.randint(*cfg.vertices)
        fresh = itertools.count(1)
        base = bare_root("r")
        fset = frozenset()
        for recorded in d.steps:
            step, share = random_ear_step(rng, base, fresh)
            assert step == recorded
            base = graft_sum(base, step.as_graft())
            fset |= share
        assert base == d.target and fset == F


class TestGenerate:

    def test_dispatch_by_mode(self):
        g = generate(GenConfig(seed=1, mode="graft"))
        assert not isinstance(g, OrderedBipartiteGraft)
        comb = generate(GenConfig(seed=1, mode="comb"))
        assert isinstance(comb, OrderedBipartiteGraft)
        d, F = generate(GenConfig(seed=1, mode="critical-quasicomb"))
        assert d.target.graph.vertices >= {d.root}

    def test_comb_sampler_accepts_on_the_first_attempt(self):
        for seed in range(25):
            cramped = GenConfig(seed=seed, vertices=(2, 9), budget=1,
                                mode="comb")
            g = generate(cramped)
            assert classify_comb(g).is_comb
