"""Assembled values equal their checked rebuilds.

The package checks data where it enters: the public constructors and the
parser's field checks.  Every value it derives from valid data is assembled
without those checks (``core.assemble_graph``, ``core.assemble_graft`` and
``combs.ear_step``): ear steps, generator draws, sums, flipped grafts,
cathedral contractions, ``contract_graft``'s contraction,
``induced_subgraft``'s restriction and the parser's graph.  Each test here
rebuilds such values through the checking constructors, which must accept
them and give equal values, indexed alike (``oracles.assert_rebuilds``).
The cathedral's contractions are checked in ``test_cathedral.py``.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from bigraft import cli, combs, joins
from bigraft.cathedral import round_ear_bond_check
from bigraft.combs import (
    EarStep,
    GraftEarDecomposition,
    build_graft_ear_decomposition,
)
from bigraft.core import (
    GraftInputError,
    Multigraph,
    Walk,
    build_bipartite_graft,
    contract_graft,
    sorted_vertices,
)
from bigraft.decomposition import factor_components, induced_subgraft
from bigraft.formats import parse_graft_json, serialize_graft
from bigraft.generators import GenConfig, gen_random_critical_quasicomb, generate
from bigraft.instances import fan
from bigraft.joins import min_join

from oracles import assert_rebuilds, index_fields, recorded, run_cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


# Critical quasicombs of 4-16 vertices, then of GenConfig's default range.
EAR_DRAWS = [pytest.param(GenConfig(seed=seed, vertices=(4, 16)), id=str(seed))
             for seed in range(40)] + [
    pytest.param(GenConfig(seed=seed), id=f"default-{seed}") for seed in range(30)]


class TestEarSteps:
    @pytest.mark.parametrize("config", EAR_DRAWS)
    def test_generated_and_built_steps(self, config, monkeypatch):
        """The steps ``random_ear_step`` draws, the builder's steps and the
        flipped grafts its round ears match on."""
        d, F = gen_random_critical_quasicomb(config)
        flipped = recorded(monkeypatch, joins, "assemble_graft")
        built = build_graft_ear_decomposition(d.target, d.root, F)
        for step in d.steps + built.steps:
            assert_rebuilds(step)
        for g in flipped:
            assert_rebuilds(g)

    def test_the_corpus_has_round_ears_with_unsorted_bonds(self):
        """``ear_step`` sorts the bonds it is given, as ``EarStep`` does;
        the corpus above hands it bonds out of order."""
        unsorted = 0
        for seed in range(40):
            d, F = gen_random_critical_quasicomb(
                GenConfig(seed=seed, vertices=(4, 16)))
            for step in build_graft_ear_decomposition(d.target, d.root, F).steps:
                vs = step.walk.vertices
                unsorted += len(step.bonds) == 2 and (vs[0], vs[-1]) != step.bonds
        assert unsorted > 0


class TestGeneratorDraws:
    @pytest.mark.parametrize("mode", ["graft", "comb", "critical-quasicomb"])
    def test_every_draw(self, mode):
        for seed in range(200):
            got = generate(GenConfig(seed=seed, mode=mode))
            if mode != "critical-quasicomb":
                assert_rebuilds(got)
                continue
            d, _ = got
            assert_rebuilds(d.target)
            for step in d.steps:
                assert_rebuilds(step)


class TestDerivedGrafts:
    @pytest.mark.parametrize("mode", ["graft", "comb"])
    def test_contractions_and_induced_subgrafts(self, mode):
        """Each draw contracted on each factor component and on a random
        vertex subset, and restricted to each factor component and to
        the union of the components after the first."""
        for seed in range(100):
            g = generate(GenConfig(seed=seed, mode=mode))
            parts = factor_components(g).vertex_sets()
            vs, rng = sorted_vertices(g.graph.vertices), random.Random(seed)
            drawn = rng.sample(vs, rng.randint(1, len(vs)))
            for X in parts + (frozenset(drawn),):
                assert_rebuilds(contract_graft(g, X)[0])
            rest = frozenset().union(*parts[1:])
            for X in parts + ((rest,) if rest else ()):
                assert_rebuilds(induced_subgraft(g, X))

    def test_flipped_grafts_of_the_exhaustive_distance(self, monkeypatch):
        """``dist --oracle`` from each draw's least vertex to every other
        vertex of its component."""
        flipped = recorded(monkeypatch, cli, "assemble_graft")
        runs = 0
        for seed in range(10):
            g = generate(GenConfig(seed=seed, vertices=(4, 8)))
            u, text = sorted_vertices(g.graph.vertices)[0], serialize_graft(g)
            for v in sorted_vertices(g.graph.component_of(u) - {u}):
                code, _, err = run_cli("dist", u, v, "--oracle", stdin=text)
                assert code == 0, err
                runs += 1
        assert runs > 0 and len(flipped) == runs
        for h in flipped:
            assert_rebuilds(h)


def benchmark_documents() -> list[str]:
    """The graft documents of every seed-1 benchmark corpus."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are made.
    sys.modules["workloads"] = workloads
    spec.loader.exec_module(workloads)
    return [instance["stdin"] for w in workloads.WORKLOADS.values()
            for chunk in range(workloads.CHUNKS)
            for instance in w.source.corpus(1, chunk) if instance["stdin"]]


def test_every_parsed_benchmark_document():
    docs = benchmark_documents()
    assert len(docs) == 108 + 156 + 72
    for text in docs:
        assert_rebuilds(parse_graft_json(text))


class TestWideReplay:
    @staticmethod
    def fan_steps(k: int) -> tuple:
        """fan(k)'s ear decomposition from r, built through ``EarStep``:
        the straight ear (c, r), then one straight ear (b_i, c) per leaf,
        its edge in the join."""
        steps = [EarStep(Walk(("c", "r"), ("er",)), ("r",), frozenset(),
                         frozenset({"c"}), frozenset({"r"}))]
        steps += [EarStep(Walk((f"b{i}", "c"), (f"e{i}",)), ("c",),
                          frozenset({f"b{i}", "c"}), frozenset({"c"}),
                          frozenset({f"b{i}"})) for i in range(k)]
        return tuple(steps)

    def test_fan_4000_replays_to_its_target(self):
        """One sum of 4001 operands, which reads each operand's sets once."""
        g = fan(4000)
        got = GraftEarDecomposition("r", self.fan_steps(4000), g).replay()
        assert got == g and index_fields(got.graph) == index_fields(g.graph)

    def test_hand_steps_are_the_built_steps(self):
        g = fan(30)
        built = build_graft_ear_decomposition(g, "r", min_join(g))
        hand = self.fan_steps(30)
        # The builder takes the leaves in edge-id order: e0, e1, e10, ...
        assert len(built.steps) == len(hand) and set(built.steps) == set(hand)


class TestInputStaysChecked:
    """Where a walk or a root comes from the caller, what the checking
    constructors refused is still refused, with the same message."""

    @staticmethod
    def int_comb():
        return build_bipartite_graft(Multigraph.build([1, 2], [("e", 1, 2)]),
                                     [1, 2], [1], [2])

    def test_an_edgeless_walk(self):
        g = self.int_comb()
        with pytest.raises(GraftInputError, match="^an ear needs at least one edge$"):
            round_ear_bond_check(g, {"e"}, 1, Walk((2,), ()))

    def test_a_walk_through_a_look_alike_vertex(self):
        """True equals the vertex 1, so ``Walk.validate`` lets it through."""
        g = self.int_comb()
        with pytest.raises(GraftInputError,
                           match="^vertex id True must be str or int$"):
            round_ear_bond_check(g, {"e"}, 1, Walk((True, 2), ("e",)))

    def test_a_look_alike_root(self):
        g = self.int_comb()
        with pytest.raises(GraftInputError, match="^root 2.0 is not a target vertex$"):
            GraftEarDecomposition(2.0, (), g)
        assert combs.bare_root(2) == GraftEarDecomposition(2, (), g).replay()
