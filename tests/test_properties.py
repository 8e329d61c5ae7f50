"""The randomized property suite: clean runs, detection power, reporting."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from bigraft import properties
from bigraft.cathedral import CathedralPoset, enumerate_critical_sets
from bigraft.combs import classify_comb
from bigraft.core import GraftInputError, InternalConsistencyError
from bigraft.decomposition import factor_components
from bigraft.formats import graft_from_document
from bigraft.generators import GenConfig, gen_random_comb, gen_random_graft
from bigraft.instances import c4
from bigraft.joins import all_min_joins, f_weight, flipped_distance_sign
from bigraft.properties import (
    PROPERTIES,
    Certificate,
    SuiteReport,
    _MAKERS,
    _check_monotone_consistency,
    _check_zero_circuits,
    property_names,
    run_property_suite,
    suite_report_document,
)

CFG = GenConfig(seed=11, vertices=(3, 9))


class TestRegistry:

    def test_names_are_unique_and_kebab_case(self):
        names = property_names()
        assert len(set(names)) == len(names) == len(PROPERTIES)
        for name in names:
            assert name == name.lower()
            assert " " not in name

    def test_every_property_has_a_known_mode(self):
        from bigraft.properties import _MAKERS
        for prop in PROPERTIES:
            assert prop.mode in _MAKERS
            assert prop.summary


class TestCleanRun:

    def test_two_trials_all_green(self):
        rep = run_property_suite(2, CFG)
        assert rep.ok and rep.failures == 0
        assert [name for name, _, _ in rep.results] == list(property_names())
        for _, passed, failed in rep.results:
            assert (passed, failed) == (2, 0)

    @settings(deadline=None, max_examples=8)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_green_across_seeds(self, seed):
        rep = run_property_suite(1, GenConfig(seed=seed, vertices=(3, 8)))
        assert rep.ok, [c.transcript for c in rep.certificates]

    def test_identical_runs_report_identically(self):
        one = suite_report_document(run_property_suite(2, CFG))
        two = suite_report_document(run_property_suite(2, CFG))
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)

    def test_wall_time_is_observed_but_not_serialized(self):
        rep = run_property_suite(1, CFG, ["distance-self-and-symmetry"])
        assert rep.wall_time > 0
        assert "wall" not in json.dumps(suite_report_document(rep))


class TestSelection:

    def test_subset_runs_in_the_given_order(self):
        rep = run_property_suite(1, CFG,
                                 ["comb-kl-shape", "fast-brute-join-sizes"])
        assert [n for n, _, _ in rep.results] == ["comb-kl-shape",
                                                  "fast-brute-join-sizes"]

    def test_empty_selection_is_a_usage_error(self):
        with pytest.raises(GraftInputError, match="empty property selection"):
            run_property_suite(1, CFG, [])

    def test_unknown_name_is_a_usage_error(self):
        with pytest.raises(GraftInputError, match="unknown properties"):
            run_property_suite(1, CFG, ["no-such-property"])

    def test_zero_trials_is_a_usage_error(self):
        with pytest.raises(GraftInputError, match="at least one trial"):
            run_property_suite(0, CFG)


class TestDetection:

    def test_sign_flip_breaks_the_distance_properties(self):
        with flipped_distance_sign():
            rep = run_property_suite(2, CFG,
                                     ["comb-distance-signs",
                                      "distance-matches-path-weights"])
        assert not rep.ok
        for name, passed, failed in rep.results:
            assert failed == 2, name

    def test_certificates_replay(self):
        with flipped_distance_sign():
            rep = run_property_suite(1, CFG, ["comb-distance-signs"])
        cert = rep.certificates[0]
        assert cert.property_name == "comb-distance-signs"
        assert cert.seed == f"{CFG.seed}:comb-distance-signs:0"
        assert cert.transcript
        g = graft_from_document(cert.instance)
        assert g.graph.vertices
        with flipped_distance_sign():
            again = run_property_suite(1, CFG, ["comb-distance-signs"])
        assert again.certificates[0] == cert

    @pytest.mark.parametrize("name", ["kl-classes-match-distance",
                                      "component-order-axioms"])
    def test_a_failed_layer_audit_becomes_a_certificate(self, monkeypatch, name):
        """Where the layer under test raises its own consistency error,
        the check returns one transcript line for it, and the suite records
        that line as a certificate that carries the instance."""
        layer, line = {
            "kl-classes-match-distance": ("kl_partition", "partition audit failed"),
            "component-order-axioms": ("cathedral_poset", "order axioms failed")}[name]

        def failing(g):
            raise InternalConsistencyError("planted")

        monkeypatch.setattr(properties, layer, failing)
        (prop,) = [p for p in PROPERTIES if p.name == name]
        instance = _MAKERS[prop.mode](CFG, random.Random(f"{CFG.seed}:{name}:0"))
        assert prop.check(instance, random.Random(0)) == (f"{line}: planted",)
        rep = run_property_suite(1, CFG, [name])
        assert rep.results == ((name, 0, 1),)
        (cert,) = rep.certificates
        assert cert.transcript == (f"{line}: planted",)
        assert graft_from_document(cert.instance) == instance

    def test_factor_connected_makers_fall_back_to_a_factor_component(
            self, monkeypatch):
        """With one draw per maker, most draws are rejected and the makers
        restrict them to their largest factor component instead."""
        from bigraft.properties import _MAKERS
        monkeypatch.setattr("bigraft.properties._MAKER_DRAWS", 1)
        tight = GenConfig(seed=0, vertices=(6, 8))
        for mode in ("factor-connected-graft", "factor-connected-comb"):
            for trial in range(20):
                g = _MAKERS[mode](tight, random.Random(f"{mode}:{trial}"))
                assert len(factor_components(g)) == 1
                if mode == "factor-connected-comb":
                    assert classify_comb(g).is_comb

    def test_early_rejection_keeps_every_factor_connected_draw(self):
        """The makers' cheap pre-check rejects only draws that
        factor_components rejects as well, so no verdict changes."""
        from bigraft.properties import _may_be_factor_connected
        cfg = GenConfig(vertices=(2, 8))
        for make in (gen_random_graft, gen_random_comb):
            rng = random.Random(7)
            rejected = accepted = 0
            for _ in range(2000):
                g = make(cfg, rng)
                connected = len(factor_components(g)) == 1
                if not _may_be_factor_connected(g):
                    assert not connected
                    rejected += 1
                accepted += connected
            assert rejected > 1000 and accepted > 50

    def test_zero_circuit_toggle_on_the_four_cycle(self, monkeypatch):
        """c4's terminals are opposite, so its 4-circuit weighs 0 under
        either minimum join and toggling it gives the other one."""
        g = c4()
        cycle = [e.id for e in g.graph.edges]
        assert [f_weight(F, cycle) for F in all_min_joins(g)] == [0, 0]
        assert _check_zero_circuits(g, random.Random(0)) == ()
        monkeypatch.setattr("bigraft.properties.is_minimum_join",
                            lambda g, F: False)
        (line,) = _check_zero_circuits(g, random.Random(0))
        assert line.startswith("toggling the weight-zero circuit")
        assert line.endswith("did not yield a minimum join")

    def test_maker_exhaustion_becomes_a_certificate(self, monkeypatch):
        monkeypatch.setattr("bigraft.properties._MAKER_DRAWS", 1)
        packed = GenConfig(seed=3, vertices=(9, 9), edge_density=1.0)
        rep = run_property_suite(1, packed, ["contraction-stays-valid"])
        assert rep.failures == 1
        cert = rep.certificates[0]
        assert cert.instance == {}
        assert cert.transcript[0].startswith("CapacityError")


class TestMonotoneConsistency:

    def test_one_poset_answers_every_cover(self, monkeypatch):
        """The check builds one order per comb, however many critical sets
        cover a component, and writes one line per critical set covering a
        component that the first does not precede.  The stand-in order
        holds only from a component to itself."""
        built = []

        def only_itself(g):
            built.append(g)
            ids = factor_components(g).ids()
            return CathedralPoset(
                ids, tuple(tuple(a == b for b in ids) for a in ids), (),
                tuple((cid, 1) for cid in ids))

        monkeypatch.setattr(properties, "cathedral_poset", only_itself)
        repeated = False
        for trial in range(6):
            g = _MAKERS["component-rich-comb"](CFG, random.Random(trial))
            built.clear()
            lines = _check_monotone_consistency(g, None)
            comps = factor_components(g)
            covers = [(comp.id, other.id) for comp in comps
                      for xs in enumerate_critical_sets(g, comp.id)
                      for other in comps if other.vertices <= xs]
            assert built == [g]
            assert len(lines) == sum(a != b for a, b in covers)
            repeated |= len(covers) > len(set(covers))
        assert repeated


class TestReportShape:

    def test_mismatched_counts_are_rejected(self):
        cert = Certificate("p", 0, "s", {}, ("boom",))
        with pytest.raises(InternalConsistencyError, match="disagree"):
            SuiteReport(1, (("p", 1, 0),), (cert,), 0.0)

    def test_document_layout(self):
        rep = run_property_suite(1, CFG, ["distance-self-and-symmetry"])
        doc = suite_report_document(rep)
        assert doc["schema"] == "bigraft-report/1"
        assert doc["trials"] == 1
        assert doc["properties"] == [
            {"name": "distance-self-and-symmetry", "passed": 1, "failed": 0}]
        assert doc["certificates"] == []
