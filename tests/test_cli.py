"""Exit codes, output determinism, and format switching on the CLI."""

import argparse
import hashlib
import importlib
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bigraft.cli import _parsers, cli_main
from bigraft.core import BigraftError, InternalConsistencyError
from bigraft.decomposition import factor_components
from bigraft.formats import graft_document, serialize_graft
from bigraft.generators import (
    _MAX_VERTICES,
    GenConfig,
    gen_random_comb,
    gen_random_critical_quasicomb,
    gen_random_graft,
)
from bigraft.instances import c4, chain4, chain_comb, comb_path, k2, p3r
from bigraft.joins import flipped_distance_sign

from oracles import run_cli


USAGE_ERRORS = Path(__file__).resolve().parent / "usage_errors.json"


def two_pass_main(argv):
    """``cli_main`` as it parsed before the dispatch: every argv goes to
    the top parser, which hands the rest to the subcommand's parser."""
    try:
        args = _parsers()[0].parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except BigraftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, make in (("i1", k2), ("i2", c4), ("i3", chain4), ("i4", p3r)):
        p = tmp_path / f"{name}.json"
        p.write_text(serialize_graft(make()))
        paths[name] = str(p)
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "u": "a", "v": "b"}],
        "terminals": ["a", "b"]}))
    paths["plain"] = str(plain)
    split = tmp_path / "split.json"
    split.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d"],
        "edges": [{"id": "e1", "u": "a", "v": "b"},
                  {"id": "e2", "u": "c", "v": "d"}],
        "terminals": ["a", "b", "c", "d"]}))
    paths["split"] = str(split)
    chain = tmp_path / "chain14.json"
    chain.write_text(serialize_graft(chain_comb(14)))
    paths["chain14"] = str(chain)
    deep = tmp_path / "path100.json"
    deep.write_text(serialize_graft(comb_path(100)))
    paths["path100"] = str(deep)
    return paths


class TestExitCodes:

    def test_dist_on_the_single_edge_graft(self, files):
        code, out, err = run_cli("dist", "a", "b", "--input", files["i1"])
        assert code == 0
        assert out.strip() == "-1"

    def test_malformed_input_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, out, err = run_cli("analyze", "--input", str(bad))
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("name,content", [
        ("deep", b"[" * 100000),
        ("long-int", b'{"vertices": [' + b"7" * 5000 + b"]}"),
        ("not-utf8", b'{"vertices": ["\xff\xfe"]}'),
    ])
    def test_unparseable_input_is_a_usage_error(self, tmp_path, name, content):
        bad = tmp_path / f"{name}.json"
        bad.write_bytes(content)
        code, out, err = run_cli("analyze", "--input", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_missing_file_is_a_usage_error(self, tmp_path):
        code, _, err = run_cli("analyze", "--input", str(tmp_path / "ghost"))
        assert code == 2

    def test_unknown_vertex_is_a_usage_error(self, files):
        assert run_cli("dist", "zz", "b", "--input", files["i1"])[0] == 2

    def test_an_int_vertex_answers_only_to_its_own_spelling(self):
        doc = json.dumps({"vertices": [1, 2, 10, -3],
                          "edges": [{"id": "e1", "u": 1, "v": 2},
                                    {"id": "e2", "u": 2, "v": 10},
                                    {"id": "e3", "u": 10, "v": -3}],
                          "terminals": [1, 2]})
        for token in ("1_0", " 10", "+10", "010", "\u0661\u0660"):
            code, out, err = run_cli("dist", token, "1", stdin=doc)
            assert (code, out) == (2, ""), token
            assert err == f"error: unknown vertex id {token!r}\n"
        for token in ("10", "-3"):
            code, out, err = run_cli("dist", token, "1", "--format", "json",
                                     stdin=doc)
            assert (code, err) == (0, ""), token
            assert json.loads(out)["u"] == int(token)

    def test_missing_subcommand_is_a_usage_error(self):
        assert run_cli()[0] == 2

    def test_help_exits_cleanly(self):
        assert run_cli("--help")[0] == 0

    def test_one_parser_serves_every_call(self, files):
        fresh = subprocess.run(
            [sys.executable, "-m", "bigraft.cli", "analyze", "--input", files["i3"]],
            capture_output=True, text=True)
        assert fresh.returncode == 0
        assert run_cli("analyze", "--no-such-flag")[0] == 2
        code, out, _ = run_cli("analyze", "--input", files["i3"])
        assert code == 0
        assert out == fresh.stdout
        assert _parsers()[0] is _parsers()[0]

    def test_dispatch_changes_no_usage_error(self, monkeypatch):
        """Each argv gets the (exit code, stdout, stderr) that the two-pass
        parse gave: the one in ``usage_errors.json``, recorded from it on
        the Python named there, and on any Python the one that parse gives
        now, the top parser handing the rest to the subcommand's."""
        monkeypatch.setenv("COLUMNS", "80")
        recorded = json.loads(USAGE_ERRORS.read_text(encoding="utf-8"))
        python = "%d.%d" % sys.version_info[:2]
        for case in recorded["cases"]:
            argv = case["argv"]
            got = run_cli(*argv)
            assert got == run_cli(*argv, main=two_pass_main), argv
            if python == recorded["recorded_with"]["python"]:
                assert got == (case["exit"], case["stdout"], case["stderr"]), argv

    def test_well_formed_call_parses_once(self, files, monkeypatch):
        calls = []
        real = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            calls.append(parser.prog)
            return real(parser, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        code, _, err = run_cli("analyze", "--format", "json", "--input", files["i3"])
        assert (code, err) == (0, "")
        assert calls == ["bigraft analyze"]

    def test_bipartition_required_where_it_matters(self, files):
        for command in (["classify"], ["poset"], ["critical", "a"],
                        ["critical-sets", "a"], ["upper", "a"]):
            code, _, err = run_cli(*command, "--input", files["plain"])
            assert code == 2
            assert "needs a bipartition" in err

    def test_dot_is_rendered_only_when_asked(self, files, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("export_dot ran for a non-dot format")
        monkeypatch.setattr("bigraft.cli.export_dot", refuse)
        commands = (["analyze", "--input", files["i3"]],
                    ["min-join", "--input", files["i3"]],
                    ["ear-decomp", "r", "--input", files["i4"]],
                    ["poset", "--input", files["i3"]],
                    ["gen"],
                    ["gen", "--mode", "critical-quasicomb"])
        for command in commands:
            for fmt in ("text", "json"):
                code, out, _ = run_cli(*command, "--format", fmt)
                assert code == 0 and out

    def test_failed_verification_exits_one(self, files):
        assert run_cli("critical", "b1", "--input", files["i3"])[0] == 1

    def test_non_critical_root_is_reported_by_critical_refused_by_ear_decomp(
            self, files):
        code, out, _ = run_cli("critical", "b0", "--input", files["i3"])
        assert code == 1 and "critical: no" in out
        code, out, err = run_cli("ear-decomp", "b0", "--input", files["i3"])
        assert code == 2 and out == ""
        assert err.startswith("error: the target is not critical for this root: ")

    @pytest.mark.parametrize("oracle", [(), ("--oracle",)])
    def test_spine_root_is_refused_before_any_join(self, tmp_path,
                                                   monkeypatch, oracle):
        def no_join(g):
            raise AssertionError("a join was computed")
        monkeypatch.setattr("bigraft.cli.min_join", no_join)
        monkeypatch.setattr("bigraft.cli.min_join_bruteforce", no_join)
        star = tmp_path / "star.json"
        star.write_text(json.dumps({
            "vertices": list(range(7)),
            "edges": [{"id": f"e{i}", "u": 0, "v": i} for i in range(1, 7)],
            "terminals": list(range(1, 7)),
            "bipartition": {"A": [0], "B": list(range(1, 7))}}))
        code, out, err = run_cli("ear-decomp", "0", "--input", str(star),
                                 *oracle)
        assert (code, out) == (2, "")
        assert err == "error: root 0 is not on the tooth side\n"

    def test_failed_internal_check_exits_one(self, files, monkeypatch):
        def broken(g):
            raise InternalConsistencyError("forced")
        monkeypatch.setattr("bigraft.cli.kl_partition", broken)
        code, out, err = run_cli("kl", "--input", files["i3"])
        assert code == 1
        assert out == ""
        assert err == "internal check failed: forced\n"

    def test_dot_rejected_where_unavailable(self, files, monkeypatch):
        """The subcommands that draw nothing refuse --format dot as they
        parse, before any work: verify runs no property."""
        def no_suite(*args, **kwargs):
            raise AssertionError("the property suite ran")
        monkeypatch.setattr("bigraft.properties.run_property_suite", no_suite)
        given = ("--input", files["i3"])
        for command in (["dist", "a0", "b0", *given], ["components", *given],
                        ["kl", *given], ["classify", *given],
                        ["critical", "b0", *given], ["critical-sets", "a0", *given],
                        ["upper", "a0", *given], ["verify", "--trials", "200"]):
            code, out, err = run_cli(*command, "--format", "dot")
            assert (code, out) == (2, ""), command
            assert "argument --format: invalid choice: 'dot'" in err, command


class TestAnalysis:

    def test_analyze_full_report(self, files):
        code, out, _ = run_cli("analyze", "--input", files["i3"])
        assert code == 0
        assert "kind: comb" in out
        assert "nu: 2" in out
        assert "poset: a0 -> a1" in out

    def test_analyze_json_document(self, files):
        code, out, _ = run_cli("analyze", "--input", files["i3"],
                               "--format", "json")
        doc = json.loads(out)
        assert doc["nu"] == 2
        assert doc["poset"]["hasse"] == [["a0", "a1"]]
        assert doc["graft"]["bipartition"]["B"] == ["b0", "b1"]

    def test_analyze_plain_graft_has_no_poset(self, files):
        code, out, _ = run_cli("analyze", "--input", files["plain"],
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["poset"] is None

    def test_analyze_reads_stdin(self, files):
        code, out, _ = run_cli("analyze", stdin=serialize_graft(k2()))
        assert code == 0
        assert "nu: 1" in out

    def test_min_join_matches_the_oracle(self, files):
        fast = run_cli("min-join", "--input", files["i2"])
        brute = run_cli("min-join", "--input", files["i2"], "--oracle")
        assert fast[0] == brute[0] == 0
        assert fast[1].splitlines()[0] == brute[1].splitlines()[0] == "size: 2"

    def test_dist_oracle_agreement(self, files):
        for u, v in (("a0", "b0"), ("a0", "a1"), ("b0", "b1"), ("a0", "b1"),
                     ("a0", "a0")):
            fast = run_cli("dist", u, v, "--input", files["i3"])
            brute = run_cli("dist", u, v, "--input", files["i3"], "--oracle")
            assert fast == brute

    def test_dist_across_components(self, files):
        code, out, _ = run_cli("dist", "a", "c", "--input", files["split"])
        assert code == 0
        assert out.strip() == "unreachable"
        code, out, _ = run_cli("dist", "a", "c", "--input", files["split"],
                               "--format", "json")
        assert json.loads(out)["distance"] is None

    def test_components_and_kl(self, files):
        code, out, _ = run_cli("components", "--input", files["i3"])
        assert out.splitlines() == ["a0: a0 b0", "a1: a1 b1"]
        code, out, _ = run_cli("kl", "--input", files["i3"])
        assert out.splitlines() == ["a0: {a0} {b0}", "a1: {a1} {b1}"]

    def test_classify(self, files):
        code, out, _ = run_cli("classify", "--input", files["i4"])
        assert code == 0
        assert "kind: quasicomb-not-comb" in out
        assert "tooth: b1 r" in out
        code, out, _ = run_cli("classify", "--input", files["i3"])
        assert "kind: comb" in out and "nu: 2" in out


class TestStructure:

    def test_critical_report(self, files):
        code, out, _ = run_cli("critical", "r", "--input", files["i4"])
        assert code == 0
        assert "critical: yes" in out
        assert "distance a1: 1" in out

    def test_critical_on_a_deep_path(self, files):
        code, out, _ = run_cli("critical", "r", "--input", files["path100"])
        assert code == 0
        assert "critical: yes" in out
        assert "distance a99: 1" in out

    def test_ear_decomp(self, files):
        code, out, _ = run_cli("ear-decomp", "r", "--input", files["i4"])
        assert code == 0
        assert "valid: yes" in out
        code, out, _ = run_cli("ear-decomp", "r", "--input", files["i4"],
                               "--format", "json")
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["decomposition"]["root"] == "r"

    def test_critical_sets_listing(self, files):
        code, out, _ = run_cli("critical-sets", "a0", "--input", files["i3"])
        assert code == 0
        assert out.splitlines() == ["a0 b0", "a0 a1 b0 b1"]

    def test_poset_formats(self, files):
        text = run_cli("poset", "--input", files["i3"])
        assert text[0] == 0
        assert "a0 -> a1" in text[1]
        dot = run_cli("poset", "--input", files["i3"], "--format", "dot")
        assert dot[1].count("->") == 1
        doc = json.loads(run_cli("poset", "--input", files["i3"],
                                 "--format", "json")[1])
        assert doc["hasse"] == [["a0", "a1"]]

    def test_poset_beyond_the_enumeration_limit(self, files):
        code, out, _ = run_cli("poset", "--input", files["chain14"])
        assert code == 0
        heights = dict(line.removeprefix("height ").split(": ")
                       for line in out.splitlines()
                       if line.startswith("height "))
        assert heights == {f"a{i}": str(i + 1) for i in range(14)}
        assert run_cli("analyze", "--input", files["chain14"])[0] == 0

    def test_critical_sets_refuse_beyond_the_limit(self, files):
        code, out, err = run_cli("critical-sets", "a0",
                                 "--input", files["chain14"])
        assert code == 2
        assert out == ""
        assert "14 factor components exceed the limit of 12" in err

    def test_upper_attachment(self, files):
        code, out, _ = run_cli("upper", "a0", "--input", files["i3"])
        assert code == 0
        assert "holds: yes" in out
        doc = json.loads(run_cli("upper", "a0", "--input", files["i3"],
                                 "--format", "json")[1])
        assert doc["entries"][0]["witness_class"] == ["b0"]


class TestVerify:

    def test_small_selection_passes(self):
        code, out, err = run_cli("verify", "--trials", "2", "--seed", "4",
                                 "--properties", "comb-kl-shape")
        assert code == 0
        assert "failures: 0" in out
        assert "wall time" in err

    def test_stdout_is_deterministic(self):
        argv = ("verify", "--trials", "2", "--seed", "4",
                "--properties", "distance-self-and-symmetry,comb-kl-shape")
        assert run_cli(*argv)[1] == run_cli(*argv)[1]

    def test_counterexamples_are_listed(self):
        with flipped_distance_sign():
            code, out, _ = run_cli("verify", "--properties",
                                   "factor-connected-nonpositive",
                                   "--trials", "2", "--seed", "1")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "factor-connected-nonpositive: 0 passed, 2 failed"
        assert lines[1] == ("counterexample factor-connected-nonpositive "
                            "(seed 1:factor-connected-nonpositive:0):")
        assert lines[2].startswith("  f_distance(")
        assert lines[-1] == "failures: 2"

    def test_decomposition_counterexample_carries_its_target(self):
        """A critical-quasicomb instance is certified by its target graft,
        which replays as an ordinary analyze input."""
        from bigraft.properties import _MAKERS
        with flipped_distance_sign():
            code, out, _ = run_cli("verify", "--properties",
                                   "ear-composition-critical", "--trials", "1",
                                   "--seed", "1", "--format", "json")
        assert code == 1
        cert, = json.loads(out)["certificates"]
        assert cert["seed"] == "1:ear-composition-critical:0"
        d = _MAKERS["critical-quasicomb"](
            GenConfig(seed=1), random.Random(cert["seed"]))
        assert cert["instance"] == graft_document(d.target)
        assert run_cli("analyze", stdin=json.dumps(cert["instance"]))[0] == 0

    def test_empty_selection_is_a_usage_error(self):
        code, _, err = run_cli("verify", "--trials", "1", "--properties", "")
        assert code == 2
        assert "empty property selection" in err

    def test_factor_connected_maker_never_gives_up(self):
        """Seeds 61, 630 and 737 exhaust the maker's draw budget; the
        fallback to a factor component must cover them like every seed."""
        failing = [seed for seed in range(1000)
                   if run_cli("verify", "--trials", "1", "--seed", str(seed),
                              "--properties",
                              "factor-connected-nonpositive")[0] != 0]
        assert failing == []

    def test_unknown_property_is_a_usage_error(self):
        assert run_cli("verify", "--trials", "1",
                       "--properties", "bogus")[0] == 2


class TestGen:

    def test_deterministic_by_seed(self):
        a = run_cli("gen", "--seed", "5", "--mode", "comb")
        b = run_cli("gen", "--seed", "5", "--mode", "comb")
        assert a == b and a[0] == 0

    def test_comb_output_replays_through_analyze(self):
        _, out, _ = run_cli("gen", "--seed", "9", "--mode", "comb")
        code, report, _ = run_cli("analyze", stdin=out)
        assert code == 0
        assert "kind: comb" in report

    def test_quasicomb_mode_emits_decomposition_and_join(self):
        _, out, _ = run_cli("gen", "--seed", "3",
                            "--mode", "critical-quasicomb",
                            "--format", "json")
        doc = json.loads(out)
        assert doc["decomposition"]["root"] == "r"
        assert doc["join"]

    def test_dot_output(self):
        _, out, _ = run_cli("gen", "--seed", "5", "--format", "dot")
        assert out.startswith("graph bigraft {")

    def test_bad_density_is_a_usage_error(self):
        assert run_cli("gen", "--edge-density", "1.5")[0] == 2

    @pytest.mark.parametrize("mode", ["graft", "comb"])
    def test_budget_outside_the_quasicomb_mode_is_a_usage_error(self, mode):
        code, out, err = run_cli("gen", "--mode", mode, "--budget", "5")
        assert (code, out) == (2, "")
        assert err == ("error: --budget caps the ear steps of "
                       "--mode critical-quasicomb only\n")

    def test_budget_caps_the_quasicomb_steps(self):
        def steps(*budget):
            code, out, _ = run_cli("gen", "--seed", "3", "--format", "json",
                                   "--mode", "critical-quasicomb", *budget)
            assert code == 0
            return len(json.loads(out)["decomposition"]["steps"])
        assert steps("--budget", "2") == 2 < steps()

    def test_zero_budget_is_a_usage_error(self):
        code, out, err = run_cli("gen", "--mode", "critical-quasicomb",
                                 "--budget", "0")
        assert (code, out) == (2, "")
        assert err == "error: the ear-step budget must be at least 1\n"

    def test_density_help_states_range_and_default(self):
        code, out, _ = run_cli("gen", "--help")
        assert code == 0
        text = " ".join(out.split())
        assert "--mode graft or comb, in [0, 1] (default 0.35)" in text
        assert "--mode graft is a terminal, in [0, 1] (default 0.5)" in text

    def test_generator_defaults_come_from_gen_config(self):
        code, out, _ = run_cli("gen", "--help")
        assert code == 0
        text = " ".join(out.split())
        lo, hi = GenConfig.vertices
        assert f"least vertex count drawn (default {lo})" in text
        assert f"most vertex count drawn (default {hi})" in text
        assert f"PRNG seed (default {GenConfig.seed})" in text
        args = _parsers()[0].parse_args(["gen"])
        assert (args.min_vertices, args.max_vertices, args.seed) == (
            lo, hi, GenConfig.seed)

    def test_vertex_count_past_the_cap_is_a_usage_error(self):
        n = str(_MAX_VERTICES + 1)
        code, out, err = run_cli("gen", "--min-vertices", n, "--max-vertices", n)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


# Each subcommand with its positional arguments and other required flags,
# the fixture it runs on, and which of the five options that every
# subcommand once accepted its handler reads.
SUBCOMMANDS = {
    "analyze": ((), "i3", {"--format", "--input", "--oracle"}),
    "min-join": ((), "i3", {"--format", "--input", "--oracle"}),
    "dist": (("a0", "b1"), "i3", {"--format", "--input", "--oracle"}),
    "components": ((), "i3", {"--format", "--input"}),
    "kl": ((), "i3", {"--format", "--input"}),
    "classify": ((), "i3", {"--format", "--input"}),
    "critical": (("r",), "i4", {"--format", "--input"}),
    "ear-decomp": (("r",), "i4", {"--format", "--input", "--oracle"}),
    "critical-sets": (("a0",), "i3", {"--format", "--input"}),
    "poset": ((), "i3", {"--format", "--input"}),
    "upper": (("a0",), "i3", {"--format", "--input"}),
    "verify": (("--trials", "1"), None, {"--format", "--seed"}),
    "gen": ((), None, {"--format", "--seed"}),
}
OLD_FLAGS = ("--input", "--seed", "--format", "--oracle", "--max-brute")


def old_flag_argv(flag, input_path):
    return {"--input": [flag, input_path], "--seed": [flag, "1"],
            "--format": [flag, "json"], "--oracle": [flag],
            "--max-brute": [flag, "22"]}[flag]


class TestOptionReaders:

    def test_thirty_settable_pairs(self):
        sub = _parsers()[0]._subparsers._group_actions[0]
        settable = {(name, flag) for name, p in sub.choices.items()
                    for flag in OLD_FLAGS if flag in p._option_string_actions}
        assert settable == {(name, flag)
                            for name, (_, _, reads) in SUBCOMMANDS.items()
                            for flag in reads}
        assert len(settable) == 30

    @pytest.mark.parametrize("flag", OLD_FLAGS)
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_only_read_options_are_accepted(self, files, command, flag):
        args, fixture, reads = SUBCOMMANDS[command]
        path = files[fixture or "i3"]
        stdin = Path(path).read_text() if fixture else ""
        code, out, err = run_cli(command, *args,
                                 *old_flag_argv(flag, path), stdin=stdin)
        if flag in reads:
            assert code in (0, 1), err
        else:
            assert code == 2
            assert out == ""
            assert f"unrecognized arguments: {flag}" in err

    def test_unmapped_library_error_is_a_usage_error(self, files,
                                                     monkeypatch):
        def fail(g):
            raise BigraftError("x")
        monkeypatch.setattr("bigraft.cli.factor_components", fail)
        code, out, err = run_cli("components", "--input", files["i3"])
        assert (code, out, err) == (2, "", "error: x\n")


VERTEX_IDS = st.sampled_from(
    [f"v{i}" for i in range(8)] + list(range(8))
    + ["r", "a0", "a1", "b0", "b1", "zz"])


@st.composite
def tiny_documents(draw):
    """A graft document on at most 8 vertices and 12 edges, with or without
    a bipartition.  Each vertex id is drawn as an int or a str on its own,
    so one document may mix both.  Its terminals are the odd vertices of a
    drawn edge subset, so each graph component holds an even number of
    them."""
    n = draw(st.integers(1, 8))
    vertices = [i if draw(st.booleans()) else f"v{i}" for i in range(n)]
    side = [draw(st.booleans()) for _ in vertices]
    across = draw(st.booleans())
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if side[i] != side[j] or not across]
    edges = (draw(st.lists(st.sampled_from(pairs), max_size=12))
             if pairs else [])
    odd: set = set()
    for i, j in draw(st.lists(st.sampled_from(edges), unique=True)
                     if edges else st.just([])):
        odd ^= {i, j}
    doc = {"vertices": vertices,
           "edges": [{"id": f"e{k}", "u": vertices[i], "v": vertices[j]}
                     for k, (i, j) in enumerate(edges)],
           "terminals": [vertices[i] for i in sorted(odd)]}
    if draw(st.booleans()):
        doc["bipartition"] = {
            "A": [v for v, s in zip(vertices, side) if s],
            "B": [v for v, s in zip(vertices, side) if not s]}
    return doc


def broken(doc):
    """The document with one field dropped or replaced by junk."""
    return st.sampled_from(sorted(doc)).flatmap(lambda key: st.one_of(
        st.just({k: v for k, v in doc.items() if k != key}),
        st.one_of(st.none(), st.integers(), st.text(max_size=4),
                  st.lists(st.integers(-1, 8), max_size=3)).map(
            lambda junk: {**doc, key: junk})))


def generated(seed, mode):
    """A sampled comb or critical quasicomb on at most 8 vertices."""
    cfg = GenConfig(seed=seed, vertices=(2, 8), mode=mode)
    if mode == "comb":
        return graft_document(gen_random_comb(cfg))
    return graft_document(gen_random_critical_quasicomb(cfg)[0].target)


DOCUMENTS = st.one_of(
    tiny_documents().map(json.dumps),
    st.builds(generated, st.integers(0, 99),
              st.sampled_from(["comb", "critical-quasicomb"])).map(json.dumps),
    tiny_documents().flatmap(broken).map(json.dumps),
    st.text(max_size=20),
    st.sampled_from(["", "[]", "{}", "null", "[" * 5000, "1" * 5000]))
FLAG_VALUES = {
    "--input": st.just("FILE"),
    "--seed": st.integers(-2, 2 ** 40).map(str),
    "--format": st.sampled_from(["text", "json", "dot"]),
    "--oracle": st.none(),
    "--max-brute": st.integers(-1, 40).map(str),
}
# Options of their own, each size kept below its cap.
OWN_OPTIONS = {
    "verify": st.sampled_from(
        [[], ["--properties", "comb-kl-shape"], ["--properties", ""],
         ["--properties", "bogus"]]).map(lambda extra: ["--trials", "1"] + extra),
    "gen": st.tuples(
        st.sampled_from(["graft", "comb", "critical-quasicomb"]),
        st.integers(-1, 6), st.integers(1, 12), st.integers(0, 5),
        st.floats(-0.1, 1.0), st.floats(-0.1, 1.0)).map(
        lambda t: ["--mode", t[0], "--min-vertices", str(t[1]),
                   "--max-vertices", str(t[2]), "--budget", str(t[3]),
                   "--edge-density", str(t[4]),
                   "--terminal-density", str(t[5])]),
}
POSITIONALS = {"dist": 2, "critical": 1, "ear-decomp": 1,
               "critical-sets": 1, "upper": 1}


class TestCliFuzz:

    @settings(deadline=None, max_examples=150)
    @given(command=st.sampled_from(sorted(SUBCOMMANDS)),
           document=DOCUMENTS, data=st.data())
    def test_every_run_ends_in_an_exit_code(self, command, document, data):
        """Any subset of the five old options, drawn half the time from
        those the subcommand reads, on any document."""
        pool = (OLD_FLAGS if data.draw(st.booleans())
                else sorted(SUBCOMMANDS[command][2]))
        flags = data.draw(st.lists(st.sampled_from(pool), unique=True))
        argv = [command]
        argv += [str(data.draw(VERTEX_IDS))
                 for _ in range(POSITIONALS.get(command, 0))]
        if command in OWN_OPTIONS:
            argv += data.draw(OWN_OPTIONS[command])
        with tempfile.TemporaryDirectory() as tmp:
            for flag in flags:
                value = data.draw(FLAG_VALUES[flag])
                if flag == "--input":
                    value = str(Path(tmp) / "graft.json")
                    Path(value).write_text(document)
                argv += [flag] if value is None else [flag, value]
            code, out, err = run_cli(*argv, stdin=document)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert out == ""


def mixed_ids(doc):
    """The document with every other a*/b* vertex, in sorted order, renamed
    to a distinct int id."""
    named = sorted(v for v in doc["vertices"] if v[0] in "ab")
    rename = {v: k for k, v in enumerate(named) if k % 2 == 0}

    def ids(vs):
        return [rename.get(v, v) for v in vs]

    out = {"vertices": ids(doc["vertices"]),
           "edges": [{**e, "u": rename.get(e["u"], e["u"]),
                      "v": rename.get(e["v"], e["v"])} for e in doc["edges"]],
           "terminals": ids(doc["terminals"])}
    out["bipartition"] = {side: ids(vs)
                          for side, vs in doc["bipartition"].items()}
    return out


def mixed_id_inputs():
    """(document, commands) for fixed-seed combs with at least two factor
    components and critical quasicombs with more than ten terminals."""
    out = []
    for seed in range(8):
        comb = gen_random_comb(GenConfig(seed=seed, vertices=(8, 14)))
        if len(factor_components(comb)) >= 2:
            out.append((graft_document(comb),
                        ("analyze", "min-join", "poset", "upper")))
        d, _ = gen_random_critical_quasicomb(GenConfig(
            seed=seed, vertices=(16, 20), mode="critical-quasicomb"))
        if len(d.target.terminals) > 10:
            out.append((graft_document(d.target),
                        ("analyze", "min-join", "ear-decomp r")))
    return out


def json_run(argv, stdin):
    """The exit code and JSON report of one run that must end in 0 or 1."""
    code, out, err = run_cli(*argv, "--format", "json", stdin=stdin)
    assert code in (0, 1), (argv, err)
    assert "Traceback" not in err
    return code, json.loads(out)


def mixed_id_summary(doc, commands):
    """Per command, the exit code and the figures that do not depend on
    vertex names: nu, the factor-component and Hasse-pair counts, the ear
    decomposition's verdict and the upper bound verdicts."""
    stdin = json.dumps(doc)
    summary = {}
    for command in commands:
        if command == "upper":
            _, report = json_run(["analyze"], stdin)
            summary[command] = sorted(
                json_run(["upper", str(c["id"])], stdin)[1]["holds"]
                for c in report["factor_components"])
            continue
        code, report = json_run(command.split(), stdin)
        if command == "analyze":
            poset = report["poset"]
            summary[command] = (code, report["nu"],
                                len(report["factor_components"]),
                                None if poset is None else len(poset["hasse"]))
        elif command == "min-join":
            summary[command] = (code, report["size"])
        elif command == "poset":
            summary[command] = (code, len(report["components"]),
                                len(report["hasse"]))
        else:
            summary[command] = (code, report["valid"])
    return summary


class TestMixedIds:
    """Documents whose vertex ids mix ints and strs run to an exit code and
    report the same figures as the all-str document."""

    def test_mixed_ids_match_the_str_run(self):
        inputs = mixed_id_inputs()
        assert sum("poset" in commands for _, commands in inputs) >= 4
        assert sum("ear-decomp r" in commands for _, commands in inputs) >= 2
        for doc, commands in inputs:
            assert (mixed_id_summary(mixed_ids(doc), commands)
                    == mixed_id_summary(doc, commands))


# sha256 over the exit code and stdout of every case in TestStdoutDigest,
# recorded when the mixed-id documents joined the cases, before the parse
# pass, the report builders and the id ordering were reworked.
CLI_STDOUT_DIGEST = (
    "de6f5d2870625e8cbf4e0c5299c029a3eeafc008b43e7e073092e0b6b473df82")


def digest_cases():
    """(argv, stdin) pairs over fixed-seed inputs, each command in every
    format it supports."""
    formats = ("text", "json", "dot")
    inputs = []
    for seed in range(3):
        graft = gen_random_graft(GenConfig(seed=seed, vertices=(6, 10)))
        comb = gen_random_comb(GenConfig(seed=seed, vertices=(8, 12)))
        d, _ = gen_random_critical_quasicomb(GenConfig(
            seed=seed, vertices=(8, 14), mode="critical-quasicomb"))
        inputs += [(graft, ("analyze", "min-join")),
                   (comb, ("analyze", "min-join", "poset")),
                   (d.target, ("analyze", "min-join", "ear-decomp r"))]
    for g, commands in inputs:
        stdin = json.dumps(graft_document(g))
        for command in commands:
            for fmt in formats:
                yield command.split() + ["--format", fmt], stdin
    # The TestMixedIds documents with their int/str ids mixed; ``upper``
    # checks the component of vertex 0, the least vertex.
    for doc, commands in mixed_id_inputs():
        stdin = json.dumps(mixed_ids(doc))
        for command in commands:
            argv = ["upper", "0"] if command == "upper" else command.split()
            for fmt in formats:
                yield argv + ["--format", fmt], stdin
    for mode in ("graft", "comb", "critical-quasicomb"):
        for seed in range(3):
            for fmt in formats:
                yield ["gen", "--mode", mode, "--seed", str(seed),
                       "--format", fmt], ""
    for fmt in ("text", "json"):
        yield ["verify", "--trials", "1", "--format", fmt], ""


class TestStdoutDigest:

    def test_fixed_seed_stdout_unchanged(self):
        h = hashlib.sha256()
        for argv, stdin in digest_cases():
            code, out, _ = run_cli(*argv, stdin=stdin)
            h.update(f"{argv} {code}\n{out}".encode())
        assert h.hexdigest() == CLI_STDOUT_DIGEST


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bigraft.cli", "gen", "--seed", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["vertices"]


def test_cli_main_is_exported_lazily():
    """Importing the package leaves the CLI unloaded, and the package's
    ``__getattr__`` still serves ``bigraft.cli_main``."""
    import bigraft
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bigraft; print('bigraft.cli' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.stdout == "False\n"
    assert bigraft.cli_main is bigraft.__getattr__("cli_main") is cli_main
    assert "cli_main" in bigraft.__all__
    with pytest.raises(AttributeError):
        bigraft.__getattr__("no_such_name")


def test_project_script_target_takes_argv():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["bigraft"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    code, out, _ = run_cli("--help", main=entry)
    assert code == 0 and "usage:" in out
