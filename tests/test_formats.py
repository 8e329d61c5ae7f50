"""JSON parsing diagnostics, canonical serialization, and DOT output."""

import gc
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from bigraft.cathedral import cathedral_poset, upper_bound_check
from bigraft.combs import build_graft_ear_decomposition
from bigraft.core import (
    Graft,
    GraftInputError,
    GraftValidationError,
    OrderedBipartiteGraft,
)
from bigraft.decomposition import factor_components
from bigraft.formats import (
    decomposition_document,
    dumps,
    export_dot,
    graft_document,
    graft_from_document,
    parse_graft_json,
    poset_document,
    serialize_graft,
    upper_report_document,
)
from bigraft.generators import (
    GenConfig,
    gen_random_comb,
    gen_random_critical_quasicomb,
    gen_random_graft,
)
from bigraft.instances import c4, chain4, k2, p3r
from bigraft.joins import min_join


def mixed_id_document(g):
    """graft_document(g) with every other vertex, in sorted order, renamed
    to a distinct int."""
    doc = graft_document(g)
    rename = {v: k for k, v in enumerate(doc["vertices"]) if k % 2 == 0}

    def ids(vs):
        return [rename.get(v, v) for v in vs]

    out = {"vertices": ids(doc["vertices"]),
           "edges": [{**e, "u": rename.get(e["u"], e["u"]),
                      "v": rename.get(e["v"], e["v"])} for e in doc["edges"]],
           "terminals": ids(doc["terminals"])}
    if "bipartition" in doc:
        out["bipartition"] = {side: ids(vs)
                              for side, vs in doc["bipartition"].items()}
    return out


def minimal_doc(**overrides):
    doc = {"vertices": ["a", "b"],
           "edges": [{"id": "e", "u": "a", "v": "b"}],
           "terminals": ["a", "b"]}
    doc.update(overrides)
    return doc


class TestParse:

    @pytest.mark.parametrize("make", [k2, c4, chain4, p3r])
    def test_round_trip_identity(self, make):
        g = make()
        text = serialize_graft(g)
        back = parse_graft_json(text)
        assert back == g
        assert serialize_graft(back) == text

    def test_generated_grafts_round_trip_with_mixed_ids(self):
        """Every graft the generators draw, with str ids and with every
        other vertex renamed to an int, parses back from its own text."""
        for seed in range(6):
            cfg = GenConfig(seed=seed)
            for g in (gen_random_graft(cfg), gen_random_comb(cfg),
                      gen_random_critical_quasicomb(cfg)[0].target):
                mixed = graft_from_document(mixed_id_document(g))
                assert {type(v) for v in mixed.graph.vertices} == {int, str}
                for h in (g, mixed):
                    assert parse_graft_json(serialize_graft(h)) == h

    def test_without_bipartition_builds_a_plain_graft(self):
        g = graft_from_document(minimal_doc())
        assert type(g) is Graft
        assert g.terminals == {"a", "b"}

    def test_with_bipartition_builds_an_ordered_graft(self):
        g = graft_from_document(minimal_doc(
            bipartition={"A": ["a"], "B": ["b"]}))
        assert isinstance(g, OrderedBipartiteGraft)
        assert g.spine == {"a"} and g.tooth == {"b"}

    def test_integer_vertex_ids_survive(self):
        g = graft_from_document({
            "vertices": [2, 10], "terminals": [2, 10],
            "edges": [{"id": "e", "u": 2, "v": 10}]})
        assert 10 in g.graph.vertices

    def test_syntax_errors_carry_position(self):
        with pytest.raises(GraftInputError,
                           match=r"not valid JSON \(line 1, column"):
            parse_graft_json("{nope")

    @pytest.mark.parametrize("doc,path", [
        ([], r"\$:"),
        ({"vertices": ["a"], "edges": []}, r"\$: missing field \'terminals\'"),
        (minimal_doc(extra=1), r"\$: unknown fields"),
        (minimal_doc(vertices="ab"), r"\$\.vertices: expected a list"),
        (minimal_doc(vertices=["a", True]), r"\$\.vertices\[1\]: ids are"),
        (minimal_doc(vertices=["a", "a"]), r"\$\.vertices\[1\]: duplicate"),
        (minimal_doc(edges={"id": "e"}), r"\$\.edges: expected a list"),
        (minimal_doc(edges=["e"]), r"\$\.edges\[0\]: expected an object"),
        (minimal_doc(edges=[{"id": "e", "u": "a"}]),
         r"\$\.edges\[0\]: expected exactly"),
        (minimal_doc(edges=[{"id": "", "u": "a", "v": "b"}]),
         r"\$\.edges\[0\]\.id: edge ids are nonempty strings"),
        (minimal_doc(edges=[{"id": "e", "u": "a", "v": "b"},
                            {"id": "e", "u": "b", "v": "a"}]),
         r"\$\.edges\[1\]\.id: duplicate edge id"),
        (minimal_doc(edges=[{"id": "e", "u": "z", "v": "b"}]),
         r"\$\.edges\[0\]\.u: unknown vertex 'z'"),
        (minimal_doc(edges=[{"id": "e", "u": "a", "v": "a"}]),
         r"\$\.edges\[0\]: self-loop at 'a'"),
        (minimal_doc(terminals=["a", "z"]),
         r"\$\.terminals\[1\]: unknown vertex 'z'"),
        (minimal_doc(bipartition=["a"]),
         r"\$\.bipartition: expected exactly the fields A and B"),
        (minimal_doc(bipartition={"A": ["a"], "B": ["b"], "C": []}),
         r"\$\.bipartition: expected exactly the fields A and B"),
        (minimal_doc(bipartition={"A": ["a", "z"], "B": ["b"]}),
         r"\$\.bipartition\.A\[1\]: unknown vertex 'z'"),
        (minimal_doc(bipartition={"A": ["a", "b"], "B": ["b"]}),
         r"\$\.bipartition: the sides overlap"),
        (minimal_doc(vertices=["a", "b", "c"],
                     bipartition={"A": ["a"], "B": ["b"]}),
         r"\$\.bipartition: the sides do not cover"),
        # Inputs that the set-based checks of a plain id list or edge must
        # still refuse with the message of the entry-by-entry walk.
        (minimal_doc(vertices=[1, 2], terminals=[],
                     edges=[{"id": "e", "u": 2, "v": True}]),
         r"^\$\.edges\[0\]\.v: unknown vertex True$"),
        (minimal_doc(vertices=[1, 2], terminals=[],
                     edges=[{"id": "e", "u": 1.0, "v": 2}]),
         r"^\$\.edges\[0\]\.u: unknown vertex 1\.0$"),
        (minimal_doc(edges=[{"id": "e", "u": "a", "v": "z"}]),
         r"^\$\.edges\[0\]\.v: unknown vertex 'z'$"),
        (minimal_doc(vertices=[1, "a"], edges=[], terminals=[True]),
         r"^\$\.terminals\[0\]: ids are strings or integers$"),
        (minimal_doc(vertices=[1, "1", 1]),
         r"^\$\.vertices\[2\]: duplicate id 1$"),
        (minimal_doc(edges=[{"id": "e", "u": "a", "v": "b", "w": "c"}]),
         r"^\$\.edges\[0\]: expected exactly the fields id, u, v$"),
    ])
    def test_field_path_diagnostics(self, doc, path):
        with pytest.raises(GraftInputError, match=path):
            graft_from_document(doc)

    def test_parity_violations_surface_from_the_graft_layer(self):
        doc = minimal_doc(terminals=["a"])
        with pytest.raises(GraftValidationError) as info:
            graft_from_document(doc)
        assert info.value.invariant == "terminal-parity"


class TestDocuments:

    def test_graft_document_is_sorted(self):
        doc = graft_document(c4())
        assert doc["vertices"] == sorted(doc["vertices"])
        assert doc["terminals"] == ["v2", "v4"]
        assert doc["bipartition"]["A"] == ["v1", "v3"]

    def test_serialization_is_stable(self):
        g = chain4()
        assert serialize_graft(g) == serialize_graft(g)
        assert serialize_graft(g).endswith("\n")

    def test_decomposition_document_shape(self):
        g = p3r()
        d = build_graft_ear_decomposition(g, "r", min_join(g))
        doc = decomposition_document(d)
        assert doc["root"] == "r"
        assert doc["target"] == graft_document(g)
        for step in doc["steps"]:
            assert step["kind"] in ("straight", "round")
            assert len(step["vertices"]) == len(step["edges"]) + 1 or \
                step["vertices"][0] == step["vertices"][-1]
        json.loads(dumps(doc))

    def test_poset_document(self):
        doc = poset_document(cathedral_poset(chain4()))
        assert doc["components"] == ["a0", "a1"]
        assert doc["relation"] == [[True, True], [False, True]]
        assert doc["hasse"] == [["a0", "a1"]]
        assert dict(map(tuple, doc["heights"])) == {"a0": 1, "a1": 2}

    def test_upper_report_document(self):
        doc = upper_report_document(upper_bound_check(chain4(), "a0"))
        assert doc["component"] == "a0"
        assert doc["holds"] is True
        assert doc["entries"][0]["witness_class"] == ["b0"]


# Strings lean on what the writer must escape: quotes, backslashes,
# control characters, non-ASCII and lone surrogates.
JSON_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'
                                    'aZ é€\u2028😀\ud800')
                    | st.characters())
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.sampled_from([-(2 ** 64), 2 ** 63, -(10 ** 80), 10 ** 300])
                | JSON_TEXT)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(JSON_TEXT, kids, max_size=4)),
    max_leaves=25)


class TestDumps:

    @settings(deadline=None, max_examples=300)
    @given(JSON_TREES)
    def test_matches_the_stdlib(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_relation_rows_and_nones(self):
        """A poset's k x k bool relation, and None, True and False beside
        str and int in dicts and lists, as the stdlib writes them."""
        rng = random.Random(97)
        k = 40
        doc = {"relation": [[rng.random() < 0.5 for _ in range(k)]
                            for _ in range(k)],
               "mixed": [None, True, 0, "x", False, None, [None]],
               "none": None, "yes": True, "no": False, "n": 3}
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_empty_containers_and_tuples(self):
        doc = {"b": [], "a": {}, "c": ((), (1, "x")), "d": [[], {}]}
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)
        assert dumps([]) == "[]" and dumps({}) == "{}"
        for scalar in ("x", False, True, None, 3):
            assert dumps(scalar) == json.dumps(scalar, indent=2, sort_keys=True)

    def test_leaves_no_garbage(self):
        doc = {"graft": graft_document(p3r()), "rows": [[1, "a"], ()],
               "poset": poset_document(cathedral_poset(chain4()))}
        gc.collect()
        gc.disable()
        try:
            dumps(doc)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_rejects_what_json_cannot_hold(self):
        with pytest.raises(TypeError):
            dumps({"a": {1, 2}})


# chain4 and p3r with `"` and `\` in vertex ids and edge ids.
AWKWARD_CHAIN4 = {
    "vertices": ['a"\\0', "b0", 'a\\1', 'b"1'],
    "edges": [{"id": 'e"\\0', "u": 'a"\\0', "v": "b0"},
              {"id": "c", "u": "b0", "v": 'a\\1'},
              {"id": 'e\\"1', "u": 'a\\1', "v": 'b"1'}],
    "terminals": ['a"\\0', "b0", 'a\\1', 'b"1'],
    "bipartition": {"A": ['a"\\0', 'a\\1'], "B": ["b0", 'b"1']}}
AWKWARD_P3R = {
    "vertices": ['r"\\', "a1", "b1"],
    "edges": [{"id": 'c\\"', "u": 'r"\\', "v": "a1"},
              {"id": "e1", "u": "a1", "v": "b1"}],
    "terminals": ["a1", "b1"],
    "bipartition": {"A": ["a1"], "B": ['r"\\', "b1"]}}


def plain(g) -> Graft:
    return Graft(g.graph, g.terminals)


def drawn_with_join(g) -> str:
    return export_dot(g, join=min_join(g))


def awkward_poset():
    g = graft_from_document(AWKWARD_CHAIN4)
    return export_dot(cathedral_poset(g), components=factor_components(g))


def awkward_decomposition():
    g = graft_from_document(AWKWARD_P3R)
    return export_dot(build_graft_ear_decomposition(g, 'r"\\', min_join(g)))


# Whole ``export_dot`` strings on the paths the CLI's stdout digest does
# not reach: a poset drawn without components, a plain graft with and
# without a join, and ids holding both `"` and `\` in node labels and in
# edge labels.  Each string is the DOT text as written, so a raw string.
DOT_PINS = [
    pytest.param(lambda: export_dot(cathedral_poset(chain4())), r'''digraph comb_order {
  "a0" [label="a0"];
  "a1" [label="a1"];
  "a0" -> "a1";
}
''', id="poset-without-components"),
    pytest.param(lambda: export_dot(plain(p3r())), r'''graph bigraft {
  "a1" [peripheries=2];
  "b1" [peripheries=2];
  "r";
  "a1" -- "r" [label="c"];
  "a1" -- "b1" [label="e1"];
}
''', id="plain-graft"),
    pytest.param(lambda: drawn_with_join(plain(p3r())), r'''graph bigraft {
  "a1" [peripheries=2];
  "b1" [peripheries=2];
  "r";
  "a1" -- "r" [label="c"];
  "a1" -- "b1" [label="e1", style=bold, penwidth=2.2];
}
''', id="plain-graft-with-join"),
    pytest.param(awkward_poset, r'''digraph comb_order {
  "a\"\\0" [label="a\"\\0\n{a\"\\0, b0}"];
  "a\\1" [label="a\\1\n{a\\1, b\"1}"];
  "a\"\\0" -> "a\\1";
}
''', id="awkward-poset-labels"),
    pytest.param(lambda: drawn_with_join(graft_from_document(AWKWARD_CHAIN4)),
                 r'''graph bigraft {
  "a\"\\0" [shape=ellipse, peripheries=2];
  "a\\1" [shape=ellipse, peripheries=2];
  "b\"1" [shape=box, peripheries=2];
  "b0" [shape=box, peripheries=2];
  "a\\1" -- "b0" [label="c"];
  "a\"\\0" -- "b0" [label="e\"\\0", style=bold, penwidth=2.2];
  "a\\1" -- "b\"1" [label="e\\\"1", style=bold, penwidth=2.2];
}
''', id="awkward-graft-edge-labels"),
    pytest.param(awkward_decomposition, r'''graph ear_decomposition {
  "a1" [shape=ellipse, peripheries=2];
  "b1" [shape=box, peripheries=2];
  "r\"\\" [shape=box];
  "a1" -- "r\"\\" [label="0:c\\\""];
  "b1" -- "a1" [label="1:e1"];
}
''', id="awkward-step-edge-labels"),
]


class TestDot:

    def test_graft_dot_styles_the_join(self):
        g = chain4()
        out = export_dot(g, join=min_join(g))
        assert out.startswith("graph bigraft {")
        assert out.count("--") == 3
        assert out.count("penwidth") == 2
        assert 'peripheries=2' in out
        assert out == export_dot(g, join=min_join(g))

    def test_plain_graft_dot_has_no_side_shapes(self):
        g = graft_from_document(minimal_doc())
        out = export_dot(g)
        assert "shape=" not in out
        assert "penwidth" not in out

    def test_poset_dot_has_one_hasse_edge(self):
        out = export_dot(cathedral_poset(chain4()))
        assert out.startswith("digraph comb_order {")
        assert out.count("->") == 1
        assert '"a0" -> "a1";' in out

    def test_poset_dot_component_labels(self):
        g = chain4()
        out = export_dot(cathedral_poset(g),
                         components=factor_components(g))
        assert r'label="a0\n{a0, b0}"' in out

    def test_decomposition_dot_tags_edges_by_step(self):
        g = p3r()
        d = build_graft_ear_decomposition(g, "r", min_join(g))
        out = export_dot(d)
        assert out.startswith("graph ear_decomposition {")
        assert 'label="0:' in out

    def test_quoting_handles_awkward_ids(self):
        doc = {"vertices": ['sp ace', 'qu"ote'], "terminals": [],
               "edges": [{"id": "e", "u": "sp ace", "v": 'qu"ote'}]}
        out = export_dot(graft_from_document(doc))
        assert '"sp ace"' in out and '"qu\\"ote"' in out

    @pytest.mark.parametrize("render, want", DOT_PINS)
    def test_full_output_is_pinned(self, render, want):
        assert render() == want

    def test_unsupported_objects_are_rejected(self):
        with pytest.raises(GraftInputError, match="dot export covers"):
            export_dot(42)
