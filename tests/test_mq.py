"""Matching quasicombs: criticality and the ear layer past every cap.

``mq(k, p, s, d)`` is a bipartite quasicomb whose G − r has the perfect
matching M = {a_i b_perm[i]}, so nu = k, the number of tooth terminals.
``oracles.matching_critical`` predicts from M alone, by an alternating
search that shares no code with the join tables, whether the graft is
critical for r; its docstring proves the rule.  The corpus runs to 13
matched pairs, past the 22-edge cap of the exhaustive oracles, and every
draw's ear chain runs through ``graft_sum``'s connected growth.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from bigraft.cli import cli_main
from bigraft.combs import is_critical_quasicomb
from bigraft.core import Multigraph, build_bipartite_graft
from bigraft.formats import serialize_graft
from bigraft.joins import flipped_distance_sign

from oracles import matching_critical


def mq(k: int, p: float, s: int, d: int):
    """The matching quasicomb mq(k, p, s, d): the pairs (i, perm[i]) of a
    shuffled permutation, plus each pair (i, j) with probability p, drawn
    for i, then j, in order, then ``min(d, k)`` roots drawn from range(k).
    The sorted pairs name the edges e<n> = (a_i, b_j), then each root i
    gives r<i> = (a_i, r).  Every a and b is a terminal; the spine is the
    a side, the tooth the b side and r."""
    rng = random.Random(s)
    perm = list(range(k))
    rng.shuffle(perm)
    pairs = [(i, perm[i]) for i in range(k)]
    pairs += [(i, j) for i in range(k) for j in range(k) if rng.random() < p]
    roots = sorted(rng.sample(range(k), min(d, k)))
    a_side = [f"a{i}" for i in range(k)]
    b_side = [f"b{j}" for j in range(k)]
    edges = [(f"e{n}", f"a{i}", f"b{j}") for n, (i, j) in enumerate(sorted(pairs))]
    edges += [(f"r{i}", f"a{i}", "r") for i in roots]
    graph = Multigraph.build(a_side + b_side + ["r"], edges)
    return build_bipartite_graft(graph, a_side + b_side, a_side, b_side + ["r"])


# (s, graft) for the 600 draws mq(2 + s % 12, 1.5/k, s, 1 + s % 3).
CORPUS = [(s, mq(2 + s % 12, 1.5 / (2 + s % 12), s, 1 + s % 3)) for s in range(600)]


def test_the_rule_is_the_criticality_check():
    critical = 0
    for s, g in CORPUS:
        predicted = matching_critical(g, "r")
        assert is_critical_quasicomb(g, "r").critical == predicted, s
        critical += predicted
    assert critical == 196
    assert max(len(g.graph.edges) for _, g in CORPUS) > 22


def test_ear_decomp_is_valid_exactly_where_critical(tmp_path):
    """``ear-decomp r`` builds a valid decomposition where the rule says
    critical and refuses the root with exit 2 elsewhere, for k <= 12."""
    doc = tmp_path / "mq.json"
    built = 0
    for s, g in CORPUS:
        if len(g.spine) > 12:
            continue
        doc.write_text(serialize_graft(g))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(["ear-decomp", "r", "--format", "json", "--input", str(doc)])
        if matching_critical(g, "r"):
            assert code == 0 and json.loads(out.getvalue())["valid"] is True, s
            built += 1
        else:
            assert code == 2 and "not critical for this root" in err.getvalue(), s
    assert built > 150


def test_the_criticality_check_fails_under_the_sign_flip():
    """With the distance sign flipped, every spine vertex of a critical
    draw reads -1, so the check and the rule disagree on each of them."""
    with flipped_distance_sign():
        disagree = sum(is_critical_quasicomb(g, "r").critical != matching_critical(g, "r")
                       for _, g in CORPUS)
    assert disagree == 196
