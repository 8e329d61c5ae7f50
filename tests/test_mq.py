"""Matching quasicombs: criticality and the ear layer past every cap.

``mq(k, p, s, d)`` is a bipartite quasicomb whose G − r has the perfect
matching M = {a_i b_perm[i]}, so nu = k, the number of tooth terminals.
``oracles.matching_critical`` predicts from M alone, by an alternating
search that shares no code with the join tables, whether the graft is
critical for r; its docstring proves the rule.  The corpus runs to 13
matched pairs, past the 22-edge cap of the exhaustive oracles, and every
draw's ear chain runs through ``graft_sum``'s connected growth.
"""

import json

from bigraft.combs import is_critical_quasicomb
from bigraft.formats import serialize_graft
from bigraft.instances import mq
from bigraft.joins import flipped_distance_sign

from oracles import matching_critical, run_cli


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


def test_ear_decomp_is_valid_exactly_where_critical():
    """``ear-decomp r`` builds a valid decomposition where the rule says
    critical and refuses the root with exit 2 elsewhere, for k <= 12."""
    built = 0
    for s, g in CORPUS:
        if len(g.spine) > 12:
            continue
        code, out, err = run_cli("ear-decomp", "r", "--format", "json",
                                 stdin=serialize_graft(g))
        if matching_critical(g, "r"):
            assert code == 0 and json.loads(out)["valid"] is True, s
            built += 1
        else:
            assert code == 2 and "not critical for this root" in err, s
    assert built > 150


def test_the_criticality_check_fails_under_the_sign_flip():
    """With the distance sign flipped, every spine vertex of a critical
    draw reads -1, so the check and the rule disagree on each of them."""
    with flipped_distance_sign():
        disagree = sum(is_critical_quasicomb(g, "r").critical != matching_critical(g, "r")
                       for _, g in CORPUS)
    assert disagree == 196
