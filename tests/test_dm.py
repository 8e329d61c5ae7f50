"""The Dulmage–Mendelsohn case of the canonical decomposition.

Take a bipartite graph with sides A and B and a perfect matching M, make
every vertex a terminal, A the spine and B the tooth.  A join of V then
has at least n/2 edges, so the minimum joins are the perfect matchings and
the graft is a comb.  ``oracles.DMOracle`` predicts, from M and the digraph
D on A alone:

- the factor components are the DM components: the strong components of
  D, each with its partners;
- each component's distance-zero classes are its A side and its B side;
- component x precedes y in ``cathedral_poset`` exactly when some vertex
  of y's A side reaches x's in D, and with the sides swapped the
  components and classes stay and the order reverses;
- for b in B and a' in A of one graph component, f_distance(b, a') = −1
  exactly when a' is reachable from M(b) in D: G − b − a' has a perfect
  matching exactly when an M-alternating path runs from M(b) to a'.
  Otherwise the distance is odd, since a join of V − b − a' has
  n/2 − 1 edges modulo 2, and at least 1.

No join oracle runs at these sizes; these checks share no code with the
join tables they read.
"""

import random

import pytest

from bigraft.cathedral import cathedral_poset
from bigraft.core import Multigraph, build_bipartite_graft
from bigraft.decomposition import (
    factor_components,
    kl_classes_of_component,
    kl_partition,
)
from bigraft.joins import f_distance, flipped_distance_sign

from oracles import DMOracle


def dm(k: int, p: float, s: int, swapped: bool = False):
    """The DM comb dm(k, p, s): a perfect matching a_i b_perm[i] on a
    shuffled permutation, plus each pair (i, j) with probability p, drawn
    for i, then j, in order; the sorted pairs name the edges e0, e1, ...
    Every vertex is a terminal; the spine is the a side, or the b side
    when ``swapped``."""
    rng = random.Random(s)
    perm = list(range(k))
    rng.shuffle(perm)
    pairs = [(i, perm[i]) for i in range(k)]
    pairs += [(i, j) for i in range(k) for j in range(k) if rng.random() < p]
    a_side = [f"a{i}" for i in range(k)]
    b_side = [f"b{j}" for j in range(k)]
    graph = Multigraph.build(a_side + b_side, [
        (f"e{n}", f"a{i}", f"b{j}") for n, (i, j) in enumerate(sorted(pairs))])
    spine, tooth = (b_side, a_side) if swapped else (a_side, b_side)
    return build_bipartite_graft(graph, a_side + b_side, spine, tooth)


# Distances: k = 2..20 at p = 1.5/k, one seed each.
DISTANCE_CORPUS = [(2 + s % 19, 1.5 / (2 + s % 19), s) for s in range(60)]
# Components, classes and order: small k, where the cathedral is quick.
ORDER_CORPUS = [(2 + s % 7, 1.5 / (2 + s % 7), 1000 + s) for s in range(120)]


def oracle_of(g) -> DMOracle:
    a_side = {v for v in g.graph.vertices if v.startswith("a")}
    return DMOracle(g.graph, a_side, g.graph.vertices - a_side)


def predicted_distances(oracle: DMOracle):
    """Each (b, a', prediction) for b in B and a' in A: None across graph
    components, -1 when a' is reachable from M(b), else "odd"."""
    for b in sorted(oracle.partner):
        if b.startswith("b"):
            for a in sorted(oracle.reach):
                if a not in oracle.graph_component[b]:
                    yield b, a, None
                elif a in oracle.reach[oracle.partner[b]]:
                    yield b, a, -1
                else:
                    yield b, a, "odd"


def distance_disagreements(g, oracle: DMOracle) -> list:
    """Each (b, a', distance) that breaks the distance prediction."""
    out = []
    for b, a, predicted in predicted_distances(oracle):
        d = f_distance(g, b, a).value
        if predicted == "odd":
            ok = d is not None and d >= 1 and d % 2 == 1
        else:
            ok = d == predicted
        if not ok:
            out.append((b, a, d))
    return out


def order_disagreements(g, poset, oracle: DMOracle,
                        swapped: bool = False) -> list:
    """Each (x, y, precedes) where g's poset answers "x precedes y"
    against the order prediction, read in reverse when ``swapped``."""
    # Any A vertex stands for its strong component.
    a_of = {c.id: min(v for v in c.vertices if v.startswith("a"))
            for c in factor_components(g)}
    out = []
    for x in poset.component_ids:
        for y in poset.component_ids:
            first, second = (y, x) if swapped else (x, y)
            predicted = a_of[first] in oracle.reach[a_of[second]]
            if poset.precedes(x, y) != predicted:
                out.append((x, y, poset.precedes(x, y)))
    return out


@pytest.mark.parametrize("swapped", [False, True], ids=["a-spine", "b-spine"])
def test_components_and_classes_are_dm(swapped):
    for k, p, s in ORDER_CORPUS:
        g = dm(k, p, s, swapped)
        oracle = oracle_of(g)
        comps = factor_components(g)
        assert set(comps.vertex_sets()) == set(oracle.components), (k, p, s)
        part = kl_partition(g)
        for comp in comps:
            sides = {frozenset(v for v in comp.vertices if v[0] == side)
                     for side in "ab"}
            assert set(kl_classes_of_component(part, comp.id)) == sides, \
                (k, p, s, comp.id)


@pytest.mark.parametrize("swapped", [False, True], ids=["a-spine", "b-spine"])
def test_order_is_dm_reachability(swapped):
    orders = 0
    for k, p, s in ORDER_CORPUS:
        g = dm(k, p, s, swapped)
        poset = cathedral_poset(g)
        assert order_disagreements(g, poset, oracle_of(g), swapped) == [], \
            (k, p, s)
        orders += bool(poset.hasse)
    assert orders > 0, "no instance of the corpus has a non-trivial order"


def test_distance_is_minus_one_exactly_on_alternating_reach():
    minus_one = 0
    for k, p, s in DISTANCE_CORPUS:
        g = dm(k, p, s)
        oracle = oracle_of(g)
        assert distance_disagreements(g, oracle) == [], (k, p, s)
        minus_one += sum(pred == -1 for *_, pred in predicted_distances(oracle))
    assert minus_one > 0


def test_distance_check_fails_under_the_sign_flip():
    k, p, s = DISTANCE_CORPUS[10]
    g = dm(k, p, s)
    oracle = oracle_of(g)
    with flipped_distance_sign():
        assert distance_disagreements(g, oracle) != []


def test_order_check_fails_under_the_sign_flip():
    failed = 0
    with flipped_distance_sign():
        for k, p, s in ORDER_CORPUS:
            g = dm(k, p, s)
            failed += order_disagreements(g, cathedral_poset(g),
                                          oracle_of(g)) != []
    assert failed > 0
