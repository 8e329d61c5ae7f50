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
  n/2 − 1 edges modulo 2, and at least 1;
- the minimum join is unique exactly when every DM component is one
  matched pair with no parallel twin of its edge.

The corpora are random ``dm`` combs and ``stair(k)``, both from
``bigraft.instances``; stair's one block passes the cycle table's span
limit from k = 7 on.  Past the 22-edge cap no join oracle runs; these
checks share no code with the join tables they read.  The pinned
``poset`` stdout of dm(60, 0.02, 7) carries the order check to 60 matched
pairs.  The k-edge matching, the plainest DM comb, checks that each
layer and the CLI answer on thousands of components.
"""

import json
import time

import pytest

from bigraft.cathedral import cathedral_poset
from bigraft.decomposition import (
    factor_components,
    kl_classes_of_component,
    kl_partition,
)
from bigraft.formats import serialize_graft
from bigraft.instances import dm, matching, stair
from bigraft.joins import (
    _join_tables,
    all_min_joins,
    f_distance,
    flipped_distance_sign,
    min_join,
)

from oracles import DMOracle, order_disagreements, pinned_stdout, run_cli


# Distances: k = 2..20 at p = 1.5/k, one seed each.
DISTANCE_CORPUS = [(2 + s % 19, 1.5 / (2 + s % 19), s) for s in range(60)]
# Components, classes and order: small k, where the cathedral is quick.
ORDER_CORPUS = [(2 + s % 7, 1.5 / (2 + s % 7), 1000 + s) for s in range(120)]
# All four checks: stair(k), whose one block passes the span limit from
# k = 7 on.
STAIR_CORPUS = range(2, 10)


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


def order_instances(swapped: bool):
    """(label, graft) of the order corpus and then the stair corpus."""
    for k, p, s in ORDER_CORPUS:
        yield (k, p, s), dm(k, p, s, swapped)
    for k in STAIR_CORPUS:
        yield f"stair({k})", stair(k, swapped)


@pytest.mark.parametrize("swapped", [False, True], ids=["a-spine", "b-spine"])
def test_components_and_classes_are_dm(swapped):
    for label, g in order_instances(swapped):
        oracle = oracle_of(g)
        comps = factor_components(g)
        assert set(comps.vertex_sets()) == set(oracle.components), label
        part = kl_partition(g)
        for comp in comps:
            sides = {frozenset(v for v in comp.vertices if v[0] == side)
                     for side in "ab"}
            assert set(kl_classes_of_component(part, comp.id)) == sides, \
                (label, comp.id)


@pytest.mark.parametrize("swapped", [False, True], ids=["a-spine", "b-spine"])
def test_order_is_dm_reachability(swapped):
    orders = 0
    for label, g in order_instances(swapped):
        poset = cathedral_poset(g)
        assert order_disagreements(g, poset.component_ids, poset.relation,
                                   oracle_of(g), swapped) == [], label
        orders += bool(poset.hasse)
    assert orders > 0, "no instance of the corpus has a non-trivial order"


def test_pinned_order_at_k60_is_dm_reachability():
    """The pinned ``poset`` stdout of dm(60, 0.02, 7), far past the sizes
    the cathedral corpus above reaches, prints the DM order."""
    g = dm(60, 0.02, 7)
    poset = json.loads(pinned_stdout("poset", "dm", (60, 0.02, 7)))
    # More pairs related than the 51 components: the order is not trivial.
    assert sum(map(sum, poset["relation"])) > len(poset["components"]) == 51
    assert order_disagreements(g, poset["components"], poset["relation"],
                               oracle_of(g)) == []


def test_distance_is_minus_one_exactly_on_alternating_reach():
    minus_one = 0
    for k, p, s in DISTANCE_CORPUS:
        g = dm(k, p, s)
        oracle = oracle_of(g)
        assert distance_disagreements(g, oracle) == [], (k, p, s)
        minus_one += sum(pred == -1 for *_, pred in predicted_distances(oracle))
    assert minus_one > 0


def test_stair_distances_are_dm_past_the_span_limit():
    """From k = 7 on, stair(k)'s one block holds more than _TABLE_LIMIT
    independent cycles, so its distances come from the pairing of each
    block part's odd vertices."""
    for k in STAIR_CORPUS:
        g = stair(k)
        assert distance_disagreements(g, oracle_of(g)) == [], k
        (table,) = _join_tables(g.graph, g.terminals)
        paired = any(span is None for _, _, span, _ in table.blocks)
        assert paired == (k >= 7), k


def test_distance_check_fails_under_the_sign_flip():
    k, p, s = DISTANCE_CORPUS[10]
    g = dm(k, p, s)
    oracle = oracle_of(g)
    with flipped_distance_sign():
        assert distance_disagreements(g, oracle) != []
        assert distance_disagreements(stair(6), oracle_of(stair(6))) != []


def predicts_a_unique_join(g, oracle: DMOracle) -> bool:
    """The DM rule for multigraphs: the minimum join, a perfect matching,
    is unique exactly when every DM component is one matched pair with no
    parallel twin of its edge."""
    return all(len(comp) == 2 and
               sum(e.ends() == comp for e in g.graph.edges) == 1
               for comp in oracle.components)


def test_the_join_is_unique_exactly_as_dm_predicts():
    """Against all_min_joins on the order corpus within the 22-edge cap,
    where some instances draw a parallel twin of a matched edge, and on
    stair(2..6), each with a unique join."""
    checked = unique = twins = 0
    for k, p, s in ORDER_CORPUS:
        g = dm(k, p, s)
        if len(g.graph.edges) > 22:
            continue
        oracle = oracle_of(g)
        predicted = predicts_a_unique_join(g, oracle)
        assert (len(all_min_joins(g)) == 1) == predicted, (k, p, s)
        checked += 1
        unique += predicted
        twins += not predicted and all(len(comp) == 2 for comp in oracle.components)
    assert (checked, unique) == (114, 9) and twins > 0
    for k in range(2, 7):
        g = stair(k)
        assert predicts_a_unique_join(g, oracle_of(g)), k
        assert len(all_min_joins(g)) == 1, k


class TestWideMatching:
    """Each layer on the k-edge matching answers in time linear in its
    components, and as the DM rule says: k components {a_i, b_i}, with
    the classes {a_i} and {b_i}, under the identity order."""

    def within(self, seconds, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        assert time.perf_counter() - start < seconds, fn.__name__
        return out

    def test_components_and_classes(self):
        k = 10000
        g = matching(k)
        comps = self.within(5, factor_components, g)
        assert sorted(map(sorted, comps.vertex_sets())) == sorted(
            [f"a{i}", f"b{i}"] for i in range(k))
        part = self.within(5, kl_partition, g)
        for comp in comps:
            assert set(kl_classes_of_component(part, comp.id)) == {
                frozenset({v}) for v in comp.vertices}

    def test_min_join(self):
        k = 20000
        F = self.within(5, min_join, matching(k))
        assert F.edge_ids == {f"e{i}" for i in range(k)}

    def test_components_and_min_join_commands(self):
        """Through the CLI, parsing and printing included, each within a
        minute on any supported Python."""
        k = 20000
        doc = serialize_graft(matching(k))
        code, out, _ = self.within(60, run_cli, "components", stdin=doc)
        assert code == 0 and out.count("\n") == k
        code, out, _ = self.within(60, run_cli, "min-join", stdin=doc)
        assert code == 0 and out.startswith(f"size: {k}\n")

    def test_order(self):
        k = 1000
        poset = self.within(15, cathedral_poset, matching(k))
        n = len(poset.component_ids)
        assert n == k and poset.hasse == ()
        assert poset.relation == tuple(tuple(i == j for j in range(n))
                                       for i in range(n))
        assert set(dict(poset.heights).values()) == {1}


def test_order_check_fails_under_the_sign_flip():
    failed = 0
    with flipped_distance_sign():
        for k, p, s in ORDER_CORPUS:
            g = dm(k, p, s)
            poset = cathedral_poset(g)
            failed += order_disagreements(g, poset.component_ids, poset.relation,
                                          oracle_of(g)) != []
    assert failed > 0
