"""Critical sets, the component order, and the structural checks above it."""

import hashlib
import itertools
import json
import random

import pytest

from bigraft.core import (
    CapacityError,
    Graft,
    GraftInputError,
    InternalConsistencyError,
    PreconditionError,
    Walk,
    contract_graft,
    simple_circuits,
    simple_paths,
)
from bigraft import cathedral
from bigraft.cathedral import (
    CathedralPoset,
    _neighbourhoods,
    _top_critical_set,
    cathedral_poset,
    enumerate_critical_sets,
    is_critical_set,
    precedes,
    round_ear_bond_check,
    union_criticality_check,
    upper_bound_check,
)
from bigraft.combs import EarStep, classify_comb, ear_step, is_f_balanced
from bigraft.decomposition import factor_components
from bigraft.formats import graft_document, poset_document, upper_report_document
from bigraft.generators import GenConfig, gen_random_comb
from bigraft.instances import c4, chain4, chain_comb, k2, p3r
from bigraft.joins import min_join

from oracles import assert_rebuilds, brute_distance, obg, recorded


def handled_theta():
    """A four-cycle comb with every vertex terminal, plus a handle
    v2-x-w-y-v4 whose middle edge carries the join.  Factor components:
    the cycle, {x,w}, and {y}, ordered in a chain."""
    return obg(["v1", "v2", "v3", "v4", "x", "w", "y"],
               [("f1", "v1", "v2"), ("f2", "v2", "v3"),
                ("f3", "v3", "v4"), ("f4", "v4", "v1"),
                ("h1", "v2", "x"), ("hf", "x", "w"),
                ("h2", "w", "y"), ("h3", "y", "v4")],
               {"v1", "v2", "v3", "v4", "x", "w"},
               {"v1", "v3", "x", "y"}, {"v2", "v4", "w"})


def circuit_handle():
    """An edge comb with a circuit hanging off its tooth vertex."""
    return obg(["a0", "b0", "g1", "b2", "g2"],
               [("e0", "a0", "b0"), ("d1", "b0", "g1"), ("f2", "g1", "b2"),
                ("d3", "b2", "g2"), ("d4", "g2", "b0")],
               {"a0", "b0", "g1", "b2"}, {"a0", "g1", "g2"}, {"b0", "b2"})


def spine_handle():
    """A four-cycle comb plus a handle v1-bw-v3 whose tooth vertex is
    covered by a pendant join edge, leaving the handle unbalanced."""
    return obg(["v1", "v2", "v3", "v4", "bw", "ax"],
               [("f1", "v1", "v2"), ("f2", "v2", "v3"),
                ("f3", "v3", "v4"), ("f4", "v4", "v1"),
                ("k1", "v1", "bw"), ("k2", "bw", "v3"), ("hf", "bw", "ax")],
               {"v1", "v2", "v3", "v4", "bw", "ax"},
               {"v1", "v3", "ax"}, {"v2", "v4", "bw"})


class TestIsCriticalSet:
    def test_chain4_front_with_everything(self):
        g = chain4()
        ok, cert = is_critical_set(g, "a0", g.graph.vertices)
        assert ok
        assert cert.component_id == "a0"
        assert cert.contracted_vertex == "g0"
        assert cert.witness_ids == ("a0", "a1")
        assert cert.table == (("a1", 1), ("b1", 0), ("g0", 0))
        assert "g0" in cert.contraction.tooth

    def test_chain4_front_alone(self):
        ok, cert = is_critical_set(chain4(), "a0", {"a0", "b0"})
        assert ok
        assert cert.contraction.graph.vertices == frozenset({"g0"})

    def test_chain4_back_with_everything(self):
        g = chain4()
        ok, cert = is_critical_set(g, "a1", g.graph.vertices)
        assert not ok and cert is None

    def test_not_separating(self):
        ok, cert = is_critical_set(chain4(), "a0", {"a0"})
        assert not ok and cert is None

    def test_must_contain_component(self):
        ok, cert = is_critical_set(chain4(), "a0", {"a1", "b1"})
        assert not ok and cert is None

    def test_bipartite_precheck(self):
        th = handled_theta()
        blocked = frozenset({"w", "x", "v1", "v2", "v3", "v4"})
        ok, cert = is_critical_set(th, "w", blocked)
        assert not ok and cert is None

    def test_contracted_name_avoids_clash(self):
        g = obg(["a0", "b0", "g0", "b1"],
                [("e0", "a0", "b0"), ("c", "b0", "g0"), ("e1", "g0", "b1")],
                {"a0", "b0", "g0", "b1"}, {"a0", "g0"}, {"b0", "b1"})
        ok, cert = is_critical_set(g, "a0", g.graph.vertices)
        assert ok
        assert cert.contracted_vertex == "g0#a0"

    def test_requires_comb(self):
        with pytest.raises(PreconditionError):
            is_critical_set(p3r(), "a1", {"a1", "b1"})

    def test_unknown_component(self):
        with pytest.raises(GraftInputError):
            is_critical_set(chain4(), "zz", {"a0", "b0"})

    def test_certificate_tables_follow_sides(self):
        th = handled_theta()
        for xs in enumerate_critical_sets(th, "v1"):
            ok, cert = is_critical_set(th, "v1", xs)
            assert ok
            spine = cert.contraction.spine
            for v, value in cert.table:
                assert value == (1 if v in spine else 0)


class TestEnumerate:
    def test_chain4(self):
        g = chain4()
        assert [set(x) for x in enumerate_critical_sets(g, "a0")] == [
            {"a0", "b0"}, {"a0", "b0", "a1", "b1"}]
        assert [set(x) for x in enumerate_critical_sets(g, "a1")] == [
            {"a1", "b1"}]

    def test_k2(self):
        assert enumerate_critical_sets(k2(), "a") == (frozenset({"a", "b"}),)

    def test_theta_chain(self):
        th = handled_theta()
        v1_sets = [set(x) for x in enumerate_critical_sets(th, "v1")]
        cycle = {"v1", "v2", "v3", "v4"}
        assert v1_sets == [cycle, cycle | {"w", "x"}, cycle | {"y"},
                           cycle | {"w", "x", "y"}]
        assert [set(x) for x in enumerate_critical_sets(th, "w")] == [
            {"w", "x"}, {"w", "x", "y"}]
        assert [set(x) for x in enumerate_critical_sets(th, "y")] == [{"y"}]

    def test_capacity(self):
        assert len(enumerate_critical_sets(chain_comb(12), "a0")) == 12
        with pytest.raises(CapacityError, match="13 factor components exceed the limit of 12"):
            enumerate_critical_sets(chain_comb(13), "a0")

    def test_members_cover_their_witnesses(self):
        th = handled_theta()
        comps = factor_components(th)
        for cid in comps.ids():
            for xs in enumerate_critical_sets(th, cid):
                for comp in comps:
                    if comp.vertices <= xs:
                        assert precedes(th, cid, comp.id)


def path_comb3():
    """Path a0-b0-a1-b1-a2-b2 with every vertex terminal: three factor
    components in a chain, so {a0, b0} with {a2, b2} is a disconnected
    union."""
    return obg(["a0", "b0", "a1", "b1", "a2", "b2"],
               [("e0", "a0", "b0"), ("c0", "b0", "a1"), ("e1", "a1", "b1"),
                ("c1", "b1", "a2"), ("e2", "a2", "b2")],
               {"a0", "b0", "a1", "b1", "a2", "b2"},
               {"a0", "a1", "a2"}, {"b0", "b1", "b2"})


def oracle_critical(comb, base, xs):
    """(critical, disconnected) for the union xs around the component
    vertex set base, straight from the definition: contract base inside xs
    to a tooth vertex; the result must be bipartite with every spine
    vertex at brute-force distance 1 from it and every tooth vertex at 0.
    ``disconnected`` marks a bipartite contraction in several pieces."""
    spine = (comb.spine & xs) - base
    inner = Graft(comb.graph.induced(xs), comb.terminals & xs)
    contracted, root = contract_graft(inner, base, contracted_id="*")
    graph = contracted.graph
    if any((e.u in spine) == (e.v in spine) for e in graph.edges):
        return False, False
    critical = all(
        brute_distance(contracted, root, v) == (1 if v in spine else 0)
        for v in graph.vertices)
    return critical, len(graph.components()) > 1


def oracle_corpus():
    """Fixed-seed random combs with 2-6 factor components, plus fixtures."""
    out = [chain4(), handled_theta(), path_comb3()]
    for seed in range(40):
        g = gen_random_comb(GenConfig(seed=seed, vertices=(6, 12)))
        if 2 <= len(factor_components(g)) <= 6:
            out.append(g)
    return out


class TestCriticalSetOracle:
    def test_every_union_matches_the_definition(self):
        sizes, critical_count, disconnected_count = set(), 0, 0
        for comb in oracle_corpus():
            comps = factor_components(comb)
            sizes.add(len(comps))
            for base in comps:
                others = [c for c in comps if c.id != base.id]
                expected = []
                for size in range(len(others) + 1):
                    for chosen in itertools.combinations(others, size):
                        xs = base.vertices.union(*(c.vertices for c in chosen))
                        critical, split = oracle_critical(comb, base.vertices, xs)
                        ok, cert = is_critical_set(comb, base.id, xs)
                        assert ok == critical, (sorted(xs), base.id)
                        assert (cert is not None) == ok
                        if ok:
                            expected.append(xs)
                        critical_count += ok
                        disconnected_count += split
                assert enumerate_critical_sets(comb, base.id) == tuple(expected)
        assert sizes == {2, 3, 4, 5, 6}
        assert critical_count and disconnected_count

    def test_disconnected_union(self):
        g = path_comb3()
        xs = frozenset({"a0", "b0", "a2", "b2"})
        assert oracle_critical(g, frozenset({"a0", "b0"}), xs) == (False, True)
        assert is_critical_set(g, "a0", xs) == (False, None)
        assert is_critical_set(g, "a0", g.graph.vertices)[0]


def rich_corpus():
    """Fixed-seed random combs with 7-10 factor components, the first two
    of each count met in a seed scan."""
    out, taken = [], {k: 0 for k in range(7, 11)}
    for seed in range(60):
        g = gen_random_comb(GenConfig(seed=seed, vertices=(14, 20),
                                      edge_density=0.15))
        k = len(factor_components(g))
        if taken.get(k, 2) < 2:
            taken[k] += 1
            out.append(g)
    assert all(n == 2 for n in taken.values())
    return out


@pytest.fixture(scope="module")
def enumerated():
    """(comb, components, critical sets by component id) for every comb of
    both corpora; the exhaustive enumeration is the oracle for growth."""
    out = []
    for comb in oracle_corpus() + rich_corpus():
        comps = factor_components(comb)
        out.append((comb, comps, {c.id: enumerate_critical_sets(comb, c.id)
                                  for c in comps}))
    return out


def past_g0(comb):
    """``comb`` with each spine id a<i> renamed p<i> and each tooth id b<i>
    renamed q<i>.  Both sort after ``g0``, the contracted vertex, so every
    edge a contraction moves onto it comes out of ``vertex_key`` order."""
    name = {v: "pq"["ab".index(v[0])] + v[1:] for v in comb.graph.vertices}
    return obg(name.values(), [(e.id, name[e.u], name[e.v]) for e in comb.graph.edges],
               [name[v] for v in comb.terminals], [name[v] for v in comb.spine],
               [name[v] for v in comb.tooth])


def test_every_tried_contraction_equals_its_checked_rebuild(monkeypatch):
    """``_critical_set`` assembles each contraction unchecked; every one
    that ``cathedral_poset`` tries on the rich corpus, and on two of its
    combs renamed past ``g0``, passes the checking constructors and equals
    its rebuild, indexed alike.  In the renamed combs the contracted
    vertex must be turned to the front of its edges."""
    tried = recorded(monkeypatch, cathedral, "assemble_graft")
    corpus = rich_corpus()
    for comb in corpus + [past_g0(g) for g in corpus[:2]]:
        cathedral_poset(comb)
    assert any(e.u == "g0" for shape in tried for e in shape.graph.edges)
    for shape in tried:
        assert_rebuilds(shape)


class TestGrowthOracle:
    def test_top_is_the_union_of_all_critical_sets(self, enumerated):
        grown = 0
        for comb, comps, sets in enumerated:
            for cid, found in sets.items():
                top = _top_critical_set(comb, comps,
                                        _neighbourhoods(comb, comps), cid)
                assert top == frozenset().union(*found), (sorted(top), cid)
                grown += top != comps.by_id(cid).vertices
        assert grown

    def test_growth_tries_what_the_component_scan_tried(self, enumerated,
                                                        monkeypatch):
        """The walk over the adjacent components' bits asks exactly the
        critical-set questions, in the same order, that a scan of every
        component on every pass asked, kept here as the reference."""
        def scanned_top(comb, comps, cid):
            near = {comp.id: {e.other(v) for v in comp.vertices
                              for e in comb.graph.incident(v)} for comp in comps}
            top = comps.by_id(cid).vertices
            grown = True
            while grown:
                grown = False
                for comp in comps:
                    if comp.vertices <= top or not near[comp.id] & top:
                        continue
                    candidate = top | comp.vertices
                    if cathedral._critical_set(comb, comps, cid, candidate)[0]:
                        top = candidate
                        grown = True
            return top

        asked: list = []
        real = cathedral._critical_set
        monkeypatch.setattr(cathedral, "_critical_set", lambda comb, comps, cid, xs:
                            asked.append(xs) or real(comb, comps, cid, xs))
        calls = grew = 0
        for comb, comps, _ in enumerated:
            near = _neighbourhoods(comb, comps)
            for cid in comps.ids():
                asked.clear()
                want = scanned_top(comb, comps, cid)
                reference = list(asked)
                asked.clear()
                assert _top_critical_set(comb, comps, near, cid) == want
                assert asked == reference, cid
                calls += len(asked)
                grew += len(want) > len(comps.by_id(cid).vertices)
        assert calls > 150 and grew > 40

    def test_pairwise_unions_stay_critical(self, enumerated):
        for comb, _, sets in enumerated:
            for cid, found in sets.items():
                for xs, ys in itertools.combinations(found, 2):
                    assert is_critical_set(comb, cid, xs | ys)[0], \
                        (sorted(xs), sorted(ys), cid)

    def test_order_matches_enumeration(self, enumerated):
        for comb, comps, sets in enumerated:
            ids = comps.ids()
            expected = tuple(
                tuple(any(comps.by_id(b).vertices <= xs for xs in sets[a])
                      for b in ids)
                for a in ids)
            assert cathedral_poset(comb).relation == expected
            for a in ids:
                above = frozenset().union(*(
                    comps.by_id(b).vertices for b in ids
                    if b != a and any(comps.by_id(b).vertices <= xs
                                      for xs in sets[a])))
                assert upper_bound_check(comb, a).upper_vertices == above
            for i, a in enumerate(ids):
                assert tuple(precedes(comb, a, b) for b in ids) == expected[i]


# sha256 over the cathedral's output on fixed-seed combs with 2-6 factor
# components: the poset, every critical set with its certificate, each upper
# bound report and every precedence.  A change to the critical-set test, the
# growth of top(c), the Hasse diagram or the upper bound check changes it.
CATHEDRAL_DIGEST = (
    "5cbc71f5db0c04f444ceaadc2f0cc237ec4a64d0465e8314586b461e159250eb")


class TestCathedralDigest:
    def test_fixed_seed_cathedral_unchanged(self):
        h = hashlib.sha256()
        combs = 0
        for seed in range(40):
            g = gen_random_comb(GenConfig(seed=seed, vertices=(8, 14)))
            ids = factor_components(g).ids()
            if not 2 <= len(ids) <= 6:
                continue
            combs += 1
            doc = {"poset": poset_document(cathedral_poset(g)),
                   "components": []}
            for cid in ids:
                certificates = []
                for xs in enumerate_critical_sets(g, cid):
                    _, cert = is_critical_set(g, cid, xs)
                    certificates.append({
                        "witness_ids": list(cert.witness_ids),
                        "contracted_vertex": cert.contracted_vertex,
                        "table": [list(row) for row in cert.table],
                        "contraction": graft_document(cert.contraction)})
                doc["components"].append({
                    "id": cid,
                    "certificates": certificates,
                    "upper": upper_report_document(upper_bound_check(g, cid)),
                    "precedes": [precedes(g, cid, b) for b in ids]})
            h.update(json.dumps(doc, sort_keys=True).encode())
        assert combs >= 20
        assert h.hexdigest() == CATHEDRAL_DIGEST


class TestPrecedes:
    def test_chain4(self):
        g = chain4()
        assert precedes(g, "a0", "a1")
        assert not precedes(g, "a1", "a0")
        assert precedes(g, "a0", "a0") and precedes(g, "a1", "a1")

    def test_unknown_id(self):
        with pytest.raises(GraftInputError):
            precedes(chain4(), "a0", "zz")

    def test_requires_comb(self):
        with pytest.raises(PreconditionError):
            precedes(p3r(), "a1", "a1")


class TestPoset:
    def test_chain4(self):
        p = cathedral_poset(chain4())
        assert p.component_ids == ("a0", "a1")
        assert p.relation == ((True, True), (False, True))
        assert p.hasse == (("a0", "a1"),)
        assert p.heights == (("a0", 1), ("a1", 2))
        assert p.precedes("a0", "a1") and not p.precedes("a1", "a0")
        assert p.height_of("a1") == 2

    def test_trivial_posets(self):
        for g in (k2(), c4()):
            p = cathedral_poset(g)
            assert len(p.component_ids) == 1
            assert p.hasse == ()
            assert p.heights[0][1] == 1

    def test_theta_is_a_three_chain(self):
        p = cathedral_poset(handled_theta())
        assert p.component_ids == ("v1", "w", "y")
        assert p.hasse == (("v1", "w"), ("w", "y"))
        assert p.heights == (("v1", 1), ("w", 2), ("y", 3))
        assert p.precedes("v1", "y")

    def test_unknown_id(self):
        p = cathedral_poset(chain4())
        with pytest.raises(GraftInputError):
            p.height_of("zz")

    def test_requires_comb(self):
        with pytest.raises(PreconditionError):
            cathedral_poset(p3r())

    def test_rows_answer_as_the_pairwise_loops(self, monkeypatch):
        """On any relation the tops give, valid or not, the bit rows raise
        on the first pair or triple the pairwise and triple loops over the
        relation raise on, or lay out the same relation, Hasse diagram and
        heights."""
        comb = chain_comb(7)
        comps = factor_components(comb)
        ids, n = comps.ids(), len(comps)
        rng = random.Random(0)
        kinds = set()
        for trial in range(400):
            rank = rng.sample(range(n), n)
            p = rng.random()
            rel = [[i == j or (rank[i] < rank[j] or trial % 3 == 0)
                    and rng.random() < p for j in range(n)] for i in range(n)]
            if trial % 3 == 1:
                for k, i, j in itertools.product(range(n), repeat=3):
                    rel[i][j] = rel[i][j] or rel[i][k] and rel[k][j]
            if trial % 50 == 2:
                rel[trial % n][trial % n] = False
            tops = {ids[i]: frozenset().union(*(c.vertices for c, x in
                                                zip(comps, rel[i]) if x))
                    for i in range(n)}
            monkeypatch.setattr(cathedral, "_top_critical_set",
                                lambda comb, comps, near, cid: tops[cid])
            want = loop_poset(ids, rel)
            try:
                got = cathedral_poset(comb)
            except InternalConsistencyError as exc:
                got = str(exc)
            assert got == want, trial
            kinds.add("order" if type(want) is CathedralPoset else next(
                kind for kind in ("itself", "each other", "transitive") if kind in want))
        assert kinds == {"itself", "each other", "transitive", "order"}


def loop_poset(ids, rel):
    """The order checks and layout over the relation matrix, pair by pair
    and triple by triple: the first error message, or the poset."""
    n = len(ids)
    for i in range(n):
        if not rel[i][i]:
            return f"component {ids[i]!r} does not precede itself"
        for j in range(n):
            if i != j and rel[i][j] and rel[j][i]:
                return f"components {ids[i]!r} and {ids[j]!r} precede each other"
    for i, j, k in itertools.product(range(n), repeat=3):
        if rel[i][j] and rel[j][k] and not rel[i][k]:
            return (f"precedence is not transitive at "
                    f"({ids[i]!r}, {ids[j]!r}, {ids[k]!r})")
    hasse = tuple((ids[i], ids[j]) for i, j in itertools.product(range(n), repeat=2)
                  if i != j and rel[i][j] and not any(
                      rel[i][k] and rel[k][j] for k in range(n) if k not in (i, j)))
    below = [[i for i in range(n) if i != j and rel[i][j]] for j in range(n)]
    heights = [0] * n
    for j in sorted(range(n), key=lambda j: len(below[j])):
        heights[j] = 1 + max((heights[i] for i in below[j]), default=0)
    return CathedralPoset(ids, tuple(map(tuple, rel)), hasse,
                          tuple(zip(ids, heights)))


class TestConstructionCost:
    """The order assembles one graph per contraction it checks, and each
    public entry checks the comb itself once."""

    def fixed_comb(self):
        return gen_random_comb(GenConfig(seed=9, vertices=(12, 16),
                                         edge_density=0.15))

    def counters(self, monkeypatch, comb):
        built, on_comb, on_contraction = [0], [0], [0]
        real_assemble, real_classify = cathedral.assemble_graph, classify_comb

        def counted_assemble(vertices, edges):
            built[0] += 1
            return real_assemble(vertices, edges)

        def counted_classify(g):
            if g is comb:
                on_comb[0] += 1
            else:
                on_contraction[0] += 1
            return real_classify(g)

        monkeypatch.setattr("bigraft.cathedral.assemble_graph", counted_assemble)
        monkeypatch.setattr("bigraft.cathedral.classify_comb", counted_classify)
        return built, on_comb, on_contraction

    def test_one_graph_per_contraction(self, monkeypatch):
        for comb in (handled_theta(), self.fixed_comb()):
            factor_components(comb)
            built, on_comb, on_contraction = self.counters(monkeypatch, comb)
            cathedral_poset(comb)
            assert on_comb[0] == 1
            assert on_contraction[0] > 0
            assert built[0] == on_contraction[0]

    def test_every_entry_checks_the_comb_once(self, monkeypatch):
        comb = self.fixed_comb()
        comps = factor_components(comb)
        a, b = comps.ids()[:2]
        _, on_comb, _ = self.counters(monkeypatch, comb)
        calls = (lambda: cathedral_poset(comb),
                 lambda: precedes(comb, a, b),
                 lambda: upper_bound_check(comb, a),
                 lambda: enumerate_critical_sets(comb, a),
                 lambda: is_critical_set(comb, a, comb.graph.vertices),
                 lambda: union_criticality_check(comb, a, a, a,
                                                 comps.by_id(a).vertices,
                                                 comps.by_id(a).vertices))
        for call in calls:
            on_comb[0] = 0
            call()
            assert on_comb[0] == 1


class TestUnionCriticality:
    def test_chain4(self):
        g = chain4()
        assert union_criticality_check(g, "a0", "a1", "a1",
                                       g.graph.vertices, {"a1", "b1"})

    def test_degenerate(self):
        g = chain4()
        assert union_criticality_check(g, "a0", "a0", "a0",
                                       {"a0", "b0"}, {"a0", "b0"})

    def test_theta_chain(self):
        th = handled_theta()
        cycle = frozenset({"v1", "v2", "v3", "v4"})
        assert union_criticality_check(th, "v1", "w", "y",
                                       cycle | {"w", "x"},
                                       {"w", "x", "y"})

    def test_bad_x_reported(self):
        g = chain4()
        with pytest.raises(PreconditionError, match="X is not"):
            union_criticality_check(g, "a1", "a1", "a1",
                                    g.graph.vertices, {"a1", "b1"})

    def test_uncovering_x_reported(self):
        with pytest.raises(PreconditionError, match="X does not cover"):
            union_criticality_check(chain4(), "a0", "a1", "a1",
                                    {"a0", "b0"}, {"a1", "b1"})

    def test_bad_y_reported(self):
        g = chain4()
        with pytest.raises(PreconditionError, match="Y is not"):
            union_criticality_check(g, "a0", "a1", "a1",
                                    g.graph.vertices, g.graph.vertices)

    def test_uncovering_y_reported(self):
        th = handled_theta()
        cycle = frozenset({"v1", "v2", "v3", "v4"})
        with pytest.raises(PreconditionError, match="Y does not cover"):
            union_criticality_check(th, "v1", "w", "y",
                                    cycle | {"w", "x"}, {"w", "x"})


class TestUpperBound:
    def test_chain4_front(self):
        rep = upper_bound_check(chain4(), "a0")
        assert rep.holds
        assert rep.upper_vertices == frozenset({"a1", "b1"})
        entry, = rep.entries
        assert entry.piece == ("a1", "b1")
        assert entry.neighborhood == ("b0",)
        assert entry.witness_class == frozenset({"b0"})

    def test_vacuous_cases(self):
        assert upper_bound_check(chain4(), "a1").holds
        assert upper_bound_check(chain4(), "a1").entries == ()
        assert upper_bound_check(c4(), "v1").holds

    def test_theta(self):
        rep = upper_bound_check(handled_theta(), "v1")
        assert rep.holds
        entry, = rep.entries
        assert entry.piece == ("w", "x", "y")
        assert entry.neighborhood == ("v2", "v4")
        assert entry.witness_class == frozenset({"v2", "v4"})
        middle = upper_bound_check(handled_theta(), "w")
        assert middle.holds
        assert middle.entries[0].witness_class == frozenset({"w"})


class TestRoundEarBond:
    def test_ear_of_another_type_rejected(self):
        g = chain4()
        with pytest.raises(PreconditionError, match="EarStep or a Walk"):
            round_ear_bond_check(g, min_join(g), "a0", ("b0", "a1"))

    def test_theta_handle(self):
        th = handled_theta()
        ear = Walk(("v2", "x", "w", "y", "v4"), ("h1", "hf", "h2", "h3"))
        assert round_ear_bond_check(th, min_join(th), "v1", ear)

    def test_circuit_sharing_one_vertex(self):
        g = circuit_handle()
        loop = Walk(("b0", "g1", "b2", "g2", "b0"), ("d1", "f2", "d3", "d4"))
        assert round_ear_bond_check(g, min_join(g), "a0", loop)

    def test_spine_bonds_fail_under_fabricated_join(self):
        g = spine_handle()
        ear = Walk(("v1", "bw", "v3"), ("k1", "k2"))
        assert not round_ear_bond_check(g, {"k1"}, "v1", ear)

    def test_unbalanced_rejected(self):
        g = spine_handle()
        ear = Walk(("v1", "bw", "v3"), ("k1", "k2"))
        with pytest.raises(PreconditionError):
            round_ear_bond_check(g, min_join(g), "v1", ear)

    @pytest.mark.parametrize("make, F, cid, ear", [
        (handled_theta, None, "v1",
         Walk(("v2", "x", "w", "y", "v4"), ("h1", "hf", "h2", "h3"))),
        (circuit_handle, None, "a0",
         Walk(("b0", "g1", "b2", "g2", "b0"), ("d1", "f2", "d3", "d4"))),
        (spine_handle, {"k1"}, "v1", Walk(("v1", "bw", "v3"), ("k1", "k2"))),
    ], ids=["theta", "circuit", "spine-bonds"])
    def test_walk_reads_as_its_hand_built_step(self, make, F, cid, ear):
        g = make()
        F = min_join(g) if F is None else F
        vs = ear.vertices
        bonds = (vs[0],) if ear.closed else (vs[0], vs[-1])
        vset = frozenset(vs)
        by_hand = EarStep(ear, bonds, frozenset(), vset & g.spine,
                          vset & g.tooth)
        assert ear_step(vs, ear.edge_ids, bonds, frozenset(), g.tooth) == by_hand
        assert round_ear_bond_check(g, F, cid, ear) == \
            round_ear_bond_check(g, F, cid, by_hand)

    def test_straight_ear_rejected(self):
        th = handled_theta()
        step = EarStep(Walk(("x", "v2"), ("h1",)), ("v2",), frozenset(),
                       frozenset({"x"}), frozenset({"v2"}))
        with pytest.raises(PreconditionError):
            round_ear_bond_check(th, min_join(th), "v1", step)

    def test_bond_outside_component(self):
        th = handled_theta()
        ear = Walk(("v2", "x", "w", "y", "v4"), ("h1", "hf", "h2", "h3"))
        with pytest.raises(PreconditionError):
            round_ear_bond_check(th, min_join(th), "w", ear)

    def test_internal_overlap_rejected(self):
        g = c4()
        loop = Walk(("v2", "v3", "v4", "v1", "v2"), ("f2", "f3", "f4", "f1"))
        with pytest.raises(PreconditionError):
            round_ear_bond_check(g, min_join(g), "v1", loop)

    def test_all_balanced_ears_on_fixtures(self):
        """Every balanced round ear found by enumeration satisfies the
        bond condition."""
        for g in (handled_theta(), circuit_handle()):
            F = min_join(g)
            comps = factor_components(g)
            for comp in comps:
                outside = g.graph.vertices - comp.vertices
                for s in sorted(comp.vertices, key=str):
                    for walk in simple_paths(g.graph, s, cap=5000):
                        if len(walk.edge_ids) < 2:
                            continue
                        if walk.vertices[-1] not in comp.vertices:
                            continue
                        inner = set(walk.vertices[1:-1])
                        if not inner <= outside:
                            continue
                        vset = frozenset(walk.vertices)
                        step = EarStep(
                            walk,
                            (walk.vertices[0], walk.vertices[-1]),
                            frozenset(), vset & g.spine, vset & g.tooth)
                        if not is_f_balanced(g, F, step):
                            continue
                        assert round_ear_bond_check(g, F, comp.id, walk)
                for circuit in simple_circuits(g.graph):
                    hits = [v for v in set(circuit.vertices)
                            if v in comp.vertices]
                    if len(hits) != 1:
                        continue
                    bond = hits[0]
                    idx = circuit.vertices.index(bond)
                    vs = circuit.vertices[idx:-1] + circuit.vertices[:idx + 1]
                    eids = circuit.edge_ids[idx:] + circuit.edge_ids[:idx]
                    rooted = Walk(vs, eids)
                    vset = frozenset(rooted.vertices)
                    step = EarStep(rooted, (bond,), frozenset(),
                                   vset & g.spine, vset & g.tooth)
                    if not is_f_balanced(g, F, step):
                        continue
                    assert round_ear_bond_check(g, F, comp.id, rooted)
