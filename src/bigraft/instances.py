"""Named grafts that the tests, CI and scale probes build: four small
fixtures, and nine families sized by their arguments: the deep paths
``comb_path`` and ``path2``, ``chain_comb``, the star ``fan``, the DM combs
``matching``, ``stair`` and ``dm``, the matching quasicomb ``mq`` and the
ear-grown critical ``quasicomb``."""

from __future__ import annotations

import random

from .core import Multigraph, OrderedBipartiteGraft, build_bipartite_graft
from .generators import GenConfig, gen_random_critical_quasicomb


def k2() -> OrderedBipartiteGraft:
    """One edge a-b, both ends terminal.  The smallest comb."""
    g = Multigraph.build(["a", "b"], [("e", "a", "b")])
    return build_bipartite_graft(g, ["a", "b"], spine=["a"], tooth=["b"])


def c4() -> OrderedBipartiteGraft:
    """Four-circuit v1..v4 with opposite terminals v2, v4.

    The smallest graft with two distinct minimum joins: {f1, f4} and
    {f2, f3}, both of size two.
    """
    g = Multigraph.build(
        ["v1", "v2", "v3", "v4"],
        [("f1", "v1", "v2"), ("f2", "v2", "v3"), ("f3", "v3", "v4"), ("f4", "v4", "v1")])
    return build_bipartite_graft(g, ["v2", "v4"], spine=["v1", "v3"], tooth=["v2", "v4"])


def chain4() -> OrderedBipartiteGraft:
    """Path a0-b0-a1-b1 with every vertex terminal.  Two factor components."""
    g = Multigraph.build(
        ["a0", "b0", "a1", "b1"],
        [("e0", "a0", "b0"), ("c", "b0", "a1"), ("e1", "a1", "b1")])
    return build_bipartite_graft(g, ["a0", "b0", "a1", "b1"],
                                 spine=["a0", "a1"], tooth=["b0", "b1"])


def p3r() -> OrderedBipartiteGraft:
    """Path r-a1-b1 with terminals a1, b1.  Critical with root r."""
    g = Multigraph.build(["r", "a1", "b1"], [("c", "r", "a1"), ("e1", "a1", "b1")])
    return build_bipartite_graft(g, ["a1", "b1"], spine=["a1"], tooth=["r", "b1"])


def _sides(k: int) -> tuple[list[str], list[str]]:
    """The ids a0..a(k-1) and b0..b(k-1)."""
    return [f"a{i}" for i in range(k)], [f"b{i}" for i in range(k)]


def comb_path(k: int) -> OrderedBipartiteGraft:
    """Path r-a0-b0-a1-b1-...-b(k-1) with every vertex but r terminal.

    Critical with root r, with k + 1 factor components: {r} and each
    {ai, bi}.  The depth 2k + 1 exceeds the recursion limit for large k;
    k = 1 is p3r up to names.
    """
    spine, tooth = _sides(k)
    edges = [("c0", "r", "a0")]
    edges += [(f"e{i}", f"a{i}", f"b{i}") for i in range(k)]
    edges += [(f"c{i + 1}", f"b{i}", f"a{i + 1}") for i in range(k - 1)]
    g = Multigraph.build(["r"] + spine + tooth, edges)
    return build_bipartite_graft(g, spine + tooth, spine=spine, tooth=["r"] + tooth)


def chain_comb(k: int) -> OrderedBipartiteGraft:
    """Path a0-b0-a1-b1-...-b(k-1) with every vertex terminal: k factor
    components {ai, bi}, ordered in a chain."""
    spine, tooth = _sides(k)
    edges = [(f"e{i}", f"a{i}", f"b{i}") for i in range(k)]
    edges += [(f"c{i}", f"b{i}", f"a{i + 1}") for i in range(k - 1)]
    g = Multigraph.build(spine + tooth, edges)
    return build_bipartite_graft(g, spine + tooth, spine=spine, tooth=tooth)


def path2(n: int) -> OrderedBipartiteGraft:
    """path2(n): the path on the int vertices 0..n-1 with edges e<i> =
    (i, i+1), terminals 0 and n-1, and the even vertices on the spine."""
    graph = Multigraph.build(range(n), [(f"e{i}", i, i + 1) for i in range(n - 1)])
    return build_bipartite_graft(graph, (0, n - 1), range(0, n, 2), range(1, n, 2))


def fan(k: int) -> OrderedBipartiteGraft:
    """fan(k): the star at c over r and b0..b(k-1), with edges er = (c, r)
    and e<i> = (c, b_i).  Every b is a terminal, and c too when k is odd;
    the spine is {c}, the tooth r and the b's.  Its ear decomposition from
    r adds one edge per step, so a replay from the bare root adds far more
    edges than its first operand holds."""
    _, b_side = _sides(k)
    g = Multigraph.build(["r", "c", *b_side], [("er", "c", "r")] + [
        (f"e{i}", "c", b) for i, b in enumerate(b_side)])
    return build_bipartite_graft(g, b_side + ["c"] * (k % 2), ["c"], ["r", *b_side])


def matching(k: int) -> OrderedBipartiteGraft:
    """k disjoint edges e_i = a_i b_i, every vertex a terminal, spine a and
    tooth b: the plainest DM comb, with k components of one edge each."""
    a_side, b_side = _sides(k)
    graph = Multigraph.build(a_side + b_side, [
        (f"e{i}", f"a{i}", f"b{i}") for i in range(k)])
    return build_bipartite_graft(graph, a_side + b_side, a_side, b_side)


def stair(k: int, swapped: bool = False) -> OrderedBipartiteGraft:
    """stair(k): an edge ei_j = a_i b_j for each j <= i, every vertex a
    terminal, spine a and tooth b, or the sides swapped.  Its one perfect
    matching is a_i b_i, so every DM component is one edge."""
    a_side, b_side = _sides(k)
    g = Multigraph.build(a_side + b_side, [
        (f"e{i}_{j}", f"a{i}", f"b{j}") for i in range(k) for j in range(i + 1)])
    spine, tooth = (b_side, a_side) if swapped else (a_side, b_side)
    return build_bipartite_graft(g, a_side + b_side, spine=spine, tooth=tooth)


def _drawn_edges(k: int, p: float, rng: random.Random) -> list[tuple]:
    """The pairs (i, perm[i]) of a shuffled permutation, plus each pair
    (i, j) with probability p, drawn for i, then j, in order; the sorted
    pairs name the edges e<n> = (a_i, b_j)."""
    perm = list(range(k))
    rng.shuffle(perm)
    pairs = [(i, perm[i]) for i in range(k)]
    pairs += [(i, j) for i in range(k) for j in range(k) if rng.random() < p]
    return [(f"e{n}", f"a{i}", f"b{j}") for n, (i, j) in enumerate(sorted(pairs))]


def dm(k: int, p: float, s: int, swapped: bool = False) -> OrderedBipartiteGraft:
    """The DM comb dm(k, p, s): the edges ``_drawn_edges`` draws with seed
    s, every vertex a terminal, spine a and tooth b, or the sides swapped."""
    a_side, b_side = _sides(k)
    graph = Multigraph.build(a_side + b_side, _drawn_edges(k, p, random.Random(s)))
    spine, tooth = (b_side, a_side) if swapped else (a_side, b_side)
    return build_bipartite_graft(graph, a_side + b_side, spine, tooth)


def mq(k: int, p: float, s: int, d: int) -> OrderedBipartiteGraft:
    """The matching quasicomb mq(k, p, s, d): the edges ``_drawn_edges``
    draws with seed s, then an edge r<i> = (a_i, r) for each of ``min(d,
    k)`` roots i the same generator draws.  Every a and b is a terminal;
    the spine is the a side, the tooth the b side and r."""
    rng = random.Random(s)
    edges = _drawn_edges(k, p, rng)
    roots = sorted(rng.sample(range(k), min(d, k)))
    edges += [(f"r{i}", f"a{i}", "r") for i in roots]
    a_side, b_side = _sides(k)
    graph = Multigraph.build(a_side + b_side + ["r"], edges)
    return build_bipartite_graft(graph, a_side + b_side, a_side, b_side + ["r"])


def quasicomb(n: int, s: int) -> OrderedBipartiteGraft:
    """The critical quasicomb (n, s): the target ``gen_random_critical_quasicomb``
    grows from the root r to n or more vertices, drawing from ``random.Random(s)``."""
    d, _ = gen_random_critical_quasicomb(GenConfig(vertices=(n, n)), random.Random(s))
    return d.target
