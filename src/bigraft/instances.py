"""Small named grafts used as fixtures throughout the tests and docs, and
one family of arbitrarily deep paths."""

from __future__ import annotations

from .core import Multigraph, OrderedBipartiteGraft, build_bipartite_graft


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


def comb_path(k: int) -> OrderedBipartiteGraft:
    """Path r-a0-b0-a1-b1-...-b(k-1) with every vertex but r terminal.

    Critical with root r, with k + 1 factor components: {r} and each
    {ai, bi}.  The depth 2k + 1 exceeds the recursion limit for large k;
    k = 1 is p3r up to names.
    """
    spine = [f"a{i}" for i in range(k)]
    tooth = [f"b{i}" for i in range(k)]
    edges = [("c0", "r", "a0")]
    edges += [(f"e{i}", f"a{i}", f"b{i}") for i in range(k)]
    edges += [(f"c{i + 1}", f"b{i}", f"a{i + 1}") for i in range(k - 1)]
    g = Multigraph.build(["r"] + spine + tooth, edges)
    return build_bipartite_graft(g, spine + tooth, spine=spine,
                                 tooth=["r"] + tooth)
