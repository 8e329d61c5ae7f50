"""JSON and DOT interchange.

The JSON side parses and emits the graft document schema and serializes
decompositions, posets, and reports; the DOT side renders grafts (with an
optional join styled), ear decompositions, and component posets.  All
output is deterministic: sorted ids, fixed key order, no timestamps.

``dumps`` is the package's one JSON writer: everything the package prints
or serializes as JSON goes through it.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from typing import TYPE_CHECKING

from .core import (
    Edge,
    Graft,
    GraftInputError,
    OrderedBipartiteGraft,
    assemble_graph,
    is_vertex_id,
    sorted_vertices,
)

if TYPE_CHECKING:
    from .cathedral import CathedralPoset, UpperBoundReport
    from .combs import GraftEarDecomposition

REPORT_SCHEMA = "bigraft-report/1"

_TOP_FIELDS = ("vertices", "edges", "terminals", "bipartition")


def _fail(path: str, message: str):
    raise GraftInputError(f"{path}: {message}")


_PLAIN_ID_TYPES = frozenset((str, int))
_EDGE_FIELDS = frozenset(("id", "u", "v"))


def _read_id_list(doc, field, known=None, prefix="$") -> list:
    """``doc[field]`` as a list of distinct ids, each in ``known`` when that
    is given.  A list of plain str and int ids passes by set operations; any
    other list is walked to the first bad entry."""
    items = doc.get(field)
    if not isinstance(items, list):
        _fail(f"{prefix}.{field}", "expected a list")
    if set(map(type, items)) <= _PLAIN_ID_TYPES:
        ids = set(items)
        if len(ids) == len(items) and (known is None or ids <= known):
            return items
    seen = set()
    for i, v in enumerate(items):
        if not is_vertex_id(v):
            _fail(f"{prefix}.{field}[{i}]", "ids are strings or integers")
        if v in seen:
            _fail(f"{prefix}.{field}[{i}]", f"duplicate id {v!r}")
        if known is not None and v not in known:
            _fail(f"{prefix}.{field}[{i}]", f"unknown vertex {v!r}")
        seen.add(v)
    return items


def graft_from_document(doc) -> Graft | OrderedBipartiteGraft:
    """Build a graft from a parsed JSON document, diagnosing by field path."""
    if not isinstance(doc, dict):
        _fail("$", "expected an object")
    unknown = set(doc) - set(_TOP_FIELDS)
    if unknown:
        _fail("$", f"unknown fields {sorted(map(str, unknown))!r}")
    for field in ("vertices", "edges", "terminals"):
        if field not in doc:
            _fail("$", f"missing field {field!r}")

    vertices = _read_id_list(doc, "vertices")
    known = set(vertices)

    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        _fail("$.edges", "expected a list")
    edges: dict[str, Edge] = {}
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            _fail(f"$.edges[{i}]", "expected an object")
        if entry.keys() != _EDGE_FIELDS:
            _fail(f"$.edges[{i}]", "expected exactly the fields id, u, v")
        eid, u, v = entry["id"], entry["u"], entry["v"]
        if not isinstance(eid, str) or not eid:
            _fail(f"$.edges[{i}].id", "edge ids are nonempty strings")
        if eid in edges:
            _fail(f"$.edges[{i}].id", f"duplicate edge id {eid!r}")
        # An exact str or int skips is_vertex_id, which keeps out the
        # look-alikes that ``in`` lets through: True and 1.0 for a vertex 1.
        if not ((type(u) is str or type(u) is int or is_vertex_id(u)) and u in known):
            _fail(f"$.edges[{i}].u", f"unknown vertex {u!r}")
        if not ((type(v) is str or type(v) is int or is_vertex_id(v)) and v in known):
            _fail(f"$.edges[{i}].v", f"unknown vertex {v!r}")
        if u == v:
            _fail(f"$.edges[{i}]", f"self-loop at {u!r}")
        edges[eid] = Edge(eid, u, v)

    terminals = _read_id_list(doc, "terminals", known)
    # The checks above are the graph constructor's, so the graph is
    # assembled; the graft constructors below still check the terminals
    # and the sides.
    graph = assemble_graph(frozenset(vertices), edges.values())

    if "bipartition" not in doc:
        return Graft(graph, frozenset(terminals))
    sides = doc["bipartition"]
    if not isinstance(sides, dict) or set(sides) != {"A", "B"}:
        _fail("$.bipartition", "expected exactly the fields A and B")
    spine = _read_id_list(sides, "A", known, prefix="$.bipartition")
    tooth = _read_id_list(sides, "B", known, prefix="$.bipartition")
    if set(spine) & set(tooth):
        _fail("$.bipartition", "the sides overlap")
    if set(spine) | set(tooth) != known:
        _fail("$.bipartition", "the sides do not cover the vertices")
    return OrderedBipartiteGraft(graph, frozenset(terminals),
                                 frozenset(spine), frozenset(tooth))


def parse_graft_json(text: str) -> Graft | OrderedBipartiteGraft:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraftInputError(
            f"not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:
        # Nesting past the recursion limit, or an integer past the digit limit.
        raise GraftInputError(f"JSON too deep or too large to parse: {exc}") from None
    return graft_from_document(doc)


def graft_document(g: Graft) -> dict:
    doc = {
        "vertices": sorted_vertices(g.graph.vertices),
        "edges": [{"id": e.id, "u": e.u, "v": e.v} for e in g.graph.edges],
        "terminals": sorted_vertices(g.terminals),
    }
    if isinstance(g, OrderedBipartiteGraft):
        doc["bipartition"] = {"A": sorted_vertices(g.spine),
                              "B": sorted_vertices(g.tooth)}
    return doc


def dumps(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True)``.

    ``doc`` is built from str, int, bool, None, lists, tuples and dicts with
    str keys.  With ``indent`` set, the stdlib leaves its C encoder for a
    pure-Python one; this writer keeps the C string escaper and does the
    rest in one recursive pass, in about half the time.
    """
    parts: list[str] = []
    _put_json(doc, "\n", parts.append)
    return "".join(parts)


# The writer of each plain item type, keyed by exact type, so that a
# subclass takes _put_json's isinstance branches as the stdlib's would.
_INLINE = {str: _encode_str, int: int.__repr__,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): lambda _: "null"}


def _put_json(o, newline: str, put) -> None:
    """Write ``o`` through ``put``; ``newline`` is the line break and
    indent of the level ``o`` sits at.

    A module-level function, not a closure over ``parts``: a closure that
    calls itself is a reference cycle, which would leave each call's
    pieces to the cyclic collector.  A container writes its plain str,
    int, bool and None items itself through ``_INLINE``, joined to the
    separator before them, and recurses only into the rest.
    """
    if isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(o):
            value = o[key]
            write = _INLINE.get(type(value))
            if write is not None:
                put(f"{sep}{_encode_str(key)}: {write(value)}")
            else:
                put(f"{sep}{_encode_str(key)}: ")
                _put_json(value, inner, put)
            sep = comma
        put(newline + "}")
    elif isinstance(o, str):
        put(_encode_str(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in o:
            write = _INLINE.get(type(item))
            if write is not None:
                put(sep + write(item))
            else:
                put(sep)
                _put_json(item, inner, put)
            sep = comma
        put(newline + "]")
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    else:
        raise TypeError(
            f"Object of type {type(o).__name__} is not JSON serializable")


def serialize_graft(g: Graft) -> str:
    return dumps(graft_document(g)) + "\n"


def decomposition_document(d: GraftEarDecomposition) -> dict:
    return {
        "root": d.root,
        "steps": [{
            "kind": step.kind,
            "vertices": list(step.walk.vertices),
            "edges": list(step.walk.edge_ids),
            "bonds": list(step.bonds),
            "terminals": sorted_vertices(step.terminals),
            "spine": sorted_vertices(step.spine),
            "tooth": sorted_vertices(step.tooth),
        } for step in d.steps],
        "target": graft_document(d.target),
    }


def poset_document(p: CathedralPoset) -> dict:
    return {
        "components": list(p.component_ids),
        "relation": [list(row) for row in p.relation],
        "hasse": [list(pair) for pair in p.hasse],
        "heights": [[cid, h] for cid, h in p.heights],
    }


def upper_report_document(rep: UpperBoundReport) -> dict:
    return {
        "component": rep.component_id,
        "upper": sorted_vertices(rep.upper_vertices),
        "holds": rep.holds,
        "entries": [{
            "piece": list(e.piece),
            "neighborhood": list(e.neighborhood),
            "witness_class": (sorted_vertices(e.witness_class)
                              if e.witness_class is not None else None),
            "ok": e.ok,
        } for e in rep.entries],
    }


# ---------------------------------------------------------------------------
# DOT rendering.
# ---------------------------------------------------------------------------

def _quote(*lines) -> str:
    """A quoted DOT string; each part becomes one line of it."""
    body = "\\n".join(str(x).replace("\\", "\\\\").replace('"', '\\"')
                      for x in lines)
    return f'"{body}"'


def _dot(header: str, g: Graft | None, lines: list) -> str:
    """A DOT graph: one line per vertex of ``g``, with its side shape and
    terminal ring, then the caller's node and edge ``lines``."""
    out = [header + " {"]
    if g is not None:
        for v in sorted_vertices(g.graph.vertices):
            attrs = []
            if isinstance(g, OrderedBipartiteGraft):
                attrs.append("shape=box" if v in g.tooth else "shape=ellipse")
            if v in g.terminals:
                attrs.append("peripheries=2")
            out.append(f"  {_quote(v)} [{', '.join(attrs)}];" if attrs
                       else f"  {_quote(v)};")
    for line in lines:
        out.append(f"  {line};")
    out.append("}")
    return "\n".join(out) + "\n"


def export_dot(obj, *, join=None, components=None) -> str:
    """Render a graft, an ear decomposition, or a component poset as DOT.

    ``join`` styles the given edge ids when rendering a graft;
    ``components`` adds vertex lists to poset node labels.
    """
    lines = []
    if isinstance(obj, Graft):
        fset = frozenset(join) if join is not None else frozenset()
        for e in obj.graph.edges:
            bold = ", style=bold, penwidth=2.2" if e.id in fset else ""
            lines.append(f"{_quote(e.u)} -- {_quote(e.v)} "
                         f"[label={_quote(e.id)}{bold}]")
        return _dot("graph bigraft", obj, lines)
    # Rendering a graft loads neither layer below; an ear decomposition or
    # a poset was made by its module, so importing that module loads nothing.
    from .combs import GraftEarDecomposition
    if isinstance(obj, GraftEarDecomposition):
        for index, step in enumerate(obj.steps):
            vs = step.walk.vertices
            for u, v, eid in zip(vs, vs[1:], step.walk.edge_ids):
                label = _quote(f"{index}:{eid}")
                lines.append(f"{_quote(u)} -- {_quote(v)} [label={label}]")
        return _dot("graph ear_decomposition", obj.target, lines)
    from .cathedral import CathedralPoset
    if isinstance(obj, CathedralPoset):
        labels = {}
        if components is not None:
            for comp in components:
                inside = ", ".join(map(str, sorted_vertices(comp.vertices)))
                labels[comp.id] = _quote(comp.id, "{" + inside + "}")
        for cid in obj.component_ids:
            lines.append(f"{_quote(cid)} [label={labels.get(cid, _quote(cid))}]")
        for lo, hi in obj.hasse:
            lines.append(f"{_quote(lo)} -> {_quote(hi)}")
        return _dot("digraph comb_order", None, lines)
    raise GraftInputError(
        "dot export covers grafts, ear decompositions, and posets")
