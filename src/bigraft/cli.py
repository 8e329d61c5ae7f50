"""The command-line surface.

Each subcommand takes only the options its handler reads: ``--format`` on
all, with ``dot`` offered only by ``analyze``, ``min-join``,
``ear-decomp``, ``poset`` and ``gen``, so argparse refuses it elsewhere;
``--input`` (a graft document, default stdin) on all but ``verify`` and
``gen``; ``--oracle`` (the exhaustive join backend) on ``analyze``,
``min-join``, ``dist`` and ``ear-decomp``; ``--seed`` on ``verify`` and
``gen``.  A command exits 0 on success, 1 when a verification-style command
finds a failure or an internal check fails, and 2 on usage or input errors:
``critical`` reports a root that is not critical with 1, and ``ear-decomp``
refuses one with 2.
Anything time-dependent goes to stderr so identical invocations stay
byte-identical on stdout.

The comb, cathedral and property layers are imported once per call by the
handlers that run them, so a process loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import (
    BigraftError,
    Graft,
    GraftInputError,
    InternalConsistencyError,
    OrderedBipartiteGraft,
    assemble_graft,
    sorted_vertices,
)
from .decomposition import factor_components, kl_partition
from .formats import (
    REPORT_SCHEMA,
    decomposition_document,
    dumps,
    export_dot,
    graft_document,
    parse_graft_json,
    poset_document,
    upper_report_document,
)
from .generators import GenConfig, generate
from .joins import f_distance, min_join, min_join_bruteforce


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top argument parser and each subcommand's parser by name, built
    once per process: parsing keeps no state between calls.  Each
    subcommand inherits from the one parent whose options its handler
    reads, and only the subcommands that draw one offer ``--format dot``."""
    def parents(formats) -> tuple:
        formatted = argparse.ArgumentParser(add_help=False)
        formatted.add_argument("--format", choices=formats, default="text",
                               help="output format (default text)")
        loaded = argparse.ArgumentParser(add_help=False, parents=[formatted])
        loaded.add_argument("--input", metavar="FILE",
                            help="graft JSON document (default: stdin)")
        joined = argparse.ArgumentParser(add_help=False, parents=[loaded])
        joined.add_argument("--oracle", action="store_true",
                            help="exhaustive join backend (at most 22 edges)")
        seeded = argparse.ArgumentParser(add_help=False, parents=[formatted])
        seeded.add_argument("--seed", type=int, default=GenConfig.seed,
                            metavar="N", help=f"PRNG seed (default {GenConfig.seed})")
        return loaded, joined, seeded

    loaded, joined, seeded = parents(("json", "text"))
    drawn_loaded, drawn_joined, drawn_seeded = parents(("json", "dot", "text"))

    parser = argparse.ArgumentParser(
        prog="bigraft",
        description="canonical decompositions of bipartite grafts")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, parent, handler, help_text):
        p = sub.add_parser(name, parents=[parent], help=help_text)
        p.set_defaults(handler=handler)
        return p

    cmd("analyze", drawn_joined, _cmd_analyze,
        "full report: join size, components, classes, order")
    cmd("min-join", drawn_joined, _cmd_min_join, "one minimum join")
    p = cmd("dist", joined, _cmd_dist,
            "join-induced distance between two vertices")
    p.add_argument("u")
    p.add_argument("v")
    cmd("components", loaded, _cmd_components, "factor components")
    cmd("kl", loaded, _cmd_kl, "vertex classes per factor component")
    cmd("classify", loaded, _cmd_classify, "comb / quasicomb / neither")
    p = cmd("critical", loaded, _cmd_critical,
            "verify criticality for a root (exit 1 when it fails)")
    p.add_argument("root")
    p = cmd("ear-decomp", drawn_joined, _cmd_ear_decomp,
            "build and verify an ear decomposition for a root")
    p.add_argument("root")
    p = cmd("critical-sets", loaded, _cmd_critical_sets,
            "enumerate the critical sets of a factor component")
    p.add_argument("component")
    cmd("poset", drawn_loaded, _cmd_poset, "the order over factor components")
    p = cmd("upper", loaded, _cmd_upper,
            "check the attachment of everything above a component")
    p.add_argument("component")
    p = cmd("verify", seeded, _cmd_verify,
            "run the randomized property suite (exit 1 on any failure)")
    p.add_argument("--trials", type=int, default=100, metavar="N",
                   help="instances per property (default 100)")
    p.add_argument("--properties", metavar="NAMES",
                   help="comma-separated property names (default: all)")
    p = cmd("gen", drawn_seeded, _cmd_gen, "generate a random instance")
    p.add_argument("--mode", choices=("graft", "comb", "critical-quasicomb"),
                   default="graft")
    lo, hi = GenConfig.vertices
    p.add_argument("--min-vertices", type=int, default=lo, metavar="N",
                   help=f"least vertex count drawn (default {lo}); a comb has "
                        "at least 2 vertices")
    p.add_argument("--max-vertices", type=int, default=hi, metavar="N",
                   help=f"most vertex count drawn (default {hi}); a critical "
                        "quasicomb grows by whole ears and may end up to 2 "
                        "vertices past it")
    p.add_argument("--edge-density", type=float, default=GenConfig.edge_density,
                   metavar="X",
                   help="chance of an edge on each vertex pair of --mode graft "
                        f"or comb, in [0, 1] (default {GenConfig.edge_density})")
    p.add_argument("--terminal-density", type=float,
                   default=GenConfig.terminal_density, metavar="X",
                   help="chance that each vertex of --mode graft is a terminal, "
                        f"in [0, 1] (default {GenConfig.terminal_density})")
    p.add_argument("--budget", type=int, metavar="N",
                   help="most ear steps of --mode critical-quasicomb "
                        f"(default {GenConfig.budget}); no other mode takes it")
    return parser, sub.choices


# ---------------------------------------------------------------------------
# Shared plumbing.
# ---------------------------------------------------------------------------

def _load_graft(args) -> Graft:
    try:
        if args.input is None:
            return parse_graft_json(sys.stdin.read())
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse_graft_json(fh.read())
    except UnicodeDecodeError as exc:
        raise GraftInputError(f"input is not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _need_bipartite(g: Graft) -> OrderedBipartiteGraft:
    if not isinstance(g, OrderedBipartiteGraft):
        raise GraftInputError("this command needs a bipartition in the input")
    return g


def _resolve_vertex(g: Graft, token: str):
    if token in g.graph.vertices:
        return token
    # Only an int's own spelling names it: not " 10", "+10", "010",
    # "1_0" or other digits, all of which int() also reads as 10.
    try:
        as_int = int(token)
    except ValueError:
        as_int = None
    if as_int in g.graph.vertices and str(as_int) == token:
        return as_int
    raise GraftInputError(f"unknown vertex id {token!r}")


def _join_backend(g: Graft, args):
    return min_join_bruteforce(g) if args.oracle else min_join(g)


def _emit(args, text, document, dot=None) -> None:
    """Print the report in the requested format.  ``text``, ``document``
    and ``dot`` are zero-argument callables that build the text lines, the
    JSON document and the DOT text; only the requested one runs.  Only the
    subcommands that pass ``dot`` offer ``--format dot``."""
    if args.format == "json":
        print(dumps(document()))
    elif args.format == "dot":
        sys.stdout.write(dot())
    else:
        for line in text():
            print(line)


def _set_text(vs) -> str:
    return " ".join(str(v) for v in sorted_vertices(vs))


def _component_lines(comps) -> list[str]:
    return [f"{c.id}: {_set_text(c.vertices)}" for c in comps]


def _component_docs(comps) -> list[dict]:
    return [{"id": c.id, "vertices": sorted_vertices(c.vertices)}
            for c in comps]


def _kl_lines(groups) -> list[str]:
    return [f"{cid}: " + " ".join("{" + _set_text(cls) + "}" for cls in classes)
            for cid, classes in groups]


def _kl_docs(groups) -> list[dict]:
    return [{"component": cid,
             "classes": [sorted_vertices(cls) for cls in classes]}
            for cid, classes in groups]


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    g = _load_graft(args)
    F = _join_backend(g, args)
    comps = factor_components(g)
    groups = kl_partition(g).by_component
    kind = "graft"
    poset = None
    if isinstance(g, OrderedBipartiteGraft):
        from .combs import classify_comb
        kind = classify_comb(g).kind
        if kind == "comb":
            from .cathedral import cathedral_poset
            poset = cathedral_poset(g)

    def text():
        lines = [f"kind: {kind}",
                 f"vertices: {len(g.graph.vertices)}",
                 f"edges: {len(g.graph.edges)}",
                 f"terminals: {len(g.terminals)}",
                 f"nu: {F.size}",
                 f"join: {' '.join(sorted(F.edge_ids))}",
                 f"graph components: {len(g.graph.components())}"]
        lines += [f"factor component {line}" for line in _component_lines(comps)]
        lines += [f"kl {line}" for line in _kl_lines(groups)]
        if poset is not None:
            for lo, hi in poset.hasse:
                lines.append(f"poset: {lo} -> {hi}")
            for cid, h in poset.heights:
                lines.append(f"height {cid}: {h}")
        return lines

    def document():
        return {"schema": REPORT_SCHEMA,
                "kind": kind,
                "nu": F.size,
                "join": sorted(F.edge_ids),
                "graph_components": len(g.graph.components()),
                "factor_components": _component_docs(comps),
                "kl": _kl_docs(groups),
                "poset": poset_document(poset) if poset is not None else None,
                "graft": graft_document(g)}

    _emit(args, text, document, functools.partial(export_dot, g, join=F))
    return 0


def _cmd_min_join(args) -> int:
    g = _load_graft(args)
    F = _join_backend(g, args)
    _emit(args,
          lambda: [f"size: {F.size}", f"edges: {' '.join(sorted(F.edge_ids))}"],
          lambda: {"size": F.size, "edges": sorted(F.edge_ids)},
          functools.partial(export_dot, g, join=F))
    return 0


def _dist_value(g: Graft, args, u, v):
    if not args.oracle:
        return f_distance(g, u, v).value
    if u == v:
        return 0
    if v not in g.graph.component_of(u):
        return None
    base = min_join_bruteforce(g).size
    flipped = min_join_bruteforce(assemble_graft(g.graph, g.terminals ^ {u, v})).size
    return flipped - base


def _cmd_dist(args) -> int:
    g = _load_graft(args)
    u = _resolve_vertex(g, args.u)
    v = _resolve_vertex(g, args.v)
    value = _dist_value(g, args, u, v)
    _emit(args,
          lambda: [str(value) if value is not None else "unreachable"],
          lambda: {"u": u, "v": v, "distance": value})
    return 0


def _cmd_components(args) -> int:
    comps = factor_components(_load_graft(args))
    _emit(args, lambda: _component_lines(comps),
          lambda: {"factor_components": _component_docs(comps)})
    return 0


def _cmd_kl(args) -> int:
    groups = kl_partition(_load_graft(args)).by_component
    _emit(args, lambda: _kl_lines(groups), lambda: {"kl": _kl_docs(groups)})
    return 0


def _cmd_classify(args) -> int:
    from .combs import classify_comb
    g = _need_bipartite(_load_graft(args))
    report = classify_comb(g)
    _emit(args,
          lambda: [f"kind: {report.kind}",
                   f"nu: {report.nu}",
                   f"spine: {_set_text(report.spine)}",
                   f"tooth: {_set_text(report.tooth)}"],
          lambda: {"kind": report.kind, "nu": report.nu,
                   "spine": sorted_vertices(report.spine),
                   "tooth": sorted_vertices(report.tooth)})
    return 0


def _cmd_critical(args) -> int:
    from .combs import is_critical_quasicomb
    g = _need_bipartite(_load_graft(args))
    root = _resolve_vertex(g, args.root)
    report = is_critical_quasicomb(g, root)

    def text():
        lines = [f"critical: {'yes' if report.critical else 'no'}"]
        lines += [f"distance {v}: {d}" for v, d in report.table]
        lines += [f"problem: {p}" for p in report.problems]
        return lines

    _emit(args, text,
          lambda: {"critical": report.critical, "root": root,
                   "table": [[v, d] for v, d in report.table],
                   "problems": list(report.problems)})
    return 0 if report.critical else 1


def _cmd_ear_decomp(args) -> int:
    from .combs import (
        build_graft_ear_decomposition,
        require_tooth_root,
        verify_graft_ear_decomposition,
    )
    g = _need_bipartite(_load_graft(args))
    root = _resolve_vertex(g, args.root)
    require_tooth_root(g, root)
    F = _join_backend(g, args)
    d = build_graft_ear_decomposition(g, root, F)
    report = verify_graft_ear_decomposition(d, F)

    def text():
        lines = []
        for i, step in enumerate(d.steps):
            walk = "-".join(str(v) for v in step.walk.vertices)
            lines.append(f"step {i}: {step.kind} {walk}")
        lines.append(f"valid: {'yes' if report.valid else 'no'}")
        lines += [f"problem: {p}" for p in report.problems]
        lines += [f"warning: {w}" for w in report.warnings]
        return lines

    _emit(args, text,
          lambda: {"decomposition": decomposition_document(d),
                   "join": sorted(F.edge_ids),
                   "valid": report.valid,
                   "problems": list(report.problems),
                   "warnings": list(report.warnings)},
          functools.partial(export_dot, d))
    return 0 if report.valid else 1


def _cmd_critical_sets(args) -> int:
    from .cathedral import enumerate_critical_sets
    g = _need_bipartite(_load_graft(args))
    cid = _resolve_vertex(g, args.component)
    sets = enumerate_critical_sets(g, cid)
    _emit(args, lambda: [_set_text(xs) for xs in sets],
          lambda: {"component": cid,
                   "critical_sets": [sorted_vertices(xs) for xs in sets]})
    return 0


def _cmd_poset(args) -> int:
    from .cathedral import cathedral_poset
    g = _need_bipartite(_load_graft(args))
    p = cathedral_poset(g)

    def text():
        lines = [f"components: {' '.join(str(c) for c in p.component_ids)}"]
        for lo, hi in p.hasse:
            lines.append(f"{lo} -> {hi}")
        for cid, h in p.heights:
            lines.append(f"height {cid}: {h}")
        return lines

    _emit(args, text, functools.partial(poset_document, p), functools.partial(
        export_dot, p, components=factor_components(g)))
    return 0


def _cmd_upper(args) -> int:
    from .cathedral import upper_bound_check
    g = _need_bipartite(_load_graft(args))
    cid = _resolve_vertex(g, args.component)
    report = upper_bound_check(g, cid)

    def text():
        lines = [f"holds: {'yes' if report.holds else 'no'}",
                 f"upper: {_set_text(report.upper_vertices)}"]
        for entry in report.entries:
            witness = (_set_text(entry.witness_class)
                       if entry.witness_class is not None else "none")
            lines.append(f"piece {_set_text(entry.piece)} | "
                         f"neighborhood {_set_text(entry.neighborhood)} | "
                         f"class {witness}")
        return lines

    _emit(args, text, functools.partial(upper_report_document, report))
    return 0 if report.holds else 1


def _cmd_verify(args) -> int:
    from .properties import run_property_suite, suite_report_document
    selection = None
    if args.properties is not None:
        selection = [s for s in args.properties.split(",") if s]
    cfg = GenConfig(seed=args.seed)
    report = run_property_suite(args.trials, cfg, selection)

    def text():
        lines = [f"{name}: {passed} passed, {failed} failed"
                 for name, passed, failed in report.results]
        for cert in report.certificates:
            lines.append(f"counterexample {cert.property_name} "
                         f"(seed {cert.seed}):")
            lines += [f"  {entry}" for entry in cert.transcript]
        lines.append(f"failures: {report.failures}")
        return lines

    _emit(args, text, functools.partial(suite_report_document, report))
    print(f"suite wall time: {report.wall_time:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_gen(args) -> int:
    if args.budget is not None and args.mode != "critical-quasicomb":
        raise GraftInputError("--budget caps the ear steps of "
                              "--mode critical-quasicomb only")
    cfg = GenConfig(seed=args.seed,
                    vertices=(args.min_vertices, args.max_vertices),
                    edge_density=args.edge_density,
                    terminal_density=args.terminal_density,
                    budget=GenConfig.budget if args.budget is None else args.budget,
                    mode=args.mode)
    out = generate(cfg)
    if cfg.mode == "critical-quasicomb":
        d, F = out
        doc = {"decomposition": decomposition_document(d),
               "join": sorted(F)}
        dot = functools.partial(export_dot, d)
    else:
        doc = graft_document(out)
        dot = functools.partial(export_dot, out)
    # A generated instance prints its JSON document as its text form too.
    _emit(args, lambda: [dumps(doc)], lambda: doc, dot)
    return 0


def _parse(argv: list):
    """The parsed arguments, from one argparse pass when ``argv[0]`` names a
    subcommand and its parser takes every other argument: the top parser
    would only hand them to it.  Otherwise, for help, a missing or unknown
    subcommand, or arguments left over, the top parser runs, so every
    usage error keeps its wording."""
    sub = _parsers()[1].get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _parsers()[0].parse_args(argv)


def cli_main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except InternalConsistencyError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    except (BigraftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(cli_main())
