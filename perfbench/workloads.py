"""The four benchmark workloads: how each makes its instances, runs one
operation with or without spans, and checks what the operation printed.

An instance is a dict ``{"argv": [...], "stdin": "..."}``: exactly what one
``bigraft`` invocation receives.  Everything here that touches the package
uses its public names only, so the benchmark keeps working while the
package's internals (caches, backend limits) change underneath it.

``bigraft`` is imported inside functions: this module is also loaded by the
orchestrating process, which never imports the package.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def instance_text(instance: dict) -> str:
    return json.dumps(instance, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Instance sources.  A maker takes a random.Random and returns (stratum,
# instance), or None when the draw is rejected; a Sampled source fills fixed
# per-stratum quotas from it, so every chunk of every seed has the same mix
# of instance shapes and the seed moves only which instances of each shape
# are drawn.  Makers run in the generator process only.
# ---------------------------------------------------------------------------

def _graft_stdin(g) -> str:
    from bigraft import graft_document
    return json.dumps(graft_document(g), sort_keys=True)


def _make_grafts_dense(rng: random.Random):
    from bigraft import GenConfig, gen_random_graft
    g = gen_random_graft(GenConfig(vertices=(18, 18), edge_density=0.35,
                                   terminal_density=0.3), rng)
    # One graph component with 6 or 8 terminals (the strata) keeps the
    # pairing on the subset-DP side; the blossom side is quasicombs-ears.
    if len(g.graph.components()) != 1:
        return None
    return len(g.terminals), {"argv": ["analyze", "--format", "json"],
                              "stdin": _graft_stdin(g)}


def _make_combs_order(rng: random.Random):
    from bigraft import GenConfig, factor_components, gen_random_comb
    g = gen_random_comb(GenConfig(vertices=(12, 16), edge_density=0.15), rng)
    # Each graph component holds at least one factor component, so the
    # cheap count rejects some draws before the expensive one.
    if len(g.graph.components()) > 8:
        return None
    return len(factor_components(g)), {"argv": ["analyze", "--format", "json"],
                                       "stdin": _graft_stdin(g)}


def _make_quasicombs_ears(rng: random.Random):
    from bigraft import GenConfig, gen_random_critical_quasicomb
    d, _ = gen_random_critical_quasicomb(GenConfig(vertices=(16, 20)), rng)
    # At least 12 terminals in the one graph component puts the pairing on
    # the blossom side.
    if len(d.target.terminals) < 12:
        return None
    return len(d.target.graph.vertices), {
        "argv": ["ear-decomp", d.root, "--format", "json"],
        "stdin": _graft_stdin(d.target)}


@dataclass(frozen=True)
class Sampled:
    """Instances drawn from a maker, filling ``quotas`` (stratum -> count)."""

    name: str
    make: Callable
    quotas: dict

    @property
    def chunk(self) -> int:
        return sum(self.quotas.values())

    def canary(self) -> dict:
        rng = random.Random(f"{self.name}:canary")
        while True:
            got = self.make(rng)
            if got is not None and got[0] in self.quotas:
                return got[1]

    def generator_digest(self) -> str:
        # The canary is drawn by the same maker as the corpus.
        return digest(instance_text(self.canary()))

    def corpus(self, seed: int, chunk: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{seed}:{chunk}")
        seen = {instance_text(self.canary())}
        kept: dict = {s: [] for s in self.quotas}
        missing = self.chunk
        for _ in range(400 * self.chunk):
            if not missing:
                break
            got = self.make(rng)
            if got is None or len(kept.get(got[0], ())) >= self.quotas.get(got[0], 0):
                continue
            text = instance_text(got[1])
            if text not in seen:
                seen.add(text)
                kept[got[0]].append(got[1])
                missing -= 1
        if missing:
            raise RuntimeError(f"{self.name}: {missing} quota places not filled")
        # Interleave the strata so that a run cut short by its deadline still
        # times them in proportion.
        order = sorted((((i + 0.5) / self.quotas[s], s, i)
                        for s in self.quotas for i in range(self.quotas[s])))
        return [kept[s][i] for _, s, i in order]


def _verify_instance(seed: int, prop: str) -> dict:
    return {"argv": ["verify", "--trials", "1", "--seed", str(seed),
                     "--properties", prop, "--format", "json"],
            "stdin": ""}


@dataclass(frozen=True)
class PropertyCycle:
    """One trial per instance, cycling every property over consecutive seeds."""

    chunk: int

    def canary(self) -> dict:
        return _verify_instance(-1, "factor-connected-nonpositive")

    def generator_digest(self) -> str:
        # A trial that passes prints only names and counts, so the instances
        # behind it are digested from the public generators.  The property
        # suite's own instance makers are private and not covered.
        from bigraft import (GenConfig, decomposition_document, generate,
                             graft_document)
        docs = []
        for mode in ("graft", "comb", "critical-quasicomb"):
            for seed in range(4):
                got = generate(GenConfig(seed=seed, mode=mode))
                docs.append(decomposition_document(got[0])
                            if mode == "critical-quasicomb"
                            else graft_document(got))
        return digest(json.dumps(docs, sort_keys=True))

    def corpus(self, seed: int, chunk: int) -> list[dict]:
        from bigraft import property_names
        names = property_names()
        base = seed * 1_000_000 + chunk * 100_000
        return [_verify_instance(base + i, names[i % len(names)])
                for i in range(self.chunk)]


# ---------------------------------------------------------------------------
# Output checks.  They read only the instance and the printed document and
# use no package code, so a broken package cannot vouch for itself.
# ---------------------------------------------------------------------------

def _join_problem(graft: dict, join: list) -> str | None:
    ends = {e["id"]: (e["u"], e["v"]) for e in graft["edges"]}
    odd: set = set()
    for eid in join:
        if eid not in ends:
            return f"join names unknown edge {eid!r}"
        odd ^= set(ends[eid]) if ends[eid][0] != ends[eid][1] else set()
    if odd != set(graft["terminals"]):
        return "join does not have odd degree exactly at the terminals"
    return None


def _partition_problem(universe: set, parts: list, what: str) -> str | None:
    seen: set = set()
    for part in parts:
        if not part:
            return f"{what}: empty part"
        if seen & set(part):
            return f"{what}: parts overlap"
        seen |= set(part)
    if seen != universe:
        return f"{what}: parts do not cover their set"
    return None


def _check_analyze(instance: dict, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    graft = json.loads(instance["stdin"])
    rep = json.loads(out)
    if rep["nu"] != len(rep["join"]):
        return "nu differs from the size of the reported join"
    problem = _join_problem(graft, rep["join"])
    comps = {c["id"]: c["vertices"] for c in rep["factor_components"]}
    problem = problem or _partition_problem(
        set(graft["vertices"]), list(comps.values()), "factor components")
    if problem:
        return problem
    if sorted(map(str, comps)) != sorted(str(k["component"]) for k in rep["kl"]):
        return "classes are not listed once per factor component"
    for entry in rep["kl"]:
        problem = _partition_problem(set(comps[entry["component"]]),
                                     entry["classes"], "classes")
        if problem:
            return f"component {entry['component']!r}: {problem}"
    return None


def _check_ear_decomp(instance: dict, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    graft = json.loads(instance["stdin"])
    rep = json.loads(out)
    if rep["valid"] is not True:
        return "decomposition reported invalid"
    if set(rep["decomposition"]["target"]["vertices"]) != set(graft["vertices"]):
        return "decomposition target differs from the input"
    return _join_problem(graft, rep["join"])


def _check_verify(instance: dict, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    rep = json.loads(out)
    if any(p["failed"] for p in rep["properties"]) or rep["certificates"]:
        return "property trial failed"
    return None


# ---------------------------------------------------------------------------
# Traced operations.  Each replays the calls one CLI command makes, in the
# CLI's order, with a span around each layer's public call, and renders the
# same stdout so its digest can be checked like the untraced one.
# ---------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory: (op id, name, start, end, parent index).

    With ``record`` off, spans cost a context-manager entry and nothing
    else, which is the baseline that trace.overhead_ratio compares against.
    """

    def __init__(self, record: bool):
        self.record = record
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op_id = 0

    @contextmanager
    def span(self, name: str):
        if not self.record:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (self.op_id, name, start, end, parent)


def _guarded(body: Callable[[], tuple[int, str]]) -> tuple[int, str]:
    """Exit codes as ``bigraft.cli_main`` maps the package's errors."""
    from bigraft import BigraftError, InternalConsistencyError
    try:
        return body()
    except InternalConsistencyError:
        return 1, ""
    except BigraftError:
        return 2, ""


def _emit_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _graft_counts(g, counts: dict) -> None:
    comps = g.graph.components()
    counts["core.vertices"] = len(g.graph.vertices)
    counts["core.edges"] = len(g.graph.edges)
    counts["joins.terminals"] = len(g.terminals)
    counts["joins.terminals_max_component"] = max(
        (len(c & g.terminals) for c in comps), default=0)


def _traced_analyze(instance: dict, tr: Tracer, counts: dict):
    import bigraft as b
    from bigraft.core import sorted_vertices

    def body():
        with tr.span("formats.parse"):
            g = b.parse_graft_json(instance["stdin"])
        _graft_counts(g, counts)
        with tr.span("joins.min_join"):
            F = b.min_join(g)
        # The CLI reaches the allowed edge set only inside factor_components,
        # so its cost is part of this span.
        with tr.span("decomposition.factor_components"):
            comps = b.factor_components(g)
        with tr.span("decomposition.kl_partition"):
            part = b.kl_partition(g)
        kind, poset = "graft", None
        if isinstance(g, b.OrderedBipartiteGraft):
            with tr.span("combs.classify_comb"):
                kind = b.classify_comb(g).kind
            if kind == "comb":
                with tr.span("cathedral.cathedral_poset"):
                    poset = b.cathedral_poset(g)
        with tr.span("formats.render"):
            classes = {c.id: b.kl_classes_of_component(part, c.id)
                       for c in comps}
            doc = {"schema": b.REPORT_SCHEMA,
                   "kind": kind,
                   "nu": F.size,
                   "join": sorted(F.edge_ids),
                   "graph_components": len(g.graph.components()),
                   "factor_components": [
                       {"id": c.id, "vertices": sorted_vertices(c.vertices)}
                       for c in comps],
                   "kl": [{"component": c.id,
                           "classes": [sorted_vertices(cls)
                                       for cls in classes[c.id]]}
                          for c in comps],
                   "poset": (b.poset_document(poset)
                             if poset is not None else None),
                   "graft": b.graft_document(g)}
            b.export_dot(g, join=F)
            out = _emit_json(doc)
        k = len(comps)
        # Each component's subgraph keeps exactly the allowed edges inside it.
        allowed = sum(len(c.subgraph.edges) for c in comps)
        counts["decomposition.allowed_ratio"] = (
            allowed / len(g.graph.edges) if g.graph.edges else 1.0)
        counts["decomposition.factor_components"] = k
        counts["decomposition.kl_pairs"] = sum(
            len(c.vertices) * (len(c.vertices) - 1) // 2 for c in comps)
        if poset is not None:
            counts["cathedral.candidate_unions"] = k * 2 ** (k - 1)
        return 0, out

    return _guarded(body)


def _traced_ear_decomp(instance: dict, tr: Tracer, counts: dict):
    import bigraft as b

    def body():
        with tr.span("formats.parse"):
            g = b.parse_graft_json(instance["stdin"])
        if not isinstance(g, b.OrderedBipartiteGraft):
            raise b.GraftInputError("this command needs a bipartition")
        root = instance["argv"][1]
        if root not in g.graph.vertices:
            raise b.GraftInputError(f"unknown vertex id {root!r}")
        _graft_counts(g, counts)
        with tr.span("joins.min_join"):
            F = b.min_join(g)
        with tr.span("combs.build_ear_decomposition"):
            d = b.build_graft_ear_decomposition(g, root, F)
        with tr.span("combs.verify_ear_decomposition"):
            report = b.verify_graft_ear_decomposition(d, F)
        with tr.span("formats.render"):
            doc = {"decomposition": b.decomposition_document(d),
                   "join": sorted(F.edge_ids),
                   "valid": report.valid,
                   "problems": list(report.problems),
                   "warnings": list(report.warnings)}
            b.export_dot(d)
            out = _emit_json(doc)
        counts["combs.ear_steps"] = len(d.steps)
        return (0 if report.valid else 1), out

    return _guarded(body)


def _traced_verify(instance: dict, tr: Tracer, counts: dict):
    import bigraft as b
    argv = instance["argv"]
    seed = int(argv[argv.index("--seed") + 1])
    prop = argv[argv.index("--properties") + 1]
    mode = {p.name: p.mode for p in b.PROPERTIES}[prop]

    def body():
        with tr.span(f"properties.{mode}"):
            report = b.run_property_suite(1, b.GenConfig(seed=seed), [prop])
        with tr.span("formats.render"):
            out = _emit_json(b.suite_report_document(report))
        return (0 if report.ok else 1), out

    return _guarded(body)


# ---------------------------------------------------------------------------
# The table.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    # Where instances come from.  A run times CHUNKS chunks, each generated
    # afresh and timed in its own process.  Chunks are sized to finish well
    # inside seconds/CHUNKS on a slow host, so that every run of a seed
    # times the same instances; the slice only caps a much slower commit.
    source: Sampled | PropertyCycle
    # The percentile reported as op_tail_ms: the highest with at least ten
    # samples beyond it at the op count a run reaches when the benchmark was
    # defined, unless a comment at the workload says otherwise.
    tail_pct: int
    check: Callable
    traced: Callable


# setup_s and peak_rss_mb are medians over the chunks' processes; six
# processes keep one slow start from moving them.
CHUNKS = 6

WORKLOADS = {w.name: w for w in (
    Workload("grafts-dense",
             Sampled("grafts-dense", _make_grafts_dense, {6: 12, 8: 6}),
             tail_pct=90, check=_check_analyze, traced=_traced_analyze),
    Workload("combs-order",
             Sampled("combs-order", _make_combs_order, {6: 8, 7: 8, 8: 10}),
             tail_pct=90, check=_check_analyze, traced=_traced_analyze),
    Workload("quasicombs-ears",
             Sampled("quasicombs-ears", _make_quasicombs_ears,
                     {18: 2, 19: 3, 20: 4, 21: 3}),
             tail_pct=75, check=_check_ear_decomp, traced=_traced_ear_decomp),
    Workload("verify-suite",
             PropertyCycle(270),
             # p99 here is set by a handful of slow trials of one property
             # and moved by 30% between seeds; p95 has ~80 samples beyond.
             tail_pct=95, check=_check_verify, traced=_traced_verify),
)}
