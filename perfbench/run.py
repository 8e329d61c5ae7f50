"""The bigraft benchmark.

    python3 perfbench/run.py --workload grafts-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run is a single-threaded closed loop with one operation in flight.  It
makes CHUNKS chunks of the workload's corpus from ``--seed``, each in a
generator process, and times each chunk in a fresh process that runs every
instance once through ``bigraft.cli_main`` with stdout captured.  Every
operation's output is checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays each
chunk's CLI calls through the public layer functions, first with spans off
and then on over the same instances, and reports the per-layer metrics
from the spans, plus the tracing overhead.  ``--workload
all`` runs every workload both ways and prints everything.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import CHUNKS, WORKLOADS, digest, instance_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
CHILD_TIMEOUT_S = 150
# golden.json holds the stdout digest of every instance of RECORDED_SEED,
# the default seed, and the corpus fingerprints of FINGERPRINT_SEEDS.
RECORDED_SEED = 1
FINGERPRINT_SEEDS = range(20)
# Reported times are scaled to a host on which child.calibration_s() takes
# this long: an op time t whose two neighbouring calibration samples average
# c is reported as t * REFERENCE_CALIBRATION_S / c.  Set-up time is scaled by
# the median sample of the chunk's timed process.
REFERENCE_CALIBRATION_S = 0.0014

PROPERTY_MODES = ("graft", "comb", "connected-graft", "factor-connected-graft",
                  "factor-connected-comb", "critical-quasicomb",
                  "component-rich-comb")
LAYER_TIMES = ("decomposition.factor_components", "decomposition.kl_partition",
               "joins.min_join",
               "combs.classify_comb", "combs.build_ear_decomposition",
               "combs.verify_ear_decomposition", "cathedral.cathedral_poset",
               "formats.parse", "formats.render",
               *(f"properties.{m}" for m in PROPERTY_MODES))
LAYER_COUNTS = ("core.vertices", "core.edges", "joins.terminals",
                "joins.terminals_max_component", "decomposition.allowed_ratio",
                "decomposition.factor_components", "decomposition.kl_pairs",
                "cathedral.candidate_unions", "combs.ear_steps")


class BenchError(Exception):
    """The run cannot produce a trustworthy result; no result is printed."""


def child(role: str, argv: list[str], seed: int, payload=None) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), role, *argv],
        input=None if payload is None else json.dumps(payload),
        capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{role} process failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint(instances: list[dict]) -> str:
    return digest("\n".join(instance_text(i) for i in instances))


def gen_chunk(workload: str, seed: int, chunk: int, golden: dict) -> dict:
    """One generated chunk, refused when it differs from the recorded corpus."""
    gen = child("gen", ["--workload", workload, "--seed", str(seed),
                        "--chunk", str(chunk)], seed)
    rec = golden["workloads"][workload]
    if gen["generators"] != rec["generators"]:
        raise BenchError(f"{workload}: the generators' output differs from "
                         f"the recorded one, so the corpus must be recorded "
                         f"again (perfbench/record.py)")
    want = rec["fingerprints"].get(str(seed))
    if want is not None and fingerprint(gen["instances"]) != want[chunk]:
        raise BenchError(f"{workload}: corpus of seed {seed} chunk {chunk} "
                         f"differs from its recorded fingerprint")
    return gen


def time_chunk(workload: str, seed: int, instances: list[dict], canary: dict,
               golden: dict, deadline: float, op: str = "cli",
               flip: bool = False) -> dict:
    stdout_digests = golden["workloads"][workload]["stdout"]
    keys = [digest(instance_text(i)) for i in [canary, *instances]]
    argv = ["--workload", workload, "--op", op, "--deadline", repr(deadline)]
    if flip:
        argv.append("--flip-distance-sign")
    return child("time", argv, seed, {
        "instances": instances, "canary": canary,
        "golden": {k: stdout_digests[k] for k in keys if k in stdout_digests}})


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 golden: dict) -> dict:
    """Time CHUNKS chunks and return the raw records."""
    slice_s = seconds / CHUNKS
    chunks = []
    for c in range(CHUNKS):
        launched = time.monotonic()
        gen = gen_chunk(workload, seed, c, golden)
        plain = time_chunk(workload, seed, gen["instances"], gen["canary"],
                           golden, slice_s / 2 if trace else slice_s,
                           "replica" if trace else "cli")
        rec = {"gen_s": gen["gen_s"], "setup_s": plain["ready"] - launched,
               "plain": plain, "traced": None}
        if trace:
            done = {op["key"] for op in plain["ops"]}
            subset = [i for i in gen["instances"]
                      if digest(instance_text(i)) in done]
            rec["traced"] = time_chunk(workload, seed, subset, gen["canary"],
                                       golden, float("inf"), "traced")
        chunks.append(rec)
    return {"workload": workload, "chunks": chunks}


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _scale(timed: dict) -> float:
    """The factor that takes a time measured in a timed process, or by one
    of its ops, to the reference host."""
    return REFERENCE_CALIBRATION_S / timed["calibration_s"]


def _all_ops(raw: dict, side: str) -> list[tuple[dict, float]]:
    """Every op of one side, each with its scale factor."""
    return [(op, _scale(op)) for c in raw["chunks"] if c[side]
            for op in c[side]["ops"]]


def _checked(raw: dict) -> tuple[int, int, list[str]]:
    ops = []
    for c in raw["chunks"]:
        for side in ("plain", "traced"):
            if c[side]:
                ops += [c[side]["canary"], *c[side]["ops"]]
    problems = [f"{op['key']}: {op['problem']}" for op in ops if op["problem"]]
    return len(ops), len(problems), problems


def end_to_end(raw: dict) -> tuple[dict, dict]:
    """(metrics, notes).  A metric is (value, unit, samples behind it)."""
    w = WORKLOADS[raw["workload"]]
    ops = _all_ops(raw, "plain")
    walls = [op["wall"] * 1000 * f for op, f in ops]
    chunks = raw["chunks"]
    n, k = len(walls), len(chunks)
    tail = _percentile(walls, w.tail_pct)
    metrics = {
        "setup_s": (statistics.median(c["setup_s"] * _scale(c["plain"])
                                      for c in chunks), "s", k),
        "ops_per_s": (n / (sum(walls) / 1000), "1/s", n),
        "op_p50_ms": (statistics.median(walls), "ms", n),
        "op_tail_ms": (tail, "ms", n),
        "cpu_ms_per_op": (statistics.mean(op["cpu"] * 1000 * f
                                          for op, f in ops), "ms", n),
        "peak_rss_mb": (statistics.median(c["plain"]["rss_mb"]
                                          for c in chunks), "MB", k),
    }
    notes = {"tail_percentile": w.tail_pct,
             "tail_samples_beyond": sum(x > tail for x in walls),
             "host_slowdown": [round(1 / _scale(c["plain"]), 4)
                               for c in chunks],
             "op_p50_ms_unscaled": statistics.median(
                 op["wall"] * 1000 for op, _ in ops)}
    return metrics, notes


def _self_times(spans: list, ops: list, out: dict) -> None:
    """Add each span's self time, scaled by its op's factor, to
    ``out[name]``: its duration minus the time its child spans cover.
    Spans of the canary (op id -1) are skipped."""
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for (op_id, name, start, end, _), covered in zip(spans, child_time):
        if op_id >= 0:
            out[name] = (out.get(name, 0.0)
                         + ((end - start) - covered) * _scale(ops[op_id]))


def per_layer(raw: dict) -> tuple[dict, dict]:
    """(metrics, notes) from the traced pass; times are mean self time per op."""
    traced_ops = _all_ops(raw, "traced")
    n, k = len(traced_ops), len(raw["chunks"])
    self_s: dict = {}
    for c in raw["chunks"]:
        _self_times(c["traced"]["spans"], c["traced"]["ops"], self_s)
    metrics = {f"{name}_ms": (self_s.get(name, 0.0) * 1000 / n, "ms", n)
               for name in LAYER_TIMES}
    metrics["generators.corpus_s"] = (
        statistics.median(c["gen_s"] for c in raw["chunks"]), "s", k)
    for name in LAYER_COUNTS:
        unit = "ratio" if name.endswith("ratio") else "count"
        metrics[name] = (
            sum(op["counts"].get(name, 0) for op, _ in traced_ops) / n,
            unit, n)
    plain = {op["key"]: op["wall"] * f for op, f in _all_ops(raw, "plain")}
    metrics["trace.overhead_ratio"] = (
        sum(op["wall"] * f for op, f in traced_ops)
        / sum(plain[op["key"]] for op, _ in traced_ops), "ratio", n)
    # Layer spans are the op span's only children, so the op's self time is
    # exactly what no layer span covers.
    covered = sum(v for name, v in self_s.items() if name != "op")
    metrics["trace.coverage"] = (covered / (covered + self_s["op"]), "ratio", n)
    return metrics, {"spans": sum(len(c["traced"]["spans"])
                                  for c in raw["chunks"])}


# ---------------------------------------------------------------------------
# Context and printing.
# ---------------------------------------------------------------------------

def git_rev() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(seed: int, seconds: float, trace: int) -> dict:
    try:
        nx = metadata.version("networkx")
    except metadata.PackageNotFoundError:
        nx = "absent"
    return {"git_rev": git_rev(), "python": platform.python_version(),
            "networkx": nx, "nproc": os.cpu_count(), "seed": seed,
            "seconds": seconds, "trace": trace, "chunks": CHUNKS}


def report(workload: str, metrics: dict, notes: dict, attempted: int,
           failed: int, problems: list[str]) -> None:
    print(f"# {workload}: {json.dumps(notes, sort_keys=True)}")
    print(f"#   fail_ratio {failed / attempted:.6f} "
          f"({failed} failed of {attempted} attempted)")
    for p in problems[:20]:
        print(f"#   FAIL {p}")
    print(f"#   {'metric':40s} {'value':>14s} {'unit':6s} samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"#   {name:40s} {value:14.6f} {unit:6s} {samples}")


def measure(workload: str, seed: int, seconds: float, trace: int,
            golden: dict) -> tuple[dict, int, int]:
    raw = run_workload(workload, seed, seconds, trace, golden)
    metrics, notes = per_layer(raw) if trace else end_to_end(raw)
    attempted, failed, problems = _checked(raw)
    report(workload, metrics, notes, attempted, failed, problems)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bigraft" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'bigraft'}",
              file=sys.stderr)
        return 2
    try:
        golden = load_golden()
        plan = ([(w, t) for w in WORKLOADS for t in (0, 1)]
                if args.workload == "all" else [(args.workload, args.trace)])
        print(f"# context {json.dumps(context(args.seed, args.seconds, args.trace), sort_keys=True)}")
        metrics: dict = {}
        attempted = failed = 0
        for workload, trace in plan:
            m, a, f = measure(workload, args.seed, args.seconds, trace, golden)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
