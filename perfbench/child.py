"""The two kinds of process one benchmark run starts.

``gen`` makes one chunk of a workload's corpus and prints it as JSON.
``time`` reads a chunk on stdin, warms up on WARMUP and the workload's
canary instance, then runs each instance once, timing it, and prints per-op
records, any spans and the host-speed calibration samples as JSON.
Keeping the two apart means the timed process sees every instance cold:
the package's caches never hold anything the generator computed while
filtering.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS, Tracer, digest, instance_text  # noqa: E402

# analyze on a 12-cycle whose vertices are all terminals: one graph
# component with many terminals, so the warm-up also takes the many-terminal
# side of the pairing and makes the imports that side makes on first use.
# Without it, the first op of a chunk to need that side imported networkx
# while timed and added about 13 MB to the peak RSS of some chunks only.
WARMUP = {"argv": ["analyze", "--format", "json"],
          "stdin": json.dumps({
              "vertices": [f"v{i}" for i in range(12)],
              "edges": [{"id": f"e{i}", "u": f"v{i}", "v": f"v{(i + 1) % 12}"}
                        for i in range(12)],
              "terminals": [f"v{i}" for i in range(12)]})}

# Least seconds between two calibration samples; a sample takes about
# 1.5 ms, so ops longer than this get a sample on each side.
CALIBRATE_EVERY_S = 0.05


def calibration_s() -> float:
    """Time a fixed loop of small tuple, frozenset and dict work, the kind
    the package spends its time on, that touches no package code.

    Its time moves with the speed the host gives this process, so
    the run can scale op times by it (see README.md, "Host speed").  The
    collector is off so that the heap the package left behind cannot
    lengthen the loop.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(3_000):
            table[(i, i % 97)] = frozenset((i, i + 1))
        return time.perf_counter() - start
    finally:
        gc.enable()


def _gen(args) -> dict:
    source = WORKLOADS[args.workload].source
    start = time.perf_counter()
    instances = source.corpus(args.seed, args.chunk)
    canary = source.canary()
    return {"instances": instances, "canary": canary,
            "gen_s": time.perf_counter() - start,
            "generators": source.generator_digest()}


def _run_cli(instance: dict) -> tuple[int, str]:
    from bigraft import cli_main
    out = io.StringIO()
    sys.stdin = io.StringIO(instance["stdin"])
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli_main(list(instance["argv"]))
    finally:
        sys.stdin = sys.__stdin__
    return rc, out.getvalue()


def _time(args) -> dict:
    payload = json.load(sys.stdin)
    import bigraft
    w = WORKLOADS[args.workload]
    golden = payload["golden"]
    tracer = Tracer(record=args.op == "traced")

    def one(instance: dict, op_id: int) -> dict:
        counts: dict = {}
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        if args.op == "cli":
            rc, out = _run_cli(instance)
        else:
            tracer.op_id = op_id
            with tracer.span("op"):
                rc, out = w.traced(instance, tracer, counts)
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
        key = digest(instance_text(instance))
        problem = w.check(instance, rc, out)
        want = golden.get(key)
        if problem is None and want is not None and want != digest(out):
            problem = "stdout differs from the recorded digest"
        return {"key": key, "wall": wall, "cpu": cpu, "rc": rc,
                "out": digest(out), "problem": problem, "counts": counts}

    flip = bigraft.flipped_distance_sign() if args.flip_distance_sign \
        else contextlib.nullcontext()
    ops = []
    # cals[before[i]] and cals[before[i] + 1] are the samples taken just
    # before and just after op i.
    cals: list[float] = []
    before: list[int] = []
    with flip:
        warm_rc, _ = _run_cli(WARMUP)
        canary = one(payload["canary"], -1)
        if warm_rc != 0:
            canary["problem"] = f"warm-up analyze exit code {warm_rc}"
        ready = time.monotonic()
        loop_start = time.perf_counter()
        cals.append(calibration_s())
        last_cal = time.perf_counter()
        for i, instance in enumerate(payload["instances"]):
            if ops and time.perf_counter() - loop_start >= args.deadline:
                break
            ops.append(one(instance, i))
            before.append(len(cals) - 1)
            if time.perf_counter() - last_cal >= CALIBRATE_EVERY_S:
                cals.append(calibration_s())
                last_cal = time.perf_counter()
        if before[-1] == len(cals) - 1:
            cals.append(calibration_s())
    for op, b in zip(ops, before):
        op["calibration_s"] = (cals[b] + cals[b + 1]) / 2
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"ready": ready, "canary": canary, "ops": ops,
            "calibration_s": statistics.median(cals),
            "rss_mb": rss_mb, "spans": tracer.spans}


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="role", required=True)
    g = sub.add_parser("gen")
    g.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--chunk", type=int, required=True)
    t = sub.add_parser("time")
    t.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    t.add_argument("--op", choices=("cli", "replica", "traced"), default="cli",
                   help="cli_main, or the traced replay of its calls with "
                        "spans off or on")
    t.add_argument("--deadline", type=float, default=float("inf"),
                   help="stop starting ops after this many seconds")
    t.add_argument("--flip-distance-sign", action="store_true",
                   help="run inside bigraft.flipped_distance_sign()")
    args = parser.parse_args()
    result = _gen(args) if args.role == "gen" else _time(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
