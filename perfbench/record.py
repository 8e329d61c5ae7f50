"""Record perfbench/golden.json: what a benchmark run compares against.

    python3 perfbench/record.py

For every workload it records
- a digest of the generators' output, which every run recomputes, so a
  change to the generators stops every run, whatever its seed;
- a fingerprint of each corpus chunk of FINGERPRINT_SEEDS;
- the stdout digest of every instance of RECORDED_SEED and of the canary,
  so a run fails any operation whose output is not byte-identical.

Record only from a commit whose outputs are known good: an operation that
fails its checks stops the recording.
"""

from __future__ import annotations

import json
import sys

from run import (FINGERPRINT_SEEDS, GOLDEN, RECORDED_SEED, BenchError, child,
                 context, fingerprint, time_chunk)
from workloads import CHUNKS, WORKLOADS


def record(workload: str) -> dict:
    rec: dict = {"generators": None, "fingerprints": {}, "stdout": {}}
    empty = {"workloads": {workload: {"stdout": {}}}}
    for seed in sorted({*FINGERPRINT_SEEDS, RECORDED_SEED}):
        prints = []
        for c in range(CHUNKS):
            gen = child("gen", ["--workload", workload, "--seed", str(seed),
                                "--chunk", str(c)], seed)
            rec["generators"] = gen["generators"]
            prints.append(fingerprint(gen["instances"]))
            if seed != RECORDED_SEED:
                continue
            res = time_chunk(workload, seed, gen["instances"], gen["canary"],
                             empty, float("inf"))
            for op in [res["canary"], *res["ops"]]:
                if op["problem"]:
                    raise BenchError(f"{workload} {op['key']}: {op['problem']}")
                rec["stdout"][op["key"]] = op["out"]
        if seed in FINGERPRINT_SEEDS:
            rec["fingerprints"][str(seed)] = prints
        print(f"{workload}: seed {seed} recorded", file=sys.stderr)
    return rec


def main() -> int:
    golden = {"workloads": {w: record(w) for w in WORKLOADS}}
    ctx = context(0, 0, 0)
    golden["recorded_with"] = {k: ctx[k] for k in ("git_rev", "python", "networkx")}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
