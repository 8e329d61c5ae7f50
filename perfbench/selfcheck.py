"""Show that the benchmark's correctness gate can fail.

    python3 perfbench/selfcheck.py

1. A few instances of each CLI workload run inside the package's
   ``flipped_distance_sign()`` hook.  combs-order and quasicombs-ears must
   report failures: their output depends on the sign of the distance.
   grafts-dense is reported as well; ``analyze`` on a graft without a
   bipartition only tests distances against zero and reads join sizes, so
   its output, and so its fail ratio, does not change under the flip.
2. A few grafts-dense instances run against recorded stdout digests with
   one digest corrupted: that operation must fail.

Exits 0 when every expected failure is seen and 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

from run import (BenchError, gen_chunk, instance_text, load_golden,
                 time_chunk)
from workloads import digest

SEED = 1
SLICE = 4


def fail_ratio(workload: str, gen: dict, golden: dict, flip: bool) -> float:
    res = time_chunk(workload, SEED, gen["instances"][:SLICE], gen["canary"],
                     golden, float("inf"), flip=flip)
    ops = [res["canary"], *res["ops"]]
    return sum(op["problem"] is not None for op in ops) / len(ops)


def main() -> int:
    golden = load_golden()
    ok = True
    try:
        for workload, must_fail in (("combs-order", True),
                                    ("quasicombs-ears", True),
                                    ("grafts-dense", False)):
            gen = gen_chunk(workload, SEED, 0, golden)
            ratio = fail_ratio(workload, gen, golden, flip=True)
            seen = ratio > 0
            ok &= seen or not must_fail
            print(f"flipped distance sign, {workload}: fail_ratio {ratio:.3f}"
                  f"{'' if seen or not must_fail else '  EXPECTED FAILURES'}")

        # gen still holds the chunk of grafts-dense, the loop's last workload.
        corrupt = copy.deepcopy(golden)
        stdout = corrupt["workloads"]["grafts-dense"]["stdout"]
        key = digest(instance_text(gen["instances"][0]))
        if key not in stdout:
            raise BenchError(f"no recorded digest for seed {SEED}; "
                             f"run perfbench/record.py")
        stdout[key] = "0" * len(stdout[key])
        ratio = fail_ratio("grafts-dense", gen, corrupt, flip=False)
        ok &= ratio > 0
        print(f"corrupted golden digest, grafts-dense: fail_ratio {ratio:.3f}"
              f"{'' if ratio > 0 else '  EXPECTED FAILURES'}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("gate check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
