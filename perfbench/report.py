"""Print every end-to-end metric, by name and unit, for all four workloads.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs each workload once, untraced, exactly as run.py does, and prints
run.py's summary of each: the gated metrics of BENCHMARK.json, then the
ones each run records without a bound.  Exits 1 if any workload fails a
check.
"""

from __future__ import annotations

import argparse
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args()
    ok = True
    for name in run.workloads.WORKLOADS:
        result, detail = run.run_once(name, args.seed, args.seconds, trace=False)
        ok = ok and result["correct"]
        print(run.summary(detail))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
