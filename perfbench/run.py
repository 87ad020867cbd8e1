"""disclab benchmark: time-to-answer of the `disclab` CLI, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a disclab checkout; nothing needs installing, the
package is imported from `src/`.  Each run starts fresh worker processes
one at a time, with BLAS pinned to one thread: SETUP_PROBES workers that
only time `import disclab.cli`, then one worker that calls
`disclab.cli.dispatch(argv)` in-process on the pinned input and on seeded
inputs for --seconds (see worker.py, workloads.py).

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1 (see tracing.py).  A human summary goes to standard error, and
the full record (machine, tail percentile and sample count, failures,
pinned references, trace counts) to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7  # import-only workers per untraced run; the measuring worker adds one
RUN_LIMIT_S = 170.0  # every worker of a run must be done by then

END_TO_END = {
    "call_s_p50_norm": "s",
    "cpu_s_p50_norm": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ref_err_tol": "ratio",
}


def _worker(args: list, deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list) -> tuple:
    """(value, percentile, samples beyond it) of the tail latency.

    The highest percentile with 10 samples beyond it; below 40 samples
    that would fall under the 75th percentile, so a quarter of the
    samples (rounded down) lies beyond instead.
    """
    xs = sorted(values)
    beyond = min(10, len(xs) // 4)
    return xs[len(xs) - 1 - beyond], 100.0 * (len(xs) - beyond) / len(xs), beyond


def run_once(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Measure one workload; returns (result line, full record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    compileall.compile_dir(os.path.join(SRC, "disclab"), quiet=1)
    setup = [] if trace else [
        _worker(["--setup-only"], deadline)["import_s"] for _ in range(SETUP_PROBES)
    ]
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        rec = _worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(int(trace)), "--tmp", tmp], deadline)
        if trace:
            shutil.move(os.path.join(tmp, "spans.json.gz"),
                        os.path.join(OUT, f"spans-{name}-seed{seed}.json.gz"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup.append(rec["import_s"])

    # time the calls that passed their checks; if none did, time them all
    timed = [s for s in rec["samples"] if s["ok"]] or rec["samples"]
    walls = [s["wall"] for s in timed]
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": rec["machine"], "setup_s": setup, "samples": rec["samples"],
              "pinned_wall": rec["pinned_wall"], "refs": rec.get("refs"),
              "checker_catches_corruption": rec.get("checker_catches_corruption", False),
              "fail_frac": rec["failed"] / rec["attempted"], "problems": rec["problems"][:20]}
    if trace:
        if not rec["traced"]:
            raise RuntimeError(f"no traced call passed its checks: {rec['problems'][:3]}")
        values = tracing.median_metrics([t["metrics"] for t in rec["traced"]])
        values["trace.call_s_p50"] = statistics.median(t["wall"] for t in rec["traced"])
        values["trace.overhead_s"] = values["trace.call_s_p50"] - statistics.median(walls)
        units = {k: unit for k, (unit, _) in tracing.METRICS.items()}
        detail["pinned_counts"] = rec.get("pinned_counts")
        detail["baseline_counts"] = {
            k: [v, (rec.get("pinned_counts") or {}).get(k)]
            for k, v in workloads.BASELINE_COUNTS[name].items()
        }
    else:
        cpus = [s["cpu"] for s in timed]
        # each call in seconds at the reference machine speed, by the speed
        # kernel timed right after it (speed.py)
        ref = workloads.WORKLOADS[name].reference_s
        scales = [ref / s["kernel"] for s in timed]
        values = {
            "call_s_p50_norm": statistics.median(w * k for w, k in zip(walls, scales)),
            "cpu_s_p50_norm": statistics.median(c * k for c, k in zip(cpus, scales)),
            "peak_rss_mb": rec["maxrss_kb"] / 1024.0,
            "setup_s": statistics.median(setup),
            "ref_err_tol": rec["ref_err"],
        }
        units = END_TO_END
        value, pct, beyond = tail(walls)
        detail["ungated"] = {
            "speed_scale": statistics.median(scales),
            "call_s_p50": statistics.median(walls),
            "cpu_s_p50": statistics.median(cpus),
            "call_s_tail": value,
            "call_s_tail_percentile": pct,
            "call_s_tail_beyond": beyond,
            "calls_timed": len(walls),
            "fail_frac": detail["fail_frac"],
        }
    result = {
        "correct": rec["failed"] == 0 and detail["checker_catches_corruption"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    detail["result"] = result
    return result, detail


def summary(detail: dict) -> str:
    m = detail["machine"]
    lines = [
        f"{detail['workload']} seed={detail['seed']} trace={detail['trace']}: "
        f"{detail['result']['attempted']} calls, {detail['result']['failed']} failed "
        f"(fail_frac {detail['fail_frac']:.3g}), correct={detail['result']['correct']}",
        f"  machine: {m['cpu_model']}, nproc {m['nproc']} (affinity {m['affinity']}), "
        f"python {m['python']}, numpy {m['numpy']}, {m['blas']}, threads {m['thread_env']}",
    ]
    for k, v in detail["result"]["metrics"].items():
        lines.append(f"  {k:44s} {v['value']:.6g} {v['unit']}")
    u = detail.get("ungated")
    if u:
        lines.append(f"  not gated: speed_scale {u['speed_scale']:.4g}, "
                     f"call_s_p50 {u['call_s_p50']:.6g} s, cpu_s_p50 "
                     f"{u['cpu_s_p50']:.6g} s, call_s_tail {u['call_s_tail']:.6g} s "
                     f"(p{u['call_s_tail_percentile']:.1f} of {u['calls_timed']} calls, "
                     f"{u['call_s_tail_beyond']} beyond), fail_frac {u['fail_frac']:.3g}")
    for k, (want, got) in detail.get("baseline_counts", {}).items():
        lines.append(f"  pinned {k}: {got} (initial import: {want})")
    if not detail["checker_catches_corruption"]:
        lines.append("  FAILED self-test: a pinned value moved past its tolerance was not caught")
    for p in detail["problems"][:5]:
        lines.append(f"  FAILED {p['argv']}: {p['problems']}")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "disclab", "cli.py")):
        print(f"no disclab sources under {SRC}; run from a disclab checkout", file=sys.stderr)
        return 2
    try:
        result, detail = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)
    print(summary(detail), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
