"""One benchmark worker: a fresh process that imports disclab and calls its CLI.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR

The worker first times `import disclab.cli` (numpy included) and, with
--setup-only, prints that time and exits.  Otherwise it makes one call
on the workload's pinned input (checked against the pinned reference
values; it also serves as warm-up), then calls `disclab.cli.dispatch`
on seeded inputs until the next call would end past --seconds.  Every
output is checked after its call, outside the timed region, and then
the workload's machine-speed kernel (speed.py) runs for a tenth of the
call's time; its median time is kept with the call's.  With --trace 1 the pinned call and every other timed call
run traced.

The last line of standard output is one JSON record for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SPEED_SHARE = 0.1  # machine-speed probe after each call, as a share of its wall time


def _machine() -> dict:
    import platform

    import numpy as np

    model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {key: os.environ.get(key) for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _invoke(dispatch, argv):
    """Run one CLI call; (exit code or None, wall s, cpu s, stderr, error)."""
    err = io.StringIO()
    error = None
    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = dispatch(argv)
    except Exception:  # a raising call is a failed call, the run goes on
        rc = None
        error = traceback.format_exc(limit=3)
    wall = time.perf_counter() - w0
    cpu = time.process_time() - c0
    return rc, wall, cpu, err.getvalue(), error


def _problems(rc, error, check, *args):
    if error is not None:
        return [f"raised: {error.strip().splitlines()[-1]}"]
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_pinned(record: dict, refs: list, counted: bool) -> None:
    """Count the pinned call as failed in record when a value misses its pin.

    counted: the call has been counted as failed already.
    """
    problems = [f"{r.label} = {r.got!r}, pinned {r.want!r}" for r in refs if not r.ok()]
    if problems:
        record["problems"].append({"argv": "pinned", "problems": problems})
        if not counted:
            record["failed"] += 1


def run(workload_name: str, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    t = time.perf_counter()
    import disclab.cli

    import_s = time.perf_counter() - t
    sys.path.insert(0, HERE)
    import speed
    import tracing
    import workloads

    work = workloads.WORKLOADS[workload_name]
    tracer = tracing.Tracer() if trace else None
    out_path = os.path.join(tmp, f"out.{work.out_ext}")
    record = {"import_s": import_s, "machine": _machine(), "attempted": 0, "failed": 0,
              "problems": [], "samples": [], "traced": []}

    def call(params, request, traced):
        argv = work.argv(params, out_path)
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)  # each call writes a new file, and a failed one leaves none
        if traced:
            with tracer.installed(request):
                root = tracer.open("cli.dispatch")
                try:
                    rc, wall, cpu, stderr, error = _invoke(disclab.cli.dispatch, argv)
                finally:
                    tracer.close(root)
        else:
            rc, wall, cpu, stderr, error = _invoke(disclab.cli.dispatch, argv)
        if request == 0:  # the pinned call is the first and largest; checks come after
            record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["attempted"] += 1
        problems = _problems(rc, error, work.check, params, out_path, stderr)
        if problems:
            record["failed"] += 1
            record["problems"].append({"argv": argv, "problems": problems})
        elif traced:
            metrics = tracer.call_metrics(request, os.path.getsize(out_path))
            record["traced"].append({"wall": wall, "metrics": metrics})
        kernel = statistics.median(speed.probe(work.speed_parts, SPEED_SHARE * wall))
        return wall, cpu, kernel, stderr, not problems

    # pinned call: warm-up, reference values, exact trace counts
    wall, _, _, stderr, ok = call(work.pinned, 0, trace)
    record["pinned_wall"] = wall
    record["ref_err"] = 1.0  # the test's limit, when the pinned output cannot be read
    try:
        refs = work.pinned_refs(out_path, stderr)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        refs = []
        record["problems"].append({"argv": "pinned", "problems": [f"unreadable: {exc!r}"]})
        record["failed"] += int(ok)  # otherwise call() has counted this call already
    if refs:
        record["refs"] = [[r.label, r.got, r.want, r.tol, r.absolute] for r in refs]
        record["ref_err"] = workloads.ref_err(refs)
        _check_pinned(record, refs, counted=not ok)
        # the checker itself: every pin, moved past its tolerance, must fail the run
        caught = []
        for i in range(len(refs)):
            shadow = {"failed": 0, "problems": []}
            _check_pinned(shadow, workloads.corrupted(refs, i), counted=False)
            caught.append(shadow["failed"] == 1)
        record["checker_catches_corruption"] = all(caught)
    if trace and ok:
        record["pinned_counts"] = record["traced"].pop()["metrics"]

    draws = work.draws(seed)
    deadline = time.perf_counter() + seconds
    least = 2 if trace else 1  # a traced run needs one call of each kind
    n = 0
    while True:
        walls = [s["wall"] for s in record["samples"]] or [record["pinned_wall"]]
        if n >= least and time.perf_counter() + statistics.median(walls) > deadline:
            break
        n += 1
        traced = trace and n % 2 == 0
        params = next(draws)
        wall, cpu, kernel, _, ok = call(params, n, traced)
        if not traced:
            record["samples"].append({"wall": wall, "cpu": cpu, "kernel": kernel,
                                      "params": params, "ok": ok})
    if tracer is not None:
        tracer.dump(os.path.join(tmp, "spans.json.gz"))
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp")
    args = ap.parse_args()
    if args.setup_only:
        t = time.perf_counter()
        import disclab.cli  # noqa: F401

        print(json.dumps({"import_s": time.perf_counter() - t}))
        return 0
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tmp)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
