"""One pass of a workload in a fresh process.

    python3 bench/worker.py --workload hard_pair --seed 3 --size full \\
        --mode pass --t0 <time.monotonic() at spawn> --out result.json

The process imports shiftkrr from the checkout's ``src``, writes the
workload's inputs, runs its calls once and checks their outputs against the
reference values.  ``--mode setup`` stops once the inputs are ready;
``--mode traced`` wraps the library's layers first and also writes the
spans next to ``--out`` (``<out>.spans.json``).  The result file holds the
set-up time (from ``--t0``, taken by the parent just before it started this
process, to inputs ready), the pass's wall time, the process's peak RSS,
the failed and attempted operations and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_shiftkrr():
    sys.path.insert(0, str(ROOT / "src"))
    import shiftkrr

    if Path(shiftkrr.__file__).resolve().parent != ROOT / "src" / "shiftkrr":
        raise SystemExit(f"imported shiftkrr from {shiftkrr.__file__}, not from {ROOT / 'src'}")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_pass(calls, tracer=None) -> tuple[float, list, dict]:
    """Run every call once; return the wall time, (raw result, error) per
    call and the seconds each call took."""
    results, call_s = [], {}
    start = time.perf_counter()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        try:
            results.append((call.run(), None))
        except Exception:  # a library failure is a failed operation, not a crash
            results.append((None, traceback.format_exc()))
        call_s[call.key] = time.perf_counter() - t
    return time.perf_counter() - start, results, call_s


def check_pass(workloads, args, calls, raw) -> tuple[int, int]:
    """Attempted and failed operations of one pass."""
    reference = workloads.load_reference(args.workload, args.size, args.seed)
    attempted = failed = 0
    for call, (value, error) in zip(calls, raw):
        if error is not None:
            print(f"{call.key}: {error}", file=sys.stderr)
        bad = workloads.check_call(call, value, error, reference.get(call.key, []))
        if bad:
            print(f"{call.key}: {bad} of {call.ops} operations failed", file=sys.stderr)
        attempted += call.ops
        failed += bad
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), default="pass")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    _import_shiftkrr()
    import workloads

    tmp = Path(args.out).with_suffix(".inputs")
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        calls = workloads.build(args.workload, args.size, args.seed, tmp)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if args.mode != "setup":
            tracer = None
            if args.mode == "traced":
                import tracing

                tracer = tracing.Tracer()
                tracing.install(tracer)
            wall_s, raw, call_s = run_pass(calls, tracer)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            attempted, failed = check_pass(workloads, args, calls, raw)
            result.update(
                wall_s=wall_s,
                call_s=call_s,
                peak_rss_mb=peak_rss_mb,
                attempted=attempted,
                failed=failed,
                environment=environment(),
            )
            if tracer is not None:
                result["trace"] = tracer.summary()
                tracer.write(Path(args.out).with_suffix(".spans.json"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
