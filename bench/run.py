"""Benchmark of shiftkrr: one workload, measured for a fixed time.

    python3 bench/run.py --workload hard_pair --seed 3 --seconds 35 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh process
(``worker.py``) that imports shiftkrr from ``src``, writes the workload's
inputs from the seed, runs the workload once and checks each output
against the reference values recorded when the benchmark was defined.

With ``--trace 0`` passes repeat while another one should end within
``--seconds`` (at least ``MIN_PASSES`` of them), and the run reports the
medians of the end-to-end metrics:

    setup_s      process start until inputs are ready (import included),
                 over every pass plus set-up-only processes
    wall_s       one pass of the workload, as a CLI user pays it
    ops_per_s    operations completed per second of wall_s
    peak_rss_mb  peak resident memory of the process that ran the pass

With ``--trace 1`` each round runs an untraced pass, a traced pass (the
per-layer split of ``tracing.py``) and a pass with BLAS pinned to one
thread, and the run reports the per-layer metrics, the share of the traced
pass that the timed layers' self times cover (the drivers' and
``cli.main``'s own time is left out, so work that no layer wraps lowers it),
the tracing overhead against the untraced pass and the single-thread wall
time next to the default one.  The overhead compares passes in separate
processes, whose wall times differ by about 10 %, so it cannot tell apart
overheads smaller than that.

The environment goes to the line before the last one; the last line of
standard output is the result: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record of the run, with every pass, is written to
``.bench_out/``.  ``--size smoke`` runs the same code path at toy sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"

MIN_PASSES = 3
MIN_SETUPS = 11
#: no pass starts that should end later than this, even below MIN_PASSES
DEADLINE_S = 150.0
PASS_TIMEOUT_S = 170.0
#: environment of the single-thread BLAS pass
BLAS1 = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def spawn(args, mode: str, tag: str, env_extra=None) -> dict:
    """Run one worker process to completion and return its result."""
    out = OUT_DIR / f"{args.workload}-{args.seed}-{tag}.json"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--mode", mode, "--out", str(out)]
    env = dict(os.environ, **(env_extra or {}))
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          stdout=sys.stderr, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not out.exists():
        raise WorkerFailed(f"worker exited with {proc.returncode} ({' '.join(cmd)})")
    with open(out) as fh:
        result = json.load(fh)
    out.unlink()
    return result


def measure(args) -> tuple[dict, list, list]:
    """End-to-end metrics; also every pass and every set-up time."""
    passes, setups = [], []
    start = time.monotonic()
    while True:
        passes.append(spawn(args, "pass", f"pass{len(passes)}"))
        setups.append(passes[-1]["setup_s"])
        elapsed = time.monotonic() - start
        # another pass only if it should end within --seconds (or the deadline)
        limit = args.seconds if len(passes) >= MIN_PASSES else DEADLINE_S
        if elapsed * (len(passes) + 1) / len(passes) > limit:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(args, "setup", f"setup{len(setups)}")["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median([p["wall_s"] for p in passes]), "s"),
        "ops_per_s": (statistics.median([p["attempted"] / p["wall_s"] for p in passes]), "1/s"),
        "peak_rss_mb": (statistics.median([p["peak_rss_mb"] for p in passes]), "MiB"),
    }
    return metrics, passes, setups


def measure_traced(args) -> tuple[dict, list, list]:
    """Per-layer metrics from rounds of untraced, traced and single-thread passes."""
    rounds = []
    start = time.monotonic()
    while True:
        k = len(rounds)
        rounds.append({
            "plain": spawn(args, "pass", f"plain{k}"),
            "traced": spawn(args, "traced", f"traced{k}"),
            "blas1": spawn(args, "pass", f"blas1{k}", BLAS1),
        })
        # another round only if it should end within --seconds
        if (time.monotonic() - start) * (k + 2) / (k + 1) > args.seconds:
            break
    per_round = []
    for r in rounds:
        plain, traced, blas1 = r["plain"]["wall_s"], r["traced"]["wall_s"], r["blas1"]["wall_s"]
        values = tracing.layer_values(r["traced"]["trace"])
        values.update({
            # against the traced pass itself: passes in separate processes
            # differ by more than the tracing overhead
            "trace.coverage_frac": tracing.timed_self_s(r["traced"]["trace"]) / traced,
            "trace.overhead_frac": traced / plain - 1.0,
            "blas1.wall_s": blas1,
            "blas1.wall_ratio": blas1 / plain,
        })
        per_round.append(values)
    units = {name: unit for name, unit, _better in tracing.layer_metrics()}
    metrics = {name: (statistics.median([v[name] for v in per_round]), unit)
               for name, unit in units.items()}
    passes = [p for r in rounds for p in r.values()]
    return metrics, passes, [p["setup_s"] for p in passes]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shiftkrr" / "__init__.py").is_file():
        print(f"no shiftkrr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        spawn(args, "setup", "warmup")  # byte-compiles and fills the file cache
        metrics, passes, setups = (measure_traced if args.trace else measure)(args)
    except (WorkerFailed, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    environment = passes[0]["environment"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, environment=environment,
                  setup_samples=setups,
                  passes=[{k: v for k, v in p.items() if k != "environment"} for p in passes])
    with open(OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
