"""Smoke check of the benchmark: every workload at toy sizes, same code path.

    python3 bench/check_smoke.py

For each workload it runs ``run.py --size smoke`` untraced and traced and
checks that the last line of output is a correct result carrying exactly
the metrics ``BENCHMARK.json`` declares, with their units.  It then checks
that the benchmark refuses to run, without printing a result, in a copy
that holds only ``BENCHMARK.json`` and the benchmark's own files.  It is
not part of the library's test suite and takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(line: str, declared: list) -> list:
    problems = []
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"incorrect result: {line}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(want))}")
    for name, m in metrics.items():
        if m.get("unit") != want.get(name) or not math.isfinite(m.get("value", math.nan)):
            problems.append(f"{name}: {m}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            found = check_result(lines[-1], declared)
            problems += [f"{workload} trace {trace}: {p}" for p in found]
            print(f"{workload} trace {trace}: {'FAIL' if found else 'ok'}", file=sys.stderr)

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("the benchmark ran without the program's sources")
        else:
            print("without sources: refused", file=sys.stderr)

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
