"""Record the reference outputs that the benchmark checks against.

    python3 bench/make_reference.py

Runs every workload at every size once per seed of the bank and stores
each call's records in ``reference/<workload>.json``.  The stored values
are those of the commit the benchmark was defined at; rerun this only when
a workload's inputs change, never to make a changed program pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import worker
import workloads


def main() -> int:
    worker._import_shiftkrr()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    (worker.ROOT / ".bench_out").mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        doc = {}
        for size in workloads.SIZES:
            doc[size] = {}
            for seed in range(workloads.SEED_BANK):
                with tempfile.TemporaryDirectory(dir=worker.ROOT / ".bench_out") as tmp:
                    calls = workloads.build(name, size, seed, Path(tmp))
                    wall_s, raw, _ = worker.run_pass(calls)
                    doc[size][str(seed)] = {}
                    for call, (value, error) in zip(calls, raw):
                        if error is not None or (call.is_cli and value != 0):
                            raise SystemExit(f"{name} seed {seed}: {call.key} failed\n{error}")
                        doc[size][str(seed)][call.key] = call.collect(value)
                print(f"{name} {size} seed {seed}: {wall_s:.2f} s", file=sys.stderr)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
