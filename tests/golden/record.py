"""Re-record the golden ERM outputs in this folder.

Each run is a CLI command whose CSV is kept as ``<name>.csv`` next to this
script; the sweeps read their configs from ``<name>.json`` here.
``tests/test_golden.py`` regenerates every run through ``cli.main`` and
compares the numbers with the record.  Run from the repository root:

    PYTHONPATH=src python tests/golden/record.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: name -> CLI arguments without --out; a sweep's config is <name>.json in this folder
RUNS = {
    "erm-failure": ["erm-failure", "--n", "2000", "--B", "16", "--reps", "4", "--seed", "1"],
    **{name: ["simulate-risk", "--config", os.path.join(HERE, f"{name}.json"), "--seed", "1"]
       for name in ("sweep-erm", "sweep-erm-small", "sweep-erm-zero")},
}


def record(out_dir: str) -> None:
    """Write every run's CSV to ``out_dir``/<name>.csv."""
    from shiftkrr.cli import main

    for name, args in RUNS.items():
        if main([*args, "--out", os.path.join(out_dir, f"{name}.csv")]) != 0:
            raise SystemExit(f"{name} failed")


if __name__ == "__main__":
    record(HERE if len(sys.argv) < 2 else sys.argv[1])
