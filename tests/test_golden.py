"""The golden ERM record: erm-failure and three ERM sweeps, regenerated through
``cli.main`` and compared with the CSVs in ``tests/golden`` number by number.

Re-record with ``PYTHONPATH=src python tests/golden/record.py``; the diff of
the record then shows how far a change moves these outputs."""

import csv
import importlib.util
import math
import os

import pytest

from shiftkrr.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
_spec = importlib.util.spec_from_file_location("golden_record", os.path.join(GOLDEN, "record.py"))
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

#: the kernel rank of the recorded sweeps
SWEEP_RANK = 64


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def parse(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def unbounded(name, row):
    """A sigma^2 = 0 sweep row at or above the rank, whose numbers are not compared.

    ERM there sits at its floored multiplier on an ill-conditioned G, so the
    rounding of c moves the fit by up to about 1e-7 relative."""
    return name == "sweep-erm-zero" and int(row["n"]) >= SWEEP_RANK


@pytest.mark.parametrize("name", list(record.RUNS))
def test_outputs_match_the_golden_record(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main([*record.RUNS[name], "--out", str(out)]) == 0
    got, want = read_rows(out), read_rows(os.path.join(GOLDEN, f"{name}.csv"))
    assert len(got) == len(want) and list(got[0]) == list(want[0])
    for g, w in zip(got, want):
        for key, cell in w.items():
            a, b = parse(g[key]), parse(cell)
            if isinstance(b, str):
                assert a == b, key
            elif unbounded(name, w):
                assert isinstance(a, float) and math.isfinite(a), key
            else:
                assert math.isclose(a, b, rel_tol=1e-12), (key, a, b)
