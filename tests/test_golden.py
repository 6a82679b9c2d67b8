"""The reference runs of ``tests/golden/record.py``: one table of seeded outputs.

Every output must be byte-identical at ``OPENBLAS_NUM_THREADS`` unset, 1, 2
and 4, and each dual sweep byte-identical to its primal twin.  The golden
ERM outputs, erm-failure and three ERM sweeps, are also compared with the
CSVs in ``tests/golden`` number by number.

Re-record the golden CSVs with ``PYTHONPATH=src python tests/golden/record.py``;
the diff of the record then shows how far a change moves these outputs.
``record.py DIR`` writes every output to DIR, so running it at a parent
commit and at a change and comparing the two with ``diff -r`` shows which
outputs the change moves."""

import csv
import importlib.util
import math
import os

import pytest

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


@pytest.mark.parametrize("name", [name.removesuffix(".csv") for name in record.GOLDEN])
def test_outputs_match_the_golden_record(name, tmp_path):
    record.record(str(tmp_path), [f"{name}.csv"])
    got, want = read_rows(tmp_path / f"{name}.csv"), read_rows(os.path.join(GOLDEN, f"{name}.csv"))
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


def test_every_reference_output_has_the_same_bytes_at_every_blas_thread_count(reference_outputs):
    runs = list(reference_outputs.values())
    for run in runs:
        assert sorted(run) == sorted(record.RUNS)
    for name in record.RUNS:
        assert all(run[name] == runs[0][name] for run in runs[1:]), name
    for dual, primal in record.SAME:
        assert runs[0][dual] == runs[0][primal], (dual, primal)
