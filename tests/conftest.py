"""Fixtures shared by test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftkrr

SRC = Path(shiftkrr.__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "golden" / "record.py"

#: the ``OPENBLAS_NUM_THREADS`` settings the reference runs are made at; None leaves it unset
THREAD_SETTINGS = (None, "1", "2", "4")


@pytest.fixture(scope="session")
def reference_outputs(tmp_path_factory):
    """Every output of ``tests/golden/record.py``, once per thread setting.

    Maps each entry of ``THREAD_SETTINGS`` to ``{file name: bytes}``; each
    setting is one subprocess, so OpenBLAS reads it at start-up."""
    outputs = {}
    for threads in THREAD_SETTINGS:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(SRC)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path_factory.mktemp(f"threads-{threads}")
        subprocess.run([sys.executable, str(RECORD), str(out)], env=env, check=True, timeout=120)
        outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    return outputs
