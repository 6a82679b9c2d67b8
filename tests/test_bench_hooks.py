"""The benchmark's tracer still finds every library name it wraps."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_FIT = """
import numpy as np
import tracing
from shiftkrr import estimators, shifts, spectrum

tracer = tracing.Tracer()
tracing.install(tracer)
kernel = spectrum.EigenKernel(spectrum.EigenSequence.finite_rank([1.0, 0.5]), "hypercube")
xs = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
estimators.fit_krr(shifts.Dataset(xs, xs[:, 0]), kernel, 0.1, mode="primal")
layers = tracer.summary()["layers"]
assert layers["estimators.fit_krr.primal"]["calls"] == 1, layers
"""


def test_tracer_installs_and_records_a_primal_fit(tmp_path):
    path = f"{ROOT / 'src'}:{ROOT / 'bench'}"
    subprocess.run([sys.executable, "-c", TRACED_FIT], cwd=tmp_path, check=True,
                   env={**os.environ, "PYTHONPATH": path}, timeout=120)
