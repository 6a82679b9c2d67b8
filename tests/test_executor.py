"""The replicate executor: results in canonical order, independent of the
worker count and of the BLAS thread setting, with BLAS counts restored."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import shiftkrr
from shiftkrr import seeding
from shiftkrr.estimators import FactorizationError
from shiftkrr.experiments import figure2
from shiftkrr.hard_instance import simulate_failure
from shiftkrr.seeding import map_units

SRC = Path(shiftkrr.__file__).resolve().parent.parent


def blas_counts():
    return [get() for get, _ in seeding._openblas_thread_controls()]


def on_cores(monkeypatch, count, fn):
    """``fn()`` in a process that seems to run on ``count`` cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    return fn()


def test_map_units_keeps_order_and_pins_blas_to_one_thread(monkeypatch):
    before = blas_counts()
    seen = on_cores(monkeypatch, 3, lambda: map_units(lambda u: (u, blas_counts()), range(7)))
    assert [u for u, _ in seen] == list(range(7))
    assert all(counts == [1] * len(before) for _, counts in seen)
    assert blas_counts() == before


@pytest.mark.parametrize("threads", [1, 2])
def test_map_units_restores_blas_counts_after_a_failing_unit(monkeypatch, threads):
    before = blas_counts()

    def unit(u):
        if u == 2:
            raise FactorizationError("factorization failed: unit 2")
        return u

    with pytest.raises(FactorizationError, match="unit 2"):
        on_cores(monkeypatch, threads, lambda: map_units(unit, range(5)))
    assert blas_counts() == before


def test_map_units_runs_serially_without_an_openblas(monkeypatch):
    monkeypatch.setattr(seeding, "_openblas_thread_controls", lambda: [])
    caller = threading.get_ident()
    assert on_cores(monkeypatch, 4, lambda: map_units(lambda u: (u, threading.get_ident()),
                                                      range(4))) == [(u, caller) for u in range(4)]


def test_simulate_failure_is_independent_of_threads(monkeypatch):
    runs = [on_cores(monkeypatch, t, lambda: simulate_failure(600, 8.0, D=64, reps=5, seed=3))
            for t in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]


def test_figure2_is_independent_of_threads(monkeypatch):
    runs = [on_cores(monkeypatch, t, lambda: figure2(n_list=[300, 600], B_grid=[2.0, 8.0],
                                                     reps=3, seed=4, D=32))
            for t in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]


def test_erm_failure_bytes_do_not_depend_on_openblas_threads(tmp_path):
    outputs = []
    for value in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(SRC)
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        out = tmp_path / f"failure-{value}.csv"
        subprocess.run([sys.executable, "-m", "shiftkrr.cli", "erm-failure", "--n", "2000",
                        "--B", "16", "--reps", "4", "--seed", "1", "--out", str(out)],
                       env=env, check=True, timeout=120)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_dual_fit_and_sweep_bytes_do_not_depend_on_openblas_threads(tmp_path):
    # a weighted dual fit on 2000 rows runs products large enough for threaded BLAS
    rng = np.random.default_rng(5)
    n, D = 2000, 64
    xs = rng.choice([-1.0, 1.0], size=(n, D))
    ys = xs[:, 0] + rng.normal(size=n)
    lines = [",".join([f"x_{j}" for j in range(1, D + 1)] + ["y", "weight"])]
    lines += [",".join(f"{v:.17g}" for v in [*x, y, w])
              for x, y, w in zip(xs, ys, rng.uniform(0.2, 3.0, size=n))]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    kernel = {"eigs": {"kind": "poly", "alpha": 1.0}, "eigenfunctions": "hypercube", "rank": D}
    (tmp_path / "fit.json").write_text(json.dumps(
        {"kernel": kernel, "lambda": 0.01, "mode": "dual", "weighted": True}))
    (tmp_path / "sweep.json").write_text(json.dumps(
        {"pair": {"family": "hypercube", "D": D}, "kernel": kernel, "estimator": "reweighted",
         "lambda_rule": {"rule": "poly", "alpha": 1.0}, "weight_rule": "tau_n",
         "fit_mode": "dual", "n_list": [1500], "shift_grid": [8.0], "reps": 1}))
    outputs = []
    for value in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(SRC)
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        run = []
        for args in (["fit", "--config", "fit.json", "--data", "data.csv"],
                     ["simulate-risk", "--config", "sweep.json", "--seed", "3"]):
            out = tmp_path / f"{args[0]}-{value}.out"
            subprocess.run([sys.executable, "-m", "shiftkrr.cli", *args, "--out", str(out)],
                           cwd=tmp_path, env=env, check=True, timeout=120)
            run.append(out.read_bytes())
        outputs.append(run)
    assert outputs[0] == outputs[1] == outputs[2]


def test_one_blas_thread_is_reentrant_and_restores_once(monkeypatch):
    before = blas_counts()
    with seeding.one_blas_thread():
        with seeding.one_blas_thread():
            assert blas_counts() == [1] * len(before)
        assert blas_counts() == [1] * len(before)
        assert on_cores(monkeypatch, 2, lambda: map_units(lambda u: blas_counts(), range(3))) == [
            [1] * len(before)] * 3
        assert blas_counts() == [1] * len(before)
    assert blas_counts() == before
    with pytest.raises(KeyError):
        with seeding.one_blas_thread():
            raise KeyError("inside")
    assert blas_counts() == before


def test_openblas_is_looked_up_once_per_process():
    assert seeding._openblas_thread_controls() is seeding._openblas_thread_controls()


def test_cli_handlers_and_the_whitened_eigh_run_on_one_blas_thread(monkeypatch, tmp_path):
    from shiftkrr import cli, spectrum
    from shiftkrr.hard_instance import HardInstanceState

    seen = []
    monkeypatch.setattr(spectrum, "critical_radius", lambda *a, **k: seen.append(blas_counts()))
    (tmp_path / "eigs.json").write_text(json.dumps({"eigs": {"kind": "poly", "alpha": 1.0}}))
    assert cli.main(["critical-radius", "--config", str(tmp_path / "eigs.json"),
                     "--out", str(tmp_path / "r.json")]) == 0
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(blas_counts()) or eigh(a))
    HardInstanceState.from_sample(200, 4.0, 1.0, 20, seed=1).whitened_tail
    assert seen == [[1] * len(blas_counts())] * 2


EVERY_SUBCOMMAND = """
import json, sys
from shiftkrr.cli import main
out = sys.argv[1]
runs = [
    ["figure1"],
    ["bound-curve", "--config", "eigs.json"],
    ["lambda-star", "--config", "eigs.json"],
    ["lower-bound", "--config", "eigs.json"],
    ["critical-radius", "--config", "eigs.json"],
    ["erm-failure", "--n", "2000", "--B", "16", "--reps", "4", "--seed", "1"],
    ["simulate-risk", "--config", "sweep.json", "--seed", "3"],
    ["fit", "--config", "fit.json", "--data", "data.csv"],
]
for args in runs:
    assert main([*args, "--out", f"{args[0]}-{out}.out"]) == 0, args
"""


def test_every_subcommand_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    rng = np.random.default_rng(7)
    n, D = 2000, 64
    xs = rng.choice([-1.0, 1.0], size=(n, D))
    lines = [",".join([f"x_{j}" for j in range(1, D + 1)] + ["y", "weight"])]
    lines += [",".join(f"{v:.17g}" for v in [*x, y, w])
              for x, y, w in zip(xs, xs[:, 0] + rng.normal(size=n), rng.uniform(0.2, 3.0, size=n))]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    eigs = {"kind": "poly", "alpha": 1.0}
    kernel = {"eigs": eigs, "eigenfunctions": "hypercube", "rank": D}
    (tmp_path / "eigs.json").write_text(json.dumps({"eigs": eigs}))
    (tmp_path / "fit.json").write_text(json.dumps(
        {"kernel": kernel, "lambda": 0.01, "mode": "dual", "weighted": True}))
    (tmp_path / "sweep.json").write_text(json.dumps(
        {"pair": {"family": "hypercube", "D": D}, "kernel": kernel, "estimator": "reweighted",
         "lambda_rule": {"rule": "poly", "alpha": 1.0}, "weight_rule": "tau_n",
         "fit_mode": "primal", "n_list": [1500], "shift_grid": [8.0], "reps": 2}))
    for value in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": value}
        subprocess.run([sys.executable, "-c", EVERY_SUBCOMMAND, value], cwd=tmp_path, env=env,
                       check=True, timeout=300)
    names = sorted({p.name.rsplit("-", 1)[0] for p in tmp_path.glob("*-1.out")})
    assert len(names) == 8
    for name in names:
        assert (tmp_path / f"{name}-1.out").read_bytes() == (tmp_path / f"{name}-2.out").read_bytes()


def test_one_blas_thread_keeps_its_count_under_concurrent_entries():
    before = blas_counts()
    inside, errors = [1] * len(before), []

    def enter_and_leave():
        for _ in range(300):
            with seeding.one_blas_thread():
                if blas_counts() != inside:
                    errors.append(blas_counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert blas_counts() == before
