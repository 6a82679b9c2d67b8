"""The replicate executor: results in canonical order, independent of the
worker count and of the BLAS thread setting, with BLAS counts restored.

The CLI byte checks below read outputs of the reference runs in
``tests/golden/record.py``, made once at ``OPENBLAS_NUM_THREADS`` unset, 1,
2 and 4 by the ``reference_outputs`` fixture; ``test_golden.py`` checks
every output of that table the same way."""

import json
import os
import sys
import threading

import numpy as np
import pytest

from shiftkrr import seeding
from shiftkrr.estimators import FactorizationError
from shiftkrr.experiments import figure2
from shiftkrr.hard_instance import simulate_failure
from shiftkrr.seeding import map_units

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


def same_bytes_at_every_thread_setting(reference_outputs, names):
    runs = list(reference_outputs.values())
    for name in names:
        assert all(run[name] == runs[0][name] for run in runs[1:]), name


def test_erm_failure_bytes_do_not_depend_on_openblas_threads(reference_outputs):
    same_bytes_at_every_thread_setting(reference_outputs, ["erm-failure.csv"])


def test_dual_fit_and_sweep_bytes_do_not_depend_on_openblas_threads(reference_outputs):
    # a weighted dual fit on 2000 rows runs products large enough for threaded BLAS
    same_bytes_at_every_thread_setting(reference_outputs, ["fit.json", "sweep-rw-dual-1500.csv"])


def test_every_subcommand_writes_the_same_bytes_at_one_and_two_blas_threads(reference_outputs):
    same_bytes_at_every_thread_setting(reference_outputs, [
        "figure1.csv", "bound-curve.csv", "lambda-star.json", "lower-bound.json",
        "critical-radius.json", "erm-failure.csv", "sweep-rw-primal-1500.csv", "fit-rows7.json"])


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
