"""The dual ridge fit from the feature matrix, and ERM as the ridge fit at its multiplier.

The dual solves through the core's ridge solve of the scaled features'
Gram matrix and forms neither the kernel matrix nor any n x n array; it must
agree with the feature-space normal equations also where the kernel rank
exceeds n.  Constrained ERM is the ridge fit of the same core at its multiplier.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shiftkrr
from shiftkrr.estimators import RidgeCore, fit_krr, fit_reweighted_krr
from shiftkrr.seeding import rng_for
from shiftkrr.shifts import Dataset, sample_hard_pair_moments
from shiftkrr.spectrum import EigenKernel, EigenSequence


def normal_equations_theta(data, kernel, lam, weights):
    """theta = M^(1/2) (Phi^T W Phi + n lam I)^(-1) Phi^T W y with Phi = F M^(1/2)."""
    n = len(data)
    w = np.ones(n) if weights is None else weights
    root_mu = np.sqrt(kernel.mu)
    phi = kernel.feature_matrix(data.xs) * root_mu
    lhs = phi.T @ (phi * w[:, None]) + n * lam * np.eye(kernel.rank)
    return root_mu * np.linalg.solve(lhs, phi.T @ (w * data.ys))


@settings(max_examples=60, deadline=None)
@example(seed=1, n=40, log_lam=-4.0, weighting="positive")
@example(seed=594, n=40, log_lam=-4.8077806745757, weighting="some zero")
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=2, max_value=40),
       log_lam=st.floats(min_value=-5.0, max_value=0.0),
       weighting=st.sampled_from(["none", "positive", "some zero"]))
def test_dual_agrees_with_normal_equations_when_rank_exceeds_n(seed, n, log_lam, weighting):
    rng = np.random.default_rng(seed)
    D = 64
    kernel = EigenKernel(EigenSequence.poly_decay(1.0, 1.0), "hypercube", rank=D)
    xs = rng.integers(0, 2, size=(n, D)).astype(float) * 2 - 1
    ys = rng.normal(size=n)
    lam = 10.0 ** log_lam
    if weighting == "none":
        weights, model = None, fit_krr(Dataset(xs, ys), kernel, lam, mode="dual")
    else:
        weights = rng.uniform(0.1, 3.0, size=n)
        if weighting == "some zero":
            weights[rng.random(n) < 0.3] = 0.0
        model = fit_reweighted_krr(Dataset(xs, ys, weights), kernel, lam, mode="dual")
    expected = normal_equations_theta(Dataset(xs, ys), kernel, lam, weights)
    assert np.linalg.norm(model.theta - expected) <= 1e-9 * np.linalg.norm(expected)
    # alpha carries the same function: theta = M F^T alpha, zero where the weight is.
    # Both sides are sums of n products, so they agree to the rounding bound of a
    # dot product of that length; |alpha| can exceed |theta| by orders of magnitude.
    gap = np.abs(kernel.mu * (xs.T @ model.alpha) - model.theta)
    scale = kernel.mu * (np.abs(xs).T @ np.abs(model.alpha))
    assert np.all(gap <= 2 * n * np.finfo(float).eps * scale)
    if weights is not None:
        assert np.all(model.alpha[weights == 0] == 0.0)


@pytest.mark.parametrize("weighted", [False, True])
def test_dual_fit_holds_one_n_by_n_array(weighted):
    n, D = 1500, 16
    rng = np.random.default_rng(3)
    kernel = EigenKernel(EigenSequence.poly_decay(1.0, 1.0), "hypercube", rank=D)
    xs = rng.integers(0, 2, size=(n, D)).astype(float) * 2 - 1
    data = Dataset(xs, rng.normal(size=n), rng.uniform(0.5, 2.0, size=n) if weighted else None)
    fit = fit_reweighted_krr if weighted else fit_krr
    tracemalloc.start()
    try:
        fit(data, kernel, 0.01, mode="dual")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * n * 8


def test_dual_reads_features_once_and_never_the_kernel_matrix(monkeypatch):
    calls = []
    features = EigenKernel.feature_matrix

    def counting_features(self, X):
        calls.append("feature_matrix")
        return features(self, X)

    def no_gram(self, X, Z=None):
        raise AssertionError("the dual fit formed the kernel matrix")

    monkeypatch.setattr(EigenKernel, "feature_matrix", counting_features)
    monkeypatch.setattr(EigenKernel, "gram", no_gram)
    rng = np.random.default_rng(4)
    kernel = EigenKernel(EigenSequence.poly_decay(1.0, 1.0), "hypercube", rank=8)
    xs = rng.integers(0, 2, size=(50, 8)).astype(float) * 2 - 1
    fit_reweighted_krr(Dataset(xs, rng.normal(size=50), rng.uniform(0.0, 2.0, size=50)),
                       kernel, 0.05, mode="dual")
    assert calls == ["feature_matrix"]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("radius", [0.3, 1.0, 5.0])
def test_constrained_fit_is_the_ridge_fit_at_its_multiplier(seed, radius):
    n, D, B = 400, 32, 8.0
    kernel = EigenKernel(EigenSequence.poly_decay(1.0, 1.0), "hypercube", rank=D)
    xtx, xte = sample_hard_pair_moments(n, D, B, 0.5, rng_for(seed, 1))
    core = RidgeCore.from_moments(kernel, n, xtx, xtx[:, 0] + xte)
    erm = core.fit_constrained(radius)
    ridge = core.fit_ridge(erm.lam)
    assert erm.mode == ridge.mode == "primal"
    assert np.array_equal(erm.theta, ridge.theta)


@pytest.mark.parametrize("weighted", [False, True])
def test_dual_fit_holds_no_n_by_n_array(weighted):
    n, D = 3000, 16
    rng = np.random.default_rng(3)
    kernel = EigenKernel(EigenSequence.poly_decay(1.0, 1.0), "hypercube", rank=D)
    xs = rng.integers(0, 2, size=(n, D)).astype(float) * 2 - 1
    data = Dataset(xs, rng.normal(size=n), rng.uniform(0.5, 2.0, size=n) if weighted else None)
    fit = fit_reweighted_krr if weighted else fit_krr
    tracemalloc.start()
    try:
        fit(data, kernel, 0.01, mode="dual")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * D * 8


def test_dual_refines_to_the_normal_equations_at_tiny_lambda():
    # noiseless, full rank, lam = 1e-10: one refinement step of the Woodbury
    # solve leaves theta about 1e-9 from the normal equations, two about 6e-14
    rng = np.random.default_rng(302)
    D, n, lam = 5, 30, 1e-10
    kernel = EigenKernel(EigenSequence.finite_rank(np.sort(rng.uniform(0.05, 2.0, D))[::-1]),
                         "hypercube", rank=D)
    xs = rng.integers(0, 2, size=(n, D)).astype(float) * 2 - 1
    data = Dataset(xs, xs @ rng.normal(size=D))
    expected = normal_equations_theta(data, kernel, lam, None)
    theta = fit_krr(data, kernel, lam, mode="dual").theta
    assert np.linalg.norm(theta - expected) <= 1e-12 * np.linalg.norm(expected)


NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None
import numpy as np
from shiftkrr.cli import main
from shiftkrr.estimators import fit_krr, fit_reweighted_krr
from shiftkrr.experiments import ExperimentConfig, run_risk_sweep
from shiftkrr.shifts import Dataset
from shiftkrr.spectrum import EigenKernel, EigenSequence

rng = np.random.default_rng(7)
kernel = {"eigs": {"kind": "poly", "alpha": 1.0}, "eigenfunctions": "hypercube", "rank": 8}
xs = rng.integers(0, 2, size=(60, 8)).astype(float) * 2 - 1
data = Dataset(xs, xs[:, 0] + rng.normal(size=60), rng.uniform(0.0, 2.0, size=60))
fit_krr(data, EigenKernel.from_json(kernel), 0.01, mode="dual")
fit_reweighted_krr(data, EigenKernel.from_json(kernel), 0.01, mode="dual")
rows = run_risk_sweep(ExperimentConfig(
    pair={"family": "hypercube", "D": 8}, kernel=kernel, estimator="reweighted",
    lambda_rule={"rule": "poly", "alpha": 1.0}, weight_rule="tau_n", fit_mode="dual",
    n_list=[50, 100], shift_grid=[2.0], reps=2, seed=1))
assert all(r.status == "ok" for r in rows)
data.to_csv("d.csv")
json.dump({"kernel": kernel, "lambda": 0.01, "mode": "dual", "weighted": True},
          open("fit.json", "w"))
sys.exit(main(["fit", "--config", "fit.json", "--data", "d.csv", "--out", "m.json"]))
"""


def test_dual_fits_run_without_scipy(tmp_path):
    src = str(Path(shiftkrr.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", NO_SCIPY], cwd=tmp_path, env=env, check=True,
                   timeout=120)
    assert json.loads((tmp_path / "m.json").read_text())["mode"] == "dual"
