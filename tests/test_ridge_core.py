"""The shared ridge core against the dual path, the row-deletion identity,
and the one-eigendecomposition-per-replication structure of the hard pair."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftkrr.estimators import (
    RidgeCore,
    fit_constrained_erm,
    fit_krr,
    fit_reweighted_krr,
    hilbert_norm_sq,
    l2q_error,
)
from shiftkrr.hard_instance import krr_lambda_rule, simulate_failure
from shiftkrr.seeding import derive_seed, rng_for
from shiftkrr.shifts import Dataset, hypercube_hard_pair
from shiftkrr.spectrum import EigenKernel, EigenSequence


@st.composite
def ridge_instances(draw):
    """A full-column-rank hypercube design with responses F theta0 (+ noise)."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    D = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=4 * D, max_value=60))
    vals = np.sort(rng.uniform(0.05, 2.0, size=D))[::-1]
    kernel = EigenKernel(EigenSequence.finite_rank(vals), "hypercube", rank=D)
    xs = rng.integers(0, 2, size=(n, D)).astype(float) * 2 - 1
    # the primal representation is well posed when F has full column rank
    assume(np.linalg.cond(xs) < 50.0)
    noisy = draw(st.booleans())
    ys = xs @ rng.normal(size=D) + (rng.normal(size=n) if noisy else 0.0)
    weights = rng.uniform(0.1, 3.0, size=n) if draw(st.booleans()) else None
    lam = 10.0 ** draw(st.floats(min_value=-10.0, max_value=1.0))
    return kernel, Dataset(xs, ys, weights), lam, noisy


def normal_equations_theta(kernel, data, lam):
    """Independent oracle: (F^T W F + n lam M^-1) theta = F^T W y."""
    F = kernel.feature_matrix(data.xs)
    w = np.ones(len(data)) if data.weights is None else data.weights
    Fw = F * w[:, None]
    return np.linalg.solve(Fw.T @ F + len(data) * lam * np.diag(1.0 / kernel.mu),
                           Fw.T @ data.ys)


@settings(max_examples=60, deadline=None)
@given(instance=ridge_instances())
def test_core_dual_and_reweighted_agree_property(instance):
    kernel, data, lam, noisy = instance
    weighted = data if data.weights is not None else data.with_weights(np.ones(len(data)))
    core = RidgeCore.from_dataset(data, kernel, data.weights).fit_ridge(lam)
    oracle = normal_equations_theta(kernel, data, lam)
    tol = 1e-9 * np.linalg.norm(oracle)
    assert np.linalg.norm(core.theta - oracle) <= tol
    assert np.linalg.norm(fit_reweighted_krr(weighted, kernel, lam, "primal").theta
                          - core.theta) <= tol
    if data.weights is None:
        assert np.linalg.norm(fit_krr(data, kernel, lam, "primal").theta - core.theta) <= tol
    # noise off the column space of F enters the dual coefficients as
    # |y_perp| / (n lam), which rounding leaks into theta below lam ~ 1e-5
    if noisy and lam < 1e-5:
        return
    dual = fit_reweighted_krr(weighted, kernel, lam, "dual")
    assert np.linalg.norm(dual.theta - core.theta) <= tol
    if data.weights is None:
        assert np.linalg.norm(fit_krr(data, kernel, lam, "dual").theta - core.theta) <= tol


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       log_lam=st.floats(min_value=-4.0, max_value=1.0),
       mode=st.sampled_from(["dual", "primal"]))
def test_zero_weight_equals_deleting_the_row_property(seed, log_lam, mode):
    rng = np.random.default_rng(seed)
    D, n = int(rng.integers(1, 7)), int(rng.integers(3, 40))
    kernel = EigenKernel(EigenSequence.finite_rank(np.sort(rng.uniform(0.05, 2.0, D))[::-1]),
                         "hypercube", rank=D)
    xs = rng.integers(0, 2, size=(n, D)).astype(float) * 2 - 1
    ys = rng.normal(size=n)
    w = rng.uniform(0.1, 3.0, size=n)
    zero = rng.random(n) < 0.4
    zero[0], zero[-1] = True, False
    w[zero] = 0.0
    lam = 10.0 ** log_lam
    full = fit_reweighted_krr(Dataset(xs, ys, w), kernel, lam, mode)
    keep = ~zero
    # deleting rows divides the loss by fewer points; rescale lam to match
    kept = fit_reweighted_krr(Dataset(xs[keep], ys[keep], w[keep]), kernel,
                              lam * n / int(keep.sum()), mode)
    assert np.linalg.norm(full.theta - kept.theta) <= 1e-10 * max(np.linalg.norm(kept.theta), 1e-3)
    if mode == "dual":
        assert len(full.alpha) == n
        assert np.all(full.alpha[zero] == 0.0)
        assert np.allclose(full.alpha[keep], kept.alpha, rtol=1e-10, atol=1e-12)


def test_simulate_failure_matches_separate_fits():
    n, B, D, reps, seed = 60, 4.0, 12, 3, 5
    records = simulate_failure(n, B, sigma_sq=0.5, D=D, reps=reps, seed=seed)
    pair = hypercube_hard_pair(D, B)
    kernel = EigenKernel(EigenSequence.poly_decay(1.0, 1.0), features="hypercube", rank=D)
    theta_star = np.zeros(D)
    theta_star[0] = 1.0
    for rep, rec in enumerate(records):
        # the same stream and draw order as simulate_failure: covariates, then noise
        rng = rng_for(derive_seed(seed, rep), 1)
        xs = pair.sample_source(n, rng)
        data = Dataset(xs, xs[:, 0] + rng.normal(0.0, math.sqrt(0.5), size=n))
        erm = fit_constrained_erm(data, kernel, radius=1.0)
        krr = fit_krr(data, kernel, krr_lambda_rule(n, B), mode="dual")
        expected = {
            "erm_risk": l2q_error(erm, theta_star, exact_mode=True),
            "krr_risk": l2q_error(krr, theta_star, exact_mode=True),
            "krr_hnorm_sq": hilbert_norm_sq(krr),
            "theta1_erm": float(erm.theta[0]),
        }
        for field, value in expected.items():
            assert getattr(rec, field) == pytest.approx(value, rel=1e-9, abs=1e-12), field


def test_simulate_failure_eigendecomposes_once_per_replication(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    simulate_failure(200, 4.0, D=16, reps=3, seed=1)
    assert len(calls) == 3


@pytest.mark.parametrize("seed, lam", [(3392, 1e-5), (35, 1e-6), (356, 1e-6)])
def test_noisy_dual_reads_theta_off_the_primal_system(seed, lam):
    # more weighted rows than the rank and noise off the column space of F:
    # theta formed from the dual coefficients would sit up to 4.6e-8 from the primal
    rng = np.random.default_rng(seed)
    D = int(rng.integers(1, 9))
    n = int(rng.integers(4 * D, 61))
    kernel = EigenKernel(EigenSequence.finite_rank(np.sort(rng.uniform(0.05, 2.0, size=D))[::-1]),
                         "hypercube", rank=D)
    xs = rng.integers(0, 2, size=(n, D)).astype(float) * 2 - 1
    ys = xs @ rng.normal(size=D) + rng.normal(size=n)
    w = rng.uniform(0.1, 3.0, size=n)
    data = Dataset(xs, ys, w)
    primal = RidgeCore.from_dataset(data, kernel, w).fit_ridge(lam).theta
    dual = fit_reweighted_krr(data, kernel, lam, mode="dual").theta
    assert np.linalg.norm(dual - primal) <= 1e-9 * np.linalg.norm(primal)
