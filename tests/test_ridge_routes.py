"""The two routes of a ridge fit: one linear solve, or the core's spectrum.

A fresh ``RidgeCore`` solves (G + n lam I) z = c; a core that holds its
spectrum reads z off it.  Both must pass the stationarity check, agree
where the system is well conditioned, and the spectrum is computed only
for the fits that need it."""

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from shiftkrr.errors import FactorizationError
from shiftkrr.estimators import (RidgeCore, fit_constrained_erm, fit_krr,
                                 fit_reweighted_krr)
from shiftkrr.experiments import figure2
from shiftkrr.shifts import Dataset
from shiftkrr.spectrum import EigenKernel, EigenSequence


@st.composite
def ridge_systems(draw):
    """A hypercube design of rank 1-64, rank deficient when n < D, at lam in [1e-12, 10]."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    D = draw(st.integers(min_value=1, max_value=64))
    n = draw(st.integers(min_value=1, max_value=2 * D + 8))
    vals = np.sort(rng.uniform(0.05, 2.0, size=D))[::-1]
    kernel = EigenKernel(EigenSequence.finite_rank(vals), "hypercube", rank=D)
    xs = rng.integers(0, 2, size=(n, D)).astype(float) * 2 - 1
    ys = xs @ rng.normal(size=D) + rng.normal(size=n)
    weights = rng.uniform(0.0, 3.0, size=n) if draw(st.booleans()) else None
    lam = 10.0 ** draw(st.floats(min_value=-12.0, max_value=1.0))
    return kernel, Dataset(xs, ys, weights), lam


@settings(max_examples=80, deadline=None)
@given(system=ridge_systems())
def test_solve_and_spectrum_routes_pass_the_check_and_agree_property(system):
    kernel, data, lam = system
    solved = RidgeCore.from_dataset(data, kernel, data.weights)
    spectral = RidgeCore.from_dataset(data, kernel, data.weights)
    spectral.spectrum  # a core that holds its spectrum reads z off it
    # each fit raises FactorizationError unless it passes the 1e-8 stationarity check
    a = solved.fit_ridge(lam).theta
    b = spectral.fit_ridge(lam).theta
    A = solved.G + solved.n * lam * np.eye(len(solved.G))
    if np.linalg.cond(A) < 1e6:
        assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)


@settings(max_examples=80, deadline=None)
@given(system=ridge_systems())
def test_dual_theta_is_the_primal_theta_property(system):
    # where the rank is at most the rows with positive weight, both modes read z off one solve
    kernel, data, lam = system
    rows = len(data) if data.weights is None else np.count_nonzero(data.weights)
    assume(kernel.rank <= rows)
    fit = fit_krr if data.weights is None else fit_reweighted_krr
    try:
        dual = fit(data, kernel, lam, mode="dual")
    except FactorizationError:
        reject()  # the dual's own check refused beta; there is no theta to compare
    primal = RidgeCore.from_dataset(data, kernel, data.weights).fit_ridge(lam)
    assert np.array_equal(dual.theta, primal.theta)


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


def hypercube_data(n=50, D=6, seed=2):
    rng = np.random.default_rng(seed)
    kernel = EigenKernel(EigenSequence.poly_decay(1.0, 1.0), "hypercube", rank=D)
    xs = rng.integers(0, 2, size=(n, D)).astype(float) * 2 - 1
    return kernel, Dataset(xs, xs[:, 0] + rng.normal(size=n))


def test_one_lambda_fits_make_no_eigendecomposition(eigh_calls):
    figure2(n_list=(200,), B_grid=(4.0, 16.0), reps=2, seed=1, D=16)
    kernel, data = hypercube_data()
    fit_krr(data, kernel, 0.1, mode="primal")
    # dual fits, weighted or not, with the rank below n and above it
    for n in (50, 4):
        kernel, data = hypercube_data(n=n)
        weighted = data.with_weights(np.linspace(0.0, 2.0, n))
        fit_krr(data, kernel, 0.1, mode="dual")
        fit_reweighted_krr(weighted, kernel, 0.1, mode="dual")
    assert eigh_calls == []


def test_fits_that_need_the_spectrum_decompose_once_per_core(eigh_calls):
    kernel, data = hypercube_data()
    fit_constrained_erm(data, kernel, 1.0)
    assert len(eigh_calls) == 1
    core = RidgeCore.from_dataset(data, kernel)
    core.fit_constrained(1.0)
    core.fit_ridge(0.1)
    assert len(eigh_calls) == 2
