"""ERM and the ridge fits it leaves on a core's Krylov basis, against a dense reference.

The reference decomposes G itself (``psd_eigh``), zeroes c where G's
eigenvalues are rounding, solves ERM's ball-constrained quadratic with
``ball_quadratic_min`` and floors its multiplier as ``fit_constrained``
does.  The random cores are well conditioned by construction, so any two
accurate solvers agree to near rounding on them: their designs have
singular values in [0.5, 2] sqrt(n), below, at or above the rank."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftkrr.errors import ProjectionError
from shiftkrr.estimators import RidgeCore, ball_quadratic_min, psd_eigh
from shiftkrr.spectrum import EigenKernel, EigenSequence


def dense_fit(core, radius=None, lam=None):
    """(z, lam): the ERM fit at ``radius``, or the ridge fit at ``lam``, through the eigh of G."""
    s, U = psd_eigh(core.G)
    ct = U.T @ core.c
    ct[s <= len(s) * np.finfo(float).eps * np.max(s)] = 0.0
    n = core.n
    if radius is not None:
        _, xi = ball_quadratic_min(s / n, ct / n, radius)
        lam = max(xi, 1e-10 * float(np.trace(core.G)) / n, 1e-300)
    return U @ (ct / (s + n * lam)), lam


def multiplier_sensitivity(core, z, lam):
    """|d log xi / d log ||z||| at the fit: how far rounding in ||z|| moves the multiplier."""
    s, U = psd_eigh(core.G)
    nu = core.n * lam
    w = (U.T @ z) ** 2
    return float(np.sum(w) / (nu * np.sum(w / (s + nu))))


@st.composite
def cores(draw):
    """A core of rank 1-64 over n rows below, at or above the rank, sigma^2 in {0, 1}, or c = 0."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rank = draw(st.integers(min_value=1, max_value=64))
    n = draw(st.one_of(st.integers(1, rank), st.just(rank), st.integers(rank, 4 * rank + 8)))
    vals = np.sort(rng.uniform(0.05, 2.0, size=rank))[::-1]
    kernel = EigenKernel(EigenSequence.finite_rank(vals), "hypercube", rank=rank)
    m = min(n, rank)
    left = np.linalg.qr(rng.normal(size=(n, m)))[0]
    right = np.linalg.qr(rng.normal(size=(rank, m)))[0]
    F = math.sqrt(n) * (left * rng.uniform(0.5, 2.0, size=m)) @ right.T
    response = draw(st.sampled_from(["noiseless", "noisy", "zero"]))
    ys = F @ rng.normal(size=rank) if response != "zero" else np.zeros(n)
    if response == "noisy":
        ys = ys + rng.normal(size=n)
    core = RidgeCore(kernel, n, F.T @ F, F.T @ ys)
    # from a ball far inside the fit to one far outside it
    radius = 10.0 ** draw(st.floats(min_value=-2.0, max_value=2.0))
    lam = 10.0 ** draw(st.floats(min_value=-6.0, max_value=0.0))
    return core, radius, lam


@settings(max_examples=150, deadline=None)
@given(case=cores())
def test_krylov_fits_are_the_dense_fits_property(case):
    core, radius, lam = case
    erm = core.fit_constrained(radius)
    krr = core.fit_ridge(lam)  # read off ERM's basis, extended if lam needs it
    z_erm, xi = dense_fit(core, radius=radius)
    z_krr, _ = dense_fit(core, lam=lam)
    for fit, z in ((erm, z_erm), (krr, z_krr)):
        want = core.sqrt_mu * z
        assert np.linalg.norm(fit.theta - want) <= 1e-12 * np.linalg.norm(want)
    # where the ball barely binds, ||z|| hardly moves with xi, and its 1e-14
    # rounding moves xi by that much times |d log xi / d log ||z|||
    slack = 1e-14 * multiplier_sensitivity(core, z_erm, xi) if np.any(core.c) else 0.0
    assert abs(erm.lam - xi) <= max(1e-12, slack) * xi


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_c_raises_projection_error(bad):
    kernel = EigenKernel(EigenSequence.finite_rank([1.0, 0.5, 0.25]), "hypercube", rank=3)
    FtF = np.diag([4.0, 3.0, 2.0])
    core = RidgeCore(kernel, 4, FtF, np.array([1.0, bad, 0.5]))
    with pytest.raises(ProjectionError):
        core.fit_constrained(1.0)
