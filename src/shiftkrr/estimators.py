"""Kernel regression estimators: ridge, reweighted ridge, and norm-constrained.

Every estimator is available in two equivalent modes:

* ``dual``   -- coefficients alpha over the training points, obtained from
  the (possibly weighted) regularized kernel system;
* ``primal`` -- coefficients theta over the kernel eigen-coordinates,
  obtained from the equivalent ridge problem in feature space.

Fitted models always carry their eigen-coordinates, so predictions,
Hilbert norms, and exact L2(Q) errors are cheap regardless of mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy import linalg as sla

from .seeding import rng_for
from .shifts import Dataset, ShiftPair
from .spectrum import EigenKernel

#: fits must satisfy their stationarity system to this relative residual
STATIONARITY_RTOL = 1e-8

#: relative tolerance for the norm constraint in the projected fit
PROJECTION_RTOL = 1e-6

_JITTERS = (0.0, 1e-12, 1e-8)

#: relative tolerance on ||u|| - radius in ``ball_quadratic_min``
_BALL_RTOL = 1e-13

#: Newton steps allowed to ``ball_quadratic_min``
_BALL_MAX_ITER = 100


class FactorizationError(RuntimeError):
    """The regularized kernel system could not be solved accurately."""


class ProjectionError(RuntimeError):
    """The ball-constrained quadratic solve failed to meet the norm constraint."""


@dataclass(frozen=True)
class FittedModel:
    """A fitted regressor over an eigen-expanded kernel.

    ``theta`` holds eigen-coordinates of the fit (exact in primal mode,
    derived as M Phi^T alpha in dual mode, where the two coincide).
    """

    mode: str
    kernel: EigenKernel
    theta: np.ndarray
    lam: float
    alpha: Optional[np.ndarray] = None
    support: Optional[np.ndarray] = None
    weights_used: Optional[np.ndarray] = None

    def to_json(self) -> dict:
        out = {
            "mode": self.mode,
            "lambda": self.lam,
            "theta": list(map(float, self.theta)),
            "kernel": self.kernel.to_json(),
        }
        if self.alpha is not None:
            out["alpha"] = list(map(float, self.alpha))
        return out


def _solve_spd(A: np.ndarray, rhs: np.ndarray, scale: float) -> np.ndarray:
    """SPD solve with jitter escalation and one iterative-refinement step."""
    last_err: Exception | None = None
    for jit in _JITTERS:
        try:
            mat = A if jit == 0.0 else A + jit * scale * np.eye(len(A))
            cf = sla.cho_factor(mat, lower=True, check_finite=False)
            x = sla.cho_solve(cf, rhs, check_finite=False)
            x = x + sla.cho_solve(cf, rhs - mat @ x, check_finite=False)
            return x
        except np.linalg.LinAlgError as err:  # pragma: no cover - rare path
            last_err = err
    raise FactorizationError(f"factorization failed: {last_err}")


def _check_residual(A: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> None:
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    res = float(np.linalg.norm(A @ x - rhs))
    if not res <= STATIONARITY_RTOL * scale:  # NaN-safe comparison
        raise FactorizationError(
            f"factorization failed: stationarity residual {res:.3e} exceeds "
            f"{STATIONARITY_RTOL:.0e} * ||rhs||"
        )


def _dual_to_theta(kernel: EigenKernel, support: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    F = kernel.feature_matrix(support)
    return kernel.mu * (F.T @ alpha)


def _fit_dual(data: Dataset, kernel: EigenKernel, lam: float,
              weights: Optional[np.ndarray]) -> FittedModel:
    n = len(data)
    K = kernel.gram(data.xs)
    scale = float(np.linalg.norm(K, np.inf)) + n * lam
    if weights is None:
        A = K + n * lam * np.eye(n)
        rhs = data.ys
        alpha = _solve_spd(A, rhs, scale)
    elif np.all(weights > 0):
        # symmetric form: with S = W^(1/2), solve (S K S + n lam I) beta = S y
        s = np.sqrt(weights)
        A_sym = (K * s).T * s + n * lam * np.eye(n)
        beta = _solve_spd(A_sym, s * data.ys, scale)
        alpha = s * beta
        A = weights[:, None] * K + n * lam * np.eye(n)
        rhs = weights * data.ys
    else:
        # zero weights are legal truncated ratios; fall back to the
        # unsymmetric system (W K + n lam I) alpha = W y
        A = weights[:, None] * K + n * lam * np.eye(n)
        rhs = weights * data.ys
        try:
            lu, piv = sla.lu_factor(A, check_finite=False)
            alpha = sla.lu_solve((lu, piv), rhs, check_finite=False)
            alpha = alpha + sla.lu_solve((lu, piv), rhs - A @ alpha, check_finite=False)
        except np.linalg.LinAlgError as err:  # pragma: no cover - rare path
            raise FactorizationError(f"factorization failed: {err}") from err
    _check_residual(A, alpha, rhs)
    return FittedModel(
        mode="dual",
        kernel=kernel,
        theta=_dual_to_theta(kernel, data.xs, alpha),
        lam=lam,
        alpha=alpha,
        support=data.xs,
        weights_used=weights,
    )


def _design(data: Dataset, kernel: EigenKernel) -> tuple[np.ndarray, np.ndarray]:
    """Feature design A = Phi M^(1/2) restricted to nonzero eigenvalues."""
    active = kernel.mu > 0
    F = kernel.feature_matrix(data.xs)
    return F[:, active] * np.sqrt(kernel.mu[active]), active


def _fit_primal(data: Dataset, kernel: EigenKernel, lam: float,
                weights: Optional[np.ndarray]) -> FittedModel:
    n = len(data)
    A, active = _design(data, kernel)
    if weights is None:
        G = A.T @ A
        rhs = A.T @ data.ys
    else:
        Aw = A * weights[:, None]
        G = Aw.T @ A
        rhs = Aw.T @ data.ys
    sys = G + n * lam * np.eye(G.shape[0])
    z = _solve_spd(sys, rhs, float(np.linalg.norm(G, np.inf)) + n * lam)
    _check_residual(sys, z, rhs)
    theta = np.zeros(kernel.rank)
    theta[active] = np.sqrt(kernel.mu[active]) * z
    return FittedModel(
        mode="primal",
        kernel=kernel,
        theta=theta,
        lam=lam,
        weights_used=weights,
    )


def fit_krr(data: Dataset, kernel: EigenKernel, lam: float, mode: str = "dual") -> FittedModel:
    """Kernel ridge regression: minimize (1/n) sum (f(x_i)-y_i)^2 + lam ||f||_H^2.

    Dual mode solves (K + n lam I) alpha = y; primal mode solves the
    equivalent feature-space ridge problem.  Both satisfy their
    stationarity system to relative residual 1e-8.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if len(data) < 1:
        raise ValueError("need at least one observation")
    if mode == "dual":
        return _fit_dual(data, kernel, lam, None)
    if mode == "primal":
        return _fit_primal(data, kernel, lam, None)
    raise ValueError(f"unknown mode {mode!r}")


def fit_reweighted_krr(data: Dataset, kernel: EigenKernel, lam: float,
                       mode: str = "dual") -> FittedModel:
    """Weighted KRR: minimize (1/n) sum w_i (f(x_i)-y_i)^2 + lam ||f||_H^2.

    The weights live on the dataset; truncated likelihood ratios are the
    intended use.  With unit weights this coincides with ``fit_krr``.
    The dual stationarity system is (W K + n lam I) alpha = W y, which is
    sufficient for optimality of the convex objective.
    """
    if data.weights is None:
        raise ValueError("reweighted fit requires dataset weights")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if mode == "dual":
        return _fit_dual(data, kernel, lam, data.weights)
    if mode == "primal":
        return _fit_primal(data, kernel, lam, data.weights)
    raise ValueError(f"unknown mode {mode!r}")


def ball_quadratic_min(a: np.ndarray, b: np.ndarray, radius: float) -> tuple[np.ndarray, float]:
    """Minimize u^T diag(a) u - 2 b^T u over the ball ||u|| <= radius, for a >= 0.

    Returns the minimizer u = b / (a + xi) and its multiplier xi >= 0 with
    xi (radius - ||u||) = 0.  When b vanishes on the null space of diag(a)
    and the pseudo-inverse point fits in the ball, that point is optimal
    with xi = 0 (the positive semidefinite form of the trust-region hard
    case).  Otherwise xi > 0 is the root of the secular equation
    1/||b/(a+xi)|| = 1/radius, found by Newton steps safeguarded by the
    bracket [max(0, ||b||/r - max a, max_j |b_j|/r - a_j), ||b||/r - min a]
    (More & Sorensen, SIAM J. Sci. Stat. Comput. 4(3), 1983).  A zero
    radius gives (0, inf).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if radius == 0:
        return np.zeros_like(b), math.inf
    null = a == 0
    if not np.any(b[null]):
        u = np.zeros_like(b)
        u[~null] = b[~null] / a[~null]
        # the same tolerance as the root below; hypot neither under- nor overflows
        if math.hypot(*u) <= radius * (1.0 + _BALL_RTOL):
            return u, 0.0
    # in units where ||b|| = radius = 1 no norm under- or overflows
    b_norm = math.hypot(*b)
    scale = b_norm / radius
    a_s = a / scale
    b_s = b / b_norm
    lo = max(0.0, 1.0 - float(np.max(a_s)), float(np.max(np.abs(b_s) - a_s)))
    hi = 1.0 - float(np.min(a_s))
    xi = hi
    for _ in range(_BALL_MAX_ITER):
        w = b_s / (a_s + xi)
        nrm = float(np.linalg.norm(w))
        if abs(nrm - 1.0) <= _BALL_RTOL:
            xi *= scale
            return b / (a + xi), xi
        if nrm > 1.0:
            lo = xi
        else:
            hi = xi
        # Newton step on 1/||w(xi)|| = 1; d||w||^2/dxi = -2 sum w^2/(a_s+xi)
        xi += (nrm - 1.0) * nrm**2 / float(np.sum(w**2 / (a_s + xi)))
        if not lo < xi < hi:
            # bisect in log scale: the root can lie hundreds of decades below hi
            xi = math.sqrt(lo) * math.sqrt(hi) if lo > 0 else 1e-3 * hi
    raise ProjectionError("constraint projection failed")


def fit_constrained_erm(data: Dataset, kernel: EigenKernel, radius: float) -> FittedModel:
    """Empirical risk minimizer over the Hilbert ball of the given radius.

    In the eigenbasis of the Gram matrix the problem is the ball-constrained
    quadratic of ``ball_quadratic_min``, whose multiplier xi is the ridge
    level of the solution.  A multiplier below a trace-relative floor is
    raised to that floor, which returns the minimum-norm empirical risk
    minimizer (the lam -> 0+ ridge limit) when it is feasible.  The fitted
    Hilbert norm never exceeds the radius by more than relative 1e-6.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    n = len(data)
    A, active = _design(data, kernel)
    # eigendecomposition of the ridge path: z(xi) = U diag(1/(s + n xi)) U^T c
    S = A.T @ A
    c = A.T @ data.ys
    s, U = np.linalg.eigh(S)
    s = np.clip(s, 0.0, None)
    ct = U.T @ c
    trace_K = float(np.sum(A * A))  # sum_i K(x_i, x_i)
    lam_min = max(1e-10 * trace_K / n, 1e-300)
    _, xi = ball_quadratic_min(s / n, ct / n, radius)
    xi_star = max(xi, lam_min)
    z = ct / (s + n * xi_star)
    if not np.linalg.norm(z) <= radius * (1.0 + PROJECTION_RTOL):
        raise ProjectionError("constraint projection failed")
    theta = np.zeros(kernel.rank)
    theta[active] = np.sqrt(kernel.mu[active]) * (U @ z)
    return FittedModel(mode="primal", kernel=kernel, theta=theta, lam=xi_star)


def predict(model: FittedModel, x: np.ndarray) -> np.ndarray:
    """Evaluate the fitted function at covariates x.

    Accepts an (m, d) batch or a single point; returns a scalar for a
    single point.  One-dimensional input is interpreted by the kernel's
    eigenfunction family (a single point for coordinate features, a batch
    of scalar covariates for families on the real line).
    """
    F = model.kernel.feature_matrix(np.asarray(x, dtype=float))
    out = F @ model.theta
    return float(out[0]) if out.size == 1 else out


def hilbert_norm_sq(model: FittedModel) -> float:
    """Squared Hilbert norm: alpha^T K alpha, equal to sum_j theta_j^2 / mu_j."""
    mu = model.kernel.mu
    dead = mu == 0
    if np.any(model.theta[dead] != 0.0):
        raise ValueError("not in RKHS")
    live = ~dead
    return float(np.sum(model.theta[live] ** 2 / mu[live]))


def empirical_risk(model: FittedModel, data: Dataset,
                   weights: Optional[np.ndarray] = None) -> float:
    """(1/n) sum w_i (f(x_i) - y_i)^2 with unit weights by default."""
    resid = predict(model, data.xs) - data.ys
    if weights is None:
        return float(np.mean(resid**2))
    return float(np.mean(weights * resid**2))


def l2q_error(
    model: FittedModel,
    fstar: Union[Callable[[np.ndarray], np.ndarray], np.ndarray],
    pair: Optional[ShiftPair] = None,
    n_mc: int = 10**5,
    seed: int = 0,
    exact_mode: bool = False,
) -> float:
    """Squared L2(Q) error of the fit against the regression function.

    In exact mode ``fstar`` is the eigen-coordinate vector of f*, and the
    error is the plain coordinate distance ||theta - theta*||_2^2
    (Parseval, using orthonormality of the eigenfunctions in L2(Q)).
    Otherwise ``fstar`` is a callable and the error is a Monte Carlo
    average over n_mc target draws.
    """
    if exact_mode:
        coords = np.asarray(fstar, dtype=float)
        m = max(len(coords), len(model.theta))
        a = np.zeros(m)
        b = np.zeros(m)
        a[: len(model.theta)] = model.theta
        b[: len(coords)] = coords
        return float(np.sum((a - b) ** 2))
    if pair is None:
        raise ValueError("Monte Carlo mode needs a shift pair to sample from")
    x = pair.sample_target(n_mc, rng_for(seed, 3))
    diff = predict(model, x) - np.asarray(fstar(x), dtype=float)
    return float(np.mean(diff**2))
