"""Kernel regression estimators: ridge, reweighted ridge, and norm-constrained.

Every fit comes from one core.  ``RidgeCore`` holds the weighted ridge
statistics of n observations in the kernel's eigen-coordinates,
G = M^(1/2) F^T W F M^(1/2) and c = M^(1/2) F^T W y, built from their
moments alone.  A ridge fit at one lam is one linear solve of
(G + n lam I) z = c.  Only the norm-constrained ERM (through the
ball-constrained quadratic ``ball_quadratic_min``) needs the spectrum of
G, which the core then computes and keeps, so every later fit on the
same core reads its solves off that eigendecomposition.

Ridge and reweighted ridge also have a ``dual`` mode, the one fit that
reads the rows and not only their moments, with coefficients alpha over
the training points from the regularized kernel system.  It solves that
system by the Woodbury identity on the scaled features, each inner
inverse being the core's ridge solve of G; neither the kernel matrix nor
any n x n array is formed.  When the rank is at most the number of
weighted rows, the dual's theta is the primal fit's.  ERM is the ridge
fit at its multiplier, so every fit passes one stationarity check.

Fitted models always carry their eigen-coordinates, so predictions,
Hilbert norms, and exact L2(Q) errors are cheap regardless of mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import FactorizationError, ProjectionError
from .seeding import one_blas_thread, rng_for
from .shifts import Dataset, ShiftPair
from .spectrum import EigenKernel

#: fits must satisfy their stationarity system to this relative residual
STATIONARITY_RTOL = 1e-8

#: relative tolerance for the norm constraint in the projected fit
PROJECTION_RTOL = 1e-6

#: relative tolerance on ||u|| - radius in ``ball_quadratic_min``
_BALL_RTOL = 1e-13

#: Newton steps allowed to ``ball_quadratic_min``
_BALL_MAX_ITER = 100


@dataclass(frozen=True)
class FittedModel:
    """A fitted regressor over an eigen-expanded kernel.

    ``theta`` holds eigen-coordinates of the fit; in dual mode it equals
    M Phi^T alpha in exact arithmetic (see ``_fit_dual``).
    """

    mode: str
    kernel: EigenKernel
    theta: np.ndarray
    lam: float
    alpha: Optional[np.ndarray] = None

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


def _check_residual(res: np.ndarray, rhs: np.ndarray) -> None:
    """Raise unless the residual ``res`` of a solve is within tolerance of ``rhs``."""
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    res_norm = float(np.linalg.norm(res))
    if not res_norm <= STATIONARITY_RTOL * scale:  # NaN-safe comparison
        raise FactorizationError(
            f"factorization failed: stationarity residual {res_norm:.3e} exceeds "
            f"{STATIONARITY_RTOL:.0e} * ||rhs||"
        )


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


def psd_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, U) with A = U diag(s) U^T for symmetric A, s clipped at 0.

    The decomposition runs on one BLAS thread, so its bytes do not depend
    on the caller's thread count; a LAPACK failure is a FactorizationError.
    """
    try:
        with one_blas_thread():
            s, U = np.linalg.eigh(A)
    except np.linalg.LinAlgError as err:
        raise FactorizationError(f"factorization failed: {err}") from err
    return np.clip(s, 0.0, None), U


class RidgeCore:
    """Ridge statistics of n observations, shared by every fit on them.

    Over the kernel's nonzero eigenvalues M, with raw features F and
    weights W (unit by default), the observations reduce to
    G = M^(1/2) F^T W F M^(1/2) and c = M^(1/2) F^T W y, and every ridge
    solution solves (G + n xi I) z(xi) = c, with theta = M^(1/2) z.  The
    core takes the moments F^T W F and F^T W y over the kernel's first
    m >= ``kernel.live`` features, however they were formed: in blocks, or
    by ``from_dataset`` from a dataset's rows, and keeps their block of
    the nonzero eigenvalues, ``mu[:live]``; theta is 0 beyond it.

    Every fit solves with G + n xi I through ``_solve``, which reads
    U diag(1/(s + n xi)) U^T off a spectrum the core already holds and
    otherwise makes one linear solve.  G is decomposed only for the ERM
    multiplier: ``spectrum`` computes G = U diag(s) U^T on first use by
    ``fit_constrained`` and keeps it.  A ridge fit on a fresh core
    therefore makes no eigendecomposition.
    """

    def __init__(self, kernel: EigenKernel, n: int, FtWF: np.ndarray, FtWy: np.ndarray):
        if not n >= 1:
            raise ValueError("need at least one observation")
        self.kernel = kernel
        self.n = n
        self.sqrt_mu = np.sqrt(kernel.mu[:kernel.live])
        # scaling by an outer product keeps G as symmetric as F^T W F
        self.G = FtWF[:kernel.live, :kernel.live] * np.outer(self.sqrt_mu, self.sqrt_mu)
        self.c = self.sqrt_mu * FtWy[:kernel.live]
        self._spectrum = None

    @classmethod
    def from_dataset(cls, data: Dataset, kernel: EigenKernel,
                     weights: Optional[np.ndarray] = None) -> "RidgeCore":
        """The core of a dataset, unweighted unless ``weights`` are given."""
        F, ys, _ = _weighted_rows(data, kernel, weights)
        return cls(kernel, len(data), F.T @ F, F.T @ ys)

    @property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(s, U) with G = U diag(s) U^T and s clipped at 0, computed once by ``psd_eigh``."""
        if self._spectrum is None:
            self._spectrum = psd_eigh(self.G)
        return self._spectrum

    def _solve(self, nlam: float, rhs: np.ndarray) -> np.ndarray:
        """(G + nlam I)^(-1) rhs: off the spectrum when the core holds one, else one LU solve.

        The LU solve runs on one BLAS thread, like the eigendecomposition.
        """
        if self._spectrum is not None:
            s, U = self._spectrum
            return U @ ((U.T @ rhs) / (s + nlam))
        A = self.G.copy()
        A.flat[::len(A) + 1] += nlam
        try:
            with one_blas_thread():
                return np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as err:
            raise FactorizationError(f"factorization failed: {err}") from err

    def _model(self, z: np.ndarray, lam: float, alpha: Optional[np.ndarray] = None) -> FittedModel:
        theta = np.zeros(self.kernel.rank)
        theta[:self.kernel.live] = self.sqrt_mu * z
        return FittedModel(mode="primal" if alpha is None else "dual", kernel=self.kernel,
                           theta=theta, lam=lam, alpha=alpha)

    def fit_ridge(self, lam: float) -> FittedModel:
        """(Weighted) kernel ridge regression at level lam, checked on (G + n lam I) z = c."""
        if not 0 < lam < math.inf:  # also rejects NaN
            raise ValueError("lam must be finite and positive")
        nlam = self.n * lam
        # a lam small enough to overflow the solve fails the NaN-safe check instead
        with np.errstate(over="ignore", invalid="ignore"):
            z = self._solve(nlam, self.c)
            _check_residual(self.G @ z + nlam * z - self.c, self.c)
        return self._model(z, lam)

    def fit_constrained(self, radius: float) -> FittedModel:
        """ERM over the Hilbert ball (see ``fit_constrained_erm``): the ridge fit at its multiplier."""
        if not radius > 0:  # also rejects NaN
            raise ValueError("radius must be positive")
        n = self.n
        s, U = self.spectrum
        ct = U.T @ self.c
        # c lies in the range of G, so its part on numerically zero eigenvalues is rounding
        ct[s <= len(s) * np.finfo(float).eps * np.max(s)] = 0.0
        trace_K = float(np.trace(self.G))  # sum_i w_i K(x_i, x_i)
        _, xi = ball_quadratic_min(s / n, ct / n, radius)
        xi_star = max(xi, 1e-10 * trace_K / n, 1e-300)
        nlam = n * xi_star
        z = ct / (s + nlam)
        if not np.linalg.norm(z) <= radius * (1.0 + PROJECTION_RTOL):
            raise ProjectionError("constraint projection failed")
        z = U @ z  # on a full-rank core, fit_ridge(xi_star)'s z bit for bit
        with np.errstate(over="ignore", invalid="ignore"):
            _check_residual(self.G @ z + nlam * z - self.c, self.c)
        return self._model(z, xi_star)


def _weighted_rows(data: Dataset, kernel: EigenKernel, weights: Optional[np.ndarray]
                   ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """W^(1/2) F over the nonzero eigenvalues, W^(1/2) y, and W^(1/2) (None when W = I)."""
    F = kernel.feature_matrix(data.xs)
    if kernel.live < kernel.rank:  # BLAS sums by layout, so the copy keeps Fortran order
        F = np.asfortranarray(F[:, :kernel.live])
    ys = data.ys
    root_w = None if weights is None else np.sqrt(weights)
    if root_w is not None:
        F = F * root_w[:, None]
        ys = root_w * ys
    return F, ys, root_w


def _fit_dual(data: Dataset, kernel: EigenKernel, lam: float,
              weights: Optional[np.ndarray]) -> FittedModel:
    """The dual fit at level lam, from (W K + n lam I) alpha = W y without K.

    With S = W^(1/2) and Fs = S F M^(1/2), so that G = Fs^T Fs, the
    system is (Fs Fs^T + n lam I) beta = S y with alpha = S beta.  The
    Woodbury identity inverts it through the ridge solve of G,
    (Fs Fs^T + n lam I)^(-1) v = (v - Fs (G + n lam I)^(-1) Fs^T v) / (n lam),
    and two refinement steps follow; then the residual of the
    unsymmetric system, S((Fs Fs^T + n lam I) beta - S y), is checked.
    A zero weight zeroes its row of Fs and of S y, so its alpha is 0.
    theta = M^(1/2) Fs^T beta = M F^T alpha equals the primal M^(1/2) z
    in exact arithmetic and is read off the smaller of the two Gram
    systems, since rounding leaks into each solve through its Gram's
    null space: into beta as |y_perp| / (n lam), y_perp the part of S y
    outside the range of Fs, when the weighted rows outnumber the rank,
    and into z when the rank is the larger.  When the rank is at most
    the weighted rows, theta is the primal fit's, bit for bit.
    """
    F, rhs, root_w = _weighted_rows(data, kernel, weights)
    core = RidgeCore(kernel, len(data), F.T @ F, F.T @ rhs)
    nlam = core.n * lam
    Fs = F * core.sqrt_mu
    rows = len(rhs) if root_w is None else np.count_nonzero(root_w)
    root_w = 1.0 if root_w is None else root_w

    def solve(v):
        return (v - Fs @ core._solve(nlam, Fs.T @ v)) / nlam

    # a lam small enough to overflow the solve fails the NaN-safe check instead
    with np.errstate(over="ignore", invalid="ignore"):
        beta = solve(rhs)
        for _ in range(2):
            beta += solve(rhs - Fs @ (Fs.T @ beta) - nlam * beta)
        _check_residual(root_w * (Fs @ (Fs.T @ beta) + nlam * beta - rhs), root_w * rhs)
        z = core._solve(nlam, core.c) if len(core.c) <= rows else Fs.T @ beta
    return core._model(z, lam, alpha=root_w * beta)


def _fit_ridge(data: Dataset, kernel: EigenKernel, lam: float, mode: str,
               weights: Optional[np.ndarray]) -> FittedModel:
    """The (weighted) ridge fit of ``fit_krr`` and ``fit_reweighted_krr``."""
    if not 0 < lam < math.inf:  # also rejects NaN
        raise ValueError("lam must be finite and positive")
    if mode not in ("dual", "primal"):
        raise ValueError(f"unknown mode {mode!r}")
    return (_fit_dual(data, kernel, lam, weights) if mode == "dual"
            else RidgeCore.from_dataset(data, kernel, weights).fit_ridge(lam))


def fit_krr(data: Dataset, kernel: EigenKernel, lam: float, mode: str = "dual") -> FittedModel:
    """Kernel ridge regression: minimize (1/n) sum (f(x_i)-y_i)^2 + lam ||f||_H^2.

    Dual mode solves (K + n lam I) alpha = y; primal mode reads the
    equivalent feature-space ridge solution off a ``RidgeCore``.  Both
    satisfy their stationarity system to relative residual 1e-8.  Weights
    on the dataset are ignored.
    """
    return _fit_ridge(data, kernel, lam, mode, None)


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
    return _fit_ridge(data, kernel, lam, mode, data.weights)


def fit_constrained_erm(data: Dataset, kernel: EigenKernel, radius: float) -> FittedModel:
    """Empirical risk minimizer over the Hilbert ball of the given radius.

    In the eigenbasis of the Gram matrix the problem is the ball-constrained
    quadratic of ``ball_quadratic_min``, whose multiplier xi is the ridge
    level of the solution.  A multiplier below the floor
    xi_floor = 1e-10 trace(G) / n is raised to it, so the fit is the ridge
    fit at xi_floor, near the lam -> 0+ ridge limit.  When G is singular
    (fewer rows than the rank) the fit has no part in its null space, where
    the rounding of the responses' moments would be amplified by about
    1/(n xi_floor).  The fitted Hilbert norm never exceeds the radius by
    more than relative 1e-6.
    """
    return RidgeCore.from_dataset(data, kernel).fit_constrained(radius)


def predict(model: FittedModel, x: np.ndarray) -> np.ndarray:
    """Evaluate the fitted function at covariates x.

    An (m, d) batch gives an array of length m, also for m = 1.
    One-dimensional input is interpreted by the kernel's eigenfunction
    family (a single point for coordinate features, a batch of scalar
    covariates for families on the real line), and a single value is
    returned as a scalar.
    """
    x = np.asarray(x, dtype=float)
    out = model.kernel.feature_matrix(x) @ model.theta
    return float(out[0]) if x.ndim < 2 and out.size == 1 else out


def hilbert_norm_sq(model: FittedModel) -> float:
    """Squared Hilbert norm: alpha^T K alpha, equal to sum_j theta_j^2 / mu_j."""
    live = model.kernel.live
    if np.any(model.theta[live:] != 0.0):
        raise ValueError("not in RKHS")
    return float(np.sum(model.theta[:live] ** 2 / model.kernel.mu[:live]))


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
