"""Closed-form risk bounds, tuning rules, and minimax functionals.

Deterministic calculators for every bound the estimators are measured
against: the high-probability KRR bound and its regular-kernel form, the
lambda tuning rules for finite-rank and polynomially decaying spectra, the
minimax lower-bound functional, the truncated-reweighted rates, the
unweighted bound under unbounded ratios, and the in-expectation KRR bound.
Symbolic universal constants are explicit arguments with documented
defaults.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError
from .spectrum import EigenSequence, default_grid, effective_dim


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound at one parameter configuration.

    ``total = bias_sq + variance + extra`` where ``extra`` collects
    additive terms outside the bias/variance split (for example the
    sigma^2/n term of the expectation bound).  ``krr_bound`` at an array
    of lambdas fills each field but ``extra`` with an array.
    """

    lambda_or_delta: float
    bias_sq: float
    variance: float
    extra: float = 0.0

    @property
    def total(self) -> float:
        return self.bias_sq + self.variance + self.extra

    def rows(self) -> list[list[float]]:
        """[lambda, bias_sq, variance, total] at each lambda of an array report."""
        return np.column_stack((self.lambda_or_delta, self.bias_sq, self.variance,
                                self.total)).tolist()


def krr_bound(
    eigs: EigenSequence,
    lam: float | np.ndarray,
    B: float,
    n: float,
    sigma_sq: float = 1.0,
    hnorm_sq: float = 1.0,
) -> BoundReport:
    """High-probability KRR risk bound under a B-bounded shift.

    bias^2 = 4 lam B ||f*||_H^2 and
    variance = 80 sigma^2 B (log n / n) sum_j mu_j / (mu_j + lam B).
    ``lam`` is a number or a nonempty array of lambdas, summed in one call
    of ``resolvent_sum``; for an array each field of the report is an array
    whose entries are the one-lambda reports' floats, so a curve over a
    grid is one call and its argmin is ``np.argmin(report.total)``.  A bias,
    variance or total that is not finite raises ``NumericalError``.
    """
    lams = np.asarray(lam, dtype=float)
    if lams.size == 0:
        raise ValueError("lambda grid must be nonempty")
    if not (np.all(lams > 0) and 1 <= B < math.inf and n >= 1 and sigma_sq > 0
            and hnorm_sq >= 0):  # also rejects NaN
        raise ValueError("invalid krr_bound arguments")
    with np.errstate(over="ignore", invalid="ignore"):
        bias_sq = 4.0 * lams * B * hnorm_sq
        variance = 80.0 * sigma_sq * B * math.log(n) / n * eigs.resolvent_sum(lams * B)
        if not np.all(np.isfinite(bias_sq + variance)):  # NaN or inf in either term too
            raise NumericalError("the KRR bound is not finite at these arguments")
    if lams.ndim == 0:
        return BoundReport(float(lams), float(bias_sq), float(variance))
    return BoundReport(lams, bias_sq, variance)


def lambda_star(
    eigs: EigenSequence,
    B: float,
    n: float,
    sigma_sq: float = 1.0,
    hnorm_sq: float = 1.0,
    lambda_grid: Optional[np.ndarray] = None,
) -> tuple[float, BoundReport]:
    """Grid argmin of the KRR bound total; ties go to the first grid point."""
    grid = default_grid() if lambda_grid is None else lambda_grid
    curve = krr_bound(eigs, grid, B, n, sigma_sq, hnorm_sq)
    k = int(np.argmin(curve.total))
    lam = float(curve.lambda_or_delta[k])
    return lam, BoundReport(lam, float(curve.bias_sq[k]), float(curve.variance[k]))


def regular_bound(
    eigs: EigenSequence,
    delta: float,
    B: float,
    n: float,
    sigma_sq: float = 1.0,
    hnorm_sq: float = 1.0,
    c_prime: float = 1.0,
) -> float:
    """Regular-kernel form of the KRR bound at delta^2 = lam B.

    c' { delta^2 ||f*||_H^2 + sigma^2 B d(delta) log(n) / n }.
    """
    if not (B >= 1 and n >= 1 and sigma_sq > 0 and hnorm_sq >= 0 and c_prime >= 0):
        raise ValueError("invalid regular_bound arguments")
    d = effective_dim(eigs, delta)
    return c_prime * (delta * delta * hnorm_sq + sigma_sq * B * d * math.log(n) / n)


def lambda_rule_finite_rank(sigma_sq: float, D: int, n: float) -> float:
    """Tuning rule lambda = sigma^2 D log(n) / n for rank-D kernels."""
    if not (sigma_sq > 0 and D >= 1 and n >= 1):
        raise ValueError("arguments must be positive")
    return sigma_sq * D * math.log(n) / n


def lambda_rule_poly(alpha: float, B: float, sigma_sq: float, n: float) -> float:
    """Tuning rule for alpha-decaying spectra under a B-bounded shift.

    lambda = B^(-1/(2 alpha + 1)) (sigma^2 log(n) / n)^(2 alpha/(2 alpha + 1)).
    """
    if not (alpha > 0.5 and B >= 1 and sigma_sq > 0 and n >= 1):
        raise ValueError("invalid lambda_rule_poly arguments")
    expo = 2.0 * alpha / (2.0 * alpha + 1.0)
    return B ** (-1.0 / (2.0 * alpha + 1.0)) * (sigma_sq * math.log(n) / n) ** expo


def minimax_lower(
    eigs: EigenSequence,
    B: float,
    n: float,
    sigma_sq: float = 1.0,
    delta_grid: Optional[np.ndarray] = None,
    c: float = 1.0,
) -> float:
    """Minimax lower-bound functional c * inf_delta {delta^2 + sigma^2 B d(delta)/n}.

    Uses the literal effective dimension (which is D + 1 below the last
    nonzero eigenvalue of a rank-D sequence); the infimum is taken over
    the supplied grid.  A value that is not finite raises ``NumericalError``.
    """
    if not (B >= 1 and n >= 1 and sigma_sq > 0 and c >= 0):
        raise ValueError("invalid minimax_lower arguments")
    grid = default_grid() if delta_grid is None else np.asarray(delta_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("delta grid must be nonempty")
    with np.errstate(over="ignore", invalid="ignore"):
        value = c * float(np.min(grid * grid + sigma_sq * B * effective_dim(eigs, grid) / n))
    if not math.isfinite(value):
        raise NumericalError("the minimax lower bound is not finite at these arguments")
    return value


def reweighted_rate(
    kind: str,
    V_sq: float,
    sigma_sq: float,
    n: float,
    c: float = 1.0,
    D: Optional[int] = None,
    alpha: Optional[float] = None,
) -> float:
    """Risk rate of the truncated-reweighted estimator.

    ``finite_rank`` gives c D V^2 log^3(n) sigma^2 / n (also the matching
    lambda rule); ``poly`` gives c (V^2 log^3(n) sigma^2 / n)^(2a/(2a+1)).
    """
    if not (V_sq >= 1 and sigma_sq > 0 and n >= 1 and c >= 0):
        raise ValueError("invalid reweighted_rate arguments")
    if kind == "finite_rank":
        if D is None or not D >= 1:
            raise ValueError("finite_rank rate needs D >= 1")
        return c * D * V_sq * math.log(n) ** 3 * sigma_sq / n
    if kind == "poly":
        if alpha is None or not alpha > 0.5:
            raise ValueError("poly rate needs alpha > 1/2")
        expo = 2.0 * alpha / (2.0 * alpha + 1.0)
        return c * (V_sq * math.log(n) ** 3 * sigma_sq / n) ** expo
    raise ValueError(f"unknown rate kind {kind!r}")


def unbounded_unweighted_bound(
    lam: float,
    V_sq: float,
    kappa_sq: float,
    sigma_sq: float = 1.0,
    n: float = 1,
    hnorm_sq: float = 1.0,
) -> BoundReport:
    """Unweighted KRR bound when only the ratio second moment is bounded.

    2 sqrt(lam V^2 kappa^2) ||f*||_H^2 + 40 (sigma^2 log n / n)(kappa^2/lam).
    Minimizing over lam yields the (sigma^2 V^2 / n)^(1/3) consistency
    rate; see ``unbounded_lambda_star`` for the exact minimizer.
    """
    if not (lam > 0 and V_sq >= 1 and kappa_sq > 0 and sigma_sq > 0 and n >= 1
            and hnorm_sq >= 0):
        raise ValueError("invalid unbounded bound arguments")
    bias_sq = 2.0 * math.sqrt(lam * V_sq * kappa_sq) * hnorm_sq
    variance = 40.0 * sigma_sq * math.log(n) / n * kappa_sq / lam
    return BoundReport(lam, bias_sq, variance)


def unbounded_lambda_star(
    V_sq: float,
    kappa_sq: float,
    sigma_sq: float = 1.0,
    n: float = 1,
    hnorm_sq: float = 1.0,
) -> float:
    """Exact minimizer of the unbounded-ratio bound over lambda.

    Setting the derivative to zero gives
    lambda* = (40 sigma^2 kappa log(n) / (n V ||f*||_H^2))^(2/3).
    """
    if not (V_sq >= 1 and kappa_sq > 0 and sigma_sq > 0 and n >= 1 and hnorm_sq > 0):
        raise ValueError("invalid unbounded_lambda_star arguments")
    kappa = math.sqrt(kappa_sq)
    v = math.sqrt(V_sq)
    return (40.0 * sigma_sq * kappa * math.log(n) / (n * v * hnorm_sq)) ** (2.0 / 3.0)


def expectation_bound(
    eigs: EigenSequence,
    lam: float,
    B: float,
    n: float,
    sigma_sq: float = 1.0,
    kappa_sq: float = 1.0,
    hnorm_sq: float = 1.0,
    c2: float = 519.0 / 256.0,
    c1: float = 32.0,
) -> BoundReport:
    """In-expectation KRR bound under a B-bounded shift.

    c2 { lam B ||f*||_H^2 + (sigma^2 B / n) sum_j mu_j/(mu_j + lam B)
         + sigma^2 / n }.
    Valid for lam >= c1 kappa^2 log(n)/n; outside that region a warning is
    emitted (not an error) so full curves can still be evaluated.
    """
    if not (lam > 0 and 1 <= B < math.inf and n >= 1 and sigma_sq > 0 and kappa_sq > 0
            and hnorm_sq >= 0 and c2 >= 0 and c1 >= 0):
        raise ValueError("invalid expectation_bound arguments")
    if lam < c1 * kappa_sq * math.log(n) / n:
        warnings.warn(
            f"lambda={lam:g} below the validity region c1 kappa^2 log(n)/n",
            stacklevel=2,
        )
    bias_sq = c2 * lam * B * hnorm_sq
    variance = c2 * sigma_sq * B / n * eigs.resolvent_sum(lam * B)
    extra = c2 * sigma_sq / n
    return BoundReport(lam, bias_sq, variance, extra)
