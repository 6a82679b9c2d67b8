"""Machinery behind the constrained-regression failure construction.

The sub-optimality of Hilbert-ball ERM under the hard hypercube shift is
governed by a one-dimensional separation objective

    g(t) = inf { q (theta - theta*)^T Cov (theta - theta*) - 2 v^T (theta - theta*)
                 : sum_j theta_j^2 / mu_j <= 1, theta_1 = t },

with theta* = e_1 and mu_j = j^(-2).  On a sample's own moments (q = 1),
g is ERM's objective less the noise energy, restricted to theta_1 = t, and
``g_primal`` reads it off the ``RidgeCore`` that ERM fits from.  In the
coordinates that whiten the ellipsoid the tail minimization is the
ball-constrained quadratic that ERM also solves, so g and the dual of the
tail subproblem both come from ``estimators.ball_quadratic_min``.  The
module also provides the eta-sum statistics controlling the dual value,
the core of a sample's streamed moments (``shifts.sample_hard_pair_moments``)
and ``hard_pair_runs``, the replicate driver of ERM vs KRR and Figure 2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .estimators import RidgeCore, ball_quadratic_min, hilbert_norm_sq, l2q_error, psd_eigh
from .seeding import derive_seed, map_units, rng_for
from .shifts import sample_hard_pair_moments
from .spectrum import EigenKernel, EigenSequence


def hard_pair_kernel(D: int) -> EigenKernel:
    """The hard pair's kernel: mu_j = j^(-2) and hypercube features x_j for j = 1..D."""
    return EigenKernel(EigenSequence.poly_decay(1.0, 1.0), features="hypercube", rank=D)


@dataclass(frozen=True)
class HardInstanceState:
    """The ``RidgeCore`` of one hard instance at theta* = e_1, which ``g_primal`` reads.

    The kernel is ``hard_pair_kernel(D)``.  On n points x with noise w the
    core holds G = M^(1/2) x^T x M^(1/2) and c = G e_1 + M^(1/2) x^T w, so
    with mu_1 = 1 the empirical covariance is Cov = M^(-1/2) G M^(-1/2) / n
    and v = (1/n) sum w_i x_i is M^(-1/2) (c - G e_1) / n.
    """

    core: RidgeCore

    @cached_property
    def whitened_tail(self) -> tuple[np.ndarray, np.ndarray]:
        """``psd_eigh`` of the whitened covariance block G[1:, 1:] / n, for every t and q."""
        return psd_eigh(self.core.G[1:, 1:] / self.core.n)

    @classmethod
    def population(cls, D: int, B: float, v: Optional[np.ndarray] = None) -> "HardInstanceState":
        """State with the population covariance diag(1/B, 1, ..., 1) and v (zero by default)."""
        v = np.zeros(D) if v is None else np.asarray(v, dtype=float)
        if v.shape != (D,):
            raise ValueError("v must have length D")
        cov = np.eye(D)
        cov[0, 0] = 1.0 / B
        return cls(RidgeCore(hard_pair_kernel(D), 1, cov, cov[:, 0] + v))

    @classmethod
    def from_sample(cls, n: int, B: float, sigma_sq: float, D: int, seed: int) -> "HardInstanceState":
        """The ``hypercube_ridge_core`` of n hard-pair source points at theta* = e_1.

        The points and their N(0, sigma_sq) noise w come from the stream
        ``rng_for(seed, 17)``; G is the scaled x^T x of the drawn design bit for bit.
        """
        return cls(hypercube_ridge_core(hard_pair_kernel(D), np.eye(1, D)[0], n, D, B,
                                        math.sqrt(sigma_sq), rng_for(seed, 17)))


def hypercube_ridge_core(kernel: EigenKernel, theta_star: np.ndarray, n: int, D: int, B: float,
                         sigma: float, rng: np.random.Generator) -> RidgeCore:
    """The ``RidgeCore`` of n hard-pair source points with responses y = F theta* + e.

    F holds the kernel's coordinate features x_1..x_rank of the points and
    e their N(0, sigma^2) noise, drawn from ``rng`` as
    ``shifts.sample_dataset`` draws them.  The moments come from
    ``sample_hard_pair_moments`` over all D coordinates, so no n x D array
    is formed; F^T F is x^T x restricted to the first rank coordinates
    and F^T y = (F^T F) theta* + F^T e, both passed whole: ``RidgeCore``
    keeps the block of the kernel's nonzero eigenvalues.  F^T F equals the
    product of the drawn design bit for bit; F^T y differs from the
    product with y in rounding only.  An n below 1 is refused before
    ``rng`` moves.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = kernel.rank
    if r > D:
        raise ValueError(f"requested {r} coordinate features from dimension {D}")
    xtx, xte = sample_hard_pair_moments(n, D, B, sigma, rng)
    FtF = xtx[:r, :r]
    return RidgeCore(kernel, n, FtF, FtF @ theta_star + xte[:r])


def g_dual_tail(
    v_rest: np.ndarray,
    mu_rest: np.ndarray,
    slack: float,
    quad_coeff: float = 0.5,
) -> tuple[float, float]:
    """Dual value of the tail subproblem and its maximizing multiplier.

    Computes max_{xi >= 0} { -xi * slack - sum_j v_j^2 / (quad_coeff + xi/mu_j) },
    the Lagrange dual of minimizing quad_coeff ||theta_R||^2 - 2 v_R^T theta_R
    over the ellipsoid sum_j theta_j^2 / mu_j <= slack.  Strong duality
    holds, so the value is the primal minimum, and the maximizing xi is the
    multiplier of the ball-constrained quadratic in u_j = theta_j / sqrt(mu_j).
    A zero slack gives the value 0, approached as xi -> inf.
    """
    if not slack >= 0:  # each guard also rejects NaN
        raise ValueError("slack must be nonnegative")
    if not quad_coeff > 0:
        raise ValueError("quad_coeff must be positive")
    v = np.asarray(v_rest, dtype=float)
    mu = np.asarray(mu_rest, dtype=float)
    if v.shape != mu.shape:
        raise ValueError("v_rest and mu_rest must have equal length")
    a = quad_coeff * mu
    b = np.sqrt(mu) * v
    u, xi = ball_quadratic_min(a, b, math.sqrt(slack))
    return float(np.sum(a * u**2) - 2.0 * np.sum(b * u)), float(xi)


def g_primal(
    state: HardInstanceState,
    t: float,
    quad_coeff: float = 1.0,
) -> float:
    """Separation objective g(t) on the slice theta_1 = t of the unit ball.

    The quadratic part of the objective is quad_coeff times the state's
    covariance form, so quad_coeff = 1 on a sampled state gives the
    empirical objective, while quad_coeff in {1/2, 3/2} on the population
    state gives the sandwich surrogates.  The tail minimization over the
    ellipsoid is solved exactly as a ball-constrained quadratic in the
    eigenbasis of the whitened covariance block, which the state
    decomposes once for all t.
    """
    if not 0.0 <= t <= 1.0:  # each guard also rejects NaN
        raise ValueError("t must lie in [0, 1]")
    if not quad_coeff > 0:
        raise ValueError("quad_coeff must be positive")
    if t == 1.0:
        # the feasible set collapses to theta = theta*, where both terms vanish
        return 0.0
    q = quad_coeff
    G, c, n = state.core.G, state.core.c, state.core.n
    # mu_1 = 1, so n Cov_11 = G_00 and n v_1 = c_0 - G_00
    const = (q * (t - 1.0) ** 2 * G[0, 0] - 2.0 * (c[0] - G[0, 0]) * (t - 1.0)) / n
    # the tail in whitened coordinates u: min u^T (q G_RR / n) u - 2 b^T u over ||u||^2 <= 1 - t^2
    s_tail, E = state.whitened_tail
    a_eig = q * s_tail
    bt = E.T @ ((c[1:] - (1.0 + q * (t - 1.0)) * G[1:, 0]) / n)
    u_t, _ = ball_quadratic_min(a_eig, bt, math.sqrt(1.0 - t * t))
    return float(np.sum(a_eig * u_t**2) - 2.0 * np.sum(bt * u_t) + const)


def eta_sums(
    B: float, alpha: float, mu: EigenSequence, D: int
) -> tuple[float, float, float]:
    """Statistics of eta_j = (1 + alpha/(B mu_j))^(-1) over j = 2..D.

    Returns (sum eta_j, sum eta_j^2, max eta_j).  These control the dual
    value of the tail problem; their ratio to sqrt(B/alpha) is bounded by
    absolute constants on alpha in (B/(4 D^2), B/4), and a warning is
    emitted outside that range.
    """
    if D < 2:
        raise ValueError("D must be >= 2")
    if not (B / (4.0 * D * D) < alpha < B / 4.0):
        warnings.warn(
            f"alpha={alpha:g} outside the valid range (B/(4 D^2), B/4)",
            stacklevel=2,
        )
    mu_tail = mu.leading(D)[1:]
    with np.errstate(divide="ignore"):
        eta = 1.0 / (1.0 + alpha / (B * mu_tail))
    eta[mu_tail == 0] = 0.0
    return float(np.sum(eta)), float(np.sum(eta**2)), float(np.max(eta))


@dataclass(frozen=True)
class FailureRecord:
    """One replication of the ERM-vs-KRR comparison on the hard pair."""

    rep: int
    n: int
    B: float
    erm_risk: float
    krr_risk: float
    krr_hnorm_sq: float
    theta1_erm: float


FAILURE_HEADER = tuple(f.name for f in fields(FailureRecord))


def krr_lambda_rule(n: int, B: float) -> float:
    """Prescribed ridge level 4^(2/3) n^(-2/3) B^(-1/3) for the hard pair."""
    return 4.0 ** (2.0 / 3.0) * n ** (-2.0 / 3.0) * B ** (-1.0 / 3.0)


def within_hard_range(n: int, B: float) -> bool:
    """Whether the hard pair at n >= 1 samples admits ratio bound B <= n^(2/3), up to 1e-9."""
    return B <= n ** (2.0 / 3.0) + 1e-9


def hard_pair_runs(
    cells: Sequence[tuple[int, float, int]],
    reps: int,
    fit: Callable[[RidgeCore, float], object],
    sigma_sq: float = 1.0,
    D: Optional[int] = None,
) -> list[list]:
    """``fit(core, lam)`` on ``reps`` replicates of each hard-pair cell (n, B, seed), cell by cell.

    Replicate rep of a cell is the ``RidgeCore`` of n source points of the
    hard hypercube pair, drawn from the stream
    ``rng_for(derive_seed(seed, rep), 1)``, covariates first and then the
    N(0, sigma^2) noise e of the responses y = x_1 + e.  The core is
    ``hypercube_ridge_core`` at theta* = e_1, built from x^T x and
    x^T y = (x^T x) e_1 + x^T e, so no replicate holds an n x D array; the
    product with e_1 is the first column of x^T x bit for bit.  lam is
    ``krr_lambda_rule(n, B)``.  The ambient dimension defaults to
    min(n, 512); coordinates beyond 512 carry under 0.2% of the trace.
    Every cell is checked before anything is drawn.  The (cell, rep) units
    of all cells then run through one ``map_units`` call on every core this
    process may run on; a unit depends on (seed, rep) alone, so the results
    do not depend on the worker count.
    """
    if not reps >= 1:  # each guard also rejects NaN
        raise ValueError("reps must be >= 1")
    if not 0 <= sigma_sq < math.inf:
        raise ValueError("sigma_sq must be finite and >= 0")
    for n, B, _ in cells:
        if n < 1:  # before n^(2/3), which is complex for n < 0
            raise ValueError("n must be >= 1")
        if not (1.0 <= B and within_hard_range(n, B)):
            raise ValueError("B must lie in [1, n^(2/3)]")
        if D is not None and D > n:
            raise ValueError("D must not exceed n")
    sigma = math.sqrt(sigma_sq)
    setups = []
    for n, B, seed in cells:
        d = min(n, 512) if D is None else D
        setups.append((hard_pair_kernel(d), np.eye(1, d)[0], n, d, B, seed,
                       krr_lambda_rule(n, B)))

    def unit(setup_rep):
        (kernel, e1, n, d, B, seed, lam), rep = setup_rep
        return fit(hypercube_ridge_core(kernel, e1, n, d, B, sigma,
                                        rng_for(derive_seed(seed, rep), 1)), lam)

    out = map_units(unit, [(setup, rep) for setup in setups for rep in range(reps)])
    return [out[k * reps:(k + 1) * reps] for k in range(len(cells))]


def simulate_failure(
    n: int,
    B: float,
    sigma_sq: float = 1.0,
    D: Optional[int] = None,
    reps: int = 20,
    seed: int = 0,
) -> list[FailureRecord]:
    """Fit constrained ERM and KRR on the replicates of the hard-pair cell (n, B, seed).

    Each replicate of ``hard_pair_runs``, with f* = phi_1, fits (a) the
    empirical risk minimizer over the unit Hilbert ball and (b) KRR at
    lambda = 4^(2/3) n^(-2/3) B^(-1/3), both from its one ``RidgeCore``
    (one Gram matrix and one Krylov basis, which ERM builds and KRR reads,
    extended if its lambda needs it), and records exact coordinate risks
    and the KRR Hilbert norm.
    """

    def erm_and_krr(core: RidgeCore, lam: float) -> tuple[float, float, float, float]:
        erm = core.fit_constrained(1.0)  # builds the Krylov basis; KRR reads its solve off it
        krr = core.fit_ridge(lam)
        # theta* = e_1: exact mode pads the coordinates (1,) with zeros
        return (l2q_error(erm, (1.0,), exact_mode=True), l2q_error(krr, (1.0,), exact_mode=True),
                hilbert_norm_sq(krr), float(erm.theta[0]))

    runs, = hard_pair_runs([(n, B, seed)], reps, erm_and_krr, sigma_sq, D)
    return [FailureRecord(rep, n, float(B), *values) for rep, values in enumerate(runs)]
