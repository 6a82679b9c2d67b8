"""Nonparametric regression under covariate shift with eigen-expanded kernels."""

from .bounds import (
    BoundReport,
    expectation_bound,
    krr_bound,
    krr_bound_curve,
    lambda_rule_finite_rank,
    lambda_rule_poly,
    lambda_star,
    minimax_lower,
    regular_bound,
    reweighted_rate,
    unbounded_lambda_star,
    unbounded_unweighted_bound,
)
from .estimators import (
    FactorizationError,
    FittedModel,
    ProjectionError,
    RidgeCore,
    empirical_risk,
    fit_constrained_erm,
    fit_krr,
    fit_reweighted_krr,
    hilbert_norm_sq,
    l2q_error,
    predict,
)
from .experiments import (
    ExperimentConfig,
    RiskRow,
    figure1,
    figure2,
    fit_rate_slope,
    run_risk_sweep,
)
from .hard_instance import (
    FailureRecord,
    HardInstanceState,
    eta_sums,
    g_dual_tail,
    g_primal,
    krr_lambda_rule,
    simulate_failure,
)
from .seeding import derive_seed, rng_for, splitmix64
from .shifts import (
    Dataset,
    ShiftPair,
    default_truncation,
    estimate_chi_sq_moment,
    gaussian_scale_pair,
    hypercube_hard_pair,
    sample_dataset,
    truncate_lr,
)
from .spectrum import (
    EigenKernel,
    EigenSequence,
    TruncationExceeded,
    critical_radius,
    default_grid,
    effective_dim,
    eigenvalue,
    hermite_features,
    hypercube_features,
    m_function,
    psi_complexity,
    regularity_margin,
)

__version__ = "0.1.0"
