"""Nonparametric regression under covariate shift with eigen-expanded kernels.

The top level holds the names the README documents; every other name is
imported from its module.
"""

from .bounds import lambda_rule_poly
from .estimators import (
    RidgeCore,
    fit_constrained_erm,
    fit_krr,
    fit_reweighted_krr,
    l2q_error,
)
from .hard_instance import g_dual_tail, g_primal
from .shifts import hypercube_hard_pair, sample_dataset
from .spectrum import EigenKernel, EigenSequence

__version__ = "0.1.0"
