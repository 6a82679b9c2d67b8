"""Seeded Monte Carlo sweeps, rate-slope regression, and figure reproduction.

A sweep runs a grid of (sample size, shift level) cells, each with
independent replications whose seeds derive from the master seed and the
cell indices, so any row is reproducible in isolation and results do not
depend on worker scheduling.  Risks are evaluated exactly through
eigen-coordinates whenever the kernel family is orthonormal under the
target distribution, removing Monte Carlo noise from rate slopes.
Medians aggregate replications throughout (risk draws under shift are
heavy tailed).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .bounds import (
    krr_bound_curve,
    lambda_rule_finite_rank,
    lambda_rule_poly,
    reweighted_rate,
)
from .errors import (FactorizationError, ProjectionError, real_number, refuse_unread_keys,
                     whole_number)
from .estimators import (
    FittedModel,
    fit_constrained_erm,
    fit_krr,
    fit_reweighted_krr,
    hilbert_norm_sq,
    l2q_error,
)
from .hard_instance import hard_pair_runs, hypercube_ridge_core, within_hard_range
from .seeding import derive_seed, map_units, rng_for
from .shifts import ShiftPair, default_truncation, sample_dataset, truncate_lr
from .spectrum import EigenKernel, EigenSequence, default_grid

FIGURE1_B_VALUES = (1.0, 5.0, 10.0, 15.0)
FIGURE2_N_VALUES = (2000, 8000, 16000)
FIGURE2_B_VALUES = (4.0, 16.0, 64.0, 256.0)


def _numbers(values, key: str) -> Sequence[float]:
    """``values`` if it is a list, tuple or array of numbers, else a ValueError naming ``key``.

    A string or a boolean is refused, so a config list is never read one
    character at a time and ``true`` is never the number 1.
    """
    if not (isinstance(values, (list, tuple, np.ndarray))
            and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values)):
        raise ValueError(f"'{key}' must be a JSON array of numbers")
    return values


def format_cell(v) -> str:
    """Canonical CSV cell: floats at 17 significant digits."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])


def write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


#: the keys each lambda rule reads
_LAMBDA_RULE_KEYS = {"fixed": {"rule", "value"}, "finite_rank": {"rule"},
                     "poly": {"rule", "alpha"}, "reweighted": {"rule", "c", "alpha"}}


@dataclass
class ExperimentConfig:
    """Declarative description of one risk sweep."""

    pair: dict
    kernel: dict
    estimator: str = "krr"
    lambda_rule: dict = field(default_factory=lambda: {"rule": "fixed", "value": 0.1})
    n_list: Sequence[int] = (1000,)
    shift_grid: Optional[Sequence[float]] = None  # None: the pair's own B or tau_sq
    sigma_sq: float = 1.0
    hnorm_sq: float = 1.0
    fstar: dict = field(default_factory=lambda: {"kind": "phi", "j": 1})
    reps: int = 20
    n_mc: int = 10**5
    seed: int = 0
    risk: str = "auto"
    radius: float = 1.0
    weight_rule: str = "tau_n"
    truncation_scale: float = 1.0
    fit_mode: str = "primal"

    def __post_init__(self):
        _numbers(self.n_list, "n_list")
        shifts = (None,) if self.shift_grid is None else _numbers(self.shift_grid, "shift_grid")
        if not (len(self.n_list) and len(shifts)):
            raise ValueError("n_list and shift_grid must be nonempty")
        for name in ("reps", "n_mc"):
            setattr(self, name, whole_number(getattr(self, name), name))
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if not all(float(v).is_integer() for v in self.n_list):
            raise ValueError("n_list entries must be whole numbers")
        for name in ("sigma_sq", "hnorm_sq", "radius", "truncation_scale"):
            setattr(self, name, real_number(getattr(self, name), name))
        for name in ("radius", "truncation_scale"):
            if not 0 < getattr(self, name) < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be finite and positive")
        if not (0 <= self.sigma_sq < math.inf and 0 <= self.hnorm_sq < math.inf):
            raise ValueError("sigma_sq and hnorm_sq must be finite and nonnegative")
        if not all(isinstance(getattr(self, f), dict)
                   for f in ("pair", "kernel", "lambda_rule", "fstar")):
            raise TypeError("pair, kernel, lambda_rule and fstar must be objects")
        rule = self.lambda_rule.get("rule", "fixed")
        if rule not in _LAMBDA_RULE_KEYS:
            raise ValueError(f"unknown lambda rule {rule!r}")
        refuse_unread_keys(self.lambda_rule, _LAMBDA_RULE_KEYS[rule], f"lambda rule {rule!r}")
        for name, allowed in (("estimator", ("krr", "reweighted", "erm")),
                              ("risk", ("auto", "exact", "mc")),
                              ("weight_rule", ("tau_n", "B", "raw")),
                              ("fit_mode", ("primal", "dual"))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; "
                                 f"expected one of {', '.join(allowed)}")

    @classmethod
    def from_json(cls, obj) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**obj)


@dataclass(frozen=True)
class RiskRow:
    rep: int
    n: int
    b_or_v2: float
    estimator: str
    lam: float
    risk: float
    hnorm_sq: float
    seed: int
    status: str


RISK_HEADER = ("rep", "n", "B_or_V2", "estimator", "lambda", "risk",
               "hnorm_sq", "seed", "status")


#: the keys each fstar kind reads
_FSTAR_KEYS = {"phi": {"kind", "j"}, "spread": {"kind", "exponent"}}


def fstar_coordinates(spec: dict, kernel: EigenKernel, hnorm_sq: float) -> np.ndarray:
    """Eigen-coordinates of the regression function with the target norm.

    ``{"kind": "phi", "j": k}`` puts all Hilbert mass on one eigenfunction;
    ``{"kind": "spread", "exponent": e}`` sets theta_j proportional to
    j^(-e) across the kernel rank, the profile that keeps the
    polynomial-decay risk exponent visible at desk scale.
    """
    kind = spec.get("kind", "phi")
    if kind not in _FSTAR_KEYS:
        raise ValueError(f"unknown fstar kind {kind!r}")
    refuse_unread_keys(spec, _FSTAR_KEYS[kind], f"a {kind} 'fstar'")
    mu = kernel.mu
    theta = np.zeros(kernel.rank)
    if kind == "phi":
        j = whole_number(spec.get("j", 1), "fstar.j")
        if not 1 <= j <= kernel.rank or mu[j - 1] == 0:
            raise ValueError("fstar index outside the kernel rank")
        theta[j - 1] = math.sqrt(hnorm_sq * mu[j - 1])
        return theta
    e = real_number(spec.get("exponent", 1.25), "fstar.exponent")
    if not math.isfinite(e):
        raise ValueError("'fstar.exponent' must be a finite number")
    raw = np.arange(1, kernel.rank + 1, dtype=float) ** -e
    live = mu > 0
    raw[~live] = 0.0
    scale = float(np.sum(raw[live] ** 2 / mu[live]))
    theta[live] = raw[live] * math.sqrt(hnorm_sq / scale)
    return theta


def _build_pair(template: dict, shift: Optional[float]) -> ShiftPair:
    """The pair of ``template``, its B or tau_sq set to ``shift`` unless that is None."""
    spec = dict(template)
    if shift is not None:
        if spec["family"] == "hypercube":
            spec["B"] = float(shift)
        elif spec["family"] == "gaussian_scale":
            spec["tau_sq"] = float(shift)
    return ShiftPair.from_json(spec)


def _resolve_lambda(rule: dict, n: int, pair: ShiftPair, kernel: EigenKernel,
                    sigma_sq: float) -> float:
    """The lambda of ``rule``, whose name and keys ``ExperimentConfig`` has checked."""
    name = rule.get("rule", "fixed")
    if name == "fixed":
        return real_number(rule["value"], "lambda_rule.value")
    if name == "finite_rank":
        D = int(np.count_nonzero(kernel.mu))
        return lambda_rule_finite_rank(sigma_sq, D, n)
    if name == "poly":
        alpha = real_number(rule.get("alpha", kernel.eigs.alpha or 1.0), "lambda_rule.alpha")
        if pair.declared_B is None:
            raise ValueError("poly lambda rule needs a B-bounded pair")
        return lambda_rule_poly(alpha, pair.declared_B, sigma_sq, n)
    v_sq = pair.declared_V_sq  # the reweighted rule
    c = real_number(rule.get("c", 1.0), "lambda_rule.c")
    if "alpha" in rule:
        return reweighted_rate("poly", v_sq, sigma_sq, n, c,
                               alpha=real_number(rule["alpha"], "lambda_rule.alpha"))
    D = int(np.count_nonzero(kernel.mu))
    return reweighted_rate("finite_rank", v_sq, sigma_sq, n, c, D=D)


#: (pair, kernel) families whose eigenfunctions are orthonormal under the target
_EXACT_RISK_FAMILIES = {("hypercube", "hypercube"), ("gaussian_scale", "hermite")}


def run_risk_sweep(config: ExperimentConfig) -> list[RiskRow]:
    """Run the configured estimator over the (n, shift) grid with replications.

    Rows are emitted in canonical grid order.  Without a ``shift_grid`` the
    grid is the pair's own B or tau_sq; with one, its entries override the
    pair's.  Fit failures are recorded per row in the status column
    rather than aborting the sweep.  Every cell resolves its pair, lambda,
    risk mode and estimator once, before any replicate runs.  ERM does not
    evaluate the ``lambda_rule``: its rows report the multiplier it fits
    at, and NaN where it fails.  The cells then run one after another
    through ``map_units`` on one worker, inside its one-BLAS-thread scope.
    Spreading the cells over both cores of a 2-core machine made the benchmark's
    ``risk_sweep`` slower, not faster, and raised its peak RSS.

    A replicate draws its sample from ``rng_for(seed_r, 1)`` as
    ``sample_dataset`` does.  An unweighted primal fit (KRR in primal mode,
    or ERM) with hypercube features on the hypercube pair reads the sample
    through ``hypercube_ridge_core``, from its streamed moments, with no
    n x D dataset: y = F theta* there, and both risks read only theta.
    Every other replicate builds the ``Dataset``, which a dual or weighted
    fit needs.
    """
    kernel = EigenKernel.from_json(config.kernel)
    theta_star = fstar_coordinates(config.fstar, kernel, config.hnorm_sq)
    sigma = math.sqrt(config.sigma_sq)
    shifts = (None,) if config.shift_grid is None else config.shift_grid

    def fstar_fn(x: np.ndarray) -> np.ndarray:
        return kernel.feature_matrix(x) @ theta_star

    def risk_cell(ni: int, bi: int) -> Callable[[int], RiskRow]:
        n = int(config.n_list[ni])
        pair = _build_pair(config.pair, shifts[bi])
        b_or_v2 = pair.declared_B if pair.declared_B is not None else pair.declared_V_sq
        lam = math.nan  # ERM fits at its multiplier, which its ok rows report
        if config.estimator != "erm":
            lam = _resolve_lambda(config.lambda_rule, n, pair, kernel, config.sigma_sq)
            if not 0 < lam < math.inf:  # also rejects NaN
                raise ValueError(f"lambda must be finite and positive, not {lam!r}")
        exact = config.risk != "mc" and (pair.family, kernel.family) in _EXACT_RISK_FAMILIES
        if config.risk == "exact" and not exact:
            raise ValueError(f"exact risk needs eigenfunctions orthonormal under the target: "
                             f"not {kernel.family} ones on a {pair.family} pair")
        tau = None
        if config.estimator == "reweighted" and config.weight_rule != "raw":
            tau = (config.truncation_scale * default_truncation(n, pair.declared_V_sq)
                   if config.weight_rule == "tau_n" else pair.declared_B)
            if tau is None:
                raise ValueError(f"weight rule 'B' needs a B-bounded pair, not {pair.family}")
        streamed = ((config.estimator == "erm"
                     or (config.estimator == "krr" and config.fit_mode == "primal"))
                    and pair.family == kernel.family == "hypercube")

        def fit(seed_r: int) -> FittedModel:
            if streamed:
                core = hypercube_ridge_core(kernel, theta_star, n, pair.dim, pair.declared_B,
                                            sigma, rng_for(seed_r, 1))
                return (core.fit_ridge(lam) if config.estimator == "krr"
                        else core.fit_constrained(config.radius))
            data = sample_dataset(pair, fstar_fn, sigma, n, seed_r)
            if config.estimator == "krr":
                return fit_krr(data, kernel, lam, mode=config.fit_mode)
            if config.estimator == "erm":
                return fit_constrained_erm(data, kernel, config.radius)
            rho = pair.lr(data.xs)
            w = rho if tau is None else truncate_lr(rho, tau)
            return fit_reweighted_krr(data.with_weights(w), kernel, lam, mode=config.fit_mode)

        def replicate(rep: int) -> RiskRow:
            seed_r = derive_seed(config.seed, ni, bi, rep)
            try:
                model = fit(seed_r)
                if exact:
                    risk = l2q_error(model, theta_star, exact_mode=True)
                else:
                    risk = l2q_error(model, fstar_fn, pair, config.n_mc, seed=seed_r)
                return RiskRow(rep, n, b_or_v2, config.estimator, model.lam, risk,
                               hilbert_norm_sq(model), seed_r, "ok")
            except (FactorizationError, ProjectionError) as err:
                return RiskRow(rep, n, b_or_v2, config.estimator, lam,
                               float("nan"), float("nan"), seed_r, str(err))

        return replicate

    cells = [risk_cell(ni, bi) for ni in range(len(config.n_list))
             for bi in range(len(shifts))]
    per_cell = map_units(lambda replicate: list(map(replicate, range(config.reps))), cells, 1)
    return [row for rows in per_cell for row in rows]


def _median(values: Sequence[float]) -> float:
    """``np.median`` of a nonempty sequence of floats, bit for bit, NaN included.

    The middle value, or the mean (a + b) / 2 of the two middle values.
    Sorting in Python spares the import of ``numpy.ma`` that ``np.median``
    makes on its first call in a process.
    """
    v = sorted(values)
    if any(map(math.isnan, v)):
        return math.nan
    k = len(v) // 2
    return float(v[k] if len(v) % 2 else (v[k - 1] + v[k]) / 2)


@dataclass(frozen=True)
class RateSlope:
    slope: float
    stderr: float


def fit_rate_slope(rows: Sequence[RiskRow]) -> dict[tuple, RateSlope]:
    """OLS slope of log(median risk) against log(n) per (estimator, b_or_v2) group.

    Only ``ok`` rows count.  Requires at least 3 distinct sample sizes per
    group; raises ValueError("insufficient n grid") otherwise or when no
    ``ok`` row is left, and ValueError when a median risk is not positive,
    since its logarithm is undefined.
    """
    groups: dict[tuple, dict[int, list[float]]] = {}
    for r in rows:
        if r.status == "ok":
            groups.setdefault((r.estimator, r.b_or_v2), {}).setdefault(r.n, []).append(r.risk)
    if not groups:
        raise ValueError("insufficient n grid: no row has status ok")
    out = {}
    for key, by_n in groups.items():
        if len(by_n) < 3:
            raise ValueError("insufficient n grid")
        ns = np.array(sorted(by_n))
        med = np.array([_median(by_n[n]) for n in ns])
        if not np.all(med > 0):
            raise ValueError(f"median risk must be positive for a log-log slope (group {key})")
        x = np.log(ns.astype(float))
        y = np.log(med)
        xc = x - x.mean()
        sxx = float(np.sum(xc * xc))
        if sxx <= 0:
            raise ValueError("insufficient n grid")
        slope = float(np.sum(xc * (y - y.mean())) / sxx)
        resid = y - (y.mean() + slope * xc)
        dof = max(len(ns) - 2, 1)
        stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
        out[key] = RateSlope(slope, stderr)
    return out


FIGURE1_HEADER = ("B", "lambda", "bias_sq", "variance", "total", "is_argmin")


def figure1(
    B_values: Sequence[float] = FIGURE1_B_VALUES,
    n: int = 8000,
    sigma_sq: float = 1.0,
    hnorm_sq: float = 1.0,
    lambda_grid: Optional[np.ndarray] = None,
    eigs: Optional[EigenSequence] = None,
) -> list[list]:
    """Bound trade-off curves versus lambda for several ratio bounds B.

    Default configuration: eigenvalues mu_j = (1/j)^2, sigma^2 = 1,
    n = 8000, B in {1, 5, 10, 15} on a 400-point log-spaced lambda grid.
    Exactly one row per B is flagged as the bound minimizer.
    """
    if not len(_numbers(B_values, "B_values")):
        raise ValueError("figure1 needs a nonempty B_values")
    if eigs is None:
        eigs = EigenSequence.poly_decay(1.0, 1.0)
    grid = default_grid() if lambda_grid is None else np.asarray(lambda_grid, dtype=float)
    rows = []
    for B in B_values:
        reports, k = krr_bound_curve(eigs, float(B), n, sigma_sq, hnorm_sq, grid)
        for i, (lam, rep) in enumerate(zip(grid, reports)):
            rows.append([float(B), float(lam), rep.bias_sq, rep.variance,
                         rep.total, i == k])
    return rows


FIGURE2_HEADER = ("n", "B", "median_hnorm_sq", "reps")


def figure2(
    n_list: Sequence[int] = FIGURE2_N_VALUES,
    B_grid: Sequence[float] = FIGURE2_B_VALUES,
    reps: int = 20,
    seed: int = 0,
    sigma_sq: float = 1.0,
    D: Optional[int] = None,
) -> list[list]:
    """Median KRR Hilbert norm on the hard pair versus the ratio bound B.

    Each sample size contributes one curve over the part of the B grid it
    supports: cells with B > n^(2/3) fall outside the hard-pair validity
    range and are skipped, so smaller-n curves simply end earlier.  Cell
    (ni, bi) runs the replicates of ``hard_instance.hard_pair_runs`` at the
    seed ``derive_seed(seed, ni, bi)`` and fits only the KRR it reports,
    one linear solve with no ERM and no eigendecomposition.
    """
    _numbers(n_list, "n_list")
    _numbers(B_grid, "B_grid")
    if not all(float(v).is_integer() for v in (*n_list, reps)):
        raise ValueError("figure2 needs whole-number n_list entries and reps")
    if not all(float(n) >= 1 for n in n_list):
        raise ValueError("figure2 needs every n in n_list >= 1")
    if not all(math.isfinite(B) for B in B_grid):
        raise ValueError("figure2 needs finite B_grid entries")
    cells = [(int(n), float(B), derive_seed(seed, ni, bi))
             for ni, n in enumerate(n_list) for bi, B in enumerate(B_grid)
             if within_hard_range(int(n), B)]
    if not cells:
        raise ValueError("figure2 needs an (n, B) cell with B <= n^(2/3)")
    runs = hard_pair_runs(cells, reps, lambda core, lam: hilbert_norm_sq(core.fit_ridge(lam)),
                          sigma_sq, D)
    return [[n, B, _median(norms), reps] for (n, B, _), norms in zip(cells, runs)]


FAILURE_HEADER = ("rep", "n", "B", "erm_risk", "krr_risk", "krr_hnorm_sq", "theta1_erm")
