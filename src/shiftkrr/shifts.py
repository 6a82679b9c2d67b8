"""Source/target covariate distribution pairs with known likelihood ratios.

Two concrete families cover the regimes of interest:

* a hypercube pair whose source puts mass 1 - 1/B at zero in the first
  coordinate, giving a likelihood ratio exactly B wherever the target has
  mass (the uniformly bounded family, and the hard instance for
  constrained regression);
* a Gaussian scale pair Q = N(0,1), P = N(0, tau^2) whose ratio is
  unbounded but has a closed-form second moment (the chi-square bounded
  family).

Ratios are never estimated from data: each pair carries its pointwise
evaluator plus declared B and/or V^2 constants.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .seeding import rng_for


@dataclass
class Dataset:
    """Covariates, responses, and optional per-point weights."""

    xs: np.ndarray
    ys: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        self.xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        self.ys = np.asarray(self.ys, dtype=float)
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if len(self.weights) != len(self.ys):
                raise ValueError("weights must match the number of points")
            if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
                raise ValueError("weights must be finite and nonnegative")

    def __len__(self) -> int:
        return len(self.ys)

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    def with_weights(self, weights: np.ndarray) -> "Dataset":
        return Dataset(self.xs, self.ys, weights)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = [f"x_{j}" for j in range(1, self.dim + 1)] + ["y", "weight"]
            writer.writerow(header)
            w = self.weights if self.weights is not None else np.ones(len(self))
            for i in range(len(self)):
                row = [f"{v:.17g}" for v in self.xs[i]] + [f"{self.ys[i]:.17g}", f"{w[i]:.17g}"]
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path: str) -> "Dataset":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"dataset CSV {path} is empty")
            ncols = len(header)
            has_weight = header[-1] == "weight"
            d = ncols - 2 if has_weight else ncols - 1
            xs, ys, ws = [], [], []
            for row in reader:
                vals = list(map(float, row))
                if len(vals) != ncols:
                    raise ValueError(f"dataset CSV {path}: a row has {len(vals)} fields, "
                                     f"the header {ncols}")
                if not all(map(math.isfinite, vals)):
                    raise ValueError(f"dataset CSV {path}: a row holds a value that is not finite")
                xs.append(vals[:d])
                ys.append(vals[d])
                if has_weight:
                    ws.append(vals[d + 1])
        return cls(np.array(xs), np.array(ys), np.array(ws) if has_weight else None)


@dataclass
class ShiftPair:
    """A source/target pair with samplers and a pointwise likelihood ratio.

    ``lr`` evaluates rho(x) = q(x)/p(x) on an (n, d) array of covariates.
    ``declared_B`` bounds sup rho (when finite); ``declared_V_sq`` bounds
    E_P[rho^2].  A B-bounded pair always admits V^2 = B.
    """

    family: str
    dim: int
    _source: Callable[[int, np.random.Generator], np.ndarray]
    _target: Callable[[int, np.random.Generator], np.ndarray]
    lr: Callable[[np.ndarray], np.ndarray]
    declared_B: Optional[float] = None
    declared_V_sq: Optional[float] = None

    def sample_source(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._source(n, rng)

    def sample_target(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._target(n, rng)

    @classmethod
    def from_json(cls, obj) -> "ShiftPair":
        family = obj["family"]
        if family == "hypercube":
            return hypercube_hard_pair(int(obj["D"]), float(obj.get("B", 1.0)))
        if family == "gaussian_scale":
            return gaussian_scale_pair(float(obj["tau_sq"]))
        raise ValueError(f"unknown shift family {family!r}")


#: rows per block of the hypercube draws; also bounds the entries of a
#: block Gram of a +-1/0 design, so float32 block products are exact
HYPERCUBE_BLOCK_ROWS = 2048


def _check_hard_pair(D: int, B: float) -> None:
    if not D >= 1:  # each guard also rejects NaN
        raise ValueError("D must be >= 1")
    if not 1 <= B < math.inf:
        raise ValueError("B must be finite and >= 1")


def hypercube_signs(n: int, D: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform points of {-1, +1}^D as int8.

    Consumes the stream exactly as ``rng.integers(0, 2, size=(n, D))``
    does: int32 draws give the same values as the int64 default, and
    drawing in row blocks of ``HYPERCUBE_BLOCK_ROWS`` leaves the generator
    where one draw would, so later draws are unchanged too.
    """
    x = np.empty((n, D), dtype=np.int8)
    for i in range(0, n, HYPERCUBE_BLOCK_ROWS):
        j = min(i + HYPERCUBE_BLOCK_ROWS, n)
        x[i:j] = rng.integers(0, 2, size=(j - i, D), dtype=np.int32)
    x *= 2
    x -= 1
    return x


def hard_pair_design(n: int, D: int, B: float, rng: np.random.Generator) -> np.ndarray:
    """n source points of the hard hypercube pair as an int8 array.

    ``hypercube_hard_pair(D, B).sample_source`` is this array as float;
    the first-coordinate mask is drawn after the signs, and not at all
    when B = 1.
    """
    _check_hard_pair(D, B)
    x = hypercube_signs(n, D, rng)
    if B > 1:
        x[rng.random(n) >= 1.0 / B, 0] = 0
    return x


def hypercube_hard_pair(D: int, B: float) -> ShiftPair:
    """Hard hypercube pair: the source starves the first coordinate.

    Q is uniform on {-1,+1}^D.  Under P the first coordinate is 0 with
    probability 1 - 1/B and uniform on {-1,+1} otherwise; the remaining
    coordinates stay uniform.  rho(x) = B wherever x_1 != 0 and 0 at
    x_1 = 0 (a Q-null set), so the pair is exactly B-bounded and
    E_P[rho^2] = B.
    """
    _check_hard_pair(D, B)

    def source(n: int, rng: np.random.Generator) -> np.ndarray:
        return hard_pair_design(n, D, B, rng).astype(float)

    def target(n: int, rng: np.random.Generator) -> np.ndarray:
        return hypercube_signs(n, D, rng).astype(float)

    def lr(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.where(x[:, 0] != 0.0, float(B), 0.0)

    return ShiftPair(
        family="hypercube",
        dim=D,
        _source=source,
        _target=target,
        lr=lr,
        declared_B=float(B),
        declared_V_sq=float(B),
    )


def gaussian_scale_pair(tau_sq: float) -> ShiftPair:
    """Unbounded-ratio pair Q = N(0, 1), P = N(0, tau^2).

    The ratio rho(x) = tau * exp(x^2 (1/(2 tau^2) - 1/2)) diverges as
    |x| -> infinity, but its second moment under P has the closed form
    tau / sqrt(2 - 1/tau^2), finite exactly when tau^2 > 1/2.
    """
    if not tau_sq > 0.5:  # each guard also rejects NaN
        raise ValueError("chi-square moment infinite")
    if not tau_sq <= 1.0:
        raise ValueError("tau_sq must lie in (1/2, 1]")
    tau = math.sqrt(tau_sq)
    v_sq = tau / math.sqrt(2.0 - 1.0 / tau_sq)
    log_coeff = 0.5 / tau_sq - 0.5

    def source(n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, tau, size=(n, 1))

    def target(n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, 1.0, size=(n, 1))

    def lr(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        # evaluated via the log-density difference to avoid overflow
        return np.exp(math.log(tau) + log_coeff * x[:, 0] ** 2)

    return ShiftPair(
        family="gaussian_scale",
        dim=1,
        _source=source,
        _target=target,
        lr=lr,
        declared_B=None,
        declared_V_sq=v_sq,
    )


def truncate_lr(rho_value, tau: float):
    """Clip likelihood-ratio values at the truncation level tau."""
    if tau <= 0:
        raise ValueError("truncation level must be positive")
    return np.minimum(rho_value, tau)


def default_truncation(n: int, V_sq: float) -> float:
    """Default truncation level sqrt(n V^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(n * V_sq)


def sample_dataset(
    pair: ShiftPair,
    fstar: Callable[[np.ndarray], np.ndarray],
    sigma: float,
    n: int,
    seed: int,
    from_target: bool = False,
    noise: str = "gaussian",
) -> Dataset:
    """Draw n covariates from the pair and add noisy responses.

    y_i = f*(x_i) + w_i with w_i either N(0, sigma^2) (the canonical
    sub-Gaussian law) or sigma * Rademacher.  Identical seeds give
    bit-identical datasets.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    rng = rng_for(seed, 0 if from_target else 1)
    xs = pair.sample_target(n, rng) if from_target else pair.sample_source(n, rng)
    ys = np.asarray(fstar(xs), dtype=float)
    if sigma > 0:
        if noise == "gaussian":
            ys = ys + rng.normal(0.0, sigma, size=n)
        elif noise == "rademacher":
            ys = ys + sigma * (rng.integers(0, 2, size=n) * 2.0 - 1.0)
        else:
            raise ValueError(f"unknown noise law {noise!r}")
    return Dataset(xs, ys)


def estimate_chi_sq_moment(pair: ShiftPair, n_mc: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of (E_P[rho^2], chi^2(Q || P)) over source draws."""
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    rng = rng_for(seed, 2)
    x = pair.sample_source(n_mc, rng)
    second_moment = float(np.mean(pair.lr(x) ** 2))
    return second_moment, second_moment - 1.0
