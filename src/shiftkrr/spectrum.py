"""Mercer kernels represented by their eigen-expansion.

A kernel is declared by a nonincreasing eigenvalue sequence (finite rank,
polynomial decay, or an explicit list) together with an eigenfunction
family that is orthonormal in L2 of the target distribution.  All spectral
functionals used by the bound calculators live here: the effective
dimension d(delta), the eigenvalue tail / regularity check, the complexity
function Psi(delta), and the critical radius solving M(delta) <= delta^2/2.

Every sequence is a summed head plus an analytic tail.  The head of a list
is the list itself and its tail is 0; the head of polynomial decay is
mu_j for j <= ``j_max`` (default 10**6) and its tail is the integral bound
``sum_{j>J} c j^(-2a) <= c J^(1-2a)/(2a-1)``.  Each functional is one
expression over the head's suffix sums, the tail and an exact count of
the eigenvalues above a level, so every output is deterministic with a
known truncation error.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_J_MAX = 10**6

#: log-spaced default grid used for delta and lambda searches.
DEFAULT_GRID_MIN = 1e-4
DEFAULT_GRID_MAX = 10.0
DEFAULT_GRID_POINTS = 400


class TruncationExceeded(RuntimeError):
    """An index-valued functional fell beyond the truncation point j_max."""


def default_grid(
    lo: float = DEFAULT_GRID_MIN,
    hi: float = DEFAULT_GRID_MAX,
    points: int = DEFAULT_GRID_POINTS,
) -> np.ndarray:
    """Log-spaced grid used for delta / lambda searches."""
    return np.geomspace(lo, hi, points)


class EigenSequence:
    """Nonincreasing, nonnegative kernel eigenvalue sequence.

    Three kinds are supported:

    * ``finite``   -- explicit values, zero beyond the declared rank D;
    * ``explicit`` -- explicit values with a truncation index, zero beyond
      the list;
    * ``poly``     -- mu_j = c * j^(-2*alpha) with alpha > 1/2.

    ``finite`` and ``explicit`` differ only in their JSON.  The sums run
    over a head of ``length`` terms (the list, or mu_1..mu_{j_max} for
    poly decay, built at the first sum that needs it) plus an analytic
    tail beyond it (0 for a list).
    """

    def __init__(
        self,
        kind: str,
        values: Optional[Sequence[float]] = None,
        alpha: Optional[float] = None,
        c: Optional[float] = None,
        j_max: int = DEFAULT_J_MAX,
    ):
        if kind not in ("finite", "poly", "explicit"):
            raise ValueError(f"unknown eigenvalue sequence kind {kind!r}")
        self.kind = kind
        self.j_max = int(j_max)
        if self.j_max < 1:
            raise ValueError("j_max must be >= 1")
        if kind == "poly":
            if alpha is None or not alpha > 0.5:  # also rejects NaN
                raise ValueError("poly decay requires alpha > 1/2 for a finite trace")
            if c is None or not 0 < c < math.inf:
                raise ValueError("poly decay requires a finite scale c > 0")
            self.alpha = float(alpha)
            self.c = float(c)
            self.values = None
            self.length = self.j_max
            # integral comparison: sum_{j>J} c j^(-2a) <= c J^(1-2a)/(2a-1)
            self._tail = self.c * self.j_max ** (1.0 - 2.0 * self.alpha) / (2.0 * self.alpha - 1.0)
        else:
            vals = np.asarray(values if values is not None else [], dtype=float)
            if vals.ndim != 1:
                raise ValueError("eigenvalues must be a 1-d sequence")
            if not (np.all(np.isfinite(vals)) and np.all(vals >= 0) and np.all(np.diff(vals) <= 0)):
                raise ValueError("eigenvalues must be finite, nonnegative and nonincreasing")
            self.alpha = None
            self.c = None
            self.values = vals
            self.length = len(vals)
            self._tail = 0.0
        # the head and its suffix sums, built at the first sum that needs them
        self._mu_head: Optional[np.ndarray] = None
        self._suf_mu: Optional[np.ndarray] = None
        self._suf_mu2: Optional[np.ndarray] = None

    # ---- constructors -------------------------------------------------

    @classmethod
    def finite_rank(cls, values: Sequence[float]) -> "EigenSequence":
        return cls("finite", values=values)

    @classmethod
    def poly_decay(cls, alpha: float, c: float = 1.0, j_max: int = DEFAULT_J_MAX) -> "EigenSequence":
        return cls("poly", alpha=alpha, c=c, j_max=j_max)

    @classmethod
    def explicit(cls, values: Sequence[float], j_max: int = DEFAULT_J_MAX) -> "EigenSequence":
        return cls("explicit", values=values, j_max=j_max)

    # ---- serialization -------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "poly":
            return {"kind": "poly", "alpha": self.alpha, "c": self.c, "j_max": self.j_max}
        if self.kind == "finite":
            return {"kind": "finite", "values": list(map(float, self.values))}
        return {"kind": "explicit", "values": list(map(float, self.values)), "j_max": self.j_max}

    @classmethod
    def from_json(cls, obj) -> "EigenSequence":
        kind = obj["kind"]
        if kind == "poly":
            return cls.poly_decay(obj["alpha"], obj.get("c", 1.0), obj.get("j_max", DEFAULT_J_MAX))
        if kind == "finite":
            return cls.finite_rank(obj["values"])
        if kind == "explicit":
            return cls.explicit(obj["values"], obj.get("j_max", DEFAULT_J_MAX))
        raise ValueError(f"unknown eigenvalue sequence kind {kind!r}")

    # ---- basic access --------------------------------------------------

    @property
    def rank(self) -> Optional[int]:
        """Number of nonzero eigenvalues, or None for an infinite sequence."""
        if self.kind == "poly":
            return None
        return int(np.count_nonzero(self.values))

    def eigenvalue(self, j: int) -> float:
        """mu_j under the sequence's rule (1-indexed); 0 beyond a finite rank."""
        if j < 1:
            raise ValueError("eigenvalue index must be >= 1")
        if self.kind == "poly":
            return self.c * float(j) ** (-2.0 * self.alpha)
        if j <= len(self.values):
            return float(self.values[j - 1])
        return 0.0

    def leading(self, m: int) -> np.ndarray:
        """First m eigenvalues as an array."""
        if self.kind == "poly":
            return self.c * np.arange(1, m + 1, dtype=float) ** (-2.0 * self.alpha)
        out = np.zeros(m)
        k = min(m, len(self.values))
        out[:k] = self.values[:k]
        return out

    def count_at_least(self, level: float) -> int:
        """Number of head indices j with mu_j >= level, exact under float comparison."""
        if self.kind != "poly":
            return int(np.count_nonzero(self.values >= level))
        if level <= 0:
            return self.j_max
        x = (self.c / level) ** (1.0 / (2.0 * self.alpha))
        if not math.isfinite(x) or x >= self.j_max:
            k = self.j_max
        else:
            k = int(math.floor(x + 1e-12))
        # the closed form can be off by rounding: correct it against mu_j itself
        while k >= 1 and self.eigenvalue(k) < level:
            k -= 1
        while k < self.j_max and self.eigenvalue(k + 1) >= level:
            k += 1
        return max(0, min(k, self.j_max))

    # ---- spectral sums ---------------------------------------------------

    def _head(self) -> np.ndarray:
        if self._mu_head is None:
            mu = self.leading(self.length)
            self._mu_head = mu
            # suffix sums, accumulated small-to-large so that tiny tails are
            # not lost to cancellation: _suf_mu[k] = sum_{j > k} mu_j
            self._suf_mu = np.concatenate((np.cumsum(mu[::-1])[::-1], [0.0]))
            self._suf_mu2 = np.concatenate((np.cumsum((mu * mu)[::-1])[::-1], [0.0]))
        return self._mu_head

    def trace(self) -> float:
        """Sum of all eigenvalues."""
        return self.tail_sum(0)

    def tail_sum(self, j0: int) -> float:
        """sum_{j > j0} mu_j: the head's suffix sum plus the analytic tail."""
        self._head()
        return float(self._suf_mu[min(j0, self.length)]) + self._tail

    def resolvent_sum(self, s: float) -> float:
        """sum_j mu_j / (mu_j + s) for s > 0.

        A list is summed exactly.  For poly decay the sum is exact over the
        head where mu_j >= 1e-4 s; the remainder uses the two-term expansion
        mu/s - (mu/s)^2 whose relative error is <= 1e-8, plus the analytic
        tail beyond j_max.
        """
        if not s > 0:  # also rejects NaN
            raise ValueError("resolvent shift must be positive")
        mu = self._head()
        if self.rank is not None:
            return float(np.sum(mu / (mu + s)))
        jc = self.count_at_least(1e-4 * s)
        head = float(np.sum(mu[:jc] / (mu[:jc] + s)))
        s1 = float(self._suf_mu[jc])
        s2 = float(self._suf_mu2[jc])
        mid = s1 / s - s2 / s / s  # never forms s * s, which underflows
        return head + mid + self._tail / s


# ---------------------------------------------------------------------------
# module-level operations on eigenvalue sequences
# ---------------------------------------------------------------------------


eigenvalue = EigenSequence.eigenvalue


def effective_dim(eigs: EigenSequence, delta: float) -> int:
    """Smallest index whose eigenvalue drops to delta^2 or below.

    d(delta) = min{ j >= 1 : mu_j <= delta^2 }, one more than the number
    of eigenvalues above delta^2.  For a finite-rank sequence with delta^2
    below the last nonzero eigenvalue this is D + 1, since mu_{D+1} = 0.

    Raises
    ------
    TruncationExceeded
        For infinite sequences when no index <= j_max satisfies the
        condition.
    """
    if not delta > 0:  # also rejects NaN
        raise ValueError("delta must be positive")
    above = eigs.count_at_least(math.nextafter(delta * delta, math.inf))
    if eigs.rank is None and above >= eigs.length:
        raise TruncationExceeded("index exceeds truncation")
    return above + 1


def regularity_margin(
    eigs: EigenSequence, delta: float, c: float = 2.0
) -> tuple[float, float, bool]:
    """Check the eigenvalue-tail regularity condition at one delta.

    Returns ``(tail_sum, budget, is_regular_at_delta)`` where
    ``tail_sum = sum_{j > d(delta)} mu_j`` and ``budget = c d(delta) delta^2``.
    The sequence is regular at delta when the tail is within budget.
    """
    if c <= 0:
        raise ValueError("regularity constant must be positive")
    d = effective_dim(eigs, delta)
    tail = eigs.tail_sum(d)
    budget = c * d * delta * delta
    return tail, budget, bool(tail <= budget)


def psi_complexity(eigs: EigenSequence, delta: float, hnorm_sq: float = 1.0) -> float:
    """Kernel complexity Psi(delta) = sum_j min{delta^2, mu_j * hnorm_sq}."""
    if not (delta >= 0 and hnorm_sq >= 0):  # also rejects NaN
        raise ValueError("delta and hnorm_sq must be nonnegative")
    d2 = delta * delta
    if d2 == 0.0 or hnorm_sq == 0.0:
        return 0.0
    # mu_j * h >= d2 on j <= count: those terms contribute d2 each; the level
    # stays positive where d2 / h underflows, so zero eigenvalues never count
    count = eigs.count_at_least(max(d2 / hnorm_sq, math.ulp(0.0)))
    return count * d2 + hnorm_sq * eigs.tail_sum(count)


def m_function(
    eigs: EigenSequence,
    delta: float,
    sigma_sq: float,
    V_sq: float,
    n: float,
    hnorm_sq: float = 1.0,
    c0: float = 1.0,
    general_noise: bool = False,
) -> float:
    """Critical inequality left-hand side M(delta).

    M(delta) = c0 * sqrt(sigma^2 V^2 log^3(n) / n * Psi(delta)); with
    ``general_noise`` the value is further multiplied by
    (sqrt(Psi(delta)/sigma^2) + 1), covering all noise ranges.  Logarithms
    are natural.
    """
    if not n >= 1:  # each guard also rejects NaN
        raise ValueError("n must be >= 1")
    if not sigma_sq > 0:
        raise ValueError("sigma_sq must be positive")
    if not V_sq >= 1:
        raise ValueError("V_sq must be >= 1")
    if not c0 > 0:
        raise ValueError("c0 must be positive")
    psi = psi_complexity(eigs, delta, hnorm_sq)
    base = c0 * math.sqrt(sigma_sq * V_sq * math.log(n) ** 3 / n * psi)
    if general_noise:
        base *= math.sqrt(psi / sigma_sq) + 1.0
    return base


def critical_radius(
    eigs: EigenSequence,
    sigma_sq: float,
    V_sq: float,
    n: float,
    hnorm_sq: float = 1.0,
    c0: float = 1.0,
    general_noise: bool = False,
    grid: Optional[np.ndarray] = None,
) -> float:
    """Smallest grid point delta satisfying M(delta) <= delta^2 / 2.

    Relies on M(delta)/delta being nonincreasing, so once a grid point
    satisfies the inequality all larger ones do too.

    Raises
    ------
    ValueError
        With message "no solution on grid" when even the largest grid
        point fails the inequality.
    """
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    for delta in grid:
        m = m_function(eigs, float(delta), sigma_sq, V_sq, n, hnorm_sq, c0, general_noise)
        if m <= delta * delta / 2.0:
            return float(delta)
    raise ValueError("no solution on grid")


# ---------------------------------------------------------------------------
# eigenfunction families and the kernel object
# ---------------------------------------------------------------------------


def hypercube_features(X: np.ndarray, m: int) -> np.ndarray:
    """Coordinate eigenfunctions phi_j(x) = x_j on the hypercube."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if m > X.shape[1]:
        raise ValueError(f"requested {m} coordinate features from dimension {X.shape[1]}")
    return X[:, :m]


def hermite_features(X: np.ndarray, m: int) -> np.ndarray:
    """First m normalized probabilists' Hermite polynomials He_{j-1}/sqrt((j-1)!).

    Orthonormal in L2 of the standard normal, so they serve as an
    eigenfunction family on the real line with target Q = N(0, 1).
    """
    X = np.asarray(X, dtype=float)
    x = X[:, 0] if X.ndim == 2 else X
    out = np.empty((x.size, m))
    out[:, 0] = 1.0
    if m > 1:
        out[:, 1] = x
    for k in range(1, m - 1):
        # He_{k+1} = x He_k - k He_{k-1}, divided through by sqrt((k+1)!)
        out[:, k + 1] = (x * out[:, k] - math.sqrt(k) * out[:, k - 1]) / math.sqrt(k + 1)
    return out


_FEATURE_FAMILIES = {
    "hypercube": hypercube_features,
    "hermite": hermite_features,
}


class EigenKernel:
    """Kernel K(x, z) = sum_j mu_j phi_j(x) phi_j(z), evaluated to finite rank.

    Parameters
    ----------
    eigs : EigenSequence
        Declared eigenvalues.
    features : str or callable
        Eigenfunction family: "hypercube" (phi_j(x) = x_j), "hermite", or a
        callable ``(X, m) -> (n, m)`` array of the first m eigenfunction
        values.
    rank : int, optional
        Number of retained eigen-pairs.  Required when neither the
        eigenvalue sequence nor the ambient dimension caps it: a polynomial
        sequence with Hermite or custom eigenfunctions raises ValueError
        without one.
    kappa_sq : float, optional
        Declared bound on sup_x K(x, x).  Defaults to the eigenvalue trace,
        which is exact for sup-norm-1 families such as the hypercube one.
    """

    def __init__(
        self,
        eigs: EigenSequence,
        features: str | Callable[[np.ndarray, int], np.ndarray] = "hypercube",
        rank: Optional[int] = None,
        kappa_sq: Optional[float] = None,
    ):
        self.eigs = eigs
        if callable(features):
            self.family = "custom"
            self._features = features
        else:
            if features not in _FEATURE_FAMILIES:
                raise ValueError(f"unknown eigenfunction family {features!r}")
            self.family = features
            self._features = _FEATURE_FAMILIES[features]
        if rank is None and eigs.rank is None and self.family != "hypercube":
            raise ValueError(f"{self.family} features on a poly sequence need an explicit rank")
        self.rank = int(min(eigs.length, rank)) if rank is not None else eigs.length
        if self.rank < 1:
            raise ValueError("kernel rank must be >= 1")
        self.mu = eigs.leading(self.rank)
        # a poly trace is positive but builds the 10^6-element partial-sum
        # caches, so it waits until kappa_sq is first read
        if kappa_sq is not None:
            self._kappa_sq = float(kappa_sq)
        else:
            self._kappa_sq = None if eigs.rank is None else eigs.trace()
        if self._kappa_sq is not None and not self._kappa_sq > 0:
            raise ValueError("kappa_sq must be positive")

    @property
    def kappa_sq(self) -> float:
        if self._kappa_sq is None:
            self._kappa_sq = self.eigs.trace()
        return self._kappa_sq

    def feature_matrix(self, X: np.ndarray) -> np.ndarray:
        return self._features(X, self.rank)

    def gram(self, X: np.ndarray, Z: Optional[np.ndarray] = None) -> np.ndarray:
        """Kernel matrix K[i, l] = K(X_i, Z_l) (Z defaults to X)."""
        FX = self.feature_matrix(X)
        FZ = FX if Z is None else self.feature_matrix(Z)
        return (FX * self.mu) @ FZ.T

    def kappa_consistent(self) -> bool:
        """Whether kappa_sq >= trace, as required for sup-norm-1 families."""
        return self.kappa_sq >= np.sum(self.mu) - 1e-12

    def to_json(self) -> dict:
        if self.family == "custom":
            raise ValueError("custom eigenfunction families are not serializable")
        return {
            "eigs": self.eigs.to_json(),
            "eigenfunctions": self.family,
            "rank": self.rank,
            "kappa_sq": self.kappa_sq,
        }

    @classmethod
    def from_json(cls, obj) -> "EigenKernel":
        return cls(
            EigenSequence.from_json(obj["eigs"]),
            obj.get("eigenfunctions", "hypercube"),
            rank=obj.get("rank"),
            kappa_sq=obj.get("kappa_sq"),
        )
