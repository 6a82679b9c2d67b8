"""Mercer kernels represented by their eigen-expansion.

A kernel is declared by a nonincreasing eigenvalue sequence (finite rank,
polynomial decay, or an explicit list) together with an eigenfunction
family that is orthonormal in L2 of the target distribution.  All spectral
functionals used by the bound calculators live here: the effective
dimension d(delta), the eigenvalue tail sums, the complexity
function Psi(delta), and the critical radius solving M(delta) <= delta^2/2.

Every sequence is a finite sum plus an analytic tail.  For a list the sum
runs over the list and the tail is 0; for polynomial decay it runs over
mu_j, j <= ``j_max`` (default 10**6), and the tail is the integral bound
``sum_{j>J} c j^(-2a) <= c J^(1-2a)/(2a-1)``.  Each functional is one
expression over suffix sums, the tail and an exact count of the
eigenvalues above a level, so every output is deterministic with a known
truncation error.

A list's suffix sums are one reversed cumsum, taken when the sequence is
built.  A poly suffix sum c * sum_{j=lo+1}^{J} j^(-p) is a closed form:
32 terms added directly and an Euler-Maclaurin sum for the rest, within a
few 1e-16 relative of the Hurwitz zeta difference
zeta(p, lo+1) - zeta(p, J+1).  Nothing is cached or shared between
sequences or calls.

The counts, the sums and the functionals built on them take a number or
an array: a grid calculator evaluates its whole grid in one call, and a
number is the one-element case, with the same floats.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import (NumericalError, TruncationExceeded, real_number, refuse_unread_keys,
                     required_key, whole_number)

DEFAULT_J_MAX = 10**6

#: the JSON keys each kind of sequence reads
_JSON_KEYS = {"poly": {"kind", "alpha", "c", "j_max"}, "finite": {"kind", "values"},
              "explicit": {"kind", "values", "j_max"}}

#: log-spaced default grid used for delta and lambda searches.
DEFAULT_GRID_MIN = 1e-4
DEFAULT_GRID_MAX = 10.0
DEFAULT_GRID_POINTS = 400


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
    over ``length`` terms (the list, or mu_1..mu_{j_max} for poly decay)
    plus an analytic tail beyond them (0 for a list).  A list keeps its
    suffix sums, 8 bytes per value; a poly sequence keeps no array, and its
    suffix sums are closed forms within a few 1e-16 relative of the Hurwitz
    zeta difference.  ``count_at_least``, ``tail_sum`` and
    ``resolvent_sum`` take a number or an array and give each array entry
    the number's result.
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
        self.j_max = whole_number(j_max, "j_max")
        if self.j_max < 1:
            raise ValueError("j_max must be >= 1")
        if kind == "poly":
            self.alpha = None if alpha is None else real_number(alpha, "alpha")
            self.c = None if c is None else real_number(c, "c")
            if self.alpha is None or not self.alpha > 0.5:  # also rejects NaN
                raise ValueError("poly decay requires alpha > 1/2 for a finite trace")
            if self.c is None or not 0 < self.c < math.inf:
                raise ValueError("poly decay requires a finite scale c > 0")
            self.values = None
            self.length = self.j_max
            # integral comparison: sum_{j>J} c j^(-2a) <= c J^(1-2a)/(2a-1)
            self._tail = self.c * self.j_max ** (1.0 - 2.0 * self.alpha) / (2.0 * self.alpha - 1.0)
        else:
            # a copy: the suffix sums below must not go stale if the caller's array changes
            vals = np.array(values if values is not None else [], dtype=float)
            if vals.ndim != 1:
                raise ValueError("eigenvalues must be a 1-d sequence")
            if not (np.all(np.isfinite(vals)) and np.all(vals >= 0) and np.all(np.diff(vals) <= 0)):
                raise ValueError("eigenvalues must be finite, nonnegative and nonincreasing")
            self.alpha = None
            self.c = None
            self.values = vals
            self.length = len(vals)
            self._tail = 0.0
            # _suffix[k] = sum_{j > k} mu_j, summed one term at a time from the last
            self._suffix = np.cumsum(vals[::-1])[::-1]

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
        kind = required_key(obj, "kind", "an 'eigs'")
        if kind not in _JSON_KEYS:
            raise ValueError(f"unknown eigenvalue sequence kind {kind!r}")
        what = f"{'an' if kind == 'explicit' else 'a'} {kind} 'eigs'"
        refuse_unread_keys(obj, _JSON_KEYS[kind], what)
        if kind == "poly":
            return cls.poly_decay(required_key(obj, "alpha", what), obj.get("c", 1.0),
                                  obj.get("j_max", DEFAULT_J_MAX))
        if kind == "finite":
            return cls.finite_rank(required_key(obj, "values", what))
        return cls.explicit(required_key(obj, "values", what), obj.get("j_max", DEFAULT_J_MAX))

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
            return _poly_values(self.alpha, self.c, m)
        out = np.zeros(m)
        k = min(m, len(self.values))
        out[:k] = self.values[:k]
        return out

    def count_at_least(self, level: float | np.ndarray) -> int | np.ndarray:
        """Number of indices j <= length with mu_j >= level, exact under float comparison.

        ``level`` is a number (an int is returned) or an array of levels (an
        int array of its shape).  A poly count is the closed form corrected,
        one step at a time and all levels at once, against ``eigenvalue(k)``.
        """
        levels = np.asarray(level, dtype=float)
        flat = levels.reshape(-1)
        if np.isnan(flat).any():
            raise ValueError("count_at_least needs a level that is not NaN")
        if self.kind != "poly":
            # the values are nonincreasing, so those >= level are a prefix
            return _like(levels, np.searchsorted(-self.values, -flat, side="right"))
        k = np.full(flat.shape, self.j_max, dtype=np.int64)
        live = np.flatnonzero(flat > 0)  # a level <= 0 counts every index
        with np.errstate(divide="ignore", over="ignore"):
            x = (self.c / flat[live]) ** (1.0 / (2.0 * self.alpha))
        k[live] = np.where(x < self.j_max, np.floor(x + 1e-12), self.j_max)
        # the closed form can be off by rounding: correct it against mu_j itself
        rows = live
        while rows.size:
            rows = rows[k[rows] >= 1]
            rows = rows[np.array([self.eigenvalue(j) for j in k[rows].tolist()]) < flat[rows]]
            k[rows] -= 1
        rows = live
        while rows.size:
            rows = rows[k[rows] < self.j_max]
            rows = rows[np.array([self.eigenvalue(j) for j in (k[rows] + 1).tolist()])
                        >= flat[rows]]
            k[rows] += 1
        return _like(levels, k)

    # ---- spectral sums ---------------------------------------------------

    def tail_sum(self, j0: int | np.ndarray) -> float | np.ndarray:
        """sum_{j > j0} mu_j for whole j0 >= 0: the sum up to ``length`` plus the analytic tail.

        ``j0`` is a number (a float is returned) or an array (a float array
        of its shape).
        """
        idx = np.asarray(j0)
        flat = idx.reshape(-1)
        if not np.all(flat >= 0):  # also rejects NaN
            raise ValueError("tail_sum needs j0 >= 0")
        if not np.all(np.floor(flat) == flat):
            raise ValueError("tail_sum needs whole-number j0")
        out = np.full(flat.shape, self._tail)
        inside = flat < self.length  # beyond it only the analytic tail is left
        if inside.any():
            ks = flat[inside].astype(np.int64)
            out[inside] += (self._suffix[ks] if self.kind != "poly"
                            else _poly_suffix(2.0 * self.alpha, self.c, ks, self.j_max))
        return _like(idx, out)

    def resolvent_sum(self, s: float | np.ndarray) -> float | np.ndarray:
        """sum_j mu_j / (mu_j + s) for s > 0, a number or an array of shifts.

        A list is summed exactly.  For poly decay the sum is exact over the
        indices where mu_j >= 1e-4 s; the rest up to j_max uses the two-term
        expansion mu/s - (mu/s)^2, whose relative error is <= 1e-8, through
        the closed-form sums of mu and mu^2, plus the analytic tail beyond
        j_max.  An array of shifts computes mu once, up to the largest exact
        index; each shift's exact part is its own sum.
        """
        shifts = np.asarray(s, dtype=float)
        flat = shifts.reshape(-1)
        if not np.all(flat > 0):  # also rejects NaN
            raise ValueError("resolvent shift must be positive")
        if self.kind != "poly":
            v = self.values
            return _like(shifts, np.array([np.sum(v / (v + t)) for t in flat.tolist()]))
        jc = self.count_at_least(1e-4 * flat)
        mu = _poly_values(self.alpha, self.c, int(jc.max(initial=0)))
        exact, terms = np.empty(flat.shape), np.empty(len(mu))
        for i, (j, t) in enumerate(zip(jc.tolist(), flat.tolist())):
            part, out = mu[:j], terms[:j]
            np.divide(part, np.add(part, t, out=out), out=out)
            exact[i] = np.add.reduce(out)  # np.sum's pairwise sum, without its wrapper
        p = 2.0 * self.alpha
        suf_mu = _poly_suffix(p, self.c, jc, self.j_max)
        suf_mu2 = _poly_suffix(2.0 * p, self.c * self.c, jc, self.j_max)
        with np.errstate(over="ignore"):
            mid = suf_mu / flat - suf_mu2 / flat / flat  # never forms s * s, which underflows
            return _like(shifts, exact + mid + self._tail / flat)


def _like(arg: np.ndarray, out: np.ndarray):
    """``out`` in the shape of ``arg``, as a Python number when ``arg`` is one."""
    return out.item() if arg.ndim == 0 else out.reshape(arg.shape)


def _poly_values(alpha: float, c: float, m: int) -> np.ndarray:
    """mu_j = c * j^(-2 alpha) for j = 1..m, computed in one array."""
    mu = np.arange(1, m + 1, dtype=float)
    np.power(mu, -2.0 * alpha, out=mu)
    np.multiply(c, mu, out=mu)
    return mu


#: terms after lo that ``_poly_suffix`` adds directly, a power of 2
_DIRECT = 32
#: B_2k / (2k)! for k = 1..4
_BERNOULLI = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)


def _poly_suffix(p: float, c: float, lo: np.ndarray, J: int) -> np.ndarray:
    """c * sum_{j=lo+1}^{J} j^(-p), p > 1, for each entry of the int array ``lo``.

    The 32 terms j = lo+1..lo+32 (those <= J) are added pairwise, in five
    levels, and the rest, over [a, J] with a = lo + 33, is Euler-Maclaurin's
    sum: the integral, taken through log1p/expm1 so that a short range keeps
    its digits, the end terms (f(a) + f(J))/2 and the Bernoulli terms
    B_2..B_8, whose remainder is below 1e-16 relative for a >= 33.  Every
    entry is computed on its own, so an array entry is the number's result.
    """
    j = lo + np.arange(1, _DIRECT + 1)[:, None]
    terms = np.where(j <= J, np.power(j, -p, dtype=float), 0.0)
    while len(terms) > 1:
        terms = terms[0::2] + terms[1::2]
    out = terms[0]
    a = lo + (_DIRECT + 1.0)
    far = a <= J
    if far.any():
        x = np.stack((a[far], np.full(np.count_nonzero(far), float(J))))  # the two ends
        f = x ** -p
        # B_2k/(2k)! (f^(2k-1)(J) - f^(2k-1)(a)), f^(2k-1)(x) = -p(p+1)..(p+2k-2) x^(-p-2k+1)
        g, rise, step = f / x, p, 1.0 / (x * x)
        bernoulli = np.zeros(x.shape[1])
        for k, b in enumerate(_BERNOULLI, start=1):
            bernoulli += b * rise * (g[0] - g[1])
            g, rise = g * step, rise * (p + 2 * k - 1) * (p + 2 * k)
        # (a^(1-p) - J^(1-p)) / (p-1) = a^(1-p) (1 - (J/a)^(1-p)) / (p-1)
        span = -np.expm1((1.0 - p) * np.log1p((J - x[0]) / x[0])) * (f[0] * x[0]) / (p - 1.0)
        out[far] += span + ((f[0] + f[1]) / 2.0 + bernoulli)
    return c * out


# ---------------------------------------------------------------------------
# module-level operations on eigenvalue sequences
# ---------------------------------------------------------------------------


def effective_dim(eigs: EigenSequence, delta: float | np.ndarray) -> int | np.ndarray:
    """Smallest index whose eigenvalue drops to delta^2 or below.

    d(delta) = min{ j >= 1 : mu_j <= delta^2 }, one more than the number
    of eigenvalues above delta^2.  For a finite-rank sequence with delta^2
    below the last nonzero eigenvalue this is D + 1, since mu_{D+1} = 0.
    ``delta`` is a number or an array of them, as in ``count_at_least``.

    Raises
    ------
    TruncationExceeded
        For infinite sequences when no index <= j_max satisfies the
        condition.
    """
    deltas = np.asarray(delta, dtype=float)
    if not np.all(deltas > 0):  # also rejects NaN
        raise ValueError("delta must be positive")
    with np.errstate(over="ignore"):
        above = eigs.count_at_least(np.nextafter(deltas * deltas, math.inf))
    if eigs.rank is None and np.any(above >= eigs.length):
        raise TruncationExceeded("index exceeds truncation")
    return above + 1


def psi_complexity(eigs: EigenSequence, delta: float | np.ndarray,
                   hnorm_sq: float = 1.0) -> float | np.ndarray:
    """Kernel complexity Psi(delta) = sum_j min{delta^2, mu_j * hnorm_sq}, at one delta or an array."""
    deltas = np.asarray(delta, dtype=float)
    flat = deltas.reshape(-1)
    if not (np.all(flat >= 0) and hnorm_sq >= 0):  # also rejects NaN
        raise ValueError("delta and hnorm_sq must be nonnegative")
    psi = np.zeros(flat.shape)
    if hnorm_sq != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as in float arithmetic
            d2 = flat * flat
            live = np.flatnonzero(d2)
            d2 = d2[live]
            # mu_j * h >= d2 on j <= count: those terms contribute d2 each; the level
            # stays positive where d2 / h underflows, so zero eigenvalues never count
            count = eigs.count_at_least(np.maximum(d2 / hnorm_sq, math.ulp(0.0)))
            psi[live] = count * d2 + hnorm_sq * eigs.tail_sum(count)
    return _like(deltas, psi)


def m_function(
    eigs: EigenSequence,
    delta: float | np.ndarray,
    sigma_sq: float,
    V_sq: float,
    n: float,
    hnorm_sq: float = 1.0,
    c0: float = 1.0,
    general_noise: bool = False,
) -> float | np.ndarray:
    """Critical inequality left-hand side M(delta), at one delta or an array.

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
    psi = np.asarray(psi_complexity(eigs, delta, hnorm_sq))
    with np.errstate(over="ignore"):
        base = c0 * np.sqrt(sigma_sq * V_sq * math.log(n) ** 3 / n * psi)
        if general_noise:
            base *= np.sqrt(psi / sigma_sq) + 1.0
    return _like(psi, base)


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
    satisfies the inequality all larger ones do too.  M is evaluated at
    every grid point at once, so an invalid delta is refused wherever it
    sits in the grid.

    Raises
    ------
    NumericalError
        With message "no solution on grid" when even the largest grid
        point fails the inequality.
    """
    grid = (default_grid() if grid is None else np.asarray(grid, dtype=float)).reshape(-1)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    m = m_function(eigs, grid, sigma_sq, V_sq, n, hnorm_sq, c0, general_noise)
    with np.errstate(over="ignore"):
        hits = np.flatnonzero(m <= grid * grid / 2.0)
    if hits.size == 0:
        raise NumericalError("no solution on grid")
    return float(grid[hits[0]])


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
    features : str
        Eigenfunction family: "hypercube" (phi_j(x) = x_j) or "hermite";
        any other value, a callable included, raises ValueError.
    rank : int, optional
        Number of retained eigen-pairs.  Required when neither the
        eigenvalue sequence nor the ambient dimension caps it: a polynomial
        sequence with Hermite eigenfunctions raises ValueError without one.
    kappa_sq : float, optional
        Declared bound on sup_x K(x, x), positive and finite.  Defaults to
        the sum of the kept eigenvalues mu_1..mu_rank, which is exact for
        sup-norm-1 families such as the hypercube one.
    """

    def __init__(
        self,
        eigs: EigenSequence,
        features: str = "hypercube",
        rank: Optional[int] = None,
        kappa_sq: Optional[float] = None,
    ):
        self.eigs = eigs
        if features not in _FEATURE_FAMILIES:
            raise ValueError(f"unknown eigenfunction family {features!r}")
        self.family = features
        self._features = _FEATURE_FAMILIES[features]
        if rank is None and eigs.rank is None and self.family != "hypercube":
            raise ValueError(f"{self.family} features on a poly sequence need an explicit rank")
        self.rank = eigs.length if rank is None else min(eigs.length, whole_number(rank, "rank"))
        if self.rank < 1:
            raise ValueError("kernel rank must be >= 1")
        self.mu = eigs.leading(self.rank)
        self.live = int(np.count_nonzero(self.mu))  # mu is nonincreasing: mu[:live] > 0
        self.kappa_sq = (float(np.sum(self.mu)) if kappa_sq is None
                         else real_number(kappa_sq, "kappa_sq"))
        if not self.kappa_sq > 0:  # also rejects NaN
            raise ValueError("kappa_sq must be positive")
        if not self.kappa_sq < math.inf:
            raise ValueError("kappa_sq must be finite")

    def feature_matrix(self, X: np.ndarray) -> np.ndarray:
        return self._features(X, self.rank)

    def gram(self, X: np.ndarray) -> np.ndarray:
        """Kernel matrix K[i, l] = K(X_i, X_l)."""
        F = self.feature_matrix(X)
        return (F * self.mu) @ F.T

    def to_json(self) -> dict:
        return {
            "eigs": self.eigs.to_json(),
            "eigenfunctions": self.family,
            "rank": self.rank,
            "kappa_sq": self.kappa_sq,
        }

    @classmethod
    def from_json(cls, obj) -> "EigenKernel":
        eigs = required_key(obj, "eigs", "a 'kernel'")
        if not isinstance(eigs, dict):
            raise ValueError("config needs a JSON object under 'eigs'")
        refuse_unread_keys(obj, {"eigs", "eigenfunctions", "rank", "kappa_sq"}, "a 'kernel'")
        return cls(
            EigenSequence.from_json(eigs),
            obj.get("eigenfunctions", "hypercube"),
            rank=obj.get("rank"),
            kappa_sq=obj.get("kappa_sq"),
        )
