"""Mercer kernels represented by their eigen-expansion.

A kernel is declared by a nonincreasing eigenvalue sequence (finite rank,
polynomial decay, or an explicit list) together with an eigenfunction
family that is orthonormal in L2 of the target distribution.  All spectral
functionals used by the bound calculators live here: the effective
dimension d(delta), the eigenvalue tail sums, the complexity
function Psi(delta), and the critical radius solving M(delta) <= delta^2/2.

Every sequence is a summed head plus an analytic tail.  The head of a list
is the list itself and its tail is 0; the head of polynomial decay is
mu_j for j <= ``j_max`` (default 10**6) and its tail is the integral bound
``sum_{j>J} c j^(-2a) <= c J^(1-2a)/(2a-1)``.  Each functional is one
expression over the head's suffix sums, the tail and an exact count of
the eigenvalues above a level, so every output is deterministic with a
known truncation error.

A head keeps both suffix sums at every 256th index, 16 * j_max / 256
bytes, from one pass at its first sum, and the arrays of mu and its
suffix sums only up to about the largest index a resolvent sum has asked
for: 24 bytes per index, not 24 * j_max bytes.  A tail sum beyond the
arrays adds at most 255 terms to the checkpoint above it and grows
nothing.  Every value is bit for bit the one summed over the whole head
in one array.  A poly head is shared per (alpha, c, j_max) per process
and read-only: every sequence with that key reads the same arrays, and
the ``HEAD_CACHE_SIZE`` most recently used heads stay alive.

The counts, the sums and the functionals built on them take a number or
an array: a grid calculator evaluates its whole grid in one call, and a
number is the one-element case, with the same floats.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericalError, TruncationExceeded, whole_number

DEFAULT_J_MAX = 10**6

#: number of poly heads (alpha, c, j_max) kept alive per process.
HEAD_CACHE_SIZE = 4
#: indices summed per chunk of a head's pass, and between two of its checkpoints
_CHUNK = 2**16
_STRIDE = 256

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
    over a head of ``length`` terms (the list, or mu_1..mu_{j_max} for
    poly decay) plus an analytic tail beyond it (0 for a list).  A poly
    head is shared per (alpha, c, j_max) per process and read-only.  It
    holds 16 * j_max / 256 bytes of checkpoints plus 24 bytes per index up
    to about the largest one a resolvent sum has asked for, and every sum
    equals, bit for bit, the one over the whole head in one array.
    ``count_at_least``, ``tail_sum`` and ``resolvent_sum`` take a number or
    an array and give each array entry the number's result.
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
        # a list's head, built at its first sum; a poly head lives in _poly_head
        self._mu_head: Optional[_Head] = None

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
            return _poly_values(self.alpha, self.c, m)
        out = np.zeros(m)
        k = min(m, len(self.values))
        out[:k] = self.values[:k]
        return out

    def count_at_least(self, level: float | np.ndarray) -> int | np.ndarray:
        """Number of head indices j with mu_j >= level, exact under float comparison.

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
        live = np.flatnonzero(flat > 0)  # a level <= 0 counts the whole head
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

    def _head(self) -> _Head:
        if self.kind == "poly":
            return _poly_head(self.alpha, self.c, self.j_max)
        if self._mu_head is None:
            values = self.values
            self._mu_head = _Head(lambda lo, hi: values[lo:hi], self.length)
        return self._mu_head

    def tail_sum(self, j0: int | np.ndarray) -> float | np.ndarray:
        """sum_{j > j0} mu_j for whole j0 >= 0: the head's suffix sum plus the analytic tail.

        ``j0`` is a number (a float is returned) or an array (a float array
        of its shape).  The head arrays do not grow: a suffix sum beyond
        them starts from the checkpoint at or above j0.
        """
        idx = np.asarray(j0)
        flat = idx.reshape(-1)
        if not np.all(flat >= 0):  # also rejects NaN
            raise ValueError("tail_sum needs j0 >= 0")
        if not np.all(np.floor(flat) == flat):
            raise ValueError("tail_sum needs whole-number j0")
        out = np.full(flat.shape, self._tail)
        inside = flat < self.length  # beyond it no head term is left
        if inside.any():
            out[inside] += self._head().suffix_sum(flat[inside].astype(np.int64))
        return _like(idx, out)

    def resolvent_sum(self, s: float | np.ndarray) -> float | np.ndarray:
        """sum_j mu_j / (mu_j + s) for s > 0, a number or an array of shifts.

        A list is summed exactly.  For poly decay the sum is exact over the
        head where mu_j >= 1e-4 s; the remainder uses the two-term expansion
        mu/s - (mu/s)^2 whose relative error is <= 1e-8, plus the analytic
        tail beyond j_max.  An array of shifts reads one head, grown once to
        the largest exact index; each shift's exact part is its own sum.
        """
        shifts = np.asarray(s, dtype=float)
        flat = shifts.reshape(-1)
        if not np.all(flat > 0):  # also rejects NaN
            raise ValueError("resolvent shift must be positive")
        if self.kind != "poly":
            v = self.values
            return _like(shifts, np.array([np.sum(v / (v + t)) for t in flat.tolist()]))
        jc = self.count_at_least(1e-4 * flat)
        top = int(jc.max(initial=0))
        mu, suf_mu, suf_mu2 = self._head().upto(top)
        head, terms = np.empty(flat.shape), np.empty(top)
        for i, (j, t) in enumerate(zip(jc.tolist(), flat.tolist())):
            part, out = mu[:j], terms[:j]
            np.divide(part, np.add(part, t, out=out), out=out)
            head[i] = np.add.reduce(out)  # np.sum's pairwise sum, without its wrapper
        with np.errstate(over="ignore"):
            mid = suf_mu[jc] / flat - suf_mu2[jc] / flat / flat  # never forms s * s, which underflows
            return _like(shifts, head + mid + self._tail / flat)


def _like(arg: np.ndarray, out: np.ndarray):
    """``out`` in the shape of ``arg``, as a Python number when ``arg`` is one."""
    return out.item() if arg.ndim == 0 else out.reshape(arg.shape)


class _Head:
    """Suffix sums of mu_1..mu_J: suf_mu[k] = sum_{j > k} mu_j, suf_mu2 likewise of mu^2.

    One pass from J down to 1, in chunks of ``_CHUNK`` indices, keeps both
    sums at every ``_STRIDE``-th k (16 J / _STRIDE bytes).  The full arrays
    are kept only up to K, the largest k asked for so far rounded up to a
    checkpoint, at least doubling when K grows; the new part is summed
    down from the checkpoint at the new K.  Each sum is accumulated
    small-to-large, so that tiny tails are not lost to cancellation, in the
    same sequence of additions from J downward whatever K is, so every
    value is the same as if the whole head were summed in one array.
    """

    def __init__(self, values: Callable[[int, int], np.ndarray], length: int):
        self._values = values  # (lo, hi) -> mu_{lo+1}..mu_hi
        self.length = length
        self._marks = np.zeros((2, length // _STRIDE + 1))
        for lo, hi, _, sums in self._sweep(length, 0):
            first = -(-lo // _STRIDE) * _STRIDE
            self._marks[:, first // _STRIDE:hi // _STRIDE + 1] = sums[:, first - lo::_STRIDE]
        mu = np.empty(0)
        for arr in (mu, self._marks):
            arr.flags.writeable = False
        self._arrays = (mu, self._marks[:, :1])

    def upto(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (mu, suf_mu, suf_mu2) over k' <= K for some K >= k; mu[i] is mu_{i+1}."""
        mu, sums = self._arrays
        K = len(mu)
        if k > K:
            top = min(self.length, -(-max(k, 2 * K) // _STRIDE) * _STRIDE)
            mu, sums = np.empty(top), np.empty((2, top + 1))
            mu[:K], sums[:, :K + 1] = self._arrays
            for lo, hi, chunk_mu, chunk_sums in self._sweep(top, K):
                mu[lo:hi] = chunk_mu
                sums[:, lo:hi + 1] = chunk_sums
            for arr in (mu, sums):
                arr.flags.writeable = False
            # one store of a consistent pair: two threads growing at once build the
            # same values, so the one stored last loses nothing the other needs
            self._arrays = (mu, sums)
        return mu, sums[0], sums[1]

    def suffix_sum(self, ks: np.ndarray) -> np.ndarray:
        """suf_mu[k] for each k in ``ks`` (0 <= k < J), without growing the arrays.

        A k beyond the arrays is read at its checkpoint, or ``_sweep`` adds
        the at most ``_STRIDE - 1`` terms below the checkpoint above it, so
        the value is the one the whole pass gives.
        """
        mu, sums = self._arrays
        out = np.empty(len(ks))
        held = ks <= len(mu)
        out[held] = sums[0, ks[held]]
        marked = ~held & (ks % _STRIDE == 0)
        out[marked] = self._marks[0, ks[marked] // _STRIDE]
        far = np.flatnonzero(~held & ~marked)
        tops = (ks[far] // _STRIDE + 1) * _STRIDE
        for top in set(tops.tolist()):  # np.unique would import numpy.ma
            rows = far[tops == top]
            for start, _, _, run in self._sweep(min(top, self.length), int(ks[rows].min())):
                out[rows] = run[0, ks[rows] - start]
        return out

    def _sweep(self, hi: int, lo: int):
        """(start, stop, mu, sums) for the chunks of [lo, hi), from the top down.

        ``mu`` holds mu_{start+1}..mu_stop and ``sums`` the two suffix sums
        at k = start..stop, continued from the checkpoint at ``hi`` (or from
        mu_J itself at J).
        """
        above = None if hi == self.length else self._marks[:, hi // _STRIDE]
        while hi > lo:
            start = max(lo, hi - _CHUNK)
            mu = self._values(start, hi)
            sums = np.empty((2, hi - start + 1))
            sums[0, :-1] = mu
            np.multiply(mu, mu, out=sums[1, :-1])
            sums[:, -1] = 0.0 if above is None else above
            for row in sums:
                run = row[-2::-1] if above is None else row[::-1]
                np.cumsum(run, out=run)
            yield start, hi, mu, sums
            hi, above = start, sums[:, 0].copy()


def _poly_values(alpha: float, c: float, m: int, start: int = 0) -> np.ndarray:
    """mu_j = c * j^(-2 alpha) for j = start+1..m, computed in one array."""
    mu = np.arange(start + 1, m + 1, dtype=float)
    np.power(mu, -2.0 * alpha, out=mu)
    np.multiply(c, mu, out=mu)
    return mu


@functools.lru_cache(maxsize=HEAD_CACHE_SIZE)
def _poly_head(alpha: float, c: float, j_max: int) -> _Head:
    """The head of (alpha, c, j_max), built once, since every such sequence reads it."""
    return _Head(lambda lo, hi: _poly_values(alpha, c, hi, lo), j_max)


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
        Declared bound on sup_x K(x, x).  Defaults to the sum of the kept
        eigenvalues mu_1..mu_rank, which is exact for sup-norm-1 families
        such as the hypercube one.
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
        self.kappa_sq = float(np.sum(self.mu) if kappa_sq is None else kappa_sq)
        if not self.kappa_sq > 0:  # also rejects NaN
            raise ValueError("kappa_sq must be positive")

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
        if not isinstance(obj["eigs"], dict):
            raise ValueError("config needs a JSON object under 'eigs'")
        return cls(
            EigenSequence.from_json(obj["eigs"]),
            obj.get("eigenfunctions", "hypercube"),
            rank=obj.get("rank"),
            kappa_sq=obj.get("kappa_sq"),
        )
