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

The hypercube pair's samplers fill float64 rows from one block stream,
which ``sample_hard_pair_moments`` reduces to (x^T x, x^T e) instead.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import real_number, refuse_unread_keys, required_key, whole_number
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
        with open(path) as fh:
            lines = fh.read().splitlines()
        header = next(csv.reader(lines[:1]), None)
        if header is None:
            raise ValueError(f"dataset CSV {path} is empty")
        ncols = len(header)
        if not any(map(str.strip, lines[1:])):
            raise ValueError(f"dataset CSV {path} has a header but no rows")
        try:
            table = np.loadtxt(lines[1:], delimiter=",", ndmin=2, comments=None)
            width = table.shape[1]
        except ValueError:
            # loadtxt measures a ragged row against the first row, not the header
            width = next((len(row) for row in csv.reader(lines[1:]) if len(row) != ncols), ncols)
            if width == ncols:
                raise
        if width != ncols:
            raise ValueError(f"dataset CSV {path}: a row has {width} fields, the header {ncols}")
        if not np.all(np.isfinite(table)):
            raise ValueError(f"dataset CSV {path}: a row holds a value that is not finite")
        has_weight = header[-1] == "weight"
        d = ncols - 2 if has_weight else ncols - 1
        return cls(table[:, :d], table[:, d], table[:, d + 1] if has_weight else None)


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
        """The pair of a config object, which may hold no key its family does not read."""
        family = required_key(obj, "family", "a 'pair'")
        what = f"pair family {family!r}"
        if family == "hypercube":
            refuse_unread_keys(obj, {"family", "D", "B"}, what)
            return hypercube_hard_pair(whole_number(required_key(obj, "D", what), "D"),
                                       real_number(obj.get("B", 1.0), "B"))
        if family == "gaussian_scale":
            refuse_unread_keys(obj, {"family", "tau_sq"}, what)
            return gaussian_scale_pair(real_number(required_key(obj, "tau_sq", what), "tau_sq"))
        raise ValueError(f"unknown shift family {family!r}")


#: rows per block of the hard-pair draws; also bounds the entries of a
#: block Gram of a +-1/0 design, so float32 block products are exact
HYPERCUBE_BLOCK_ROWS = 2048


def _check_hard_pair(D: int, B: float) -> None:
    if not D >= 1:  # each guard also rejects NaN
        raise ValueError("D must be >= 1")
    if not 1 <= B < math.inf:
        raise ValueError("B must be finite and >= 1")


def _hard_pair_blocks(n: int, D: int, B: float, sigma: float, rng: np.random.Generator):
    """Check the arguments, then iterate over n hard-pair source points in row blocks.

    A block of ``HYPERCUBE_BLOCK_ROWS`` rows comes as its points, an (m, D)
    float32 array of +-1/0, and their N(0, sigma^2) noise (None when sigma
    = 0).  The blocks hold the values of, and running the iterator out
    leaves the generator as, ``rng.integers(0, 2, size=(n, D)) * 2 - 1``
    with x_1 = 0 where ``rng.random(n) >= 1 / B``, then
    ``rng.normal(0.0, sigma, size=n)``; B = 1 draws no mask, sigma = 0 no noise.
    At range 2, ``integers`` keeps the top bit of one 32-bit draw (Lemire's
    multiply-shift, ACM TOMACS 2019, never rejects), and each 32-bit draw
    is the low, then the high half of one 64-bit word, the unused half
    buffered in the state.  So the signs are the top bits of the half-words
    of ``random_raw``, made +-1 float32 in place by
    ``(u & 0x80000000) ^ 0xBF800000``, starting with a half-word buffered
    on entry.  The mask and noise follow all n * D signs in the stream, so
    they come from copies moved past the signs (the noise also past the
    mask) by PCG64's ``advance``.  Signs alone take PCG64, PCG64DXSM, Philox
    or SFC64, a mask or noise needs PCG64, and any other generator raises
    ``TypeError``; nothing is drawn before every argument, n >= 0
    included, is checked.
    """
    _check_hard_pair(D, B)
    if not n >= 0:
        raise ValueError("n must be >= 0")
    if not 0 <= sigma < math.inf:  # also rejects NaN
        raise ValueError("sigma must be finite and nonnegative")
    bitgen = rng.bit_generator
    masked, noisy = B > 1, sigma > 0
    allowed = ((np.random.PCG64,) if masked or noisy else
               (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64))
    if not isinstance(bitgen, allowed):
        raise TypeError(f"this hard-pair draw needs {' or '.join(g.__name__ for g in allowed)}, "
                        f"not {type(bitgen).__name__}")
    entry = bitgen.state
    buffered = bool(n * D and entry["has_uint32"])
    halves = n * D - buffered
    words = (halves + 1) // 2

    def advanced(steps: int) -> np.random.Generator:
        gen = np.random.PCG64(0)  # a third of a deepcopy's cost; the seed is overwritten
        gen.state = entry
        return np.random.Generator(gen.advance(steps))

    mask_rng = advanced(words) if masked else None
    noise_rng = advanced(words + n * masked) if noisy else None

    def blocks():
        carry = np.uint32(entry["uinteger"]) if buffered else None
        uinteger = entry["uinteger"]
        for i in range(0, n, HYPERCUBE_BLOCK_ROWS):
            m = min(HYPERCUBE_BLOCK_ROWS, n - i)
            size = m * D
            # as little-endian bytes, each word reads as its low, then its high half
            raw = bitgen.random_raw((size - (carry is not None) + 1) // 2).astype(
                "<u8", copy=False).view("<u4")
            if len(raw):
                uinteger = int(raw[-1])
            if carry is not None:
                raw = np.concatenate(([carry], raw))
            carry = raw[size] if len(raw) > size else None
            np.bitwise_and(raw, 0x80000000, out=raw)
            np.bitwise_xor(raw, 0xBF800000, out=raw)  # -1.0 as float32, +1.0 with the top bit
            a = raw.view(np.float32)[:size].reshape(m, D)
            if masked:
                a[mask_rng.random(m) >= 1.0 / B, 0] = 0
            yield a, noise_rng.normal(0.0, sigma, size=m) if noisy else None
            del raw, a  # the caller drops its reference too before the next block
        # the caller's generator as the noise, else the mask, else the signs leave it,
        # with the half-word buffer as integers() leaves it: the high half of its
        # last word, still unused when an odd count of half-words was drawn
        state = (noise_rng or mask_rng or rng).bit_generator.state
        state["uinteger"] = uinteger
        state["has_uint32"] = halves % 2 if words else int(n * D == 0 and entry["has_uint32"])
        bitgen.state = state

    return blocks()


#: rows of each float64 sub-block in the x^T e sum: an eighth of a sign
#: block, so the sub-block's float64 copy is 1 MiB at D = 512
_XTE_ROWS = HYPERCUBE_BLOCK_ROWS // 8


def sample_hard_pair_moments(
    n: int, D: int, B: float, sigma: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(x^T x, x^T e) in float64 of n hard-pair source points x and N(0, sigma^2) noise e.

    The sample is that of ``hypercube_hard_pair(D, B).sample_source(n, rng)``
    followed by ``rng.normal(0.0, sigma, size=n)`` (no noise draw when
    sigma = 0), and the generator is left in the state that draw leaves,
    but no n x D array is formed: the blocks of ``_hard_pair_blocks``
    are reduced one at a time, so memory is O(HYPERCUBE_BLOCK_ROWS * D + D^2)
    whatever n is.  A block's float32 Gram, exact since every entry is an
    integer below 2^24, is added to x^T x, so x^T x equals the float64
    product bit for bit; its noise enters x^T e in float64 over sub-blocks
    of ``_XTE_ROWS`` rows.  Unless B = 1 and sigma = 0 the bit generator
    must be PCG64; any other raises ``TypeError``.
    """
    blocks = _hard_pair_blocks(n, D, B, sigma, rng)
    xtx = np.zeros((D, D))
    xte = np.zeros(D)
    sub = np.empty((min(n, _XTE_ROWS), D)) if sigma > 0 else None
    for a, e in blocks:
        xtx += a.T @ a
        if e is not None:
            for j in range(0, len(a), _XTE_ROWS):
                blk = sub[:min(_XTE_ROWS, len(a) - j)]
                np.copyto(blk, a[j:j + len(blk)])
                xte += e[j:j + len(blk)] @ blk
        del a  # free this block before the next one is drawn
    return xtx, xte


def _hard_pair_rows(n: int, D: int, B: float, rng: np.random.Generator) -> np.ndarray:
    """n hard-pair source points as one float64 array, filled block by block."""
    blocks = _hard_pair_blocks(n, D, B, 0.0, rng)
    x = np.empty((n, D))
    i = 0
    for a, _ in blocks:
        x[i:i + len(a)] = a
        i += len(a)
        del a  # free this block before the next one is drawn
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
        return _hard_pair_rows(n, D, B, rng)

    def target(n: int, rng: np.random.Generator) -> np.ndarray:
        return _hard_pair_rows(n, D, 1.0, rng)

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
    if not tau > 0:  # also rejects NaN
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
) -> Dataset:
    """Draw n covariates from the pair's source and add noisy responses.

    y_i = f*(x_i) + w_i with w_i ~ N(0, sigma^2), the canonical
    sub-Gaussian law.  Identical seeds give bit-identical datasets.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not sigma >= 0:  # also rejects NaN
        raise ValueError("sigma must be nonnegative")
    rng = rng_for(seed, 1)
    xs = pair.sample_source(n, rng)
    ys = np.asarray(fstar(xs), dtype=float)
    if sigma > 0:
        ys = ys + rng.normal(0.0, sigma, size=n)
    return Dataset(xs, ys)


def estimate_chi_sq_moment(pair: ShiftPair, n_mc: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of (E_P[rho^2], chi^2(Q || P)) over source draws."""
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    rng = rng_for(seed, 2)
    x = pair.sample_source(n_mc, rng)
    second_moment = float(np.mean(pair.lr(x) ** 2))
    return second_moment, second_moment - 1.0
