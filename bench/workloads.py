"""The benchmark's workloads: inputs made from a seed, calls, and output checks.

A workload is a list of calls into shiftkrr's public entry points:
``shiftkrr.cli.main([...])`` where a subcommand exists, the library
function where none does.  ``build`` writes the inputs of one seed (JSON
configs, a dataset CSV) into a scratch directory and returns the calls.
Each call runs, then ``collect`` turns its output into records, one per
operation, and ``check_call`` compares the records with the reference
values stored in ``reference/<workload>.json``.

Inputs are drawn from the seed modulo ``SEED_BANK``, so that every seed
has reference values recorded when the benchmark was defined.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("hard_pair", "risk_sweep", "calculators")
SIZES = ("full", "smoke")
SEED_BANK = 8

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


# ---------------------------------------------------------------------------
# tolerances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tol:
    """Accept |got - ref| <= rtol * max(|ref|, floor), elementwise or by norm."""

    rtol: float
    floor: float = 0.0
    normwise: bool = False


#: constrained ERM stops its ridge bisection once the fitted Hilbert norm is
#: within PROJECTION_RTOL = 1e-6 of the radius (1), so its outputs are known
#: to 1e-6 on the scale of the radius
ERM = Tol(1e-6, floor=1.0)
#: ridge fits solve their stationarity system to relative residual 1e-8;
#: a fit is compared by norm one decade tighter than that
FIT = Tol(1e-9, normwise=True)
#: deterministic closed forms and spectral sums
BOUND = Tol(1e-12)
#: the separation objective: golden-section search to rtol 1e-10 on the
#: dual variable, whose error enters the value only at second order
SEPARATION = Tol(1e-10, floor=1e-3)
#: the maximizing multiplier of g_dual_tail: the dual is flat at its
#: maximum, so rounding of its values limits the golden-section argmax to
#: about sqrt(machine epsilon); the recorded values sit 4e-8 from an exact
#: root of the dual's derivative, so 1e-10 would reject an exact solver
MULTIPLIER = Tol(1e-6, floor=1e-3)

FIELD_TOL = {
    "erm_risk": ERM, "theta1_erm": ERM,
    "krr_risk": FIT, "krr_hnorm_sq": FIT, "median_hnorm_sq": FIT,
    "risk": FIT, "hnorm_sq": FIT, "theta": FIT, "alpha_norm": FIT, "alpha_l1": FIT,
    "lambda": BOUND, "bias_sq": BOUND, "variance": BOUND, "total": BOUND,
    "lambda_star": BOUND, "lower_bound": BOUND, "critical_radius": BOUND,
    "B": BOUND, "g": SEPARATION, "value": SEPARATION, "xi": MULTIPLIER,
}


def _close(got, ref, tol: Tol) -> bool:
    g = np.asarray(got, dtype=float)
    r = np.asarray(ref, dtype=float)
    if g.shape != r.shape or not np.all(np.isfinite(g)):
        return False
    if tol.normwise:
        return bool(np.linalg.norm(g - r) <= tol.rtol * max(float(np.linalg.norm(r)), tol.floor))
    return bool(np.all(np.abs(g - r) <= tol.rtol * np.maximum(np.abs(r), tol.floor)))


def record_ok(got: dict, ref: dict) -> bool:
    """Whether one output record matches its reference field by field."""
    if set(got) != set(ref):
        return False
    for name, value in got.items():
        tol = FIELD_TOL.get(name.split(".")[0])
        if tol is None:
            if value != ref[name]:
                return False
        elif not _close(value, ref[name], tol):
            return False
    return True


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------


@dataclass
class Call:
    """One call into shiftkrr that completes ``ops`` operations.

    ``run`` returns the CLI exit code or the library function's value;
    ``collect`` turns that into records.  Every record stands for the same
    share of the call's operations.
    """

    key: str
    ops: int
    run: Callable[[], object]
    collect: Callable[[object], list]
    is_cli: bool


def check_call(call: Call, raw, error: Optional[str], ref: list) -> int:
    """Failed operations of one call: all of them if it raised, exited non-zero
    or left unreadable output, else those of the records off their reference."""
    if error is not None or (call.is_cli and raw != 0):
        return call.ops
    try:
        records = call.collect(raw)
    except (OSError, ValueError, KeyError):
        return call.ops
    if len(records) != len(ref):
        return call.ops
    per_record = call.ops // len(records)
    return sum(per_record for got, want in zip(records, ref) if not record_ok(got, want))


def _cli(key: str, ops: int, argv: list, out: Path, reader) -> Call:
    from shiftkrr import cli

    # cli.main is looked up at call time, so the traced run sees its wrapper
    return Call(key, ops, lambda: cli.main(argv), lambda _rc: reader(out), True)


def _lib(key: str, ops: int, fn: Callable[[], list]) -> Call:
    return Call(key, ops, fn, lambda values: values, False)


def _read_rows(path: Path, fields: dict) -> list:
    """CSV rows as records; ``fields`` maps each column to its parser."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{name: parse(row[name]) for name, parse in fields.items()} for row in rows]


def _read_table(path: Path, fields: dict, samples: int = 9) -> list:
    """A whole CSV table as one record: each float column as ``samples``
    evenly spaced values plus its l1 norm, each flag column as the indices
    of its set rows."""
    rows = _read_rows(path, fields)
    picks = np.unique(np.linspace(0, len(rows) - 1, samples).round().astype(int))
    rec = {}
    for name, parse in fields.items():
        column = [row[name] for row in rows]
        if parse is float:
            rec[name] = [column[i] for i in picks]
            rec[f"{name}.l1"] = float(np.sum(np.abs(column)))
        else:
            rec[name] = [i for i, v in enumerate(column) if v]
    return [rec]


def _read_json(path: Path) -> list:
    with open(path) as fh:
        return [json.load(fh)]


def _read_fit(path: Path) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    rec = {"mode": doc["mode"], "lambda": doc["lambda"], "theta": doc["theta"]}
    if "alpha" in doc:
        alpha = np.asarray(doc["alpha"], dtype=float)
        rec["alpha_norm"] = float(np.linalg.norm(alpha))
        rec["alpha_l1"] = float(np.sum(np.abs(alpha)))
    return [rec]


def _write_json(path: Path, obj) -> Path:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return path


FAILURE_FIELDS = {"rep": int, "n": int, "B": float, "erm_risk": float,
                  "krr_risk": float, "krr_hnorm_sq": float, "theta1_erm": float}
FIGURE2_FIELDS = {"n": int, "B": float, "median_hnorm_sq": float, "reps": int}
RISK_FIELDS = {"n": int, "lambda": float, "risk": float, "hnorm_sq": float, "status": str}
CURVE_FIELDS = {"lambda": float, "bias_sq": float, "variance": float, "total": float}
FIGURE1_FIELDS = {"B": float, "lambda": float, "bias_sq": float, "variance": float,
                  "total": float, "is_argmin": int}

POLY_EIGS = {"kind": "poly", "alpha": 1.0, "c": 1.0, "j_max": 1000000}
HYPERCUBE_KERNEL = {"eigs": POLY_EIGS, "eigenfunctions": "hypercube", "rank": 64}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _hard_pair(size: str, rng: np.random.Generator, tmp: Path) -> list:
    """ERM versus KRR replicates on the hard hypercube pair (n = 8000, D = 512).

    The hot path of the paper's Figure 2 and acceptance criterion 4: almost
    all time is in sampling, the design matrix and the two fits per replicate.
    """
    if size == "full":
        n, B, reps, fig = 8000, 400.0, 10, {"n_list": [8000], "B_grid": [16.0, 64.0], "reps": 5}
    else:
        n, B, reps, fig = 300, 40.0, 2, {"n_list": [300], "B_grid": [4.0, 16.0], "reps": 1}
    erm_seed, fig_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
    fig_cfg = _write_json(tmp / "figure2.json", fig)
    fig_ops = len(fig["B_grid"]) * fig["reps"]
    return [
        _cli("erm_failure", reps,
             ["erm-failure", "--n", str(n), "--B", repr(B), "--reps", str(reps),
              "--seed", str(erm_seed), "--out", str(tmp / "failure.csv")],
             tmp / "failure.csv", lambda p: _read_rows(p, FAILURE_FIELDS)),
        _cli("figure2", fig_ops,
             ["figure2", "--config", str(fig_cfg), "--seed", str(fig_seed),
              "--out", str(tmp / "figure2.csv")],
             tmp / "figure2.csv", lambda p: _read_rows(p, FIGURE2_FIELDS)),
    ]


def _write_dataset(path: Path, rng: np.random.Generator, n: int, D: int, B: float) -> None:
    """Hard-pair source sample with f* = phi_1 and its likelihood ratios as weights."""
    xs = rng.integers(0, 2, size=(n, D)) * 2.0 - 1.0
    xs[rng.random(n) >= 1.0 / B, 0] = 0.0
    ys = xs[:, 0] + rng.normal(0.0, 1.0, size=n)
    ws = np.where(xs[:, 0] != 0.0, B, 0.0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{j}" for j in range(1, D + 1)] + ["y", "weight"])
        for x, y, w in zip(xs, ys, ws):
            writer.writerow([f"{v:.17g}" for v in x] + [f"{y:.17g}", f"{w:.17g}"])


def _risk_sweep(size: str, rng: np.random.Generator, tmp: Path) -> list:
    """Risk sweeps and CLI fits: small-D primal fits and weighted n x n dual fits.

    Uses the estimators differently from ``hard_pair`` and also exercises
    the sweep driver, the CSV writers and kernel construction.
    """
    full = size == "full"
    seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
    krr = {  # the README sweep
        "pair": {"family": "hypercube", "D": 64},
        "kernel": HYPERCUBE_KERNEL,
        "estimator": "krr",
        "lambda_rule": {"rule": "poly", "alpha": 1.0},
        "n_list": [500, 1000, 2000, 4000, 8000] if full else [100, 200, 400],
        "shift_grid": [8.0],
        "fstar": {"kind": "spread", "exponent": 1.25},
        "reps": 20 if full else 2,
    }
    truncated = {  # acceptance criterion 5, fitted in dual mode: all weights > 0
        "pair": {"family": "gaussian_scale", "tau_sq": 0.9},
        "kernel": {"eigs": {"kind": "explicit", "values": [1.0 / j**2 for j in range(1, 9)],
                            "j_max": 8},
                   "eigenfunctions": "hermite", "rank": 8, "kappa_sq": 30.0},
        "estimator": "reweighted",
        "lambda_rule": {"rule": "reweighted", "c": 0.02},
        "weight_rule": "tau_n",
        "fit_mode": "dual",
        "n_list": [1000, 2000] if full else [100, 200],
        "shift_grid": [0.9],
        "fstar": {"kind": "spread", "exponent": 1.25},
        "reps": 5 if full else 1,
    }
    clipped = {  # weights clipped at B are zero where x_1 = 0: the LU fallback
        "pair": {"family": "hypercube", "D": 64},
        "kernel": HYPERCUBE_KERNEL,
        "estimator": "reweighted",
        "lambda_rule": {"rule": "poly", "alpha": 1.0},
        "weight_rule": "B",
        "fit_mode": "dual",
        "n_list": [1000, 2000] if full else [100, 200],
        "shift_grid": [8.0],
        "fstar": {"kind": "spread", "exponent": 1.25},
        "reps": 5 if full else 1,
    }
    calls = []
    for key, cfg, seed in zip(("sweep_krr", "sweep_truncated", "sweep_clipped"),
                              (krr, truncated, clipped), seeds):
        path = _write_json(tmp / f"{key}.json", cfg)
        out = tmp / f"{key}.csv"
        calls.append(_cli(key, len(cfg["n_list"]) * cfg["reps"],
                          ["simulate-risk", "--config", str(path), "--seed", str(seed),
                           "--out", str(out)],
                          out, lambda p: _read_rows(p, RISK_FIELDS)))
    data = tmp / "data.csv"
    _write_dataset(data, rng, 2000 if full else 200, 64, 8.0)
    # the primal fit uses the weight column, so it reaches the weighted primal solver
    for mode, weighted in (("dual", False), ("primal", True)):
        cfg = _write_json(tmp / f"fit_{mode}.json",
                          {"kernel": HYPERCUBE_KERNEL, "lambda": 0.01, "mode": mode,
                           "weighted": weighted})
        out = tmp / f"fit_{mode}.json.out"
        calls.append(_cli(f"fit_{mode}", 1,
                          ["fit", "--config", str(cfg), "--data", str(data), "--out", str(out)],
                          out, _read_fit))
    return calls


def _calculators(size: str, rng: np.random.Generator, tmp: Path) -> list:
    """Deterministic bound calculators and the separation objective: no fitting.

    Almost all time is in the bound sums, the spectral caches and the
    hard-instance objective, with the estimators idle.
    """
    from shiftkrr import hard_instance

    full = size == "full"
    grid = {"points": 400} if full else {"points": 40}
    cells = 8 if full else 2
    ns = rng.choice([2000, 4000, 8000, 16000, 32000], size=cells)
    Bs = np.round(rng.uniform(1.0, 20.0, size=cells), 3)
    V2s = np.round(rng.uniform(1.0, 4.0, size=cells), 3)
    calls = []
    fig1_cfg = {} if full else {"B_values": [1.0, 5.0], "grid": grid}
    path = _write_json(tmp / "figure1.json", fig1_cfg)
    calls.append(_cli("figure1", 1,
                      ["figure1", "--config", str(path), "--out", str(tmp / "figure1.csv")],
                      tmp / "figure1.csv", lambda p: _read_table(p, FIGURE1_FIELDS)))
    for k, (n, B, V2) in enumerate(zip(ns, Bs, V2s)):
        cfg = _write_json(tmp / f"cell{k}.json",
                          {"eigs": POLY_EIGS, "B": float(B), "V_sq": float(V2),
                           "n": int(n), "grid": grid})
        for cmd in ("bound-curve", "lambda-star", "lower-bound", "critical-radius"):
            out = tmp / f"{cmd}{k}.out"
            reader = ((lambda p: _read_table(p, CURVE_FIELDS)) if cmd == "bound-curve"
                      else _read_json)
            calls.append(_cli(f"{cmd}_{k}", 1,
                              [cmd, "--config", str(cfg), "--out", str(out)], out, reader))

    D_primal, n_t = (200, 80) if full else (20, 3)
    state_seed = int(rng.integers(0, 2**31))
    t_grid = np.linspace(0.0, 0.95, n_t)

    def g_over_t():
        state = hard_instance.HardInstanceState.from_sample(
            4 * D_primal, float(Bs[0]), 1.0, D_primal, seed=state_seed)
        return [{"g": hard_instance.g_primal(state, float(t))} for t in t_grid]

    calls.append(_lib("g_primal", n_t, g_over_t))

    D_dual, n_s = (512, 120) if full else (64, 3)
    mu_rest = np.arange(2, D_dual + 1, dtype=float) ** -2.0
    v_rest = rng.normal(0.0, 0.05, size=D_dual - 1)
    slacks = np.geomspace(1e-3, 1.0, n_s)

    def dual_tail():
        out = []
        for s in slacks:
            value, xi = hard_instance.g_dual_tail(v_rest, mu_rest, float(s), 0.5)
            out.append({"value": value, "xi": xi})
        return out

    calls.append(_lib("g_dual_tail", n_s, dual_tail))
    return calls


_BUILDERS = {"hard_pair": _hard_pair, "risk_sweep": _risk_sweep, "calculators": _calculators}


def build(workload: str, size: str, seed: int, tmp: Path) -> list:
    """Write the inputs of ``workload`` for ``seed`` into ``tmp``; return its calls."""
    rng = np.random.default_rng([seed % SEED_BANK, WORKLOADS.index(workload)])
    return _BUILDERS[workload](size, rng, tmp)


def load_reference(workload: str, size: str, seed: int) -> dict:
    """Reference records per call key for one seed."""
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)[size][str(seed % SEED_BANK)]

