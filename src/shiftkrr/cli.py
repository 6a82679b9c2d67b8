"""Command-line front door.

Every subcommand is a thin wrapper over library calls: it reads a JSON
config, resolves the seed (--seed flag, then the SHIFTKRR_SEED environment
variable, then the config), runs, and writes CSV or JSON with canonical
formatting, so identical configs and seeds give byte-identical outputs.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional

import numpy as np

from . import bounds, experiments, hard_instance, spectrum
from .estimators import (
    FactorizationError,
    ProjectionError,
    fit_krr,
    fit_reweighted_krr,
)
from .shifts import Dataset
from .spectrum import EigenKernel, EigenSequence, TruncationExceeded, default_grid


class ConfigError(ValueError):
    pass


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    try:
        with open(args.config) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {args.config}: {err}") from err
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    return obj


def _resolve_seed(args, cfg: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("SHIFTKRR_SEED")
    if env is not None:
        return int(env)
    return int(cfg.get("seed", 0))


def _grid_from(cfg: dict, key: str = "grid") -> np.ndarray:
    g = cfg.get(key)
    if g is None:
        return default_grid()
    if isinstance(g, list):
        return np.asarray(g, dtype=float)
    return default_grid(float(g.get("lo", spectrum.DEFAULT_GRID_MIN)),
                        float(g.get("hi", spectrum.DEFAULT_GRID_MAX)),
                        int(g.get("points", spectrum.DEFAULT_GRID_POINTS)))


def _write_table(args, header, rows) -> None:
    if args.format == "json":
        experiments.write_json(args.out, header, rows)
    else:
        experiments.write_csv(args.out, header, rows)


def _write_json_doc(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _need_out(args) -> None:
    if not args.out:
        raise ConfigError("--out is required for this subcommand")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_fit(args) -> None:
    cfg = _load_config(args)
    data_path = args.data or cfg.get("data")
    if not data_path:
        raise ConfigError("fit needs a dataset CSV (--data or config 'data')")
    if "kernel" not in cfg:
        raise ConfigError("fit needs a 'kernel' entry in the config")
    _need_out(args)
    data = Dataset.from_csv(data_path)
    kernel = EigenKernel.from_json(cfg["kernel"])
    lam = float(cfg.get("lambda", 0.1))
    mode = cfg.get("mode", "dual")
    if cfg.get("weighted", False):
        model = fit_reweighted_krr(data, kernel, lam, mode=mode)
    else:
        model = fit_krr(data, kernel, lam, mode=mode)
    _write_json_doc(args.out, model.to_json())


def _bound_inputs(cfg: dict):
    if "eigs" not in cfg:
        raise ConfigError("config needs an 'eigs' entry")
    eigs = EigenSequence.from_json(cfg["eigs"])
    return (eigs, float(cfg.get("B", 1.0)), int(cfg.get("n", 8000)),
            float(cfg.get("sigma_sq", 1.0)), float(cfg.get("hnorm_sq", 1.0)))


def _cmd_bound_curve(args) -> None:
    cfg = _load_config(args)
    _need_out(args)
    eigs, B, n, sigma_sq, hnorm_sq = _bound_inputs(cfg)
    grid = _grid_from(cfg)
    header = ("lambda", "bias_sq", "variance", "total", "B", "n", "sigma_sq")
    rows = []
    for lam in grid:
        rep = bounds.krr_bound(eigs, float(lam), B, n, sigma_sq, hnorm_sq)
        rows.append([float(lam), rep.bias_sq, rep.variance, rep.total, B, n, sigma_sq])
    _write_table(args, header, rows)


def _cmd_lambda_star(args) -> None:
    cfg = _load_config(args)
    _need_out(args)
    eigs, B, n, sigma_sq, hnorm_sq = _bound_inputs(cfg)
    lam, rep = bounds.lambda_star(eigs, B, n, sigma_sq, hnorm_sq, _grid_from(cfg))
    _write_json_doc(args.out, {"lambda_star": lam, "total": rep.total, "B": B})


def _cmd_lower_bound(args) -> None:
    cfg = _load_config(args)
    _need_out(args)
    eigs, B, n, sigma_sq, _ = _bound_inputs(cfg)
    value = bounds.minimax_lower(eigs, B, n, sigma_sq, _grid_from(cfg),
                                 float(cfg.get("c", 1.0)))
    _write_json_doc(args.out, {"lower_bound": value, "B": B, "n": n,
                               "sigma_sq": sigma_sq, "c": float(cfg.get("c", 1.0))})


def _cmd_critical_radius(args) -> None:
    cfg = _load_config(args)
    _need_out(args)
    if "eigs" not in cfg:
        raise ConfigError("config needs an 'eigs' entry")
    eigs = EigenSequence.from_json(cfg["eigs"])
    delta = spectrum.critical_radius(
        eigs,
        sigma_sq=float(cfg.get("sigma_sq", 1.0)),
        V_sq=float(cfg.get("V_sq", 1.0)),
        n=int(cfg.get("n", 8000)),
        hnorm_sq=float(cfg.get("hnorm_sq", 1.0)),
        c0=float(cfg.get("c0", 1.0)),
        general_noise=bool(cfg.get("general_noise", False)),
        grid=_grid_from(cfg),
    )
    _write_json_doc(args.out, {"critical_radius": delta})


def _cmd_simulate_risk(args) -> None:
    cfg = _load_config(args)
    _need_out(args)
    cfg["seed"] = _resolve_seed(args, cfg)
    if args.threads:
        cfg["threads"] = args.threads
    config = experiments.ExperimentConfig.from_json(cfg)
    rows = experiments.run_risk_sweep(config)
    _write_table(args, experiments.RISK_HEADER, experiments.risk_rows_as_lists(rows))


def _cmd_rates(args) -> None:
    cfg = _load_config(args)
    table_path = args.table or cfg.get("table")
    if not table_path:
        raise ConfigError("rates needs a risk table CSV (--table or config 'table')")
    _need_out(args)
    rows = []
    with open(table_path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(experiments.RiskRow(
                rep=int(rec["rep"]), n=int(rec["n"]),
                b_or_v2=float(rec["B_or_V2"]), estimator=rec["estimator"],
                lam=float(rec["lambda"]), risk=float(rec["risk"]),
                hnorm_sq=float(rec["hnorm_sq"]), seed=int(rec["seed"]),
                status=rec["status"]))
    slopes = experiments.fit_rate_slope(rows)
    doc = {"groups": [
        {"estimator": key[0], "B_or_V2": key[1],
         "slope": rs.slope, "stderr": rs.stderr}
        for key, rs in sorted(slopes.items())
    ]}
    _write_json_doc(args.out, doc)


def _cmd_erm_failure(args) -> None:
    cfg = _load_config(args)
    _need_out(args)
    n = int(args.n if args.n is not None else cfg.get("n", 8000))
    B = float(args.B if args.B is not None else cfg.get("B", n ** (2.0 / 3.0)))
    reps = int(args.reps if args.reps is not None else cfg.get("reps", 20))
    records = hard_instance.simulate_failure(
        n, B,
        sigma_sq=float(cfg.get("sigma_sq", 1.0)),
        D=cfg.get("D"),
        reps=reps,
        seed=_resolve_seed(args, cfg),
    )
    _write_table(args, experiments.FAILURE_HEADER,
                 experiments.failure_rows_as_lists(records))


def _cmd_figure1(args) -> None:
    cfg = _load_config(args)
    _need_out(args)
    eigs = EigenSequence.from_json(cfg["eigs"]) if "eigs" in cfg else None
    rows = experiments.figure1(
        out_path=None,
        B_values=cfg.get("B_values", experiments.FIGURE1_B_VALUES),
        n=int(cfg.get("n", 8000)),
        sigma_sq=float(cfg.get("sigma_sq", 1.0)),
        hnorm_sq=float(cfg.get("hnorm_sq", 1.0)),
        lambda_grid=_grid_from(cfg),
        eigs=eigs,
    )
    _write_table(args, experiments.FIGURE1_HEADER, rows)


def _cmd_figure2(args) -> None:
    cfg = _load_config(args)
    _need_out(args)
    rows = experiments.figure2(
        n_list=cfg.get("n_list", experiments.FIGURE2_N_VALUES),
        B_grid=cfg.get("B_grid", experiments.FIGURE2_B_VALUES),
        reps=int(cfg.get("reps", 20)),
        seed=_resolve_seed(args, cfg),
        out_path=None,
        sigma_sq=float(cfg.get("sigma_sq", 1.0)),
        D=cfg.get("D"),
    )
    _write_table(args, experiments.FIGURE2_HEADER, rows)


_HANDLERS = {
    "fit": _cmd_fit,
    "bound-curve": _cmd_bound_curve,
    "lambda-star": _cmd_lambda_star,
    "lower-bound": _cmd_lower_bound,
    "critical-radius": _cmd_critical_radius,
    "simulate-risk": _cmd_simulate_risk,
    "rates": _cmd_rates,
    "erm-failure": _cmd_erm_failure,
    "figure1": _cmd_figure1,
    "figure2": _cmd_figure2,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftkrr",
        description="Covariate-shift kernel regression: estimators, bounds, experiments.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides SHIFTKRR_SEED and config)")
    common.add_argument("--out", help="output file path")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--threads", type=int, default=0,
                        help="worker threads for sweep grids")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name, parents=[common])
        if name == "fit":
            p.add_argument("--data", help="dataset CSV path")
        if name == "rates":
            p.add_argument("--table", help="risk table CSV path")
        if name == "erm-failure":
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--B", type=float, default=None)
            p.add_argument("--reps", type=int, default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _HANDLERS[args.command](args)
    except (ConfigError, ValueError, KeyError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (FactorizationError, ProjectionError, TruncationExceeded,
            FloatingPointError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
