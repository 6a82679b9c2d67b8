"""Command-line front door: one pipeline serves every subcommand.

``main`` alone reads outside input and writes output.  It loads the JSON
config (``--config``, else an empty one), lets each flag that was given
override the config key of the same name, checks ``--out``, calls the
subcommand's handler with the merged dict and writes what it returns: a
table ``(header, rows)`` as CSV (``{"rows": [...]}`` under ``--format
json``) or a JSON document, formatted canonically so that identical
configs and seeds give byte-identical files.

The seed of ``simulate-risk``, ``erm-failure`` and ``figure2`` is the
``--seed`` flag, else the SHIFTKRR_SEED environment variable, else the
config's ``seed`` (default 0); only those subcommands convert it.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import astuple
from typing import Optional

import numpy as np

from . import bounds, experiments, hard_instance, spectrum
from .estimators import FactorizationError, ProjectionError, fit_krr, fit_reweighted_krr
from .seeding import map_units
from .shifts import Dataset
from .spectrum import EigenKernel, EigenSequence, TruncationExceeded, default_grid


class ConfigError(ValueError):
    pass


def _float(cfg: dict, key: str, default: float) -> float:
    value = float(cfg.get(key, default))
    if not np.isfinite(value):
        raise ConfigError(f"'{key}' must be a finite number")
    return value


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    return obj


def _grid_from(cfg: dict) -> np.ndarray:
    g = cfg.get("grid")
    if g is None or isinstance(g, dict):
        g = g or {}
        grid = default_grid(float(g.get("lo", spectrum.DEFAULT_GRID_MIN)),
                            float(g.get("hi", spectrum.DEFAULT_GRID_MAX)),
                            int(g.get("points", spectrum.DEFAULT_GRID_POINTS)))
    else:
        grid = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ConfigError("'grid' must hold finite numbers")
    return grid


def _object(cfg: dict, key: str) -> dict:
    if not isinstance(cfg.get(key), dict):
        raise ConfigError(f"config needs a JSON object under '{key}'")
    return cfg[key]


def _eigs_from(cfg: dict) -> EigenSequence:
    return EigenSequence.from_json(_object(cfg, "eigs"))


# subcommand handlers: merged config -> (header, rows) table or JSON document


def _cmd_fit(cfg: dict) -> dict:
    if not cfg.get("data"):
        raise ConfigError("fit needs a dataset CSV (--data or config 'data')")
    kernel = EigenKernel.from_json(_object(cfg, "kernel"))
    data = Dataset.from_csv(cfg["data"])
    lam = _float(cfg, "lambda", 0.1)
    fit = fit_reweighted_krr if cfg.get("weighted", False) else fit_krr
    mode = cfg.get("mode", "dual")
    # on one BLAS thread, like every replicate, so the bytes do not depend on the BLAS setting
    return map_units(lambda d: fit(d, kernel, lam, mode=mode), [data])[0].to_json()


def _bound_inputs(cfg: dict):
    return (_eigs_from(cfg), _float(cfg, "B", 1.0), int(cfg.get("n", 8000)),
            _float(cfg, "sigma_sq", 1.0), _float(cfg, "hnorm_sq", 1.0))


def _cmd_bound_curve(cfg: dict):
    eigs, B, n, sigma_sq, hnorm_sq = _bound_inputs(cfg)
    header = ("lambda", "bias_sq", "variance", "total", "B", "n", "sigma_sq")
    grid = _grid_from(cfg)
    reports, _ = bounds.krr_bound_curve(eigs, B, n, sigma_sq, hnorm_sq, grid)
    return header, [[float(lam), rep.bias_sq, rep.variance, rep.total, B, n, sigma_sq]
                    for lam, rep in zip(grid, reports)]


def _cmd_lambda_star(cfg: dict) -> dict:
    eigs, B, n, sigma_sq, hnorm_sq = _bound_inputs(cfg)
    lam, rep = bounds.lambda_star(eigs, B, n, sigma_sq, hnorm_sq, _grid_from(cfg))
    return {"lambda_star": lam, "total": rep.total, "B": B}


def _cmd_lower_bound(cfg: dict) -> dict:
    eigs, B, n, sigma_sq, _ = _bound_inputs(cfg)
    c = _float(cfg, "c", 1.0)
    value = bounds.minimax_lower(eigs, B, n, sigma_sq, _grid_from(cfg), c)
    return {"lower_bound": value, "B": B, "n": n, "sigma_sq": sigma_sq, "c": c}


def _cmd_critical_radius(cfg: dict) -> dict:
    delta = spectrum.critical_radius(
        _eigs_from(cfg),
        sigma_sq=_float(cfg, "sigma_sq", 1.0),
        V_sq=_float(cfg, "V_sq", 1.0),
        n=int(cfg.get("n", 8000)),
        hnorm_sq=_float(cfg, "hnorm_sq", 1.0),
        c0=_float(cfg, "c0", 1.0),
        general_noise=bool(cfg.get("general_noise", False)),
        grid=_grid_from(cfg),
    )
    return {"critical_radius": delta}


def _cmd_simulate_risk(cfg: dict):
    config = experiments.ExperimentConfig.from_json({**cfg, "seed": int(cfg.get("seed", 0))})
    rows = experiments.run_risk_sweep(config)
    return experiments.RISK_HEADER, [astuple(r) for r in rows]


def _cmd_rates(cfg: dict) -> dict:
    if not cfg.get("table"):
        raise ConfigError("rates needs a risk table CSV (--table or config 'table')")
    rows = []
    with open(cfg["table"], newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(experiments.RiskRow(
                rep=int(rec["rep"]), n=int(rec["n"]),
                b_or_v2=float(rec["B_or_V2"]), estimator=rec["estimator"],
                lam=float(rec["lambda"]), risk=float(rec["risk"]),
                hnorm_sq=float(rec["hnorm_sq"]), seed=int(rec["seed"]),
                status=rec["status"]))
    slopes = experiments.fit_rate_slope(rows)
    return {"groups": [
        {"estimator": key[0], "B_or_V2": key[1],
         "slope": rs.slope, "stderr": rs.stderr}
        for key, rs in sorted(slopes.items())
    ]}


def _cmd_erm_failure(cfg: dict):
    n = int(cfg.get("n", 8000))
    records = hard_instance.simulate_failure(
        n, _float(cfg, "B", n ** (2.0 / 3.0)),
        sigma_sq=_float(cfg, "sigma_sq", 1.0),
        D=cfg.get("D"),
        reps=int(cfg.get("reps", 20)),
        seed=int(cfg.get("seed", 0)),
    )
    return experiments.FAILURE_HEADER, [astuple(r) for r in records]


def _cmd_figure1(cfg: dict):
    rows = experiments.figure1(
        B_values=cfg.get("B_values", experiments.FIGURE1_B_VALUES),
        n=int(cfg.get("n", 8000)),
        sigma_sq=_float(cfg, "sigma_sq", 1.0),
        hnorm_sq=_float(cfg, "hnorm_sq", 1.0),
        lambda_grid=_grid_from(cfg),
        eigs=_eigs_from(cfg) if "eigs" in cfg else None,
    )
    return experiments.FIGURE1_HEADER, rows


def _cmd_figure2(cfg: dict):
    rows = experiments.figure2(
        n_list=cfg.get("n_list", experiments.FIGURE2_N_VALUES),
        B_grid=cfg.get("B_grid", experiments.FIGURE2_B_VALUES),
        reps=int(cfg.get("reps", 20)),
        seed=int(cfg.get("seed", 0)),
        sigma_sq=_float(cfg, "sigma_sq", 1.0),
        D=cfg.get("D"),
    )
    return experiments.FIGURE2_HEADER, rows


# subcommand -> (handler, the flags it takes beyond --config, --out and --format);
# each flag overrides the config key of the same name: name -> (type, help)
_SEED = {"seed": (int, "master seed")}
_COMMANDS = {
    "fit": (_cmd_fit, {"data": (str, "dataset CSV path")}),
    "bound-curve": (_cmd_bound_curve, {}),
    "lambda-star": (_cmd_lambda_star, {}),
    "lower-bound": (_cmd_lower_bound, {}),
    "critical-radius": (_cmd_critical_radius, {}),
    "simulate-risk": (_cmd_simulate_risk, {**_SEED,
                                           "threads": (int, "cells run at once (speed only)")}),
    "rates": (_cmd_rates, {"table": (str, "risk table CSV path")}),
    "erm-failure": (_cmd_erm_failure, {**_SEED, "n": (int, "sample size"),
                                       "B": (float, "likelihood-ratio bound"),
                                       "reps": (int, "replicates")}),
    "figure1": (_cmd_figure1, {}),
    "figure2": (_cmd_figure2, _SEED),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftkrr",
        description="Covariate-shift kernel regression: estimators, bounds, experiments.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output file path")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for flag, (kind, text) in flags.items():
            p.add_argument(f"--{flag}", type=kind, help=text)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler, flag_types = _COMMANDS[args.command]
    flags = {name: getattr(args, name) for name in flag_types}
    if "seed" in flags and flags["seed"] is None:
        flags["seed"] = os.environ.get("SHIFTKRR_SEED")
    try:
        cfg = _load_config(args.config)
        cfg.update({k: v for k, v in flags.items() if v is not None})
        if not args.out:
            raise ConfigError("--out is required for this subcommand")
        result = handler(cfg)
        if isinstance(result, dict):
            experiments.write_json(args.out, result)
        elif args.format == "json":
            header, rows = result
            experiments.write_json(args.out, {"rows": [dict(zip(header, r)) for r in rows]})
        else:
            experiments.write_csv(args.out, *result)
    except (ConfigError, ValueError, TypeError, KeyError, OSError, OverflowError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (FactorizationError, ProjectionError, TruncationExceeded,
            FloatingPointError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
