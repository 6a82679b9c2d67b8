"""Command-line front door: one table declares every subcommand, one pipeline runs it.

``_COMMANDS`` maps each subcommand to its handler, to the top-level config
keys it reads, each with a reader and a default, and to the keys that
argparse may also set as flags.  ``main`` alone reads outside input and
writes output.  It loads the JSON config (``--config``, else an empty one),
lets each flag that was given override the config key of the same name,
refuses a key that no subcommand reads (``simulate-risk`` also refuses one
it does not read), checks ``--out``, reads each of the subcommand's keys
once, calls the handler with them as keyword arguments and writes what it
returns: a table ``(header, rows)`` as CSV (``{"rows": [...]}`` under
``--format json``) or a JSON document, formatted canonically so that
identical configs and seeds give byte-identical files.

Integer keys (``n``, ``reps``, ``D``, ``seed``, the grid's ``points``) take
whole numbers: 8000.0 reads as 8000, and 8000.9 is a config error.  Number
keys (``B``, ``sigma_sq``, ``hnorm_sq``, ``lambda``, ``c``, ``V_sq``,
``c0``) take finite numbers, boolean keys (``weighted``, ``general_noise``)
JSON true or false only, and ``data`` and ``table`` a nonempty path string,
never a number that ``open`` would take for a file descriptor.
``simulate-risk`` passes the ``ExperimentConfig`` fields it is given as
they are, and the dataclass checks them.

The seed of ``simulate-risk``, ``erm-failure`` and ``figure2`` is the
``--seed`` flag, else the SHIFTKRR_SEED environment variable, else the
config's ``seed`` (default 0); only those subcommands convert it.

Every handler runs with BLAS on one thread (``seeding.one_blas_thread``),
so no output depends on the core count or ``OPENBLAS_NUM_THREADS``.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import astuple
from typing import Optional, get_type_hints

import numpy as np

from . import bounds, experiments, hard_instance, spectrum
from .errors import ConfigError, NumericalFailure, real_number, refuse_unread_keys, whole_number
from .estimators import fit_krr, fit_reweighted_krr
from .experiments import number_list
from .seeding import one_blas_thread
from .shifts import Dataset
from .spectrum import EigenKernel, EigenSequence, default_grid


def _finite(value, key: str) -> float:
    value = real_number(value, key)
    if not np.isfinite(value):
        raise ConfigError(f"'{key}' must be a finite number")
    return value


def _whole(value, key: str) -> Optional[int]:
    """8000 or 8000.0, never 8000.9 (None stays None)."""
    return None if value is None else whole_number(value, key)


def _boolean(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"'{key}' must be true or false")
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


def _from_json(cls):
    """The reader of a JSON object through ``cls.from_json``."""
    def read(value, key: str):
        if not isinstance(value, dict):
            raise ConfigError(f"config needs a JSON object under '{key}'")
        return cls.from_json(value)
    return read


_eigs, _kernel = _from_json(EigenSequence), _from_json(EigenKernel)


def _grid(value, key: str) -> np.ndarray:
    if value is None or isinstance(value, dict):
        g = value or {}
        refuse_unread_keys(g, {"lo", "hi", "points"}, "a 'grid'")
        lo = real_number(g.get("lo", spectrum.DEFAULT_GRID_MIN), "grid.lo")
        hi = real_number(g.get("hi", spectrum.DEFAULT_GRID_MAX), "grid.hi")
        points = whole_number(g.get("points", spectrum.DEFAULT_GRID_POINTS), "grid.points")
        for end, v in (("lo", lo), ("hi", hi)):
            if not (v > 0 and np.isfinite(v)):  # also rejects NaN
                raise ConfigError(f"'grid.{end}' must be finite and positive")
        if points < 0:
            raise ConfigError("'grid.points' must be nonnegative")
        grid = default_grid(lo, hi, points)
    else:
        grid = np.asarray(value, dtype=float)
        if grid.ndim != 1:
            raise ConfigError(f"'{key}' must be an object or a JSON array of numbers")
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"'{key}' must hold finite numbers")
    return grid


def _path(value, key: str) -> str:
    """A file name; a number would be opened as a file descriptor, so only a string is one."""
    if not (isinstance(value, str) and value):
        raise ConfigError(f"'{key}' must be a file path: --{key} or a nonempty string")
    return value


def _given(value, key: str):
    """The value as the config holds it, for a handler that checks it itself."""
    return value


# subcommand handlers: resolved keys -> (header, rows) table or JSON document


def _cmd_fit(kernel, data, weighted, mode, **lam) -> dict:
    # ``lambda`` is a Python keyword, so it arrives in ``lam``
    fit = fit_reweighted_krr if weighted else fit_krr
    return fit(Dataset.from_csv(data), kernel, lam["lambda"], mode=mode).to_json()


def _cmd_bound_curve(eigs, B, n, sigma_sq, hnorm_sq, grid):
    header = ("lambda", "bias_sq", "variance", "total", "B", "n", "sigma_sq")
    curve = bounds.krr_bound(eigs, grid, B, n, sigma_sq, hnorm_sq)
    return header, [[*terms, B, n, sigma_sq] for terms in curve.rows()]


def _cmd_lambda_star(eigs, B, n, sigma_sq, hnorm_sq, grid) -> dict:
    lam, rep = bounds.lambda_star(eigs, B, n, sigma_sq, hnorm_sq, grid)
    return {"lambda_star": lam, "total": rep.total, "B": B}


def _cmd_lower_bound(eigs, B, n, sigma_sq, hnorm_sq, grid, c) -> dict:
    # hnorm_sq is checked like the other bound inputs, but the lower bound does not read it
    value = bounds.minimax_lower(eigs, B, n, sigma_sq, grid, c)
    return {"lower_bound": value, "B": B, "n": n, "sigma_sq": sigma_sq, "c": c}


def _cmd_critical_radius(**keys) -> dict:
    return {"critical_radius": spectrum.critical_radius(**keys)}


def _cmd_simulate_risk(**given):
    rows = experiments.run_risk_sweep(experiments.ExperimentConfig.from_json(given))
    return experiments.RISK_HEADER, [astuple(r) for r in rows]


def _cmd_rates(table) -> dict:
    with open(table, newline="") as fh:
        records = csv.DictReader(fh)
        missing = [c for c in experiments.RISK_HEADER if c not in (records.fieldnames or ())]
        if missing:
            raise ConfigError(f"risk table CSV {table} lacks column(s) {', '.join(missing)}")
        kinds = get_type_hints(experiments.RiskRow).values()  # in RISK_HEADER's order
        rows = [experiments.RiskRow(*(kind(rec[c]) for kind, c in
                                      zip(kinds, experiments.RISK_HEADER))) for rec in records]
    slopes = sorted(experiments.fit_rate_slope(rows).items())
    return {"groups": [{"estimator": key[0], "B_or_V2": key[1], "slope": rs.slope,
                        "stderr": rs.stderr} for key, rs in slopes]}


def _cmd_erm_failure(n, B=None, **keys):
    records = hard_instance.simulate_failure(n, n ** (2.0 / 3.0) if B is None else B, **keys)
    return hard_instance.FAILURE_HEADER, [astuple(r) for r in records]


def _cmd_figure1(grid, **keys):
    return experiments.FIGURE1_HEADER, experiments.figure1(lambda_grid=grid, **keys)


def _cmd_figure2(**keys):
    return experiments.FIGURE2_HEADER, experiments.figure2(**keys)


# An absent key reads its default through its reader, so a required key reads None and its
# reader names it; an absent key whose default is _UNSET is not passed, leaving the
# handler's own default (or ExperimentConfig's) in force.
_UNSET = object()
_BOUND = {"eigs": (_eigs, None), "B": (_finite, 1.0), "n": (_whole, 8000),
          "sigma_sq": (_finite, 1.0), "hnorm_sq": (_finite, 1.0), "grid": (_grid, None)}
_SWEEP = {**dict.fromkeys(experiments.ExperimentConfig.__dataclass_fields__, (_given, _UNSET)),
          "seed": (_whole, 0)}
_HARD_PAIR = {"sigma_sq": (_finite, 1.0), "D": (_whole, None), "reps": (_whole, 20),
              "seed": (_whole, 0)}
_SEED = {"seed": "master seed"}
# subcommand -> (handler, {key: (reader, default)}, {flag: help}): each flag is a key that
# argparse may also set, overriding the config, with the type its reader implies
_COMMANDS = {
    "fit": (_cmd_fit, {"kernel": (_kernel, None), "data": (_path, None),
                       "lambda": (_finite, 0.1), "weighted": (_boolean, False),
                       "mode": (_given, "dual")}, {"data": "dataset CSV path"}),
    "bound-curve": (_cmd_bound_curve, _BOUND, {}),
    "lambda-star": (_cmd_lambda_star, _BOUND, {}),
    "lower-bound": (_cmd_lower_bound, {**_BOUND, "c": (_finite, 1.0)}, {}),
    "critical-radius": (_cmd_critical_radius, {
        "eigs": (_eigs, None), "sigma_sq": (_finite, 1.0), "V_sq": (_finite, 1.0),
        "n": (_whole, 8000), "hnorm_sq": (_finite, 1.0), "c0": (_finite, 1.0),
        "general_noise": (_boolean, False), "grid": (_grid, None)}, {}),
    "simulate-risk": (_cmd_simulate_risk, _SWEEP, _SEED),
    "rates": (_cmd_rates, {"table": (_path, None)}, {"table": "risk table CSV path"}),
    "erm-failure": (_cmd_erm_failure, {"n": (_whole, 8000), "B": (_finite, _UNSET),
                                       **_HARD_PAIR},
                    {**_SEED, "n": "sample size", "B": "likelihood-ratio bound",
                     "reps": "replicates"}),
    "figure1": (_cmd_figure1, {
        "B_values": (number_list, experiments.FIGURE1_B_VALUES), "n": (_whole, 8000),
        "sigma_sq": (_finite, 1.0), "hnorm_sq": (_finite, 1.0), "grid": (_grid, None),
        "eigs": (_eigs, _UNSET)}, {}),
    "figure2": (_cmd_figure2, {"n_list": (number_list, experiments.FIGURE2_N_VALUES),
                               "B_grid": (number_list, experiments.FIGURE2_B_VALUES),
                               **_HARD_PAIR}, _SEED),
}
_FLAG_TYPES = {_whole: int, _finite: float, _path: str}
_READ = {key for _, keys, _ in _COMMANDS.values() for key in keys}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built at the first ``main`` call, not at import."""
    parser = argparse.ArgumentParser(
        prog="shiftkrr",
        description="Covariate-shift kernel regression: estimators, bounds, experiments.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output file path")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, flags) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for flag, text in flags.items():
            p.add_argument(f"--{flag}", type=_FLAG_TYPES[keys[flag][0]], help=text)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler, keys, flags = _COMMANDS[args.command]
    given = {name: getattr(args, name) for name in flags}
    if "seed" in given and given["seed"] is None:
        given["seed"] = os.environ.get("SHIFTKRR_SEED")
    try:
        cfg = _load_config(args.config)
        cfg.update({k: v for k, v in given.items() if v is not None})
        refuse_unread_keys(cfg, _READ, "no subcommand", "reads")
        if args.command == "simulate-risk":  # a sweep config serves no other subcommand
            refuse_unread_keys(cfg, set(keys), "simulate-risk")
        if not args.out:
            raise ConfigError("--out is required for this subcommand")
        with one_blas_thread():
            result = handler(**{key: read(cfg.get(key, default), key)
                                for key, (read, default) in keys.items()
                                if key in cfg or default is not _UNSET})
        if isinstance(result, dict):
            experiments.write_json(args.out, result)
        elif args.format == "json":
            header, rows = result
            experiments.write_json(args.out, {"rows": [dict(zip(header, r)) for r in rows]})
        else:
            experiments.write_csv(args.out, *result)
    # before the config clause: NumericalError and LinAlgError are ValueErrors too
    except (NumericalFailure, FloatingPointError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    # ConfigError is a ValueError; an input too large to allocate, such as a grid
    # of 2^45 points, is a config error
    except (ValueError, TypeError, KeyError, OSError, OverflowError, MemoryError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
