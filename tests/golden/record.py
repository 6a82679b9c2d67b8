"""The reference runs: one table of the seeded outputs whose bytes the tests pin.

``RUNS`` maps each output file name to the CLI arguments that write it,
without ``--out``.  A dict among the arguments is a JSON config and a
``Rows`` value a dataset; both are written to a scratch directory when the
runs execute.  ``g-primal.txt``, the separation objective at 20 slices, is
the one entry that is a library call, since no subcommand reaches g.
``GOLDEN`` names the outputs also kept in this folder as a record.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record.py DIR   # every output, written to DIR
    PYTHONPATH=src python tests/golden/record.py       # re-record the golden CSVs here

``tests/test_golden.py`` runs this script at four ``OPENBLAS_NUM_THREADS``
settings and requires every output to be byte-identical across them, and
compares fresh golden runs with the record number by number.  To see which
outputs a change moves, run ``record.py DIR`` at the parent commit and at
the change into two directories and ``diff -r`` them.
"""

import json
import os
import sys
import tempfile
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Rows:
    """2000 weighted rows on the 64-dimensional hypercube, y = x_1 + noise, weights in [0.2, 3]."""

    seed: int

    def csv(self) -> str:
        import numpy as np

        rng = np.random.default_rng(self.seed)
        n, D = 2000, 64
        xs = rng.choice([-1.0, 1.0], size=(n, D))
        ys = xs[:, 0] + rng.normal(size=n)
        lines = [",".join([f"x_{j}" for j in range(1, D + 1)] + ["y", "weight"])]
        lines += [",".join(f"{v:.17g}" for v in [*x, y, w])
                  for x, y, w in zip(xs, ys, rng.uniform(0.2, 3.0, size=n))]
        return "\n".join(lines) + "\n"


POLY = {"kind": "poly", "alpha": 1.0}
# the benchmark calculators' sequence: an explicit 1/j^2 for j <= 8
EXPLICIT = {"eigs": {"kind": "explicit", "values": [1.0 / j**2 for j in range(1, 9)], "j_max": 8}}
# a grid down to 1e-7 sums exact resolvent parts of about 3000 terms and closed-form tail
# sums from index 46415 on
DEEP = {"eigs": {"kind": "poly", "alpha": 1.5}, "B": 4.0,
        "grid": {"lo": 1e-7, "hi": 10.0, "points": 100}}
KERNEL = {"eigs": POLY, "eigenfunctions": "hypercube", "rank": 64}
SWEEP = {"pair": {"family": "hypercube", "D": 64}, "kernel": KERNEL,
         "lambda_rule": {"rule": "poly", "alpha": 1.0},
         "n_list": [500, 1000, 2000], "shift_grid": [8.0], "reps": 4}
REWEIGHTED = {**SWEEP, "estimator": "reweighted", "weight_rule": "tau_n"}
# the benchmark's reweighted sweep on the Gaussian scale pair with Hermite features
HERMITE = {"pair": {"family": "gaussian_scale", "tau_sq": 0.9},
           "kernel": {**EXPLICIT, "eigenfunctions": "hermite", "rank": 8, "kappa_sq": 30.0},
           "estimator": "reweighted", "lambda_rule": {"rule": "reweighted", "c": 0.02},
           "weight_rule": "tau_n", "n_list": [1000, 2000], "shift_grid": [0.9],
           "fstar": {"kind": "spread", "exponent": 1.25}, "reps": 5}
# a kernel with zero eigenvalues, whose trailing eigen-pairs every fit drops: KRR and ERM
# read streamed moments, the reweighted fits the dataset's rows
ZERO = {"pair": {"family": "hypercube", "D": 5},
        "kernel": {"eigs": {"kind": "finite", "values": [1.0, 0.5, 0.25, 0.0, 0.0]},
                   "eigenfunctions": "hypercube"},
        "lambda_rule": {"rule": "finite_rank"}, "n_list": [8, 40, 500],
        "shift_grid": [4.0], "fstar": {"kind": "spread", "exponent": 1.25}, "reps": 3}


def fit(kernel: dict, seed: int) -> list:
    """A weighted dual fit at lambda 0.01 on ``Rows(seed)``, large enough for threaded BLAS."""
    return ["fit", "--config", {"kernel": kernel, "lambda": 0.01, "mode": "dual",
                                "weighted": True}, "--data", Rows(seed)]


def sweep(cfg: dict, seed: int = 1) -> list:
    return ["simulate-risk", "--config", cfg, "--seed", str(seed)]


def g_primal_slices(out: str) -> None:
    """g of the hard pair at 20 slices in [0, 0.95], one ``repr`` a line."""
    import numpy as np
    from shiftkrr.hard_instance import HardInstanceState, g_primal

    state = HardInstanceState.from_sample(800, 8.0, 1.0, 200, seed=1)
    with open(out, "w") as fh:
        for t in np.linspace(0.0, 0.95, 20):
            print(repr(g_primal(state, float(t))), file=fh)


#: output file name -> CLI arguments without --out, or a function of the output path
RUNS = {
    "erm-failure.csv": ["erm-failure", "--n", "2000", "--B", "16", "--reps", "4", "--seed", "1"],
    "figure1.csv": ["figure1"],
    "figure1-explicit.csv": ["figure1", "--config", EXPLICIT],
    "bound-curve.csv": ["bound-curve", "--config", {"eigs": POLY}],
    "bound-curve-explicit.csv": ["bound-curve", "--config", EXPLICIT],
    **{f"{cmd}.json": [cmd, "--config", {"eigs": POLY}]
       for cmd in ("lambda-star", "lower-bound", "critical-radius")},
    **{f"{cmd}-deep.json": [cmd, "--config", DEEP]
       for cmd in ("lambda-star", "lower-bound", "critical-radius")},
    # one-lambda ridge fits solve G + n lam I
    "figure2.csv": ["figure2", "--config", {"n_list": [2000], "B_grid": [4.0, 16.0], "reps": 4},
                    "--seed", "1"],
    "sweep.csv": sweep(SWEEP),
    # Monte Carlo risks read the target rows of the block stream
    "sweep-mc.csv": sweep({**SWEEP, "risk": "mc", "n_mc": 20000}),
    # ERM builds one Krylov basis per replicate from streamed moments
    "sweep-erm.csv": sweep({**SWEEP, "estimator": "erm"}),
    # ERM below the rank, where G is singular
    "sweep-erm-small.csv": sweep({**SWEEP, "estimator": "erm", "n_list": [8, 40]}),
    # ERM does not evaluate the poly rule, which has no value at sigma_sq 0 or n 1
    "sweep-erm-zero.csv": sweep({**SWEEP, "estimator": "erm", "sigma_sq": 0.0,
                                 "n_list": [1, 8, 500]}),
    # the longest Krylov basis: ERM at its floored multiplier on a rank-512 core
    "sweep-erm-long.csv": sweep({**SWEEP, "pair": {"family": "hypercube", "D": 512},
                                 "kernel": {**KERNEL, "rank": 512}, "estimator": "erm",
                                 "sigma_sq": 0.0, "n_list": [2000]}),
    # with the rank below the weighted rows, a dual fit's theta is the primal fit's
    "sweep-rw-dual.csv": sweep({**REWEIGHTED, "fit_mode": "dual", "n_list": [1500, 2000],
                                "reps": 2}),
    "sweep-rw-primal.csv": sweep({**REWEIGHTED, "fit_mode": "primal", "n_list": [1500, 2000],
                                  "reps": 2}),
    "sweep-rw-dual-1500.csv": sweep({**REWEIGHTED, "fit_mode": "dual", "n_list": [1500],
                                     "reps": 1}, seed=3),
    "sweep-rw-primal-1500.csv": sweep({**REWEIGHTED, "fit_mode": "primal", "n_list": [1500],
                                       "reps": 2}, seed=3),
    "hermite-dual.csv": sweep({**HERMITE, "fit_mode": "dual"}),
    "hermite-primal.csv": sweep({**HERMITE, "fit_mode": "primal"}),
    "zero-krr.csv": sweep(ZERO),
    "zero-erm.csv": sweep({**ZERO, "estimator": "erm"}),
    "zero-rw-dual.csv": sweep({**ZERO, "estimator": "reweighted", "fit_mode": "dual"}),
    "zero-rw-primal.csv": sweep({**ZERO, "estimator": "reweighted", "fit_mode": "primal"}),
    "fit.json": fit(KERNEL, 5),
    "fit-rows7.json": fit(KERNEL, 7),
    "fit-zero.json": fit(ZERO["kernel"], 5),
    # no subcommand reaches g
    "g-primal.txt": g_primal_slices,
}

#: the outputs kept in this folder
GOLDEN = ("erm-failure.csv", "sweep-erm.csv", "sweep-erm-small.csv", "sweep-erm-zero.csv")

#: pairs of outputs that must be byte-identical: a dual sweep and its primal twin
SAME = (("sweep-rw-dual.csv", "sweep-rw-primal.csv"), ("hermite-dual.csv", "hermite-primal.csv"))


def _file(arg, scratch: str, stem: str):
    """A config dict or a dataset as a file in ``scratch``; any other argument as it is."""
    if isinstance(arg, dict):
        path = os.path.join(scratch, f"{stem}.json")
        with open(path, "w") as fh:
            json.dump(arg, fh)
    elif isinstance(arg, Rows):
        path = os.path.join(scratch, f"rows-{arg.seed}.csv")
        if not os.path.exists(path):
            with open(path, "w") as fh:
                fh.write(arg.csv())
    else:
        return arg
    return path


def record(out_dir: str, names=tuple(RUNS)) -> None:
    """Write each output in ``names`` to ``out_dir``."""
    from shiftkrr.cli import main

    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            run, out = RUNS[name], os.path.join(out_dir, name)
            if callable(run):
                run(out)
            elif main([*(_file(a, scratch, name) for a in run), "--out", out]) != 0:
                raise SystemExit(f"{name} failed")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        record(sys.argv[1])
    else:
        record(HERE, GOLDEN)
