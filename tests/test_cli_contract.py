"""The CLI exit-code contract: malformed input exits 2 or 3, never with a traceback."""

import json
import math
import warnings

import pytest

from shiftkrr import cli, errors, estimators, hard_instance, spectrum
from shiftkrr.cli import main
from shiftkrr.hard_instance import simulate_failure

POLY = {"kind": "poly", "alpha": 1.0}
KERNEL = {"eigs": {"kind": "finite", "values": [1.0, 0.5]},
          "eigenfunctions": "hypercube", "rank": 2}
SWEEP = {"pair": {"family": "hypercube", "D": 4},
         "kernel": {"eigs": POLY, "eigenfunctions": "hypercube", "rank": 4},
         "n_list": [50, 100, 200], "shift_grid": [2.0], "reps": 2}
DATA = "x_1,x_2,y,weight\n1,-1,0.5,1\n-1,1,0.2,1\n1,1,0.1,1\n"
TABLE = "rep,n,B_or_V2,estimator,lambda,risk,hnorm_sq,seed,status\n"

SUBCOMMANDS = tuple(cli._COMMANDS)
# the flags each subcommand honours beyond --config, --out and --format
OWN_FLAGS = {
    "fit": {"--data": "d.csv"},
    "rates": {"--table": "t.csv"},
    "simulate-risk": {"--seed": "1"},
    "erm-failure": {"--seed": "1", "--n": "60", "--B": "2", "--reps": "1"},
    "figure2": {"--seed": "1"},
}
# flags no subcommand takes any more: every subcommand refuses them
REMOVED_FLAGS = {"--threads": "2"}
ALL_FLAGS = {**{flag: value for flags in OWN_FLAGS.values() for flag, value in flags.items()},
             **REMOVED_FLAGS}

# (subcommand, config, files to create) for input that must be refused
MALFORMED = [
    *[(cmd, [1, 2], {}) for cmd in SUBCOMMANDS],  # not a JSON object
    *[(cmd, {"B": 2.0}, {}) for cmd in ("bound-curve", "lambda-star", "lower-bound",
                                        "critical-radius")],  # no eigs
    ("bound-curve", {"eigs": POLY, "B": [1]}, {}),
    ("lambda-star", {"eigs": POLY, "n": [1]}, {}),
    ("lower-bound", {"eigs": POLY, "c": [1]}, {}),
    ("critical-radius", {"eigs": POLY, "V_sq": [1]}, {}),
    ("figure1", {"n": [1]}, {}),
    ("figure2", {"n_list": [60], "B_grid": [2.0], "reps": [1]}, {}),
    ("erm-failure", {"n": 60, "B": [2.0], "reps": 1}, {}),
    ("simulate-risk", {**SWEEP, "reps": [1]}, {}),
    ("simulate-risk", {**SWEEP, "fstar": [1]}, {}),
    ("fit", {"kernel": KERNEL, "data": "d.csv", "lambda": [1]}, {"d.csv": DATA}),
    ("erm-failure", {"n": 60, "B": 2.0, "reps": 1, "D": "a"}, {}),
    ("figure2", {"n_list": [60], "B_grid": [2.0], "reps": 1, "D": "a"}, {}),
    ("bound-curve", {"eigs": POLY, "B": "nan"}, {}),
    ("bound-curve", {"eigs": POLY, "grid": ["nan"]}, {}),
    ("lambda-star", {"eigs": POLY, "sigma_sq": "nan"}, {}),
    ("lower-bound", {"eigs": POLY, "B": "nan"}, {}),
    ("critical-radius", {"eigs": POLY, "V_sq": "nan"}, {}),
    ("figure1", {"B_values": ["nan"], "grid": [0.1]}, {}),
    ("figure1", {"B_values": ["inf"], "grid": [0.1]}, {}),
    ("simulate-risk", {**SWEEP, "shift_grid": ["nan"]}, {}),
    ("simulate-risk", {**SWEEP, "sigma_sq": "nan"}, {}),
    ("erm-failure", {"n": 60, "B": 2.0, "reps": 1, "sigma_sq": "nan"}, {}),
    ("figure2", {"n_list": [60], "B_grid": [2.0], "reps": 1, "sigma_sq": "nan"}, {}),
    ("fit", {"kernel": KERNEL, "data": "d.csv", "lambda": "nan"}, {"d.csv": DATA}),
    ("bound-curve", {"eigs": POLY, "B": float("nan")}, {}),  # a JSON NaN literal
    ("lambda-star", {"eigs": {"kind": "poly", "alpha": "nan"}}, {}),
    ("lower-bound", {"eigs": {"kind": "finite", "values": [1.0, float("nan")]}}, {}),
    ("critical-radius", {"eigs": {"kind": "finite", "values": ["inf", 1.0]}}, {}),
    ("figure2", {"n_list": [60], "B_grid": [2.0], "reps": 0}, {}),
    ("erm-failure", {"n": 60, "B": 2.0, "reps": 0}, {}),
    ("simulate-risk", {**SWEEP, "reps": 0}, {}),
    ("fit", {"kernel": KERNEL, "data": "missing.csv"}, {}),
    ("fit", {"kernel": KERNEL, "data": "d.csv"}, {"d.csv": ""}),
    ("fit", {"kernel": KERNEL, "data": "d.csv"}, {"d.csv": DATA + "1,1\n"}),
    ("fit", {"kernel": KERNEL, "data": "d.csv"}, {"d.csv": DATA + "1,a,0,1\n"}),
    ("rates", {"table": "missing.csv"}, {}),
    ("rates", {"table": "t.csv"}, {"t.csv": "a,b\n1,2\n"}),
    ("rates", {"table": "t.csv"}, {"t.csv": TABLE + "0,100,2,krr,0.1,nan,1,5,ok\n"}),
    ("simulate-risk", {**SWEEP, "threads": 2}, {}),  # a removed key
    # integer keys refuse fractional numbers
    ("bound-curve", {"eigs": POLY, "grid": {"points": 10.5}}, {}),
    ("lambda-star", {"eigs": POLY, "n": 8000.9}, {}),
    ("lower-bound", {"eigs": POLY, "n": 8000.9}, {}),
    ("critical-radius", {"eigs": POLY, "n": 8000.9}, {}),
    ("figure1", {"n": 8000.9, "grid": [0.1]}, {}),
    ("figure2", {"n_list": [60.5], "B_grid": [2.0], "reps": 1}, {}),
    ("figure2", {"n_list": [60], "B_grid": [2.0], "reps": 1.5}, {}),
    ("figure2", {"n_list": [60], "B_grid": [2.0], "reps": 1, "seed": 1.5}, {}),
    ("erm-failure", {"n": 60.5, "B": 2.0, "reps": 1}, {}),
    ("erm-failure", {"n": 60, "B": 2.0, "reps": 1.5}, {}),
    ("simulate-risk", {**SWEEP, "n_list": [100.7, 200, 400]}, {}),
    ("simulate-risk", {**SWEEP, "seed": 7.5}, {}),
    # sample sizes below 1
    ("figure2", {"n_list": [0]}, {}),
    ("figure2", {"n_list": [-8]}, {}),
    ("erm-failure", {"n": -8, "B": 1.0}, {}),
    # grids and tables that leave nothing to compute
    ("figure2", {"n_list": []}, {}),
    ("figure2", {"B_grid": []}, {}),
    ("figure2", {"n_list": [100], "B_grid": [2.0, float("nan")]}, {}),
    ("figure2", {"n_list": [100], "B_grid": [2.0, float("inf")]}, {}),
    ("figure2", {"n_list": [100], "B_grid": [1000.0]}, {}),
    ("figure1", {"B_values": []}, {}),
    ("rates", {"table": "t.csv"}, {"t.csv": TABLE}),
    ("rates", {"table": "t.csv"}, {"t.csv": TABLE + "0,100,2,krr,0.1,nan,nan,5,failed\n"}),
    # integer keys below the top level refuse fractional numbers too
    ("simulate-risk", {**SWEEP, "pair": {"family": "hypercube", "D": 8.7}}, {}),
    ("simulate-risk", {**SWEEP, "kernel": {**SWEEP["kernel"], "rank": 4.5}}, {}),
    ("simulate-risk", {**SWEEP, "kernel": {**SWEEP["kernel"],
                                           "eigs": {**POLY, "j_max": 100.5}}}, {}),
    ("simulate-risk", {**SWEEP, "fstar": {"kind": "phi", "j": 1.5}}, {}),
    ("lambda-star", {"eigs": {**POLY, "j_max": 1000.5}}, {}),
    # boolean keys take JSON true or false only
    ("critical-radius", {"eigs": POLY, "general_noise": "false"}, {}),
    ("critical-radius", {"eigs": POLY, "general_noise": 1}, {}),
    ("fit", {"kernel": KERNEL, "data": "d.csv", "weighted": "false"}, {"d.csv": DATA}),
    ("fit", {"kernel": KERNEL, "data": "d.csv", "weighted": 1}, {"d.csv": DATA}),
    ("fit", {"kernel": KERNEL, "data": "d.csv", "weighted": None}, {"d.csv": DATA}),
    # figure lists take a JSON array of numbers: a string is not iterated by character
    ("figure1", {"B_values": "15", "grid": [0.1]}, {}),
    ("figure1", {"B_values": [True], "grid": [0.1]}, {}),
    ("figure1", {"B_values": 5.0, "grid": [0.1]}, {}),
    ("figure2", {"n_list": "8", "B_grid": [2.0], "reps": 1}, {}),
    ("figure2", {"n_list": [60], "B_grid": "2", "reps": 1}, {}),
    ("figure2", {"n_list": [60, False], "B_grid": [2.0], "reps": 1}, {}),
    ("simulate-risk", {**SWEEP, "n_list": "123"}, {}),
    ("simulate-risk", {**SWEEP, "shift_grid": "28"}, {}),
    ("simulate-risk", {**SWEEP, "shift_grid": [True]}, {}),
    # eigs and lambda_rule objects refuse keys their kind does not read
    ("lambda-star", {"eigs": {**POLY, "jmax": 10}}, {}),
    ("simulate-risk", {**SWEEP, "lambda_rule": {"rule": "poly", "alpha": 1, "B": 64}}, {}),
    # kernel and fstar objects refuse keys they do not read
    ("simulate-risk", {**SWEEP, "kernel": {**SWEEP["kernel"], "rnak": 4}}, {}),
    ("simulate-risk", {**SWEEP, "fstar": {"kind": "spread", "j": 3}}, {}),
    ("fit", {"kernel": {**KERNEL, "rnak": 2}, "data": "d.csv"}, {"d.csv": DATA}),
    # a spread f* needs a finite exponent
    ("simulate-risk", {**SWEEP, "fstar": {"kind": "spread", "exponent": float("nan")}}, {}),
    ("simulate-risk", {**SWEEP, "fstar": {"kind": "spread", "exponent": "inf"}}, {}),
    # integer keys refuse booleans
    ("erm-failure", {"n": 60, "B": 2.0, "reps": True}, {}),
    ("figure2", {"n_list": [60], "B_grid": [2.0], "reps": True}, {}),
    ("simulate-risk", {**SWEEP, "reps": True}, {}),
    ("simulate-risk", {**SWEEP, "fstar": {"kind": "phi", "j": True}}, {}),
    # number keys refuse booleans too
    ("erm-failure", {"n": 60, "B": True, "reps": 1}, {}),
    ("erm-failure", {"n": 60, "B": 2.0, "reps": 1, "sigma_sq": True}, {}),
    ("bound-curve", {"eigs": POLY, "hnorm_sq": True}, {}),
    ("fit", {"kernel": KERNEL, "data": "d.csv", "lambda": True}, {"d.csv": DATA}),
    ("lower-bound", {"eigs": POLY, "c": True}, {}),
    ("critical-radius", {"eigs": POLY, "V_sq": True}, {}),
    ("critical-radius", {"eigs": POLY, "c0": True}, {}),
    ("bound-curve", {"eigs": POLY, "grid": {"lo": True}}, {}),
    ("bound-curve", {"eigs": POLY, "grid": {"hi": True}}, {}),
    ("lambda-star", {"eigs": {"kind": "poly", "alpha": True}}, {}),
    ("lambda-star", {"eigs": {**POLY, "c": True}}, {}),
    ("simulate-risk", {**SWEEP, "kernel": {**SWEEP["kernel"], "kappa_sq": True}}, {}),
    ("simulate-risk", {**SWEEP, "pair": {"family": "hypercube", "D": 4, "B": True},
                       "shift_grid": None}, {}),
    ("simulate-risk", {**SWEEP, "pair": {"family": "gaussian_scale", "tau_sq": True},
                       "kernel": {"eigs": POLY, "eigenfunctions": "hermite", "rank": 4},
                       "shift_grid": None}, {}),
    ("simulate-risk", {**SWEEP, "lambda_rule": {"rule": "fixed", "value": True}}, {}),
    ("simulate-risk", {**SWEEP, "lambda_rule": {"rule": "poly", "alpha": True}}, {}),
    ("simulate-risk", {**SWEEP, "lambda_rule": {"rule": "reweighted", "c": True}}, {}),
    ("simulate-risk", {**SWEEP, "lambda_rule": {"rule": "reweighted", "alpha": True}}, {}),
    ("simulate-risk", {**SWEEP, "fstar": {"kind": "spread", "exponent": True}}, {}),
    ("simulate-risk", {**SWEEP, "sigma_sq": True}, {}),
    ("simulate-risk", {**SWEEP, "hnorm_sq": True}, {}),
    ("simulate-risk", {**SWEEP, "radius": True}, {}),
    ("simulate-risk", {**SWEEP, "truncation_scale": True}, {}),
    # a bound that is not finite at well-formed arguments has no answer
    ("lambda-star", {"eigs": POLY, "sigma_sq": 1e308}, {}),
    ("lambda-star", {"eigs": {**POLY, "c": 1e308}}, {}),
    ("bound-curve", {"eigs": POLY, "sigma_sq": 1e308}, {}),
    ("figure1", {"B_values": [1e308], "grid": [0.1]}, {}),
    ("lower-bound", {"eigs": POLY, "sigma_sq": 1e308, "B": 1e308}, {}),
    # a kernel's kappa_sq must be finite
    ("simulate-risk", {**SWEEP, "kernel": {**SWEEP["kernel"], "kappa_sq": "inf"}}, {}),
]

# (subcommand, config, the key its error names): each key is one the object's kind does not read
UNREAD_KEYS = [
    ("lambda-star", {"eigs": {**POLY, "jmax": 10}}, "jmax"),
    ("critical-radius", {"eigs": {**POLY, "values": [1.0]}}, "values"),
    ("bound-curve", {"eigs": {"kind": "finite", "values": [1.0], "j_max": 10}}, "j_max"),
    ("lower-bound", {"eigs": {"kind": "explicit", "values": [1.0], "alpha": 1.0}}, "alpha"),
    ("simulate-risk", {**SWEEP, "kernel": {**SWEEP["kernel"], "eigs": {**POLY, "C": 2.0}}}, "C"),
    ("simulate-risk", {**SWEEP, "lambda_rule": {"rule": "poly", "alpha": 1, "B": 64}}, "B"),
    ("simulate-risk", {**SWEEP, "lambda_rule": {"value": 0.1, "alpha": 1.0}}, "alpha"),
    ("simulate-risk", {**SWEEP, "lambda_rule": {"rule": "finite_rank", "value": 0.1}}, "value"),
    ("simulate-risk", {**SWEEP, "lambda_rule": {"rule": "reweighted", "value": 0.1}}, "value"),
    ("simulate-risk", {**SWEEP, "pair": {"family": "hypercube", "D": 4, "Bogus": 2}}, "Bogus"),
    ("simulate-risk", {**SWEEP, "pair": {"family": "hypercube", "D": 4, "tau_sq": 0.9}},
     "tau_sq"),
    ("simulate-risk", {**SWEEP, "pair": {"family": "gaussian_scale", "tau_sq": 0.9, "D": 4},
                       "shift_grid": [0.9]}, "D"),
    ("simulate-risk", {**SWEEP, "kernel": {**SWEEP["kernel"], "rnak": 4}}, "rnak"),
    ("fit", {"kernel": {**KERNEL, "rnak": 2}, "data": "d.csv"}, "rnak"),
    ("simulate-risk", {**SWEEP, "fstar": {"kind": "spread", "j": 3}}, "j"),
    ("simulate-risk", {**SWEEP, "fstar": {"kind": "phi", "exponent": 1.0}}, "exponent"),
    ("simulate-risk", {**SWEEP, "fstar": {"j": 2, "exponent": 1.0}}, "exponent"),
    # an ERM sweep does not evaluate its lambda rule, but the rule's keys are still checked
    ("simulate-risk", {**SWEEP, "estimator": "erm",
                       "lambda_rule": {"rule": "poly", "alpha": 1, "B": 64}}, "B"),
]


def run(tmp_path, monkeypatch, argv, cfg=None, files=()):
    """``main(argv)`` in tmp_path with warnings as errors, so a NaN cannot pass quietly."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SHIFTKRR_SEED", raising=False)
    for name, text in dict(files).items():
        (tmp_path / name).write_text(text)
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = argv + ["--config", "cfg.json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main(argv + ["--out", "out"])


@pytest.mark.parametrize("cmd,cfg,files", MALFORMED,
                         ids=[f"{c}-{i}" for i, (c, _, _) in enumerate(MALFORMED)])
def test_malformed_input_exits_2_or_3(tmp_path, monkeypatch, capsys, cmd, cfg, files):
    assert run(tmp_path, monkeypatch, [cmd], cfg, files) in (2, 3)
    assert capsys.readouterr().err.startswith(("config error:", "numerical failure:"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd,cfg,key", UNREAD_KEYS)
def test_a_key_the_object_does_not_read_exits_2_naming_it(tmp_path, monkeypatch, capsys,
                                                           cmd, cfg, key):
    assert run(tmp_path, monkeypatch, [cmd], cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"does not read '{key}'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd,cfg", [
    ("lambda-star", {"eigs": {**POLY, "c": 2.0, "j_max": 1000}}),
    ("lower-bound", {"eigs": {"kind": "finite", "values": [1.0, 0.5]}}),
    ("critical-radius", {"eigs": {"kind": "explicit", "values": [1.0, 0.5], "j_max": 2}}),
    ("simulate-risk", {**SWEEP, "lambda_rule": {"rule": "poly", "alpha": 1.0}}),
    ("simulate-risk", {**SWEEP, "lambda_rule": {"rule": "reweighted", "c": 0.5, "alpha": 1.0}}),
    ("simulate-risk", {**SWEEP, "lambda_rule": {"rule": "finite_rank"}}),
    ("simulate-risk", {**SWEEP, "lambda_rule": {"value": 0.1}}),
    ("simulate-risk", {**SWEEP, "pair": {"family": "hypercube", "D": 4, "B": 2.0}}),
    # without a shift_grid, the grid is the pair's own tau_sq
    ("simulate-risk", {**{k: v for k, v in SWEEP.items() if k != "shift_grid"},
                       "pair": {"family": "gaussian_scale", "tau_sq": 0.9},
                       "kernel": {"eigs": POLY, "eigenfunctions": "hermite", "rank": 4}}),
    ("simulate-risk", {**SWEEP, "kernel": {**SWEEP["kernel"], "kappa_sq": 2.0}}),
    ("simulate-risk", {**SWEEP, "fstar": {"kind": "phi", "j": 2}}),
    ("simulate-risk", {**SWEEP, "fstar": {"kind": "spread", "exponent": 1.5}}),
])
def test_every_key_an_object_reads_is_accepted(tmp_path, monkeypatch, cmd, cfg):
    assert run(tmp_path, monkeypatch, [cmd], cfg) == 0


@pytest.mark.parametrize("over", [{"sigma_sq": 0.0}, {"n_list": [1, 8, 50]}],
                         ids=["sigma_sq-0", "n-1"])
def test_an_erm_sweep_does_not_evaluate_its_lambda_rule(tmp_path, monkeypatch, over):
    # the poly rule has no value at sigma_sq = 0 and is 0 at n = 1 (log 1 = 0)
    cfg = {**SWEEP, "estimator": "erm", "lambda_rule": {"rule": "poly", "alpha": 1.0}, **over}
    assert run(tmp_path, monkeypatch, ["simulate-risk"], cfg) == 0
    rows = (tmp_path / "out").read_text().splitlines()[1:]
    # each row reports the multiplier ERM fitted at
    assert rows and all(row.endswith(",ok") and 0 < float(row.split(",")[4]) < math.inf
                        for row in rows)


@pytest.mark.parametrize("module,name,bases", [
    (spectrum, "NumericalError", (ValueError, RuntimeError)),
    (spectrum, "TruncationExceeded", (RuntimeError,)),
    (estimators, "FactorizationError", (RuntimeError,)),
    (estimators, "ProjectionError", (RuntimeError,)),
    (cli, "ConfigError", (ValueError,)),
])
def test_each_error_keeps_its_old_path_and_bases(module, name, bases):
    err = getattr(module, name)
    assert err is getattr(errors, name)
    assert all(issubclass(err, base) for base in bases)
    # the CLI maps every numerical failure to exit 3 through this one base
    assert issubclass(err, errors.NumericalFailure) == (name != "ConfigError")


@pytest.mark.parametrize("cmd,flag", [(cmd, flag) for cmd in SUBCOMMANDS
                                      for flag in ALL_FLAGS
                                      if flag not in OWN_FLAGS.get(cmd, {})])
def test_flag_a_subcommand_does_not_take_exits_2(cmd, flag):
    with pytest.raises(SystemExit) as exc:
        main([cmd, flag, ALL_FLAGS[flag], "--out", "unused"])
    assert exc.value.code == 2


@pytest.mark.parametrize("cmd,cfg", [
    ("lambda-star", {"eigs": POLY, "n": 8000}),
    ("erm-failure", {"n": 60, "B": 2.0, "reps": 2, "D": 8, "seed": 3}),
    ("simulate-risk", {**SWEEP, "seed": 1, "risk": "mc", "n_mc": 1000}),
])
def test_whole_number_floats_read_as_integers(tmp_path, monkeypatch, cmd, cfg):
    assert run(tmp_path, monkeypatch, [cmd], cfg) == 0
    ints = (tmp_path / "out").read_bytes()
    floats = {k: float(v) if isinstance(v, int) else v for k, v in cfg.items()}
    assert run(tmp_path, monkeypatch, [cmd], floats) == 0
    assert (tmp_path / "out").read_bytes() == ints


def test_bound_curve_at_a_shift_where_s_squared_underflows(tmp_path, monkeypatch):
    assert run(tmp_path, monkeypatch, ["bound-curve"], {"eigs": POLY, "grid": [1e-170]}) == 0
    row = (tmp_path / "out").read_text().splitlines()[1].split(",")
    assert all(math.isfinite(float(v)) for v in row)


def test_flags_override_the_config_only_when_given(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(hard_instance, "simulate_failure",
                        lambda n, B, **kw: seen.append((n, B, kw["reps"], kw["seed"])) or [])
    cfg = {"n": 300, "B": 4.0, "reps": 3, "seed": 5}
    assert run(tmp_path, monkeypatch, ["erm-failure"], cfg) == 0
    assert run(tmp_path, monkeypatch, ["erm-failure", "--n", "0", "--reps", "0",
                                       "--seed", "0"], cfg) == 0
    monkeypatch.setenv("SHIFTKRR_SEED", "7")
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["erm-failure", "--config", "cfg.json", "--out", "out"]) == 0
    assert seen == [(300, 4.0, 3, 5), (0, 4.0, 0, 0), (300, 4.0, 3, 7)]


def test_malformed_env_seed_only_affects_seeded_subcommands(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SHIFTKRR_SEED", "abc")
    (tmp_path / "f1.json").write_text(json.dumps({"grid": [0.1, 1.0], "B_values": [1.0]}))
    assert main(["figure1", "--config", "f1.json", "--out", "f1.csv"]) == 0
    assert main(["erm-failure", "--n", "60", "--B", "2", "--reps", "1",
                 "--out", "e.csv"]) == 2
    assert main(["erm-failure", "--n", "60", "--B", "2", "--reps", "1", "--seed", "1",
                 "--out", "e.csv"]) == 0


def test_simulate_failure_rejects_no_replicates_and_nan_noise():
    with pytest.raises(ValueError):
        simulate_failure(60, 2.0, reps=0)
    with pytest.raises(ValueError):
        simulate_failure(60, 2.0, sigma_sq=float("nan"), reps=1)


GAUSSIAN_PAIR = {"pair": {"family": "gaussian_scale", "tau_sq": 0.9}, "shift_grid": [0.9]}


@pytest.mark.parametrize("cfg,message", [
    ({**SWEEP, "risk": "exakt"}, "unknown risk 'exakt'"),
    ({**SWEEP, "estimator": "reweighted", "weight_rule": "b"}, "unknown weight_rule 'b'"),
    ({**SWEEP, "fit_mode": "Dual"}, "unknown fit_mode 'Dual'"),
    ({**SWEEP, **GAUSSIAN_PAIR, "estimator": "reweighted", "weight_rule": "B",
      "kernel": {"eigs": POLY, "eigenfunctions": "hermite", "rank": 4}},
     "weight rule 'B' needs a B-bounded pair"),
    ({**SWEEP, **GAUSSIAN_PAIR, "risk": "exact",
      "kernel": {"eigs": {"kind": "finite", "values": [1.0]}, "rank": 1}},
     "exact risk needs eigenfunctions orthonormal"),
    ({**SWEEP, "risk": "mc", "n_mc": 0}, "n_mc must be >= 1"),
    ({**SWEEP, "estimator": "erm", "radius": float("nan")}, "radius must be finite and positive"),
    ({**SWEEP, "estimator": "reweighted", "truncation_scale": float("nan")},
     "truncation_scale must be finite and positive"),
    ({**SWEEP, "lambda_rule": {"rule": "fixed", "value": float("nan")}},
     "lambda must be finite and positive"),
    ({**SWEEP, "lambda_rule": {"rule": "fixed", "value": 0.0}},
     "lambda must be finite and positive"),
    # a primal fit reads streamed moments, a dual fit the dataset: both refuse the rank
    ({**SWEEP, "kernel": {**SWEEP["kernel"], "rank": 5}},
     "requested 5 coordinate features from dimension 4"),
    ({**SWEEP, "kernel": {**SWEEP["kernel"], "rank": 5}, "estimator": "erm"},
     "requested 5 coordinate features from dimension 4"),
    ({**SWEEP, "kernel": {**SWEEP["kernel"], "rank": 5}, "fit_mode": "dual"},
     "requested 5 coordinate features from dimension 4"),
], ids=["risk", "weight_rule", "fit_mode", "clip-at-B-unbounded", "exact-not-orthonormal",
        "n_mc-0", "radius-nan", "truncation_scale-nan", "lambda-nan", "lambda-0",
        "rank-above-D-primal", "rank-above-D-erm", "rank-above-D-dual"])
def test_sweep_config_typos_exit_2(tmp_path, monkeypatch, capsys, cfg, message):
    assert run(tmp_path, monkeypatch, ["simulate-risk"], cfg) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd,cfg", [
    ("bound-curve", {"eigs": POLY, "grid": []}),
    ("lambda-star", {"eigs": POLY, "grid": []}),
    ("figure1", {"grid": []}),
])
def test_empty_lambda_grid_exits_2_with_one_message(tmp_path, monkeypatch, capsys, cmd, cfg):
    assert run(tmp_path, monkeypatch, [cmd], cfg) == 2
    assert capsys.readouterr().err == "config error: lambda grid must be nonempty\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd,cfg,files", [
    ("lambda-star", {"eigs": json.dumps(POLY)}, {}),
    ("fit", {"kernel": json.dumps(KERNEL), "data": "d.csv"}, {"d.csv": DATA}),
    ("fit", {"kernel": {**KERNEL, "eigs": json.dumps(KERNEL["eigs"])}, "data": "d.csv"},
     {"d.csv": DATA}),
    ("fit", {"kernel": {**KERNEL, "eigs": [1.0, 0.5]}, "data": "d.csv"}, {"d.csv": DATA}),
    ("simulate-risk", {**SWEEP, "kernel": {**SWEEP["kernel"], "eigs": json.dumps(POLY)}}, {}),
], ids=["eigs", "kernel", "kernel-eigs", "kernel-eigs-list", "sweep-kernel-eigs"])
def test_sub_object_given_as_json_text_exits_2(tmp_path, monkeypatch, capsys, cmd, cfg, files):
    assert run(tmp_path, monkeypatch, [cmd], cfg, files) == 2
    assert capsys.readouterr().err.startswith("config error: config needs a JSON object under")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["primal", "dual"])
@pytest.mark.parametrize("row", ["1,1,nan,1", "inf,1,0.5,1"])
def test_fit_data_that_is_not_finite_exits_2_naming_the_file(tmp_path, monkeypatch, capsys,
                                                             mode, row):
    cfg = {"kernel": KERNEL, "data": "d.csv", "mode": mode}
    assert run(tmp_path, monkeypatch, ["fit"], cfg, {"d.csv": DATA + row + "\n"}) == 2
    assert capsys.readouterr().err.startswith("config error: dataset CSV d.csv:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd,cfg", [
    ("bound-curve", {"eigs": POLY, "grid": {"points": 2**45}}),
    ("figure1", {"grid": {"points": 2**45}}),
])
def test_grid_too_large_to_allocate_exits_2(tmp_path, monkeypatch, capsys, cmd, cfg):
    # 2^45 float64 points are 256 TiB, refused before any memory is touched
    assert run(tmp_path, monkeypatch, [cmd], cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd,base,key,value", [
    ("figure1", {"grid": [0.1]}, "B_values", "15"),
    ("figure1", {"grid": [0.1]}, "B_values", [True]),
    ("figure2", {"grid": [0.1]}, "n_list", "8"),
    ("figure2", {"grid": [0.1]}, "B_grid", [2.0, None]),
    ("simulate-risk", SWEEP, "n_list", "123"),
    ("simulate-risk", SWEEP, "shift_grid", "28"),
    ("simulate-risk", SWEEP, "shift_grid", [True]),
])
def test_a_config_list_that_is_not_an_array_of_numbers_exits_2(tmp_path, monkeypatch, capsys,
                                                               cmd, base, key, value):
    assert run(tmp_path, monkeypatch, [cmd], {**base, key: value}) == 2
    assert capsys.readouterr().err == f"config error: '{key}' must be a JSON array of numbers\n"
    assert not (tmp_path / "out").exists()


def test_critical_radius_with_no_root_on_its_grid_exits_3(tmp_path, monkeypatch, capsys):
    cfg = {"eigs": POLY, "n": 2, "grid": [1e-8]}
    assert run(tmp_path, monkeypatch, ["critical-radius"], cfg) == 3
    assert capsys.readouterr().err == "numerical failure: no solution on grid\n"
    assert not (tmp_path / "out").exists()
