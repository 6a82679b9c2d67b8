"""The CLI exit-code contract: malformed input exits 2 or 3, never with a traceback."""

import json
import math
import warnings

import pytest

from shiftkrr import cli, hard_instance
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
    "simulate-risk": {"--seed": "1", "--threads": "2"},
    "erm-failure": {"--seed": "1", "--n": "60", "--B": "2", "--reps": "1"},
    "figure2": {"--seed": "1"},
}
ALL_FLAGS = {flag: value for flags in OWN_FLAGS.values() for flag, value in flags.items()}

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


@pytest.mark.parametrize("cmd,flag", [(cmd, flag) for cmd in SUBCOMMANDS
                                      for flag in ALL_FLAGS
                                      if flag not in OWN_FLAGS.get(cmd, {})])
def test_flag_a_subcommand_does_not_take_exits_2(cmd, flag):
    with pytest.raises(SystemExit) as exc:
        main([cmd, flag, ALL_FLAGS[flag], "--out", "unused"])
    assert exc.value.code == 2


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
], ids=["risk", "weight_rule", "fit_mode", "clip-at-B-unbounded", "exact-not-orthonormal",
        "n_mc-0", "radius-nan", "truncation_scale-nan", "lambda-nan", "lambda-0"])
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
], ids=["eigs", "kernel"])
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
