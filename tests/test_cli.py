import json

import numpy as np
import pytest

from shiftkrr.cli import main
from shiftkrr.shifts import Dataset, hypercube_hard_pair
from shiftkrr.seeding import rng_for

POLY_EIGS = {"kind": "poly", "alpha": 1.0, "c": 1.0, "j_max": 1000000}


def write_cfg(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_lambda_star_and_bound_curve(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {"eigs": POLY_EIGS, "B": 5.0, "n": 8000})
    out = tmp_path / "ls.json"
    assert main(["lambda-star", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["B"] == 5.0 and 1e-4 <= doc["lambda_star"] <= 10.0
    bc = tmp_path / "bc.csv"
    assert main(["bound-curve", "--config", cfg, "--out", str(bc)]) == 0
    lines = bc.read_text().splitlines()
    assert lines[0] == "lambda,bias_sq,variance,total,B,n,sigma_sq"
    assert len(lines) == 401


def test_lower_bound_and_critical_radius(tmp_path):
    cfg = write_cfg(tmp_path, "lb.json", {"eigs": POLY_EIGS, "B": 2.0, "n": 1000})
    out = tmp_path / "lb.out.json"
    assert main(["lower-bound", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lower_bound"] > 0
    cfg2 = write_cfg(tmp_path, "cr.json",
                     {"eigs": {"kind": "finite", "values": [1.0]}, "n": 100000})
    out2 = tmp_path / "cr.out.json"
    assert main(["critical-radius", "--config", cfg2, "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["critical_radius"] == pytest.approx(0.249, abs=0.01)


def test_fit_subcommand(tmp_path):
    pair = hypercube_hard_pair(3, 2.0)
    rng = rng_for(1)
    xs = pair.sample_source(30, rng)
    ys = xs[:, 0] + rng.normal(0, 0.1, 30)
    data_path = tmp_path / "data.csv"
    Dataset(xs, ys).to_csv(str(data_path))
    cfg = write_cfg(tmp_path, "fit.json", {
        "kernel": {"eigs": {"kind": "finite", "values": [1.0, 0.5, 0.25]},
                   "eigenfunctions": "hypercube", "rank": 3},
        "lambda": 0.1,
    })
    out = tmp_path / "model.json"
    assert main(["fit", "--config", cfg, "--data", str(data_path),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "dual" and len(doc["alpha"]) == 30
    assert abs(doc["theta"][0]) > 0.3  # first coordinate carries the signal


def test_simulate_risk_and_rates(tmp_path):
    cfg = write_cfg(tmp_path, "sweep.json", {
        "pair": {"family": "hypercube", "D": 8},
        "kernel": {"eigs": POLY_EIGS, "eigenfunctions": "hypercube", "rank": 8},
        "estimator": "krr",
        "lambda_rule": {"rule": "poly", "alpha": 1.0},
        "n_list": [100, 200, 400],
        "shift_grid": [4.0],
        "reps": 3,
    })
    table = tmp_path / "table.csv"
    assert main(["simulate-risk", "--config", cfg, "--seed", "5",
                 "--out", str(table)]) == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "rep,n,B_or_V2,estimator,lambda,risk,hnorm_sq,seed,status"
    assert len(lines) == 10
    rates_out = tmp_path / "rates.json"
    assert main(["rates", "--table", str(table), "--out", str(rates_out)]) == 0
    doc = json.loads(rates_out.read_text())
    assert len(doc["groups"]) == 1
    assert doc["groups"][0]["slope"] < 0


def test_erm_failure_and_env_seed(tmp_path, monkeypatch):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["erm-failure", "--n", "300", "--B", "10", "--reps", "2",
                 "--seed", "9", "--out", str(out1)]) == 0
    monkeypatch.setenv("SHIFTKRR_SEED", "9")
    assert main(["erm-failure", "--n", "300", "--B", "10", "--reps", "2",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == \
        "rep,n,B,erm_risk,krr_risk,krr_hnorm_sq,theta1_erm"


def test_figures_and_json_format(tmp_path):
    f1 = tmp_path / "f1.csv"
    assert main(["figure1", "--out", str(f1)]) == 0
    assert len(f1.read_text().splitlines()) == 1601
    f2 = tmp_path / "f2.json"
    cfg = write_cfg(tmp_path, "f2cfg.json",
                    {"n_list": [300], "B_grid": [2.0], "reps": 2})
    assert main(["figure2", "--config", cfg, "--seed", "3", "--format", "json",
                 "--out", str(f2)]) == 0
    doc = json.loads(f2.read_text())
    assert doc["rows"][0]["n"] == 300


def test_config_error_exit_codes(tmp_path):
    assert main(["lambda-star", "--config", "missing.json",
                 "--out", str(tmp_path / "x.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")
    assert main(["lambda-star", "--config", str(bad),
                 "--out", str(tmp_path / "y.json")]) == 2
    cfg = write_cfg(tmp_path, "nokernel.json", {"lambda": 0.1})
    assert main(["fit", "--config", cfg, "--data", "nope.csv",
                 "--out", str(tmp_path / "m.json")]) == 2


def test_numerical_failure_exit_code(tmp_path):
    # two opposite points span one feature direction: at lambda = 1e-300 the
    # dual's 2 x 2 matrix is singular in floating point and its Cholesky fails
    xs = np.array([[1.0, -1.0], [-1.0, 1.0]])
    ys = np.array([0.5, 1.0])
    data_path = tmp_path / "singular.csv"
    Dataset(xs, ys).to_csv(str(data_path))
    cfg = write_cfg(tmp_path, "fit.json", {
        "kernel": {"eigs": {"kind": "finite", "values": [1.0, 0.5]},
                   "eigenfunctions": "hypercube", "rank": 2},
        "lambda": 1e-300,
    })
    assert main(["fit", "--config", cfg, "--data", str(data_path),
                 "--out", str(tmp_path / "m.json")]) == 3
