import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftkrr import estimators, experiments
from shiftkrr.experiments import (
    FIGURE1_HEADER,
    FIGURE2_HEADER,
    ExperimentConfig,
    RiskRow,
    figure1,
    figure2,
    fit_rate_slope,
    fstar_coordinates,
    run_risk_sweep,
    write_csv,
)
from shiftkrr.bounds import lambda_star
from shiftkrr.estimators import FactorizationError, ProjectionError
from shiftkrr.hard_instance import simulate_failure
from shiftkrr.seeding import derive_seed
from shiftkrr.spectrum import EigenKernel, EigenSequence, default_grid

HYPERCUBE_CFG = {
    "pair": {"family": "hypercube", "D": 16},
    "kernel": {"eigs": {"kind": "poly", "alpha": 1.0, "c": 1.0, "j_max": 1000000},
               "eigenfunctions": "hypercube", "rank": 16},
}


def make_config(**over):
    base = dict(
        pair=HYPERCUBE_CFG["pair"],
        kernel=HYPERCUBE_CFG["kernel"],
        estimator="krr",
        lambda_rule={"rule": "fixed", "value": 0.05},
        n_list=[200],
        shift_grid=[4.0],
        sigma_sq=1.0,
        hnorm_sq=1.0,
        fstar={"kind": "phi", "j": 1},
        reps=3,
        seed=42,
    )
    base.update(over)
    return ExperimentConfig.from_json(base)


def test_fstar_coordinates_norms():
    kernel = EigenKernel.from_json(HYPERCUBE_CFG["kernel"])
    for spec in [{"kind": "phi", "j": 2}, {"kind": "spread", "exponent": 1.25}]:
        theta = fstar_coordinates(spec, kernel, hnorm_sq=1.0)
        hn = np.sum(theta[kernel.mu > 0] ** 2 / kernel.mu[kernel.mu > 0])
        assert hn == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fstar_coordinates({"kind": "phi", "j": 99}, kernel, 1.0)
    with pytest.raises(ValueError):
        fstar_coordinates({"kind": "nope"}, kernel, 1.0)


def synthetic_rows(risk_fn):
    rows = []
    for n in (100, 200, 400, 800):
        for rep in range(3):
            rows.append(RiskRow(rep, n, 1.0, "krr", 0.1, risk_fn(n), 0.5, 0, "ok"))
    return rows


def test_fit_rate_slope_exact_power_law():
    slopes = fit_rate_slope(synthetic_rows(lambda n: n ** (-2.0 / 3.0)))
    rs = slopes[("krr", 1.0)]
    assert rs.slope == pytest.approx(-2.0 / 3.0, abs=1e-10)
    assert rs.stderr == pytest.approx(0.0, abs=1e-10)


def test_fit_rate_slope_constant():
    slopes = fit_rate_slope(synthetic_rows(lambda n: 3.5))
    assert slopes[("krr", 1.0)].slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_slope_insufficient_grid():
    rows = [RiskRow(0, n, 1.0, "krr", 0.1, 1.0, 0.5, 0, "ok") for n in (100, 200)]
    with pytest.raises(ValueError, match="insufficient n grid"):
        fit_rate_slope(rows)


def test_fit_rate_slope_skips_failed_rows():
    rows = synthetic_rows(lambda n: n ** -1.0)
    rows.append(RiskRow(9, 100, 1.0, "krr", 0.1, float("nan"), float("nan"), 0,
                        "factorization failed"))
    slopes = fit_rate_slope(rows)
    assert slopes[("krr", 1.0)].slope == pytest.approx(-1.0, abs=1e-10)


def test_run_risk_sweep_deterministic():
    cfg = make_config()
    rows1 = run_risk_sweep(cfg)
    rows2 = run_risk_sweep(make_config())
    assert rows1 == rows2
    assert len(rows1) == 3
    assert all(r.status == "ok" for r in rows1)


def test_run_risk_sweep_noiseless_realizable():
    cfg = make_config(sigma_sq=0.0, lambda_rule={"rule": "fixed", "value": 1e-12},
                      n_list=[120], reps=2)
    rows = run_risk_sweep(cfg)
    assert all(r.risk <= 1e-6 for r in rows)


def test_run_risk_sweep_medians_decrease_in_n():
    cfg = make_config(
        estimator="krr",
        lambda_rule={"rule": "poly", "alpha": 1.0},
        n_list=[250, 1000, 4000],
        shift_grid=[8.0],
        fstar={"kind": "spread", "exponent": 1.25},
        reps=5,
    )
    rows = run_risk_sweep(cfg)
    med = [np.median([r.risk for r in rows if r.n == n]) for n in (250, 1000, 4000)]
    assert med[0] > med[1] > med[2]


def test_reweighted_clip_at_B_equals_tau_n_when_tau_dominates():
    # hypercube ratios never exceed B, so once tau_n >= B both truncation
    # rules keep every weight and the fits coincide exactly
    base = dict(estimator="reweighted", n_list=[100], shift_grid=[4.0],
                lambda_rule={"rule": "fixed", "value": 0.05}, reps=3)
    at_tau = run_risk_sweep(make_config(**base, weight_rule="tau_n"))
    at_b = run_risk_sweep(make_config(**base, weight_rule="B"))
    assert at_tau == at_b


def test_run_risk_sweep_erm_and_lambda_rules():
    cfg = make_config(estimator="erm", radius=1.0, reps=2)
    rows = run_risk_sweep(cfg)
    assert all(r.status == "ok" and r.hnorm_sq <= 1.0 + 1e-6 for r in rows)
    cfg2 = make_config(lambda_rule={"rule": "finite_rank"}, reps=1)
    row = run_risk_sweep(cfg2)[0]
    assert row.lam == pytest.approx(16 * math.log(200) / 200)
    cfg3 = make_config(estimator="reweighted", lambda_rule={"rule": "reweighted"},
                       reps=1)
    row3 = run_risk_sweep(cfg3)[0]
    assert row3.lam == pytest.approx(16 * 4.0 * math.log(200) ** 3 / 200)


def test_run_risk_sweep_records_failures(monkeypatch):
    def boom(*args, **kwargs):
        raise FactorizationError("factorization failed")

    # both the streamed and the Dataset route fit through the core's ridge solve
    monkeypatch.setattr(estimators.RidgeCore, "fit_ridge", boom)
    rows = run_risk_sweep(make_config(reps=2))
    assert all(r.status == "factorization failed" for r in rows)
    assert all(math.isnan(r.risk) for r in rows)


def test_an_erm_failure_row_writes_no_lambda(monkeypatch):
    def boom(*args, **kwargs):
        raise ProjectionError("constraint projection failed")

    # ERM never evaluates the lambda rule, so a failed fit has no lambda to report
    monkeypatch.setattr(estimators.RidgeCore, "fit_constrained", boom)
    rows = run_risk_sweep(make_config(estimator="erm", reps=2))
    assert all(r.status == "constraint projection failed" for r in rows)
    assert all(math.isnan(r.lam) and math.isnan(r.risk) for r in rows)


def test_a_pairs_own_shift_is_the_grid_without_a_shift_grid():
    pair = {"family": "hypercube", "D": 16, "B": 2.0}
    # a shift_grid wins over the pair's B
    assert [r.b_or_v2 for r in run_risk_sweep(make_config(pair=pair, reps=2))] == [4.0, 4.0]
    own = run_risk_sweep(make_config(pair=pair, shift_grid=None, reps=2))
    assert [r.b_or_v2 for r in own] == [2.0, 2.0]
    assert own == run_risk_sweep(make_config(shift_grid=[2.0], reps=2))


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(reps=0)
    with pytest.raises(ValueError):
        make_config(n_list=[])
    with pytest.raises(ValueError):
        make_config(estimator="mystery")
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_json({"pair": {}, "kernel": {}, "bogus": 1})


@pytest.mark.parametrize("seed", [True, 1.5, None, "x"])
def test_config_refuses_a_seed_that_is_not_a_whole_number(seed):
    with pytest.raises(ValueError, match="'seed' must be a whole number"):
        make_config(seed=seed)


def test_risk_row_reproducible_in_isolation():
    # any row can be recomputed from (master seed, grid indices, rep) alone
    from shiftkrr.seeding import derive_seed, rng_for
    from shiftkrr.estimators import fit_krr, l2q_error
    from shiftkrr.hard_instance import hypercube_ridge_core

    cfg = make_config(n_list=[150, 300], shift_grid=[2.0, 8.0], reps=4)
    rows = run_risk_sweep(cfg)
    target = [r for r in rows if r.n == 300 and r.b_or_v2 == 8.0 and r.rep == 2][0]
    ni, bi, rep = 1, 1, 2
    seed_r = derive_seed(cfg.seed, ni, bi, rep)
    assert target.seed == seed_r
    kernel = EigenKernel.from_json(cfg.kernel)
    theta_star = fstar_coordinates(cfg.fstar, kernel, cfg.hnorm_sq)
    from shiftkrr.shifts import Dataset, hypercube_hard_pair

    core = hypercube_ridge_core(kernel, theta_star, 300, 16, 8.0, 1.0, rng_for(seed_r, 1))
    assert l2q_error(core.fit_ridge(0.05), theta_star, exact_mode=True) == target.risk
    # the same sample as a Dataset: its c = M^(1/2) F^T y differs in rounding only
    pair = hypercube_hard_pair(16, 8.0)
    rng = rng_for(seed_r, 1)
    xs = pair.sample_source(300, rng)
    ys = kernel.feature_matrix(xs) @ theta_star + rng.normal(0.0, 1.0, 300)
    model = fit_krr(Dataset(xs, ys), kernel, 0.05, mode="primal")
    assert l2q_error(model, theta_star, exact_mode=True) == pytest.approx(target.risk, rel=1e-12)


def test_forced_mc_risk_close_to_exact():
    cfg_exact = make_config(n_list=[300], reps=2, risk="exact")
    cfg_mc = make_config(n_list=[300], reps=2, risk="mc", n_mc=200000)
    exact_rows = run_risk_sweep(cfg_exact)
    mc_rows = run_risk_sweep(cfg_mc)
    for e, m in zip(exact_rows, mc_rows):
        assert m.risk == pytest.approx(e.risk, rel=0.1, abs=1e-4)


def test_raw_weights_exposed_without_truncation():
    cfg = make_config(
        pair={"family": "gaussian_scale", "tau_sq": 0.9},
        kernel={"eigs": {"kind": "finite", "values": [1.0, 0.5, 0.25]},
                "eigenfunctions": "hermite", "rank": 3, "kappa_sq": 10.0},
        estimator="reweighted",
        weight_rule="raw",
        shift_grid=[0.9],
        n_list=[200],
        reps=2,
    )
    rows = run_risk_sweep(cfg)
    assert all(r.status == "ok" for r in rows)


def test_figure1_structure_and_argmin():
    rows = figure1()
    assert len(rows) == 4 * 400
    grid = default_grid()
    eigs = EigenSequence.poly_decay(1.0, 1.0)
    for B in (1.0, 15.0):
        sub = [r for r in rows if r[0] == B]
        flags = [r for r in sub if r[5]]
        assert len(flags) == 1
        # the flagged row matches lambda_star on the same grid
        lam, rep = lambda_star(eigs, B, 8000, lambda_grid=grid)
        assert flags[0][1] == lam
        assert flags[0][4] == rep.total
    star_of = {B: [r[1] for r in rows if r[0] == B and r[5]][0] for B in (1.0, 15.0)}
    assert star_of[15.0] < star_of[1.0]


def test_figure1_csv_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(str(p1), FIGURE1_HEADER, figure1())
    write_csv(str(p2), FIGURE1_HEADER, figure1())
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "B,lambda,bias_sq,variance,total,is_argmin"


def test_figure2_small_run(tmp_path):
    out = tmp_path / "f2.csv"
    rows = figure2(n_list=[400], B_grid=[2.0, 8.0], reps=2, seed=1)
    write_csv(str(out), FIGURE2_HEADER, rows)
    assert [r[:2] for r in rows] == [[400, 2.0], [400, 8.0]]
    assert out.read_text().splitlines()[0] == "n,B,median_hnorm_sq,reps"
    again = figure2(n_list=[400], B_grid=[2.0, 8.0], reps=2, seed=1)
    assert rows == again


def test_figure2_skips_cells_beyond_validity():
    # B = 256 exceeds 400^(2/3) = 54.3, so the n = 400 curve ends earlier
    rows = figure2(n_list=[400], B_grid=[8.0, 256.0], reps=1, seed=2)
    assert [r[:2] for r in rows] == [[400, 8.0]]


def test_figure2_and_erm_failure_share_one_replicate():
    # figure2 solves G + n lam I; simulate_failure reads the same solve off the spectrum
    n_list, B_grid = [300, 600], [4.0, 16.0]
    rows = figure2(n_list=n_list, B_grid=B_grid, reps=3, seed=5, sigma_sq=0.5)
    for (ni, n), (bi, B) in itertools.product(enumerate(n_list), enumerate(B_grid)):
        recs = simulate_failure(n, B, sigma_sq=0.5, reps=3, seed=derive_seed(5, ni, bi))
        n_row, B_row, med, reps = rows[ni * len(B_grid) + bi]
        assert (n_row, B_row, reps) == (n, B, 3)
        assert med == pytest.approx(np.median([r.krr_hnorm_sq for r in recs]), rel=1e-12)


def test_fit_rate_slope_rejects_a_zero_median_risk():
    rows = synthetic_rows(lambda n: 0.0 if n == 200 else n ** -1.0)
    with pytest.raises(ValueError, match="median risk must be positive"):
        fit_rate_slope(rows)


@pytest.mark.parametrize("field,typo", [("risk", "exakt"), ("weight_rule", "tau"),
                                        ("fit_mode", "Dual")])
def test_config_rejects_unknown_modes(field, typo):
    with pytest.raises(ValueError, match=f"unknown {field} '{typo}'"):
        make_config(**{field: typo})


GAUSSIAN_CFG = dict(
    pair={"family": "gaussian_scale", "tau_sq": 0.9},
    kernel={"eigs": {"kind": "finite", "values": [1.0, 0.5, 0.25]},
            "eigenfunctions": "hermite", "rank": 3, "kappa_sq": 10.0},
    shift_grid=[0.9],
)


def test_clip_at_B_needs_a_B_bounded_pair():
    cfg = make_config(**GAUSSIAN_CFG, estimator="reweighted", weight_rule="B")
    with pytest.raises(ValueError, match="weight rule 'B' needs a B-bounded pair"):
        run_risk_sweep(cfg)
    # the rule is a weighting of the reweighted estimator only
    assert all(r.status == "ok" for r in run_risk_sweep(
        make_config(**GAUSSIAN_CFG, weight_rule="B", reps=1)))


def test_exact_risk_needs_orthonormal_eigenfunctions_under_the_target():
    # coordinate features on a Gaussian target: the coordinate distance is not the risk
    cfg = make_config(
        pair=GAUSSIAN_CFG["pair"], shift_grid=[0.9], risk="exact",
        kernel={"eigs": {"kind": "finite", "values": [1.0]}, "eigenfunctions": "hypercube",
                "rank": 1})
    with pytest.raises(ValueError, match="exact risk needs eigenfunctions orthonormal"):
        run_risk_sweep(cfg)
    assert all(r.status == "ok" for r in run_risk_sweep(
        make_config(**GAUSSIAN_CFG, risk="exact", reps=1)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e300, 1e300), st.floats(0.0, 1.0),
                          st.sampled_from([math.inf, -math.inf, math.nan])),
                min_size=1, max_size=41))
def test_sorted_median_is_numpy_median_bit_for_bit(values):
    with np.errstate(invalid="ignore"):  # the mean of -inf and inf
        expected = float(np.median(values))
    got = experiments._median(values)
    assert got == expected or (math.isnan(got) and math.isnan(expected))
