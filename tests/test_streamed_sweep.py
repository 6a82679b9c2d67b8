"""Hypercube sweep replicates from streamed moments: the rows of the Dataset
route, up to the rounding of c, without an n x D dataset per fit."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftkrr import experiments
from shiftkrr.estimators import RidgeCore
from shiftkrr.experiments import ExperimentConfig, fstar_coordinates, run_risk_sweep
from shiftkrr.hard_instance import hypercube_ridge_core
from shiftkrr.seeding import rng_for
from shiftkrr.shifts import Dataset, hypercube_hard_pair
from shiftkrr.spectrum import EigenKernel


def dataset_core(kernel, theta_star, n, D, B, sigma, rng):
    """The core the Dataset route builds: ``sample_dataset``'s draws, then F^T F and F^T y."""
    xs = hypercube_hard_pair(D, B).sample_source(n, rng)
    ys = kernel.feature_matrix(xs) @ theta_star
    if sigma > 0:
        ys = ys + rng.normal(0.0, sigma, size=n)
    return RidgeCore(Dataset(xs, ys), kernel)


@st.composite
def sweeps(draw):
    D = draw(st.integers(1, 12))
    rank = draw(st.one_of(st.just(D), st.integers(1, D)))
    if draw(st.booleans()):
        eigs = {"kind": "poly", "alpha": 1.0}
    else:  # fewer values than the rank, and trailing zeros that leave coordinates inactive
        live = draw(st.integers(1, rank))
        values = sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=live, max_size=live)),
                        reverse=True)
        eigs = {"kind": "finite",
                "values": values + [0.0] * draw(st.integers(0, rank - live))}
    if draw(st.booleans()):
        fstar = {"kind": "phi", "j": 1}
    else:
        fstar = {"kind": "spread", "exponent": draw(st.floats(0.5, 2.0))}
    risk = draw(st.sampled_from(["exact", "mc"]))
    estimator = draw(st.sampled_from(["krr", "erm"]))
    return ExperimentConfig.from_json({
        "pair": {"family": "hypercube", "D": D},
        "kernel": {"eigs": eigs, "eigenfunctions": "hypercube", "rank": rank},
        "estimator": estimator,
        "radius": draw(st.floats(0.2, 0.6)),
        "lambda_rule": {"rule": "fixed", "value": draw(st.floats(1e-2, 1.0))},
        "n_list": [draw(st.integers(1, 300))],
        "shift_grid": [draw(st.floats(1.0, 16.0))],
        "sigma_sq": draw(st.sampled_from([0.0, 1.0])),
        "fstar": fstar,
        "risk": risk,
        "n_mc": 500,
        "reps": 2,
        "seed": draw(st.integers(0, 2**32 - 1)),
    })


@settings(max_examples=60, deadline=None)
@given(cfg=sweeps())
def test_streamed_rows_are_the_dataset_rows(cfg):
    streamed = run_risk_sweep(cfg)
    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(experiments, "hypercube_ridge_core", dataset_core)
        rows = run_risk_sweep(cfg)
    finally:
        mp.undo()
    kernel = EigenKernel.from_json(cfg.kernel)
    # the zero fit's risk: a near-interpolating fit's risk is a difference of such terms
    scale = float(np.sum(fstar_coordinates(cfg.fstar, kernel, cfg.hnorm_sq) ** 2))
    for got, want in zip(streamed, rows, strict=True):
        assert (got.rep, got.n, got.b_or_v2, got.seed, got.status) == (
            want.rep, want.n, want.b_or_v2, want.seed, want.status)
        # an ERM row's lambda is its multiplier, solved from c
        assert got.lam == (pytest.approx(want.lam, rel=1e-12) if cfg.estimator == "erm"
                           else want.lam)
        assert got.risk == pytest.approx(want.risk, rel=1e-12, abs=1e-12 * scale)
        assert got.hnorm_sq == pytest.approx(want.hnorm_sq, rel=1e-12)


def test_erm_below_the_rank_reads_no_rounding_in_the_null_space():
    # one row, a slack ball and sigma^2 = 0: the floored multiplier would amplify the
    # rounding of c in the null space of G by about 1/(n xi_floor) on either route
    cfg = ExperimentConfig.from_json({
        "pair": {"family": "hypercube", "D": 4},
        "kernel": {"eigs": {"kind": "poly", "alpha": 1.0}, "eigenfunctions": "hypercube",
                   "rank": 4},
        "estimator": "erm", "n_list": [1], "shift_grid": [2.0], "sigma_sq": 0.0,
        "fstar": {"kind": "spread"}, "reps": 1, "seed": 0})
    streamed, = run_risk_sweep(cfg)
    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(experiments, "hypercube_ridge_core", dataset_core)
        row, = run_risk_sweep(cfg)
    finally:
        mp.undo()
    assert streamed.status == row.status == "ok"
    assert streamed.risk == pytest.approx(row.risk, rel=1e-12)


def test_hard_pair_core_is_the_dataset_core_bit_for_bit_in_G():
    kernel = EigenKernel.from_json({"eigs": {"kind": "finite", "values": [1.0, 0.5, 0.25, 0.0]},
                                    "eigenfunctions": "hypercube", "rank": 4})
    theta_star = fstar_coordinates({"kind": "spread"}, kernel, 1.0)
    streamed = hypercube_ridge_core(kernel, theta_star, 500, 7, 4.0, 1.0, rng_for(3, 1))
    dataset = dataset_core(kernel, theta_star, 500, 7, 4.0, 1.0, rng_for(3, 1))
    assert streamed.G.shape == (3, 3)
    assert np.array_equal(streamed.G, dataset.G)
    np.testing.assert_allclose(streamed.c, dataset.c, rtol=1e-13)


def test_rank_above_the_pair_dimension_is_refused_before_drawing():
    kernel = EigenKernel.from_json({"eigs": {"kind": "poly", "alpha": 1.0},
                                    "eigenfunctions": "hypercube", "rank": 5})
    rng = rng_for(1, 1)
    entry = rng.bit_generator.state
    with pytest.raises(ValueError, match="requested 5 coordinate features from dimension 4"):
        hypercube_ridge_core(kernel, np.zeros(5), 10, 4, 2.0, 1.0, rng)
    np.testing.assert_equal(rng.bit_generator.state, entry)


def test_one_replicate_at_large_n_holds_no_dataset():
    # an n x D float64 dataset at n = 10^5, D = 64 alone is 49 MiB
    cfg = ExperimentConfig.from_json({
        "pair": {"family": "hypercube", "D": 64},
        "kernel": {"eigs": {"kind": "poly", "alpha": 1.0}, "eigenfunctions": "hypercube",
                   "rank": 64},
        "lambda_rule": {"rule": "poly", "alpha": 1.0},
        "n_list": [10**5], "shift_grid": [8.0], "reps": 1,
        "fstar": {"kind": "spread", "exponent": 1.25}})
    run_risk_sweep(dataclasses.replace(cfg, n_list=[500]))  # warm up numpy's allocations
    tracemalloc.start()
    try:
        rows = run_risk_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[0].status == "ok" and math.isfinite(rows[0].risk)
    assert peak < 2 * 2**20
