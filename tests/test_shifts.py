import math

import numpy as np
import pytest

from shiftkrr.seeding import derive_seed, rng_for, splitmix64
from shiftkrr.shifts import (
    Dataset,
    ShiftPair,
    default_truncation,
    estimate_chi_sq_moment,
    gaussian_scale_pair,
    hypercube_hard_pair,
    sample_dataset,
    truncate_lr,
)

V_SQ_TAU09 = math.sqrt(1.0125)  # closed form tau/sqrt(2 - 1/tau^2) at tau^2 = 0.9


def test_splitmix_avalanche_and_derivation():
    assert splitmix64(0) != splitmix64(1)
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    seen = {derive_seed(0, i) for i in range(10000)}
    assert len(seen) == 10000


def test_hypercube_no_shift():
    pair = hypercube_hard_pair(4, 1.0)
    x = pair.sample_source(5000, rng_for(0))
    assert np.all(pair.lr(x) == 1.0)
    assert np.all(np.abs(x) == 1.0)


def test_hypercube_zero_frequency():
    pair = hypercube_hard_pair(3, 4.0)
    x = pair.sample_source(10**5, rng_for(1))
    freq = np.mean(x[:, 0] == 0.0)
    assert abs(freq - 0.75) < 0.01


def test_hypercube_source_covariance():
    pair = hypercube_hard_pair(5, 4.0)
    x = pair.sample_source(2 * 10**5, rng_for(2))
    cov = x.T @ x / len(x)
    expect = np.diag([0.25, 1, 1, 1, 1])
    assert np.allclose(cov, expect, atol=0.02)
    assert abs(np.linalg.eigvalsh(cov)[0] - 0.25) < 0.02


def test_hypercube_lr_and_moment_identity():
    pair = hypercube_hard_pair(2, 4.0)
    x = pair.sample_source(100, rng_for(3))
    rho = pair.lr(x)
    assert set(np.unique(rho)) <= {0.0, 4.0}
    # E_P[rho^2] = E_Q[rho] = B exactly for this two-valued ratio
    assert pair.declared_V_sq == 4.0
    m2, chi = estimate_chi_sq_moment(pair, 10**5, seed=4)
    assert abs(m2 - 4.0) / 4.0 < 0.05
    assert chi == pytest.approx(m2 - 1.0)


def test_hypercube_validation():
    with pytest.raises(ValueError):
        hypercube_hard_pair(0, 2.0)
    with pytest.raises(ValueError):
        hypercube_hard_pair(3, 0.5)


def test_gaussian_identity_case():
    pair = gaussian_scale_pair(1.0)
    x = pair.sample_source(1000, rng_for(5))
    assert np.allclose(pair.lr(x), 1.0, atol=1e-12)
    assert pair.declared_V_sq == pytest.approx(1.0)


def test_gaussian_closed_form_v2():
    pair = gaussian_scale_pair(0.9)
    assert pair.declared_V_sq == pytest.approx(V_SQ_TAU09, rel=1e-12)


def test_gaussian_mc_moment():
    pair = gaussian_scale_pair(0.9)
    m2, _ = estimate_chi_sq_moment(pair, 10**6, seed=6)
    assert abs(m2 - V_SQ_TAU09) / V_SQ_TAU09 < 0.05


def test_gaussian_rejects_heavy_tail():
    with pytest.raises(ValueError, match="chi-square moment infinite"):
        gaussian_scale_pair(0.5)
    with pytest.raises(ValueError):
        gaussian_scale_pair(1.2)


def test_gaussian_lr_log_space_no_overflow():
    pair = gaussian_scale_pair(0.9)
    big = np.array([[60.0]])
    val = pair.lr(big)
    assert np.isfinite(val).all() and val[0] > 1e10


def test_truncate_lr():
    assert truncate_lr(5.0, 3.0) == 3.0
    assert truncate_lr(2.0, 3.0) == 2.0
    assert truncate_lr(0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        truncate_lr(1.0, 0.0)


def test_default_truncation():
    assert default_truncation(100, 1.0) == 10.0
    assert default_truncation(4, 4.0) == 4.0
    assert default_truncation(8000, V_SQ_TAU09) == pytest.approx(
        math.sqrt(8000 * V_SQ_TAU09)
    )


def test_b_bounded_truncation_is_identity():
    pair = hypercube_hard_pair(3, 7.0)
    x = pair.sample_source(5000, rng_for(7))
    rho = pair.lr(x)
    assert np.array_equal(truncate_lr(rho, pair.declared_B), rho)


def test_sample_dataset_noiseless_and_deterministic():
    pair = hypercube_hard_pair(4, 2.0)
    fstar = lambda x: x[:, 0] - 0.5 * x[:, 1]
    data = sample_dataset(pair, fstar, sigma=0.0, n=50, seed=11)
    assert np.array_equal(data.ys, fstar(data.xs))
    again = sample_dataset(pair, fstar, sigma=0.0, n=50, seed=11)
    assert np.array_equal(data.xs, again.xs) and np.array_equal(data.ys, again.ys)
    noisy1 = sample_dataset(pair, fstar, sigma=1.0, n=50, seed=12)
    noisy2 = sample_dataset(pair, fstar, sigma=1.0, n=50, seed=12)
    assert np.array_equal(noisy1.ys, noisy2.ys)


def test_sample_dataset_noise_variance():
    pair = hypercube_hard_pair(2, 1.0)
    fstar = lambda x: x[:, 0]
    data = sample_dataset(pair, fstar, sigma=1.0, n=10**5, seed=13)
    resid = data.ys - fstar(data.xs)
    assert abs(np.var(resid) - 1.0) < 0.02


def test_sample_dataset_rademacher():
    pair = hypercube_hard_pair(2, 1.0)
    fstar = lambda x: np.zeros(len(x))
    data = sample_dataset(pair, fstar, sigma=0.7, n=1000, seed=14, noise="rademacher")
    assert set(np.unique(data.ys)) == {-0.7, 0.7}


def test_sample_dataset_from_target():
    pair = hypercube_hard_pair(3, 50.0)
    fstar = lambda x: x[:, 0]
    data = sample_dataset(pair, fstar, sigma=0.0, n=2000, seed=15, from_target=True)
    assert np.all(np.abs(data.xs[:, 0]) == 1.0)  # target never puts x_1 = 0


def test_no_shift_chi_sq_is_zero():
    pair = hypercube_hard_pair(2, 1.0)
    m2, chi = estimate_chi_sq_moment(pair, 10**4, seed=16)
    assert m2 == pytest.approx(1.0) and chi == pytest.approx(0.0)


@pytest.mark.parametrize("rep", [0, 1, 2])
def test_change_of_measure(rep):
    # E_P[rho(X) h(X)] == E_Q[h(X)] for bounded h, within 2-sigma MC bands
    pair = hypercube_hard_pair(4, 6.0)
    h = lambda x: (x[:, 0] > 0).astype(float) + 0.5 * x[:, 1] * x[:, 2]
    n = 10**5
    xp = pair.sample_source(n, rng_for(100 + rep))
    xq = pair.sample_target(n, rng_for(200 + rep))
    vp = pair.lr(xp) * h(xp)
    vq = h(xq)
    se = math.sqrt(np.var(vp) / n + np.var(vq) / n)
    assert abs(np.mean(vp) - np.mean(vq)) < 2.0 * se


def test_hypercube_free_coordinates_moments():
    pair = hypercube_hard_pair(3, 9.0)
    for sampler in (pair.sample_source, pair.sample_target):
        x = sampler(10**5, rng_for(17))
        assert np.all(np.abs(np.mean(x[:, 1:], axis=0)) < 0.02)
        assert np.all(np.abs(np.var(x[:, 1:], axis=0) - 1.0) < 0.02)


def test_pair_json_round_trip():
    pair = ShiftPair.from_json({"family": "hypercube", "D": 200, "B": 16})
    assert pair.dim == 200 and pair.declared_B == 16.0
    g = ShiftPair.from_json({"family": "gaussian_scale", "tau_sq": 0.9})
    assert g.declared_V_sq == pytest.approx(V_SQ_TAU09)
    with pytest.raises(ValueError):
        ShiftPair.from_json({"family": "unknown"})


def test_dataset_validation_and_csv(tmp_path):
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.zeros(2), np.array([1.0, -1.0]))
    data = Dataset(np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([0.25, -3.0]),
                   np.array([1.0, 0.0]))
    path = tmp_path / "d.csv"
    data.to_csv(str(path))
    header = path.read_text().splitlines()[0]
    assert header == "x_1,x_2,y,weight"
    back = Dataset.from_csv(str(path))
    assert np.array_equal(back.xs, data.xs)
    assert np.array_equal(back.ys, data.ys)
    assert np.array_equal(back.weights, data.weights)


@pytest.mark.parametrize("row", ["nan,1,0.5,1", "1,inf,0.5,1", "1,1,nan,1", "1,1,-inf,1"])
def test_dataset_csv_with_a_value_that_is_not_finite_is_refused(tmp_path, row):
    path = tmp_path / "d.csv"
    path.write_text(f"x_1,x_2,y,weight\n1,-1,0.5,1\n{row}\n")
    with pytest.raises(ValueError, match=f"dataset CSV {path}: .* not finite"):
        Dataset.from_csv(str(path))
