import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftkrr.estimators import (
    FactorizationError,
    ProjectionError,
    RidgeCore,
    fit_constrained_erm,
    fit_krr,
    fit_reweighted_krr,
    empirical_risk,
    hilbert_norm_sq,
    l2q_error,
    predict,
)
from shiftkrr.hard_instance import HardInstanceState, g_dual_tail, g_primal
from shiftkrr.seeding import rng_for
from shiftkrr.shifts import (Dataset, hypercube_hard_pair, truncate_lr, default_truncation,
                             sample_dataset)
from shiftkrr.spectrum import EigenKernel, EigenSequence, psi_complexity

SCALAR_KERNEL = EigenKernel(EigenSequence.finite_rank([1.0]), "hypercube", rank=1)


def random_instance(seed, D=None, n=None):
    rng = rng_for(seed)
    D = D or int(rng.integers(2, 9))
    n = n or int(rng.integers(10, 61))
    vals = np.sort(rng.uniform(0.05, 2.0, size=D))[::-1]
    kernel = EigenKernel(EigenSequence.finite_rank(vals), "hypercube", rank=D)
    xs = rng.integers(0, 2, size=(n, D)).astype(float) * 2 - 1
    ys = rng.normal(0, 1, size=n)
    return kernel, Dataset(xs, ys), rng


def test_scalar_ridge():
    data = Dataset(np.array([[1.0]]), np.array([2.0]))
    model = fit_krr(data, SCALAR_KERNEL, lam=1.0)
    assert np.allclose(model.alpha, [1.0])
    assert predict(model, np.array([1.0])) == pytest.approx(1.0)
    assert hilbert_norm_sq(model) == pytest.approx(1.0)


def test_huge_lambda_kills_fit():
    kernel, data, _ = random_instance(1)
    model = fit_krr(data, kernel, lam=1e9)
    assert hilbert_norm_sq(model) <= 1e-6
    assert np.all(np.abs(predict(model, data.xs)) < 1e-3)


def test_dual_matches_primal_and_direct_oracle():
    for seed in range(5):
        kernel, data, rng = random_instance(100 + seed, D=5, n=40)
        lam = 0.37
        dual = fit_krr(data, kernel, lam, mode="dual")
        primal = fit_krr(data, kernel, lam, mode="primal")
        xt = rng.integers(0, 2, size=(30, 5)).astype(float) * 2 - 1
        assert np.allclose(predict(dual, xt), predict(primal, xt), atol=1e-8)
        assert hilbert_norm_sq(dual) == pytest.approx(hilbert_norm_sq(primal), abs=1e-8)
        # independent oracle: ridge in feature space via the normal equations
        F = kernel.feature_matrix(data.xs)
        n = len(data)
        theta_o = np.linalg.solve(
            F.T @ F + n * lam * np.diag(1.0 / kernel.mu), F.T @ data.ys
        )
        assert np.allclose(predict(dual, xt), kernel.feature_matrix(xt) @ theta_o,
                           atol=1e-8)


def test_krr_stationarity_residual_on_20_instances():
    for seed in range(20):
        kernel, data, rng = random_instance(200 + seed)
        lam = float(10 ** rng.uniform(-3, 1))
        model = fit_krr(data, kernel, lam)
        K = kernel.gram(data.xs)
        res = np.linalg.norm((K + len(data) * lam * np.eye(len(data))) @ model.alpha
                             - data.ys)
        assert res <= 1e-8 * np.linalg.norm(data.ys)


def test_reweighted_unit_weights_equal_unweighted():
    kernel, data, _ = random_instance(3)
    lam = 0.2
    plain = fit_krr(data, kernel, lam)
    unit = fit_reweighted_krr(data.with_weights(np.ones(len(data))), kernel, lam)
    assert np.allclose(plain.alpha, unit.alpha, atol=1e-10)


def test_scalar_weighted_ridge():
    data = Dataset(np.array([[1.0]]), np.array([3.0]), np.array([2.0]))
    model = fit_reweighted_krr(data, SCALAR_KERNEL, lam=1.0)
    # minimizer of 2 (f - 3)^2 + f^2
    assert predict(model, np.array([1.0])) == pytest.approx(2.0)


def test_weighted_fit_with_zero_weights():
    kernel, data, rng = random_instance(4, D=4, n=30)
    w = rng.uniform(0.0, 2.0, size=30)
    w[rng.random(30) < 0.3] = 0.0
    lam = 0.15
    model = fit_reweighted_krr(data.with_weights(w), kernel, lam)
    K = kernel.gram(data.xs)
    A = w[:, None] * K + len(data) * lam * np.eye(len(data))
    res = np.linalg.norm(A @ model.alpha - w * data.ys)
    assert res <= 1e-8 * np.linalg.norm(w * data.ys)
    # primal path agrees
    primal = fit_reweighted_krr(data.with_weights(w), kernel, lam, mode="primal")
    assert np.allclose(model.theta, primal.theta, atol=1e-8)


def test_reweighted_objective_beats_unweighted_on_weighted_loss():
    pair = hypercube_hard_pair(5, 8.0)
    kernel = EigenKernel(EigenSequence.poly_decay(1.0, 1.0), "hypercube", rank=5)
    rng = rng_for(5)
    xs = pair.sample_source(120, rng)
    ys = xs[:, 0] + rng.normal(0, 0.5, 120)
    w = truncate_lr(pair.lr(xs), default_truncation(120, pair.declared_V_sq))
    data = Dataset(xs, ys, w)
    lam = 0.05
    rew = fit_reweighted_krr(data, kernel, lam)
    plain = fit_krr(Dataset(xs, ys), kernel, lam)

    def objective(m):
        return empirical_risk(m, data, weights=w) + lam * hilbert_norm_sq(m)

    assert objective(rew) <= objective(plain) + 1e-12


def test_constrained_erm_scalar_cases():
    clipped = fit_constrained_erm(Dataset(np.array([[1.0]]), np.array([3.0])),
                                  SCALAR_KERNEL, radius=1.0)
    assert clipped.theta[0] == pytest.approx(1.0, abs=1e-6)
    interior = fit_constrained_erm(Dataset(np.array([[1.0]]), np.array([0.5])),
                                   SCALAR_KERNEL, radius=1.0)
    assert interior.theta[0] == pytest.approx(0.5, abs=1e-8)
    assert hilbert_norm_sq(interior) < 1.0


def test_constrained_erm_beats_random_feasible_and_kkt():
    D, n, radius = 3, 50, 1.0
    kernel = EigenKernel(EigenSequence.finite_rank([1.0, 0.25, 1.0 / 9]),
                         "hypercube", rank=D)
    rng = rng_for(6)
    xs = rng.integers(0, 2, size=(n, D)).astype(float) * 2 - 1
    ys = xs @ np.array([1.2, 0.3, -0.5]) + rng.normal(0, 1, n)
    data = Dataset(xs, ys)
    model = fit_constrained_erm(data, kernel, radius)
    fit_risk = empirical_risk(model, data)
    # 10^4 random feasible coefficient vectors inside the Hilbert ball
    z = rng.normal(size=(10**4, D))
    z *= (radius * rng.random(10**4) ** (1.0 / D) / np.linalg.norm(z, axis=1))[:, None]
    thetas = z * np.sqrt(kernel.mu)
    risks = np.mean((xs @ thetas.T - ys[:, None]) ** 2, axis=0)
    assert fit_risk <= risks.min() + 1e-10
    # KKT: gradient of the empirical risk against the ball normal
    grad = 2.0 / n * xs.T @ (xs @ model.theta - ys)
    nrm = math.sqrt(hilbert_norm_sq(model))
    if nrm < radius * (1 - 1e-6):
        assert np.linalg.norm(grad) <= 1e-4 * (1 + np.linalg.norm(2 / n * xs.T @ ys))
    else:
        assert abs(nrm - radius) <= 1e-6 * radius
        normal = 2.0 * model.theta / kernel.mu
        cos = grad @ normal / (np.linalg.norm(grad) * np.linalg.norm(normal))
        assert cos <= -1 + 1e-4


def test_constrained_erm_norm_never_exceeds_radius():
    for seed in range(8):
        kernel, data, rng = random_instance(300 + seed)
        radius = float(rng.uniform(0.2, 2.0))
        model = fit_constrained_erm(data, kernel, radius)
        assert math.sqrt(hilbert_norm_sq(model)) <= radius * (1 + 1e-6)


def test_ridge_path_norm_monotone_in_lambda():
    kernel, data, _ = random_instance(7, D=6, n=50)
    lams = np.geomspace(1e-4, 10, 12)
    norms = [hilbert_norm_sq(fit_krr(data, kernel, lam)) for lam in lams]
    diffs = np.diff(norms)
    assert np.all(diffs <= 1e-10)


def test_predict_trivialities():
    kernel = EigenKernel(EigenSequence.finite_rank([1.0, 0.5]), "hypercube", rank=2)
    from shiftkrr.estimators import FittedModel

    zero = FittedModel(mode="primal", kernel=kernel, theta=np.zeros(2), lam=0.1)
    assert predict(zero, np.array([1.0, -1.0])) == 0.0
    assert hilbert_norm_sq(zero) == 0.0


def test_hilbert_norm_rejects_out_of_rkhs():
    kernel = EigenKernel(EigenSequence.finite_rank([1.0, 0.0]), "hypercube", rank=2)
    from shiftkrr.estimators import FittedModel

    bad = FittedModel(mode="primal", kernel=kernel, theta=np.array([1.0, 0.5]), lam=0.1)
    with pytest.raises(ValueError, match="not in RKHS"):
        hilbert_norm_sq(bad)


def test_l2q_error_exact_cases():
    kernel = EigenKernel(EigenSequence.finite_rank([1.0, 0.5]), "hypercube", rank=2)
    from shiftkrr.estimators import FittedModel

    model = FittedModel(mode="primal", kernel=kernel, theta=np.array([0.3, -0.2]), lam=0.1)
    assert l2q_error(model, np.array([0.3, -0.2]), exact_mode=True) == 0.0
    zero = FittedModel(mode="primal", kernel=kernel, theta=np.zeros(2), lam=0.1)
    assert l2q_error(zero, np.array([1.0, 0.0]), exact_mode=True) == 1.0


def test_l2q_error_mc_matches_exact():
    pair = hypercube_hard_pair(4, 3.0)
    kernel = EigenKernel(EigenSequence.finite_rank([1.0, 0.5, 0.25, 0.125]),
                         "hypercube", rank=4)
    rng = rng_for(8)
    theta_star = np.array([0.6, -0.1, 0.2, 0.0])
    fstar = lambda x: x @ theta_star
    xs = pair.sample_source(60, rng)
    ys = fstar(xs) + rng.normal(0, 0.3, 60)
    model = fit_krr(Dataset(xs, ys), kernel, 0.05, mode="primal")
    exact = l2q_error(model, theta_star, exact_mode=True)
    mc = l2q_error(model, fstar, pair, n_mc=10**5, seed=9)
    # standard error of the MC mean, estimated from an independent batch
    xq = pair.sample_target(10**5, rng_for(10))
    sq = (kernel.feature_matrix(xq) @ model.theta - fstar(xq)) ** 2
    se = float(np.std(sq) / math.sqrt(len(sq)))
    assert abs(mc - exact) <= 3 * se


def test_linf_localization_diagnostic():
    # sup-norm of the error is controlled by sqrt(10 Psi(r)) whenever the
    # fitted error stays in the Hilbert ball of radius 3||f*||_H
    pair = hypercube_hard_pair(6, 2.0)
    eigs = EigenSequence.finite_rank((1.0 / np.arange(1, 7) ** 2).tolist())
    kernel = EigenKernel(eigs, "hypercube", rank=6)
    theta_star = np.zeros(6)
    theta_star[0] = 1.0
    fstar = lambda x: x @ theta_star
    checked = 0
    for seed in range(6):
        rng = rng_for(400 + seed)
        xs = pair.sample_source(80, rng)
        ys = fstar(xs) + rng.normal(0, 0.5, 80)
        model = fit_krr(Dataset(xs, ys), kernel, 0.05, mode="primal")
        h = model.theta - theta_star
        hnorm = float(np.sum(h**2 / kernel.mu))
        if hnorm > 9.0:  # premise ||h||_H <= 3 ||f*||_H fails
            continue
        r = math.sqrt(l2q_error(model, theta_star, exact_mode=True))
        bound = math.sqrt(10.0 * psi_complexity(eigs, r, 1.0))
        xq = pair.sample_target(1000, rng)
        sup = float(np.max(np.abs(kernel.feature_matrix(xq) @ h)))
        assert sup <= bound
        checked += 1
    assert checked >= 3


@settings(max_examples=25, deadline=None)
@given(
    lam1=st.floats(min_value=1e-4, max_value=10.0),
    lam2=st.floats(min_value=1e-4, max_value=10.0),
)
def test_ridge_path_monotone_property(lam1, lam2):
    kernel, data, _ = random_instance(13, D=4, n=25)
    lo, hi = sorted([lam1, lam2])
    n_lo = hilbert_norm_sq(fit_krr(data, kernel, lo, mode="primal"))
    n_hi = hilbert_norm_sq(fit_krr(data, kernel, hi, mode="primal"))
    assert n_lo >= n_hi - 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_weighted_fit_minimizes_its_objective_property(seed):
    kernel, data, rng = random_instance(14, D=3, n=20)
    w = np.random.default_rng(seed).uniform(0.0, 3.0, size=20)
    lam = 0.2
    model = fit_reweighted_krr(data.with_weights(w), kernel, lam, mode="primal")

    def objective(theta):
        resid = kernel.feature_matrix(data.xs) @ theta - data.ys
        return float(np.mean(w * resid**2) + lam * np.sum(theta**2 / kernel.mu))

    base = objective(model.theta)
    perturb_rng = np.random.default_rng(seed + 1)
    for _ in range(5):
        assert base <= objective(model.theta + 1e-3 * perturb_rng.normal(size=3)) + 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       radius=st.floats(min_value=0.05, max_value=2.0))
def test_constrained_erm_active_ball_sits_on_boundary_property(seed, radius):
    kernel, data, rng = random_instance(seed)
    # a large signal puts the unconstrained fit far outside the ball
    ys = data.xs @ rng.uniform(5.0, 10.0, size=kernel.rank) + rng.normal(0, 1, len(data))
    model = fit_constrained_erm(Dataset(data.xs, ys), kernel, radius)
    assert abs(math.sqrt(hilbert_norm_sq(model)) - radius) <= 1e-12 * radius


def test_nan_responses_raise_projection_error_in_erm():
    kernel, data, _ = random_instance(12)
    ys = data.ys.copy()
    ys[0] = np.nan
    with pytest.raises(ProjectionError):
        fit_constrained_erm(Dataset(data.xs, ys), kernel, radius=1.0)


def test_fit_rejects_bad_inputs():
    kernel, data, _ = random_instance(11)
    with pytest.raises(ValueError):
        fit_krr(data, kernel, lam=0.0)
    with pytest.raises(ValueError):
        fit_reweighted_krr(data, kernel, lam=0.1)  # no weights
    with pytest.raises(ValueError):
        fit_constrained_erm(data, kernel, radius=-1.0)
    with pytest.raises(ValueError):
        fit_krr(data, kernel, 0.1, mode="sideways")


_EMPTY = Dataset(np.empty((0, 2)), np.empty(0), np.empty(0))


@pytest.mark.parametrize("fit", [
    lambda k: fit_krr(_EMPTY, k, 0.1, mode="dual"),
    lambda k: fit_krr(_EMPTY, k, 0.1, mode="primal"),
    lambda k: fit_reweighted_krr(_EMPTY, k, 0.1, mode="dual"),
    lambda k: fit_reweighted_krr(_EMPTY, k, 0.1, mode="primal"),
    lambda k: fit_constrained_erm(_EMPTY, k, 1.0),
    lambda k: RidgeCore.from_dataset(_EMPTY, k),
    lambda k: RidgeCore(k, 0, np.zeros((2, 2)), np.zeros(2)),
], ids=["fit_krr-dual", "fit_krr-primal", "fit_reweighted_krr-dual",
        "fit_reweighted_krr-primal", "fit_constrained_erm", "from_dataset", "RidgeCore"])
def test_an_empty_dataset_is_an_input_error(fit):
    kernel = EigenKernel(EigenSequence.finite_rank([1.0, 0.5]), "hypercube", rank=2)
    with pytest.raises(ValueError, match="need at least one observation"):
        fit(kernel)


def _guarded_calls():
    kernel, data, rng = random_instance(13)
    weighted = data.with_weights(rng.uniform(0.5, 2.0, size=len(data)))
    core = RidgeCore.from_dataset(weighted, kernel, weighted.weights)
    fit = dict(data=weighted, kernel=kernel, lam=0.1)
    tail = dict(v_rest=np.full(3, 0.1), mu_rest=np.array([0.25, 0.1, 0.05]), slack=0.5,
                quad_coeff=0.5)
    # one valid call per guarded function, and the arguments set in turn to a bad value
    return [
        ("fit_krr-primal", fit_krr, {**fit, "mode": "primal"}, ["lam"]),
        ("fit_krr-dual", fit_krr, {**fit, "mode": "dual"}, ["lam"]),
        ("fit_reweighted_krr-primal", fit_reweighted_krr, {**fit, "mode": "primal"}, ["lam"]),
        ("fit_reweighted_krr-dual", fit_reweighted_krr, {**fit, "mode": "dual"}, ["lam"]),
        ("fit_ridge", core.fit_ridge, dict(lam=0.1), ["lam"]),
        ("fit_constrained", core.fit_constrained, dict(radius=1.0), ["radius"]),
        ("fit_constrained_erm", fit_constrained_erm, dict(data=data, kernel=kernel, radius=1.0),
         ["radius"]),
        ("g_primal", g_primal,
         dict(state=HardInstanceState.population(4, 2.0), t=0.5, quad_coeff=1.0), ["quad_coeff"]),
        ("g_dual_tail", g_dual_tail, tail, ["slack", "quad_coeff"]),
        ("truncate_lr", truncate_lr, dict(rho_value=np.array([1.0, 5.0]), tau=2.0), ["tau"]),
        ("sample_dataset", sample_dataset,
         dict(pair=hypercube_hard_pair(2, 2.0), fstar=lambda x: x[:, 0], sigma=1.0, n=10,
              seed=0), ["sigma"]),
    ]


@pytest.mark.parametrize("fn,kwargs,arg,bad", [
    pytest.param(fn, kwargs, arg, bad, id=f"{name}-{arg}-{bad}")
    for name, fn, kwargs, args in _guarded_calls() for arg in args
    for bad in ((math.nan, math.inf) if arg == "lam" else (math.nan,))])
def test_nan_or_infinite_argument_is_rejected(fn, kwargs, arg, bad):
    fn(**kwargs)
    with pytest.raises(ValueError):
        fn(**{**kwargs, arg: bad})


def test_nan_responses_raise_factorization_error():
    kernel, data, _ = random_instance(12)
    bad = Dataset(data.xs, np.full(len(data), np.nan))
    with pytest.raises(FactorizationError):
        fit_krr(bad, kernel, 0.1)


def test_predict_returns_an_array_for_every_2d_batch():
    kernel = EigenKernel(EigenSequence.finite_rank([1.0, 0.5]), "hypercube", rank=2)
    from shiftkrr.estimators import FittedModel

    model = FittedModel(mode="primal", kernel=kernel, theta=np.array([0.3, -0.2]), lam=0.1)
    one = predict(model, np.array([[1.0, -1.0]]))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert one[0] == pytest.approx(0.5)
    assert predict(model, np.array([[1.0, -1.0], [1.0, 1.0]])).shape == (2,)
    # a single 1-D point still gives a scalar
    assert isinstance(predict(model, np.array([1.0, -1.0])), float)


def test_rank_deficient_dual_fit_at_tiny_lambda_raises_factorization_error():
    # 40 points through a rank-3 kernel: K + n lam I is singular to working precision
    rng = rng_for(5)
    kernel = EigenKernel(EigenSequence.finite_rank([1.0, 0.5, 0.25]), "hypercube", rank=3)
    xs = rng.integers(0, 2, size=(40, 3)) * 2.0 - 1
    data = Dataset(xs, rng.normal(size=40))
    with pytest.raises(FactorizationError, match="factorization failed"):
        fit_krr(data, kernel, 1e-25, mode="dual")
