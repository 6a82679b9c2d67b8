import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftkrr.errors import FactorizationError, NumericalFailure
from shiftkrr.estimators import ball_quadratic_min
from shiftkrr.hard_instance import (
    FailureRecord,
    HardInstanceState,
    eta_sums,
    g_dual_tail,
    g_primal,
    krr_lambda_rule,
    simulate_failure,
)
from shiftkrr.seeding import rng_for
from shiftkrr.spectrum import EigenSequence


def projected_gradient_oracle(a_diag, b, radius, iters=30000):
    """Independent primal solver for min u^T diag(a) u - 2 b^T u on a ball."""
    L = 2.0 * max(float(np.max(a_diag)), 1e-12)
    u = np.zeros_like(b)
    best = 0.0
    for _ in range(iters):
        u = u - (1.0 / L) * (2.0 * a_diag * u - 2.0 * b)
        nrm = np.linalg.norm(u)
        if nrm > radius:
            u *= radius / nrm
        val = float(np.sum(a_diag * u * u) - 2.0 * np.sum(b * u))
        if val < best:
            best = val
    return best


@st.composite
def ball_problems(draw, min_zeros=0):
    """(a, b) with a >= 0, some entries of a exactly zero, and b of mixed sign."""
    d = draw(st.integers(min_value=max(1, min_zeros), max_value=8))
    a = np.array(draw(st.lists(st.floats(min_value=1e-3, max_value=10.0),
                               min_size=d, max_size=d)))
    zeros = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    zeros[:min_zeros] = [True] * min_zeros
    a[np.array(zeros)] = 0.0
    # a subnormal b_j has no representable b_j / (a_j + xi) to compare against
    b = np.array(draw(st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_subnormal=False),
                               min_size=d, max_size=d)))
    return a, b


@settings(max_examples=50, deadline=None)
@given(problem=ball_problems(), radius=st.floats(min_value=1e-3, max_value=5.0))
def test_ball_quadratic_min_kkt_and_optimality_property(problem, radius):
    a, b = problem
    u, xi = ball_quadratic_min(a, b, radius)
    nrm = float(np.linalg.norm(u))
    assert xi >= 0.0
    assert nrm <= radius * (1.0 + 1e-12)
    assert xi * abs(radius - nrm) <= 1e-12 * xi * radius
    assert np.all(np.abs((a + xi) * u - b) <= 1e-12 * np.abs(b))
    value = float(np.sum(a * u * u) - 2.0 * np.sum(b * u))
    assert value <= projected_gradient_oracle(a, b, radius, iters=2000) + 1e-10


@settings(max_examples=50, deadline=None)
@given(problem=ball_problems(min_zeros=1), stretch=st.floats(min_value=1.0, max_value=3.0))
def test_ball_quadratic_min_hard_case_property(problem, stretch):
    # b vanishes on the null space of diag(a) and the pseudo-inverse point fits
    a, b = problem
    b[a == 0] = 0.0
    live = a > 0
    pinv = np.zeros_like(b)
    pinv[live] = b[live] / a[live]
    radius = max(stretch * float(np.linalg.norm(pinv)), 1e-3)
    u, xi = ball_quadratic_min(a, b, radius)
    assert xi == 0.0
    assert np.array_equal(u, pinv)


@settings(max_examples=20, deadline=None)
@given(problem=ball_problems())
def test_ball_quadratic_min_zero_radius_property(problem):
    a, b = problem
    u, xi = ball_quadratic_min(a, b, 0.0)
    assert xi == math.inf
    assert np.all(u == 0.0)


def test_g_primal_at_one_is_exact_zero():
    rng = rng_for(0)
    st = HardInstanceState.from_sample(100, 4.0, 1.0, 8, seed=1)
    assert g_primal(st, 1.0) == 0.0
    st2 = HardInstanceState.population(5, 9.0, v=rng.normal(size=5))
    assert g_primal(st2, 1.0, quad_coeff=0.5) == 0.0


def test_g_primal_population_zero_noise():
    st = HardInstanceState.population(6, 4.0)
    assert g_primal(st, 0.5) == pytest.approx(0.0625, abs=1e-14)


def test_g_primal_rejects_bad_t():
    st = HardInstanceState.population(3, 2.0)
    with pytest.raises(ValueError):
        g_primal(st, 1.5)
    with pytest.raises(ValueError):
        g_primal(st, -0.1)


def test_dual_tail_trivial_cases():
    mu = 1.0 / np.arange(2, 7, dtype=float) ** 2
    val, xi = g_dual_tail(np.zeros(5), mu, slack=0.4, quad_coeff=0.5)
    assert val == 0.0 and xi == 0.0
    # slack = 0: supremum is 0, approached at the top of the grid
    rng = rng_for(1)
    v = rng.normal(0, 0.05, 5)
    val0, xi0 = g_dual_tail(v, mu, slack=0.0, quad_coeff=0.5)
    assert -1e-6 <= val0 <= 0.0
    assert xi0 >= 1e7


def test_duality_gap_against_primal_oracle():
    # surrogate state with quadratic coefficient q on the tail block
    D, q = 6, 0.5
    mu = 1.0 / np.arange(1, D + 1, dtype=float) ** 2
    rng = rng_for(2)
    for trial in range(10):
        t = float(rng.uniform(0.0, 0.95))
        v = rng.normal(0.0, 0.5, D)
        slack = 1.0 - t * t
        dual_val, _ = g_dual_tail(v[1:], mu[1:], slack, q)
        a_diag = q * mu[1:]
        b = np.sqrt(mu[1:]) * v[1:]
        primal_val = projected_gradient_oracle(a_diag, b, math.sqrt(slack))
        assert dual_val <= primal_val + 1e-6
        assert abs(dual_val - primal_val) <= 1e-4
        # and g_primal agrees once the first-coordinate terms are added back
        st = HardInstanceState.population(D, 4.0, v=v)
        c0 = q * (t - 1.0) ** 2 / 4.0 - 2.0 * v[0] * (t - 1.0)
        assert g_primal(st, t, quad_coeff=q) == pytest.approx(c0 + primal_val, abs=1e-6)


def test_g_primal_on_sampled_covariance_vs_oracle():
    # full (non-diagonal) empirical covariance exercises the general path
    st = HardInstanceState.from_sample(300, 8.0, 1.0, 10, seed=3)
    # the empirical covariance and v = (1/n) sum w_i x_i, read back off the core
    core = st.core
    mu = core.kernel.mu
    root = np.sqrt(mu)
    cov = core.G / np.outer(root, root) / core.n
    v = (core.c - core.G[:, 0]) / root / core.n
    for t in [0.0, 0.4, 0.85]:
        got = g_primal(st, t, quad_coeff=1.0)
        # oracle: projected gradient on the same quadratic, run cold
        ms = np.sqrt(mu[1:])
        A = (cov[1:, 1:] * ms).T * ms
        b = ms * (v[1:] - (t - 1.0) * cov[1:, 0])
        a_eig, E = np.linalg.eigh(A)
        bt = E.T @ b
        const = (t - 1.0) ** 2 * cov[0, 0] - 2.0 * v[0] * (t - 1.0)
        oracle = projected_gradient_oracle(np.clip(a_eig, 0, None), bt,
                                           math.sqrt(1 - t * t)) + const
        assert got == pytest.approx(oracle, abs=1e-6)


def test_g_continuity_on_sampled_instance():
    # g has a square-root cusp at t = 1, so the slope is compared locally:
    # no step may exceed 10x its neighboring steps
    st = HardInstanceState.from_sample(200, 4.0, 1.0, 20, seed=5)
    ts = np.linspace(0.0, 1.0, 1000)
    vals = np.array([g_primal(st, float(t)) for t in ts])
    diffs = np.abs(np.diff(vals))
    tiny = 1e-9 * (np.max(np.abs(vals)) + 1.0)
    for i in range(len(diffs)):
        neighbors = [diffs[j] for j in (i - 1, i + 1) if 0 <= j < len(diffs)]
        assert diffs[i] <= 10.0 * (max(neighbors) + tiny)


def test_eta_sums_analytic_value():
    eigs = EigenSequence.poly_decay(1.0, 1.0)
    with pytest.warns(UserWarning, match="outside the valid range"):
        total, total_sq, biggest = eta_sums(1.0, 1.0, eigs, 10**6)
    analytic = (math.pi * math.cosh(math.pi) / math.sinh(math.pi) - 1.0) / 2.0 - 0.5
    assert total == pytest.approx(analytic, abs=2e-6)
    assert biggest == pytest.approx(0.2)
    assert total_sq < total


def test_eta_sums_saturation():
    eigs = EigenSequence.poly_decay(1.0, 1.0)
    with pytest.warns(UserWarning):
        total, _, biggest = eta_sums(64.0, 1e-12, eigs, 10)
    assert total == pytest.approx(9.0, abs=1e-6)
    assert biggest == pytest.approx(1.0, abs=1e-6)


def test_eta_ratio_bounds_over_lemma_range():
    B, D = 64.0, 512
    eigs = EigenSequence.poly_decay(1.0, 1.0)
    lo, hi = B / (4 * D * D), B / 4
    for alpha in np.geomspace(lo * 1.01, hi * 0.99, 12):
        total, _, biggest = eta_sums(B, float(alpha), eigs, D)
        ratio = total / math.sqrt(B / alpha)
        assert 0.3 <= ratio <= 3.5
        assert biggest <= 1.0


def test_krr_lambda_rule():
    assert krr_lambda_rule(8000, 4.0) == pytest.approx(
        4 ** (2 / 3) * 8000 ** (-2 / 3) * 4 ** (-1 / 3)
    )


def test_simulate_failure_no_shift_sanity():
    recs = simulate_failure(2000, 1.0, reps=3, seed=6)
    assert len(recs) == 3
    for r in recs:
        assert isinstance(r, FailureRecord)
        assert r.erm_risk < 0.1 and r.krr_risk < 0.1
        assert -1.0 - 1e-9 <= r.theta1_erm <= 1.0 + 1e-9


def test_simulate_failure_erm_collapses_under_shift():
    n = 1000
    B = float(int(n ** (2 / 3)))  # = 100
    recs = simulate_failure(n, B, reps=5, seed=7)
    erm = np.median([r.erm_risk for r in recs])
    krr = np.median([r.krr_risk for r in recs])
    assert erm > krr  # the full >= 2x margin is the acceptance criterion
    for r in recs:
        assert -1.0 - 1e-9 <= r.theta1_erm <= 1.0 + 1e-9


def test_simulate_failure_validation():
    with pytest.raises(ValueError, match="B must lie"):
        simulate_failure(100, 100.0, reps=1)
    with pytest.raises(ValueError, match="D must not exceed"):
        simulate_failure(100, 2.0, D=200, reps=1)


@pytest.mark.parametrize("n", [0, -8])
def test_sample_size_below_one_is_refused_by_name(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        simulate_failure(n, 1.0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        HardInstanceState.from_sample(n, 4.0, 1.0, 5, 1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        HardInstanceState.from_sample(n, 4.0, 0.0, 5, 1)


def test_no_shift_hilbert_norm_near_target_norm():
    # with B = 1 the KRR fit at the prescribed lambda recovers a function
    # whose squared Hilbert norm sits near ||f*||_H^2 = 1
    recs = simulate_failure(16000, 1.0, reps=5, seed=9)
    med = float(np.median([r.krr_hnorm_sq for r in recs]))
    assert 0.5 <= med <= 2.0


def test_simulate_failure_deterministic():
    a = simulate_failure(400, 10.0, reps=2, seed=8)
    b = simulate_failure(400, 10.0, reps=2, seed=8)
    assert a == b


def test_population_refuses_v_of_another_length():
    # cov[:, 0] + v would broadcast a one-element v over all D coordinates
    for v in ([0.3], np.zeros(4), np.zeros(6), np.zeros((5, 1))):
        with pytest.raises(ValueError, match="v must have length D"):
            HardInstanceState.population(5, 4.0, v=v)


def test_g_primal_eigh_failure_is_a_factorization_error(monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    state = HardInstanceState.from_sample(100, 4.0, 1.0, 8, seed=1)
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(FactorizationError, match="factorization failed") as err:
        g_primal(state, 0.5)
    assert isinstance(err.value, NumericalFailure)  # the CLI's exit 3


@st.composite
def hard_instances(draw):
    """(n, B, D, sigma_sq) with 1 <= B <= n^(2/3) and D <= n."""
    n = draw(st.integers(min_value=20, max_value=4000))
    B = draw(st.floats(min_value=1.0, max_value=n ** (2.0 / 3.0)))
    D = draw(st.integers(min_value=2, max_value=min(n, 256)))
    return n, B, D, draw(st.floats(min_value=0.25, max_value=4.0))


@settings(max_examples=25, deadline=None)
@given(instance=hard_instances(), seed=st.integers(0, 2**32 - 1))
def test_g_at_the_erm_slice_is_the_erm_objective_property(instance, seed):
    # g on a sample's own moments is ERM's objective less the noise energy,
    # restricted to theta_1 = t, so ERM's objective is least and equals g at
    # ERM's theta_1
    n, B, D, sigma_sq = instance
    state = HardInstanceState.from_sample(n, B, sigma_sq, D, seed=seed)
    core = state.core
    erm = core.fit_constrained(1.0)
    d = erm.theta / core.sqrt_mu
    d[0] -= 1.0  # z - e_1, in the whitened coordinates of the core
    erm_value = (float(d @ core.G @ d) - 2.0 * float((core.c - core.G[:, 0]) @ d)) / n
    for t in np.linspace(0.0, 1.0, 201):
        assert erm_value <= g_primal(state, float(t)) + 1e-12
    theta1 = float(erm.theta[0])
    # g is defined on [0, 1]; with few points carrying x_1 (n/B small) and
    # much noise, ERM's theta_1 can be negative
    if 0.0 <= theta1 <= 1.0:
        # rounding in c - G e_1 and in z - e_1 enters both sides in proportion
        # to |z - e_1| (|G| + |c|) / n, small when ERM nearly recovers theta*
        scale = float(np.linalg.norm(d) * (np.linalg.norm(core.G) + np.linalg.norm(core.c))) / n
        assert abs(g_primal(state, theta1) - erm_value) <= 1e-12 * scale


def test_g_primal_eigendecomposes_once_per_state(monkeypatch):
    state = HardInstanceState.from_sample(400, 4.0, 1.0, 12, seed=3)
    expected = [g_primal(HardInstanceState.from_sample(400, 4.0, 1.0, 12, seed=3), t, q)
                for t in (0.0, 0.4, 0.9) for q in (0.5, 1.0)]
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    got = [g_primal(state, t, q) for t in (0.0, 0.4, 0.9) for q in (0.5, 1.0)]
    assert len(calls) == 1
    assert got == expected
