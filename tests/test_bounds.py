import math

import numpy as np
import pytest

from shiftkrr.bounds import (
    expectation_bound,
    krr_bound,
    krr_bound_curve,
    lambda_rule_finite_rank,
    lambda_rule_poly,
    lambda_star,
    minimax_lower,
    regular_bound,
    reweighted_rate,
    unbounded_lambda_star,
    unbounded_unweighted_bound,
)
from shiftkrr.spectrum import EigenSequence, default_grid, effective_dim, m_function

POLY1 = EigenSequence.poly_decay(1.0, 1.0)


def coth(x):
    return math.cosh(x) / math.sinh(x)


def test_krr_bound_figure_configuration():
    rep = krr_bound(POLY1, lam=0.01, B=1.0, n=8000, sigma_sq=1.0, hnorm_sq=1.0)
    assert rep.bias_sq == pytest.approx(0.04)
    # oracle: sum_j 1/(1 + 0.01 j^2) = 100 sum_j 1/(j^2 + 100), with the
    # cotangent series identity sum_{j>=1} 1/(j^2 + a^2) = (pi a coth(pi a) - 1)/(2 a^2)
    series = 100.0 * (10.0 * math.pi * coth(10.0 * math.pi) - 1.0) / 200.0
    var_oracle = 80.0 * math.log(8000.0) / 8000.0 * series
    assert rep.variance == pytest.approx(var_oracle, rel=1e-7)
    assert rep.total == pytest.approx(0.04 + var_oracle, rel=1e-7)
    assert abs(rep.total - 1.407) / 1.407 < 0.005


def test_krr_bound_variance_vanishes_at_large_lambda():
    rep = krr_bound(POLY1, lam=1e12, B=1.0, n=8000)
    assert rep.variance < 1e-9


def test_krr_bound_rank_one_at_n_e():
    fr = EigenSequence.finite_rank([1.0])
    rep = krr_bound(fr, lam=1.0, B=1.0, n=math.e)
    assert rep.bias_sq == pytest.approx(4.0)
    assert rep.variance == pytest.approx(80.0 / math.e * 0.5, rel=1e-12)


def test_lambda_star_ordering_on_figure_configuration():
    stars = [lambda_star(POLY1, B, 8000)[0] for B in (1.0, 5.0, 10.0, 15.0)]
    assert stars[0] > stars[1] > stars[2] > stars[3]


def test_lambda_star_single_point_grid():
    lam, rep = lambda_star(POLY1, 2.0, 8000, lambda_grid=np.array([0.3]))
    assert lam == 0.3 and rep.lambda_or_delta == 0.3


def test_lambda_star_grid_refinement():
    coarse = default_grid()
    dense = np.geomspace(1e-4, 10.0, 4000)
    step = coarse[1] / coarse[0]
    for B in (1.0, 10.0):
        lc, _ = lambda_star(POLY1, B, 8000, lambda_grid=coarse)
        ld, _ = lambda_star(POLY1, B, 8000, lambda_grid=dense)
        assert ld / step <= lc <= ld * step


def test_regular_bound_cases():
    fr = EigenSequence.finite_rank([1.0, 1.0, 1.0, 1.0])
    # at huge delta the d(delta) term is negligible
    big = regular_bound(fr, 1e3, B=1.0, n=1000)
    assert big == pytest.approx(1e6, rel=1e-4)
    # self-consistent balance point: delta^2 = sigma^2 B d log(n)/n with d = D + 1
    n, B = 10**5, 2.0
    delta = math.sqrt(5.0 * B * math.log(n) / n)
    d = effective_dim(fr, delta)
    assert d == 5
    val = regular_bound(fr, delta, B, n)
    assert val == pytest.approx(2.0 * delta**2, rel=0.01)
    assert regular_bound(fr, 0.5, 3.0, 100, c_prime=0.0) == 0.0


def test_lambda_rule_finite_rank_values():
    assert lambda_rule_finite_rank(1.0, 5, 1000) == pytest.approx(0.034539, abs=1e-6)
    assert lambda_rule_finite_rank(1.0, 1, math.e) == pytest.approx(1.0 / math.e)
    assert lambda_rule_finite_rank(2.0, 3, 8000) == pytest.approx(
        6.0 * math.log(8000.0) / 8000.0, rel=1e-12
    )


def test_lambda_rule_poly_values():
    assert lambda_rule_poly(1.0, 1.0, 1.0, math.e) == pytest.approx(
        math.e ** (-2.0 / 3.0), rel=1e-12
    )
    assert lambda_rule_poly(1.0, 1e12, 1.0, 1000) < 1e-4
    expect = 8.0 ** (-1.0 / 3.0) * (math.log(8000.0) / 8000.0) ** (2.0 / 3.0)
    assert lambda_rule_poly(1.0, 8.0, 1.0, 8000) == pytest.approx(expect, rel=1e-12)


def test_minimax_lower_finite_rank_conventions():
    vals = [1.0, 1.0 / 4, 1.0 / 9, 1.0 / 16]
    fr = EigenSequence.finite_rank(vals)
    got = minimax_lower(fr, B=2.0, n=1000, sigma_sq=1.0)
    # as delta -> 0 the literal convention gives (D+1) sigma^2 B / n = 0.01
    assert got == pytest.approx(5 * 2.0 / 1000, rel=1e-3)
    # the functional evaluated at delta^2 = mu_D is mu_D + sigma^2 B D / n
    delta = math.sqrt(vals[-1])
    d = effective_dim(fr, delta)
    assert d == 4
    assert delta**2 + 2.0 * d / 1000 == pytest.approx(1.0 / 16 + 0.008)


def test_minimax_lower_no_shift_reduction():
    fr = EigenSequence.finite_rank([1.0, 0.5])
    grid = np.geomspace(1e-4, 1.0, 100)
    manual = min(d * d + effective_dim(fr, d) / 500 for d in grid)
    assert minimax_lower(fr, 1.0, 500, delta_grid=grid) == pytest.approx(manual)


@pytest.mark.parametrize("n", [10**3, 10**4])
def test_minimax_lower_poly_balance(n):
    # analytic continuum balance of delta^2 + s/delta at s = sigma^2 B / n
    for B in (1.0, 2.0):
        s = B / n
        analytic = 2.0 * s ** (2.0 / 3.0)
        got = minimax_lower(POLY1, B, n)
        assert abs(got - analytic) / analytic < 0.10


def test_reweighted_rate_values():
    assert reweighted_rate("finite_rank", 1.0, 1.0, math.e, D=1) == pytest.approx(
        1.0 / math.e
    )
    expect = (math.log(8000.0) ** 3 / 8000.0) ** (2.0 / 3.0)
    assert reweighted_rate("poly", 1.0, 1.0, 8000, alpha=1.0) == pytest.approx(
        expect, rel=1e-12
    )
    one = reweighted_rate("finite_rank", 1.0, 1.0, 500, D=3)
    two = reweighted_rate("finite_rank", 2.0, 1.0, 500, D=3)
    assert two == pytest.approx(2.0 * one)


def test_unbounded_bound_value_and_minimizer():
    rep = unbounded_unweighted_bound(1.0, 1.0, 1.0, 1.0, math.e)
    assert rep.total == pytest.approx(2.0 + 40.0 / math.e, rel=1e-12)
    assert unbounded_unweighted_bound(1e12, 1.0, 1.0, 1.0, 100).variance < 1e-9
    # grid minimizer matches the stationarity closed form within one grid step
    n = 8000
    grid = default_grid()
    totals = [unbounded_unweighted_bound(l, 1.0, 1.0, 1.0, n).total for l in grid]
    lam_grid = grid[int(np.argmin(totals))]
    closed = unbounded_lambda_star(1.0, 1.0, 1.0, n)
    step = grid[1] / grid[0]
    assert closed / step <= lam_grid <= closed * step


def test_expectation_bound_structure():
    fr = EigenSequence.finite_rank([1.0, 0.5])
    n = 1000
    c2 = 519.0 / 256.0
    rep = expectation_bound(fr, lam=1e10, B=1.0, n=n)
    assert rep.variance < 1e-8
    assert rep.total == pytest.approx(c2 * (1e10 + 1.0 / n), rel=1e-6)
    # same series as the high-probability bound, different constants
    lam = 0.5
    hp = krr_bound(POLY1, lam, 2.0, n)
    ex = expectation_bound(POLY1, lam, 2.0, n)
    assert ex.variance / hp.variance == pytest.approx(c2 / (80.0 * math.log(n)), rel=1e-12)
    assert ex.extra == pytest.approx(c2 / n)


def test_expectation_bound_warns_outside_validity():
    fr = EigenSequence.finite_rank([1.0])
    with pytest.warns(UserWarning, match="validity"):
        expectation_bound(fr, lam=1e-6, B=1.0, n=1000, kappa_sq=1.0)


def test_monotonicity_invariants():
    lams = np.geomspace(1e-3, 1.0, 12)
    variances = [krr_bound(POLY1, l, 2.0, 500).variance for l in lams]
    assert np.all(np.diff(variances) <= 1e-12)
    bs = [1.0, 2.0, 4.0, 8.0]
    var_b = [krr_bound(POLY1, 0.1, b, 500).variance for b in bs]
    assert np.all(np.diff(var_b) >= -1e-12)
    # bias is linear in lambda and B
    assert krr_bound(POLY1, 0.2, 3.0, 500).bias_sq == pytest.approx(
        2.0 * krr_bound(POLY1, 0.1, 3.0, 500).bias_sq
    )


def test_minimax_dominated_by_regular_bound():
    # with c = 1, c' = 1 and log n >= 1 the lower functional is term-by-term
    # below the regular upper bound at every delta
    n, B = 1000, 4.0
    for delta in np.geomspace(1e-3, 3.0, 25):
        lower = delta**2 + B * effective_dim(POLY1, delta) / n
        upper = regular_bound(POLY1, delta, B, n)
        assert lower <= upper + 1e-12


def test_outputs_finite_and_nonnegative():
    for lam in np.geomspace(1e-4, 10, 10):
        rep = krr_bound(POLY1, lam, 5.0, 2000)
        assert np.isfinite(rep.total) and rep.bias_sq >= 0 and rep.variance >= 0


# one valid call per calculator; each numeric argument in turn is set to NaN
VALID_CALLS = [
    (krr_bound, dict(eigs=POLY1, lam=0.1, B=2.0, n=1000, sigma_sq=1.0, hnorm_sq=1.0)),
    (regular_bound, dict(eigs=POLY1, delta=0.1, B=2.0, n=1000, sigma_sq=1.0,
                         hnorm_sq=1.0, c_prime=1.0)),
    (lambda_rule_finite_rank, dict(sigma_sq=1.0, D=5, n=1000)),
    (lambda_rule_poly, dict(alpha=1.0, B=2.0, sigma_sq=1.0, n=1000)),
    (minimax_lower, dict(eigs=POLY1, B=2.0, n=1000, sigma_sq=1.0, c=1.0)),
    (reweighted_rate, dict(kind="finite_rank", V_sq=2.0, sigma_sq=1.0, n=1000, c=1.0, D=3)),
    (reweighted_rate, dict(kind="poly", V_sq=2.0, sigma_sq=1.0, n=1000, alpha=1.0)),
    (unbounded_unweighted_bound, dict(lam=0.1, V_sq=2.0, kappa_sq=1.0, sigma_sq=1.0,
                                      n=1000, hnorm_sq=1.0)),
    (unbounded_lambda_star, dict(V_sq=2.0, kappa_sq=1.0, sigma_sq=1.0, n=1000, hnorm_sq=1.0)),
    (expectation_bound, dict(eigs=POLY1, lam=1.0, B=2.0, n=1000, sigma_sq=1.0,
                             kappa_sq=1.0, hnorm_sq=1.0, c2=2.0, c1=32.0)),
    (m_function, dict(eigs=POLY1, delta=0.1, sigma_sq=1.0, V_sq=2.0, n=1000,
                      hnorm_sq=1.0, c0=1.0)),
]
NAN_CASES = [(fn, kwargs, arg) for fn, kwargs in VALID_CALLS
             for arg, value in kwargs.items() if isinstance(value, (int, float))]


@pytest.mark.parametrize("fn,kwargs,arg", NAN_CASES,
                         ids=[f"{fn.__name__}-{arg}" for fn, _, arg in NAN_CASES])
def test_nan_argument_is_rejected(fn, kwargs, arg):
    valid = fn(**kwargs)
    assert math.isfinite(valid if isinstance(valid, float) else valid.total)
    with pytest.raises(ValueError):
        fn(**{**kwargs, arg: float("nan")})


@pytest.mark.parametrize("eigs", [POLY1, EigenSequence.finite_rank([1.0, 0.3, 0.05]),
                                  EigenSequence.explicit([0.9, 0.5, 0.2, 0.1])],
                         ids=["poly", "finite", "explicit"])
def test_krr_bound_curve_is_krr_bound_at_every_grid_point(eigs):
    grid = default_grid(1e-6, 10.0, 57)
    reports, k = krr_bound_curve(eigs, 3.0, 2000, 0.7, 1.3, grid)
    assert reports == [krr_bound(eigs, float(lam), 3.0, 2000, 0.7, 1.3) for lam in grid]
    totals = [r.total for r in reports]
    assert totals[k] == min(totals)
    assert lambda_star(eigs, 3.0, 2000, 0.7, 1.3, grid) == (float(grid[k]), reports[k])


def test_krr_bound_curve_ties_go_to_the_first_grid_point():
    grid = default_grid(1e-5, 1.0, 40)
    _, k = krr_bound_curve(POLY1, 5.0, 8000, 1.0, 1.0, grid)
    # every point twice, in two orders: the first copy of the minimizer wins
    for doubled, first in ((np.concatenate([grid, grid]), k), (np.repeat(grid, 2), 2 * k)):
        reports, k2 = krr_bound_curve(POLY1, 5.0, 8000, 1.0, 1.0, doubled)
        assert k2 == first
        assert lambda_star(POLY1, 5.0, 8000, lambda_grid=doubled) == (float(grid[k]), reports[k2])


def test_krr_bound_curve_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="lambda grid must be nonempty"):
        krr_bound_curve(POLY1, 2.0, 1000, 1.0, 1.0, np.array([]))
