import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from shiftkrr.cli import main
from shiftkrr.shifts import Dataset
from shiftkrr.spectrum import (
    EigenKernel,
    EigenSequence,
    TruncationExceeded,
    critical_radius,
    default_grid,
    effective_dim,
    hermite_features,
    m_function,
    psi_complexity,
)

POLY1 = EigenSequence.poly_decay(1.0, 1.0)


def test_eigenvalue_rules():
    assert EigenSequence.poly_decay(1.0, 1.0).eigenvalue(3) == pytest.approx(1 / 9, abs=0)
    assert EigenSequence.finite_rank([1.0, 0.5]).eigenvalue(5) == 0.0
    assert EigenSequence.explicit([1.0, 0.3, 0.1]).eigenvalue(2) == 0.3


def test_eigenvalue_validation():
    with pytest.raises(ValueError):
        EigenSequence.poly_decay(0.4)
    with pytest.raises(ValueError):
        EigenSequence.finite_rank([0.5, 1.0])  # increasing
    with pytest.raises(ValueError):
        EigenSequence.finite_rank([1.0, -0.1])
    with pytest.raises(ValueError):
        POLY1.eigenvalue(0)


def test_effective_dim_examples():
    assert effective_dim(POLY1, 0.5) == 2  # mu_2 = 0.25 <= 0.25
    assert effective_dim(POLY1, 1.0) == 1
    fr = EigenSequence.finite_rank([1.0, 0.5, 0.1])
    assert effective_dim(fr, math.sqrt(0.05)) == 4  # mu_4 = 0 is the first below


def test_effective_dim_exact_boundaries():
    # exact hits at many integer boundaries: mu_j = j^(-2) <= (1/k)^2 iff j >= k
    for k in [1, 2, 3, 10, 100, 31623]:
        assert effective_dim(POLY1, 1.0 / k) == k


def test_effective_dim_truncation_error():
    small = EigenSequence.poly_decay(1.0, 1.0, j_max=10)
    with pytest.raises(TruncationExceeded, match="exceeds truncation"):
        effective_dim(small, 1e-9)


def test_poly_tail_sum_is_zeta_minus_the_head():
    # the sum over 10 < j <= 10^6 is a Hurwitz zeta difference; beyond it, the integral bound
    oracle = zeta(2, 11) - zeta(2, 10**6 + 1) + 1e-6
    assert POLY1.tail_sum(10) == pytest.approx(oracle, rel=1e-15, abs=0)


def test_psi_examples():
    assert psi_complexity(POLY1, 0.0, 1.0) == 0.0
    assert psi_complexity(EigenSequence.finite_rank([1.0, 0.5]), 1.0, 1.0) == 1.5
    oracle = 0.25 + 0.25 + (zeta(2) - 1.25)
    assert psi_complexity(POLY1, 0.5, 1.0) == pytest.approx(oracle, abs=1e-9)


def test_psi_brute_force_cross_check():
    # independent oracle: raw elementwise sum over the head plus the exact
    # (Hurwitz zeta) tail beyond j_max
    j = np.arange(1, 10**6 + 1, dtype=float)
    tail = float(zeta(2, 10**6 + 1))
    for delta, h in [(0.03, 1.0), (0.5, 2.0), (2.0, 0.3)]:
        brute = float(np.sum(np.minimum(delta**2, j**-2.0 * h))) + h * tail
        assert psi_complexity(POLY1, delta, h) == pytest.approx(brute, rel=1e-9)


def test_m_function_values():
    fr = EigenSequence.finite_rank([1.0])
    assert m_function(fr, 0.0, 1.0, 1.0, 1000) == 0.0
    expect = math.sqrt(math.log(1000.0) ** 3 / 1000.0 * 0.25)
    assert m_function(fr, 0.5, 1.0, 1.0, 1000) == pytest.approx(expect, rel=1e-12)
    assert m_function(fr, 0.5, 1.0, 1.0, 1000, general_noise=True) == pytest.approx(
        expect * 1.5, rel=1e-12
    )


def test_critical_radius_finite_rank_closed_form():
    # with Psi = D delta^2 at the crossing, delta* = 2 c0 sqrt(sigma^2 V^2 D log^3(n)/n)
    n = 10**5
    closed = 2.0 * math.sqrt(math.log(n) ** 3 / n)
    grid = default_grid()
    got = critical_radius(EigenSequence.finite_rank([1.0]), 1.0, 1.0, n)
    step = grid[1] / grid[0]
    assert closed / step <= got <= closed * step


def test_critical_radius_degenerate_zero():
    grid = np.geomspace(1e-6, 1.0, 50)
    got = critical_radius(EigenSequence.explicit([0.0]), 1.0, 1.0, 100, grid=grid)
    assert got == grid[0]


def test_critical_radius_matches_sign_change_oracle():
    n = 10**4
    coarse = default_grid()
    got = critical_radius(POLY1, 1.0, 1.0, n)
    dense = np.geomspace(1e-4, 10.0, 4000)
    vals = np.array(
        [m_function(POLY1, d, 1.0, 1.0, n) - d * d / 2.0 for d in dense]
    )
    oracle = dense[np.nonzero(vals <= 0)[0][0]]
    step = coarse[1] / coarse[0]
    assert oracle / step <= got <= oracle * step


def test_critical_radius_no_solution():
    with pytest.raises(ValueError, match="no solution on grid"):
        critical_radius(POLY1, 1.0, 1.0, 2, grid=np.array([1e-8]))


def test_underflow_edges():
    # delta so small that delta^2 underflows: no poly index can qualify
    with pytest.raises(TruncationExceeded):
        effective_dim(POLY1, 1e-300)
    assert psi_complexity(POLY1, 1e-300, 1.0) >= 0.0
    assert math.isfinite(psi_complexity(POLY1, 1e-3, 1e300))


@settings(max_examples=40, deadline=None)
@given(
    d1=st.floats(min_value=1e-3, max_value=5.0),
    d2=st.floats(min_value=1e-3, max_value=5.0),
)
def test_effective_dim_monotone_and_psi_monotone(d1, d2):
    lo, hi = sorted([d1, d2])
    assert effective_dim(POLY1, lo) >= effective_dim(POLY1, hi)
    assert psi_complexity(POLY1, lo) <= psi_complexity(POLY1, hi) + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    delta=st.floats(min_value=1e-4, max_value=10.0),
    vals=st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=6),
)
def test_psi_finite_rank_upper_bound(delta, vals):
    vals = sorted(vals, reverse=True)
    eigs = EigenSequence.finite_rank(vals)
    assert psi_complexity(eigs, delta, 1.0) <= len(vals) * delta**2 + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    delta=st.floats(min_value=1e-3, max_value=5.0),
    alpha=st.floats(min_value=0.6, max_value=3.0),
)
def test_effective_dim_poly_upper_bound(delta, alpha):
    eigs = EigenSequence.poly_decay(alpha, 1.0)
    d = effective_dim(eigs, delta)
    assert d <= math.ceil((1.0 / delta**2) ** (1.0 / (2.0 * alpha))) + 1


@settings(max_examples=30, deadline=None)
@given(delta=st.floats(min_value=1e-3, max_value=5.0))
def test_m_function_general_noise_dominates(delta):
    base = m_function(POLY1, delta, 1.0, 2.0, 500)
    gen = m_function(POLY1, delta, 1.0, 2.0, 500, general_noise=True)
    assert gen >= base


def test_determinism_bit_identical():
    a = [psi_complexity(POLY1, d) for d in default_grid()]
    b = [psi_complexity(POLY1, d) for d in default_grid()]
    assert a == b


def test_eigen_sequence_json_round_trip():
    for eigs in [POLY1, EigenSequence.finite_rank([2.0, 1.0]), EigenSequence.explicit([1.0], 100)]:
        back = EigenSequence.from_json(eigs.to_json())
        assert back.to_json() == eigs.to_json()


def test_resolvent_sum_against_brute_force():
    j = np.arange(1, 10**6 + 1, dtype=float)
    mu = j**-2.0
    tail = float(zeta(2, 10**6 + 1))
    for s in [1e-4, 0.01, 0.63, 10.0]:
        brute = float(np.sum(mu / (mu + s))) + tail / s
        assert POLY1.resolvent_sum(s) == pytest.approx(brute, rel=1e-8)
    fr = EigenSequence.finite_rank([1.0, 0.5])
    assert fr.resolvent_sum(0.5) == pytest.approx(1.0 / 1.5 + 0.5)


def test_kernel_gram_and_kappa():
    eigs = EigenSequence.finite_rank([1.0, 0.25, 0.1])
    kern = EigenKernel(eigs, features="hypercube", rank=3)
    x = np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])
    K = kern.gram(x)
    # K(x, z) = sum_j mu_j x_j z_j
    expect = np.array(
        [
            [1.35, -1.0 + 0.25 + 0.1],
            [-1.0 + 0.25 + 0.1, 1.35],
        ]
    )
    assert np.allclose(K, expect, atol=1e-14)
    assert kern.kappa_sq == pytest.approx(1.35)


def test_hermite_features_orthonormal_under_gaussian():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500000)
    F = hermite_features(x, 5)
    G = F.T @ F / len(x)
    assert np.allclose(G, np.eye(5), atol=0.05)


def test_hermite_features_orthonormal_to_rank_200():
    # Gauss-Hermite quadrature with 220 nodes is exact for degree <= 439
    nodes, weights = np.polynomial.hermite_e.hermegauss(220)
    F = hermite_features(nodes, 200)
    G = (F * (weights / math.sqrt(2.0 * math.pi))[:, None]).T @ F
    assert np.max(np.abs(G - np.eye(200))) <= 1e-12


def test_uncapped_feature_families_need_explicit_rank():
    poly = EigenSequence.poly_decay(1.0)
    with pytest.raises(ValueError, match="explicit rank"):
        EigenKernel(poly, "hermite")
    with pytest.raises(ValueError, match="unknown eigenfunction family"):
        EigenKernel(poly, hermite_features)  # a callable is no family
    assert EigenKernel(poly, "hermite", rank=8).rank == 8
    assert EigenKernel(EigenSequence.finite_rank([1.0, 0.5]), "hermite").rank == 2


def test_kernel_json_round_trip():
    kern = EigenKernel(EigenSequence.finite_rank([1.0, 0.5]), "hypercube", rank=2)
    back = EigenKernel.from_json(kern.to_json())
    assert back.to_json() == kern.to_json()


@pytest.mark.parametrize("eigs", [POLY1, EigenSequence.poly_decay(0.7, 2.5, 1000),
                                  EigenSequence.finite_rank(1.0 / np.arange(1, 101)),
                                  EigenSequence.explicit([1.0, 0.5, 0.3, 0.1, 0.01], 50)])
@pytest.mark.parametrize("rank", [1, 5, 64])
def test_kappa_sq_is_the_sum_of_the_kept_eigenvalues(eigs, rank):
    kern = EigenKernel(eigs, "hypercube", rank=rank)
    assert kern.kappa_sq == np.sum(kern.mu)
    # sup_x K(x, x) on the hypercube: every point attains it, up to summation order
    x = np.random.default_rng(rank).choice([-1.0, 1.0], size=(40, kern.rank + 3))
    assert np.allclose(np.diag(kern.gram(x)), kern.kappa_sq,
                       rtol=kern.rank * np.finfo(float).eps, atol=0)


def test_a_poly_fit_builds_no_poly_head(tmp_path):
    """A fit's kappa_sq sums the 64 eigenvalues its kernel keeps, not the 10^6 of the sequence."""
    rng = np.random.default_rng(5)
    xs = rng.choice([-1.0, 1.0], size=(200, 64))
    Dataset(xs, xs[:, 0] + rng.normal(size=200), np.ones(200)).to_csv(tmp_path / "data.csv")
    kernel = {"eigs": {"kind": "poly", "alpha": 1.0}, "eigenfunctions": "hypercube",
              "rank": 64}
    for mode in ("dual", "primal"):
        cfg, out = tmp_path / f"{mode}-cfg.json", tmp_path / f"{mode}.json"
        cfg.write_text(json.dumps({"kernel": kernel, "lambda": 0.01, "mode": mode}))
        assert main(["fit", "--config", str(cfg), "--data", str(tmp_path / "data.csv"),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kernel"]["kappa_sq"] == 1.6294305014088877


def test_kappa_sq_errors_stay_at_construction():
    with pytest.raises(ValueError, match="kappa_sq must be positive"):
        EigenKernel(EigenSequence.finite_rank([0.0, 0.0]), "hypercube", rank=2)
    with pytest.raises(ValueError, match="kappa_sq must be positive"):
        EigenKernel(EigenSequence.poly_decay(1.0), "hypercube", rank=4, kappa_sq=0.0)
