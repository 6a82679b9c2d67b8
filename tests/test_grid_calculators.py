"""Grid-at-once spectral sums and calculators against their one-point definitions.

``count_at_least``, ``tail_sum`` and ``resolvent_sum`` take an array as
well as a number; every array entry must be bit for bit the number the
one-point call gives, and so must ``krr_bound``'s at an array of
lambdas.  ``minimax_lower`` and ``critical_radius`` evaluate
their whole grid with these forms, so they must equal the per-point
definitions, keep their error types and refuse a bad grid entry wherever
it sits.  Poly tail sums are checked against scipy's Hurwitz zeta.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from shiftkrr import spectrum
from shiftkrr.bounds import krr_bound, minimax_lower
from shiftkrr.cli import main
from shiftkrr.errors import NumericalError, TruncationExceeded
from shiftkrr.spectrum import EigenSequence, critical_radius, effective_dim, m_function

SEQUENCES = {
    "poly-1": EigenSequence.poly_decay(1.0, 1.0),
    "poly-0.75": EigenSequence.poly_decay(0.75, 2.5, 3000),
    "poly-1.3": EigenSequence.poly_decay(1.3, 0.3, 12345),
    "poly-3": EigenSequence.poly_decay(3.0, 1.0, 700),
    "poly-1-short": EigenSequence.poly_decay(1.0, 1.0, 257),
    "finite": EigenSequence.finite_rank([2.0, 1.0, 1.0, 0.5, 0.125, 0.0, 0.0]),
    "explicit": EigenSequence.explicit([1.0 / j**2 for j in range(1, 400)], 399),
}


def _one_point_resolvent(eigs, s):
    """The resolvent sum as a loop over shifts computes it: mu and both suffix sums per shift."""
    if eigs.kind != "poly":
        return float(np.sum(eigs.values / (eigs.values + s)))
    jc = eigs.count_at_least(1e-4 * s)
    mu = eigs.leading(jc)
    exact = float(np.sum(mu / (mu + s)))
    p, J = 2.0 * eigs.alpha, np.array([jc])
    s1 = float(spectrum._poly_suffix(p, eigs.c, J, eigs.j_max)[0])
    s2 = float(spectrum._poly_suffix(2.0 * p, eigs.c * eigs.c, J, eigs.j_max)[0])
    return exact + (s1 / s - s2 / s / s) + eigs._tail / s


def _eigenvalue_levels(eigs, picks):
    """Levels at mu_k and one ulp either side, plus 0, negatives and +inf."""
    levels = [0.0, -0.0, -1.0, -math.inf, math.inf, 1e-300, 5e-324]
    for k in picks:
        mu = eigs.eigenvalue(k)
        levels += [mu, math.nextafter(mu, math.inf), math.nextafter(mu, -math.inf)]
    return np.array(levels)


@pytest.mark.parametrize("name", SEQUENCES)
def test_array_forms_equal_the_scalar_calls_at_eigenvalue_levels(name):
    eigs = SEQUENCES[name]
    picks = sorted({1, 2, 3, 17, eigs.length // 2, eigs.length - 1, eigs.length} - {0})
    levels = _eigenvalue_levels(eigs, picks)
    counts = eigs.count_at_least(levels)
    assert counts.dtype.kind == "i"
    assert counts.tolist() == [eigs.count_at_least(float(v)) for v in levels]
    assert all(type(eigs.count_at_least(float(v))) is int for v in levels)
    j0 = np.array([0, 1, 2, eigs.length // 3, eigs.length - 1, eigs.length, eigs.length + 5])
    assert eigs.tail_sum(j0).tolist() == [eigs.tail_sum(int(j)) for j in j0]
    shifts = levels[levels > 0]
    assert eigs.resolvent_sum(shifts).tolist() == [eigs.resolvent_sum(float(s)) for s in shifts]
    # the one-element array is the number's case
    assert eigs.resolvent_sum(shifts[:1]).tolist() == [eigs.resolvent_sum(float(shifts[0]))]


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(min_value=0.51, max_value=4.0),
       c=st.floats(min_value=1e-2, max_value=1e2),
       j_max=st.integers(min_value=1, max_value=5000),
       ks=st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=8),
       shifts=st.lists(st.floats(min_value=1e-12, max_value=1e3), min_size=1, max_size=8))
def test_poly_array_forms_equal_the_scalar_calls(alpha, c, j_max, ks, shifts):
    eigs = EigenSequence.poly_decay(alpha, c, j_max)
    levels = _eigenvalue_levels(eigs, [min(k, j_max) for k in ks])
    assert eigs.count_at_least(levels).tolist() == [eigs.count_at_least(float(v)) for v in levels]
    mus = np.array([eigs.eigenvalue(j) for j in range(1, j_max + 1)])
    assert eigs.count_at_least(levels).tolist() == [
        j_max if v <= 0 else int(np.count_nonzero(mus >= v)) for v in levels]
    j0 = np.array([min(k, j_max + 1) for k in ks] + [0])
    assert eigs.tail_sum(j0).tolist() == [eigs.tail_sum(int(j)) for j in j0]
    s = np.array(shifts)
    assert eigs.resolvent_sum(s).tolist() == [eigs.resolvent_sum(float(v)) for v in s]
    assert eigs.resolvent_sum(s).tolist() == [_one_point_resolvent(eigs, float(v)) for v in s]


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=50),
       levels=st.lists(st.floats(allow_nan=False), min_size=1, max_size=10),
       shifts=st.lists(st.floats(min_value=1e-12, max_value=1e6), min_size=1, max_size=6))
def test_list_array_forms_equal_the_scalar_calls(vals, levels, shifts):
    vals = sorted(vals, reverse=True)
    for eigs in (EigenSequence.finite_rank(vals), EigenSequence.explicit(vals, max(len(vals), 1))):
        lv = np.array(levels + vals)
        assert eigs.count_at_least(lv).tolist() == [eigs.count_at_least(float(v)) for v in lv]
        assert eigs.count_at_least(lv).tolist() == [int(np.count_nonzero(eigs.values >= v))
                                                    for v in lv]
        j0 = np.arange(len(vals) + 2)
        assert eigs.tail_sum(j0).tolist() == [eigs.tail_sum(int(j)) for j in j0]
        s = np.array(shifts)
        assert eigs.resolvent_sum(s).tolist() == [eigs.resolvent_sum(float(v)) for v in s]
        assert eigs.resolvent_sum(s).tolist() == [_one_point_resolvent(eigs, float(v)) for v in s]


@pytest.mark.parametrize("name", SEQUENCES)
def test_a_nan_or_a_bad_entry_anywhere_in_an_array_is_refused(name):
    eigs = SEQUENCES[name]
    for bad in ([math.nan], [1.0, 0.5, math.nan], [math.nan, 1.0]):
        with pytest.raises(ValueError, match="NaN"):
            eigs.count_at_least(np.array(bad))
    for bad in ([0, 1, -1], [math.nan, 3]):
        with pytest.raises(ValueError, match="j0 >= 0"):
            eigs.tail_sum(np.array(bad))
    with pytest.raises(ValueError, match="whole"):
        eigs.tail_sum(np.array([1.0, 2.5]))
    for bad in ([1.0, 0.0], [1.0, -2.0], [math.nan, 1.0]):
        with pytest.raises(ValueError, match="positive"):
            eigs.resolvent_sum(np.array(bad))


@pytest.mark.parametrize("name", SEQUENCES)
def test_krr_bound_at_an_array_of_lambdas_holds_its_one_lambda_reports(name):
    eigs = SEQUENCES[name]
    lams = np.geomspace(1e-9, 1e3, 37)
    curve = krr_bound(eigs, lams, 3.0, 2000, 0.7, 1.3)
    ones = [krr_bound(eigs, float(lam), 3.0, 2000, 0.7, 1.3) for lam in lams]
    for field in ("lambda_or_delta", "bias_sq", "variance", "total"):
        assert getattr(curve, field).tolist() == [getattr(r, field) for r in ones]
    assert all(type(r.variance) is float for r in ones)
    with pytest.raises(ValueError, match="krr_bound"):
        krr_bound(eigs, np.r_[lams, math.nan], 3.0, 2000)


def _zeta_suffix(p, c, j0, J):
    """c * sum_{j0 < j <= J} j^-p: scipy's Hurwitz zeta difference, or term by term where it cancels."""
    head, tail = zeta(p, j0 + 1), zeta(p, J + 1)
    if tail <= head / 8:
        return c * float(head - tail)
    return c * math.fsum(float(j) ** -p for j in range(j0 + 1, J + 1))


@pytest.mark.parametrize("alpha,c,j_max", [(1.0, 1.0, 1000), (0.75, 2.5, 1024),
                                           (1.3, 0.3, 1023), (3.0, 1.0, 5 * 2**16 + 77)])
def test_tail_sums_from_checkpoints_are_bit_exact_and_hold_no_arrays(alpha, c, j_max):
    """Tail sums are the zeta difference plus the integral tail; an array holds the numbers' bits."""
    eigs = EigenSequence.poly_decay(alpha, c, j_max)
    j0 = np.unique(np.r_[np.arange(0, min(j_max, 300)), np.arange(j_max - 300, j_max),
                         np.arange(0, j_max, j_max // 40)])
    got = eigs.tail_sum(j0)
    assert got.tolist() == [eigs.tail_sum(int(j)) for j in j0]
    want = np.array([_zeta_suffix(2.0 * alpha, c, int(j), j_max) for j in j0]) + eigs._tail
    assert np.all(np.abs(got - want) <= 1e-15 * want)


def test_critical_radius_on_a_fine_grid_holds_at_most_one_stride(tmp_path, monkeypatch):
    """At j_max = 10^7 its smallest delta counts 10^6 indices; its output is the zeta one's."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"eigs": {"kind": "poly", "alpha": 1.0, "j_max": 10**7},
         "grid": {"lo": 1e-6, "hi": 10.0, "points": 100}}))
    assert main(["critical-radius", "--config", "cfg.json", "--out", "out"]) == 0
    delta = json.loads((tmp_path / "out").read_text())["critical_radius"]
    # Psi(delta) with its tail from zeta: count * delta^2 + sum_{j > count} mu_j
    eigs = EigenSequence.poly_decay(1.0, 1.0, 10**7)
    grid = np.geomspace(1e-6, 10.0, 100)
    counts = eigs.count_at_least(grid * grid)
    psi = counts * (grid * grid) + np.array([_zeta_suffix(2.0, 1.0, int(k), 10**7) + 1e-7
                                           for k in counts])
    assert np.allclose(spectrum.psi_complexity(eigs, grid), psi, rtol=1e-15, atol=0)
    ok = np.sqrt(math.log(8000) ** 3 / 8000 * psi) <= grid * grid / 2.0
    assert delta == grid[np.flatnonzero(ok)[0]]


def _per_point_minimax(eigs, B, n, sigma_sq, grid, c):
    return c * min(float(d) * float(d) + sigma_sq * B * effective_dim(eigs, float(d)) / n
                   for d in grid)


def _per_point_radius(eigs, sigma_sq, V_sq, n, hnorm_sq, c0, general_noise, grid):
    for d in grid:
        d = float(d)
        if m_function(eigs, d, sigma_sq, V_sq, n, hnorm_sq, c0, general_noise) <= d * d / 2.0:
            return d
    raise NumericalError("no solution on grid")


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SEQUENCES)),
       B=st.floats(min_value=1.0, max_value=500.0),
       n=st.integers(min_value=2, max_value=10**6),
       sigma_sq=st.floats(min_value=1e-3, max_value=10.0),
       V_sq=st.floats(min_value=1.0, max_value=10.0),
       hnorm_sq=st.floats(min_value=0.0, max_value=10.0),
       c0=st.floats(min_value=1e-2, max_value=3.0),
       general_noise=st.booleans(),
       lo=st.floats(min_value=-12.0, max_value=0.0),
       points=st.integers(min_value=1, max_value=60))
def test_grid_calculators_equal_their_per_point_definitions(name, B, n, sigma_sq, V_sq, hnorm_sq,
                                                            c0, general_noise, lo, points):
    eigs = SEQUENCES[name]
    grid = np.geomspace(10.0**lo, 10.0, points)
    try:
        want = _per_point_minimax(eigs, B, n, sigma_sq, grid, 1.5)
    except TruncationExceeded:
        with pytest.raises(TruncationExceeded):
            minimax_lower(eigs, B, n, sigma_sq, grid, 1.5)
    else:
        assert minimax_lower(eigs, B, n, sigma_sq, grid, 1.5) == want
    args = (eigs, sigma_sq, V_sq, n, hnorm_sq, c0, general_noise)
    try:
        want = _per_point_radius(*args, grid)
    except NumericalError:
        with pytest.raises(NumericalError, match="no solution on grid"):
            critical_radius(*args, grid=grid)
    else:
        assert critical_radius(*args, grid=grid) == want
    psi = spectrum.psi_complexity(eigs, grid, hnorm_sq)
    assert psi.tolist() == [spectrum.psi_complexity(eigs, float(d), hnorm_sq) for d in grid]


@pytest.mark.parametrize("bad", [-1e-3, math.nan, -math.inf])
@pytest.mark.parametrize("where", [0, 3, -1])
def test_a_bad_delta_is_refused_wherever_it_sits(bad, where):
    eigs = SEQUENCES["poly-1"]
    grid = np.geomspace(1e-2, 10.0, 8)
    assert critical_radius(eigs, 1.0, 1.0, 8000, grid=grid) < grid[-1]  # the root is inside
    grid[where] = bad
    with pytest.raises(ValueError, match="delta"):
        critical_radius(eigs, 1.0, 1.0, 8000, grid=grid)
    with pytest.raises(ValueError, match="delta"):
        minimax_lower(eigs, 2.0, 8000, delta_grid=grid)


def test_the_grid_calculators_keep_their_error_types():
    short = EigenSequence.poly_decay(1.0, 1.0, 100)
    with pytest.raises(TruncationExceeded):
        minimax_lower(short, 2.0, 1000, delta_grid=[1.0, 1e-3])
    with pytest.raises(NumericalError, match="no solution on grid"):
        critical_radius(SEQUENCES["poly-1"], 1.0, 1.0, 2, grid=[1e-8, 1e-7])
    for fn in (lambda g: minimax_lower(short, 2.0, 1000, delta_grid=g),
               lambda g: critical_radius(short, 1.0, 1.0, 1000, grid=g)):
        with pytest.raises(ValueError, match="nonempty"):
            fn([])
