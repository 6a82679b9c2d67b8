"""The head-plus-tail spectral arithmetic against elementwise brute force."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftkrr.spectrum import EigenKernel, EigenSequence, effective_dim, psi_complexity

# nonincreasing lists, often ending in zeros
eigen_lists = st.tuples(
    st.lists(st.floats(min_value=1e-8, max_value=10.0), max_size=40),
    st.integers(min_value=0, max_value=5),
).map(lambda vz: sorted(vz[0], reverse=True) + [0.0] * vz[1])


def _brute_effective_dim(vals, delta):
    d2 = delta * delta
    return next((j for j, v in enumerate(vals, start=1) if v <= d2), len(vals) + 1)


@settings(max_examples=300, deadline=None)
@given(
    vals=eigen_lists,
    delta=st.floats(min_value=1e-200, max_value=10.0),
    hnorm_sq=st.floats(min_value=1e-3, max_value=1e3),
    s=st.floats(min_value=1e-12, max_value=1e6),
    j0=st.integers(min_value=0, max_value=50),
)
def test_list_sums_match_brute_force(vals, delta, hnorm_sq, s, j0):
    eigs = EigenSequence.finite_rank(vals)
    d2 = delta * delta

    def close(got, want):
        return abs(got - want) <= 1e-13 * abs(want)

    assert close(eigs.tail_sum(0), math.fsum(vals))
    assert close(eigs.tail_sum(j0), math.fsum(vals[j0:]))
    assert close(eigs.resolvent_sum(s), math.fsum(v / (v + s) for v in vals))
    assert close(psi_complexity(eigs, delta, hnorm_sq),
                 math.fsum(min(d2, v * hnorm_sq) for v in vals))
    assert effective_dim(eigs, delta) == _brute_effective_dim(vals, delta)


@settings(max_examples=100, deadline=None)
@given(
    vals=eigen_lists.filter(lambda v: any(v)),
    delta=st.floats(min_value=1e-6, max_value=10.0),
    s=st.floats(min_value=1e-12, max_value=1e6),
    j_max=st.integers(min_value=1, max_value=10**7),
)
def test_finite_and_explicit_lists_agree_bit_for_bit(vals, delta, s, j_max):
    fin = EigenSequence.finite_rank(vals)
    exp = EigenSequence.explicit(vals, j_max)
    for eigs in (fin, exp):
        assert eigs.length == len(vals) and eigs.rank == np.count_nonzero(vals)
    assert fin.tail_sum(0) == exp.tail_sum(0)
    assert [fin.tail_sum(j) for j in range(len(vals) + 2)] == [
        exp.tail_sum(j) for j in range(len(vals) + 2)
    ]
    assert fin.resolvent_sum(s) == exp.resolvent_sum(s)
    assert psi_complexity(fin, delta) == psi_complexity(exp, delta)
    assert effective_dim(fin, delta) == effective_dim(exp, delta)
    k_fin, k_exp = EigenKernel(fin), EigenKernel(exp)
    assert k_fin.rank == k_exp.rank
    assert np.array_equal(k_fin.mu, k_exp.mu)
    assert k_fin.kappa_sq == k_exp.kappa_sq


def test_effective_dim_where_delta_squared_is_an_eigenvalue():
    # 1e-4 * 1e-4 rounds to the same double as mu_10000 = 10000^-2
    assert 1e-4 * 1e-4 == EigenSequence.poly_decay(1.0, 1.0).eigenvalue(10000)
    assert effective_dim(EigenSequence.poly_decay(1.0, 1.0), 1e-4) == 10000


def test_nan_delta_is_rejected():
    for eigs in (EigenSequence.finite_rank([1.0, 0.5]), EigenSequence.poly_decay(1.0, 1.0)):
        with pytest.raises(ValueError):
            effective_dim(eigs, math.nan)
        with pytest.raises(ValueError):
            psi_complexity(eigs, math.nan)
        with pytest.raises(ValueError):
            psi_complexity(eigs, 0.5, math.nan)


@pytest.mark.parametrize("eigs", [EigenSequence.finite_rank([1.0, 0.5, 0.25]),
                                  EigenSequence.poly_decay(1.0, 1.0, 1000)])
def test_a_negative_tail_index_is_rejected(eigs):
    # it used to wrap around a list (-3 gave 0.75) and read only a poly's analytic tail
    for j0 in (-1, -3, math.nan):
        with pytest.raises(ValueError, match="j0 >= 0"):
            eigs.tail_sum(j0)


@pytest.mark.parametrize("eigs", [EigenSequence.finite_rank([1.0, 0.5, 0.25]),
                                  EigenSequence.poly_decay(1.0, 1.0, 1000)])
def test_a_nan_level_is_rejected(eigs):
    # it used to count j_max for a poly sequence and 0 for a list
    with pytest.raises(ValueError, match="NaN"):
        eigs.count_at_least(math.nan)


@pytest.mark.parametrize("alpha", [0.75, 1.0, 2.5])
def test_poly_resolvent_sum_where_s_squared_underflows(alpha):
    eigs = EigenSequence.poly_decay(alpha, 1.0)
    assert math.isfinite(eigs.resolvent_sum(1e-170))
    assert eigs.resolvent_sum(1e-300) > eigs.resolvent_sum(1e-170) > eigs.resolvent_sum(1e-150)


def test_zero_eigenvalue_adds_nothing_when_the_level_underflows():
    # delta^2 / hnorm_sq underflows to 0, the level at which a zero eigenvalue counts
    assert psi_complexity(EigenSequence.finite_rank([0.0]), 6.8e-162, 18.0) == 0.0
    assert psi_complexity(EigenSequence.finite_rank([1.0, 0.0]), 6.8e-162, 18.0) == 6.8e-162**2
