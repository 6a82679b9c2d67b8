"""The spectral sums against elementwise brute force and the Hurwitz zeta function."""

import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftkrr import spectrum
from shiftkrr.spectrum import EigenKernel, EigenSequence, effective_dim, psi_complexity

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

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


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=600))
def test_list_tail_sums_equal_the_reversed_cumsum_bit_for_bit(vals):
    mu = np.array(sorted(vals, reverse=True), dtype=float)
    want = np.concatenate((np.cumsum(mu[::-1])[::-1], [0.0, 0.0]))
    j0 = np.arange(len(mu) + 2)
    for eigs in (EigenSequence.finite_rank(mu), EigenSequence.explicit(mu, max(len(mu), 1))):
        assert eigs.tail_sum(j0).tobytes() == want.tobytes()


def test_a_list_sequence_leaves_the_callers_array_writeable():
    values = np.array([1.0, 0.5, 0.25])
    eigs = EigenSequence.finite_rank(values)
    assert eigs.tail_sum(0) == 1.75
    assert values.flags.writeable
    values[0] = 2.0
    # the sequence holds its own copy, so its sums and its values still agree
    assert eigs.tail_sum(0) == 1.75 and eigs.leading(3).tolist() == [1.0, 0.5, 0.25]


def test_bound_subcommands_at_j_max_1e7_raise_the_rss_by_less_than_32_mib(tmp_path):
    """A closed-form sum to j_max = 10**7 holds no array of j_max values."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eigs": {"kind": "poly", "alpha": 1.0, "j_max": 10**7}}))
    script = textwrap.dedent(f"""
        import resource
        from shiftkrr.cli import main
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for cmd in ("lambda-star", "critical-radius", "bound-curve"):
            assert main([cmd, "--config", {str(cfg)!r}, "--out", {str(tmp_path)!r} + "/" + cmd]) == 0
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    rise_kib = int(out.stdout.split()[-1])  # ru_maxrss is in KiB on Linux
    assert rise_kib < 32 * 1024


def _hurwitz_suffix(p, c, lo, J, plus=0.0):
    """c * (zeta(p, lo+1) - zeta(p, J+1)) + plus, rounded once to a float.

    mpmath's Hurwitz zeta at a large second argument loses about
    (p + 1) * log10(J) of its working digits (zeta(16, 12046) at 60 digits
    is off by 4e-15 relative), so the working precision grows with them.
    """
    with mpmath.workdps(30 + int((p + 1) * math.log10(J + 1))):
        return float(c * (mpmath.zeta(p, lo + 1) - mpmath.zeta(p, J + 1)) + plus)


@st.composite
def _poly_suffix_cases(draw):
    """(alpha, c, J, j0s): j0 at 0, at 31..33, within 33 of J, and anywhere up to J."""
    J = draw(st.integers(min_value=1, max_value=10**7))
    j0 = st.one_of(st.sampled_from([0, 31, 32, 33]).map(lambda j: min(j, J)),
                   st.integers(min_value=0, max_value=33).map(lambda d: max(J - d, 0)),
                   st.integers(min_value=0, max_value=J))
    return (draw(st.floats(min_value=0.51, max_value=4.0)),
            draw(st.floats(min_value=1e-2, max_value=1e2)),
            J, draw(st.lists(j0, min_size=1, max_size=4)))


@settings(max_examples=80, deadline=None)
@given(case=_poly_suffix_cases())
def test_poly_suffix_sums_are_the_hurwitz_zeta_difference(case):
    alpha, c, J, j0s = case
    eigs = EigenSequence.poly_decay(alpha, c, J)
    lo = np.array(j0s, dtype=np.int64)
    sums = {"tail_sum": (eigs.tail_sum(lo), 2.0 * alpha, c, eigs._tail),
            # the two suffix sums resolvent_sum reads past its exact part: of mu and of mu^2
            "sum of mu": (spectrum._poly_suffix(2.0 * alpha, c, lo, J), 2.0 * alpha, c, 0.0),
            "sum of mu^2": (spectrum._poly_suffix(4.0 * alpha, c * c, lo, J),
                            4.0 * alpha, c * c, 0.0)}
    assert sums["tail_sum"][0].tolist() == [eigs.tail_sum(j) for j in j0s]
    for name, (got, p, scale, plus) in sums.items():
        for j, value in zip(j0s, got.tolist()):
            want = _hurwitz_suffix(p, scale, j, J, plus)
            assert abs(value - want) <= 1e-15 * want, (name, j, value, want)
