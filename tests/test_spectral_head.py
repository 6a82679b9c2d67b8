"""The poly head: built once per (alpha, c, j_max) per process, shared read-only, bit-exact."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftkrr import spectrum
from shiftkrr.cli import main
from shiftkrr.spectrum import EigenSequence


def _reference_head(mu):
    """The head as summed before it was shared: separate cumsums, reversed and padded."""
    return (mu,
            np.concatenate((np.cumsum(mu[::-1])[::-1], [0.0])),
            np.concatenate((np.cumsum((mu * mu)[::-1])[::-1], [0.0])))


def test_equal_poly_sequences_share_one_read_only_head():
    a, b = EigenSequence.poly_decay(1.0, 1.0), EigenSequence.poly_decay(1.0, 1.0)
    head = a._head()
    assert b._head() is head
    for arr in head:
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert a.tail_sum(0) == b.tail_sum(0)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(min_value=0.51, max_value=6.0),
       c=st.floats(min_value=1e-3, max_value=1e3),
       j_max=st.integers(min_value=1, max_value=20000))
def test_poly_head_equals_the_separate_cumsums_bit_for_bit(alpha, c, j_max):
    head = EigenSequence.poly_decay(alpha, c, j_max)._head()
    mu = c * np.arange(1, j_max + 1, dtype=float) ** (-2.0 * alpha)
    for got, want in zip(head, _reference_head(mu)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=30))
def test_list_head_equals_the_separate_cumsums_bit_for_bit(vals):
    mu = np.array(sorted(vals, reverse=True), dtype=float)
    for got, want in zip(EigenSequence.finite_rank(mu)._head(), _reference_head(mu)):
        assert got.tobytes() == want.tobytes()


def test_figure1_and_the_bound_subcommands_build_the_head_once(tmp_path, monkeypatch):
    built = []

    def counting(alpha, c, m):
        built.append((alpha, c, m))
        return poly_values(alpha, c, m)

    poly_values = spectrum._poly_values
    monkeypatch.setattr(spectrum, "_poly_values", counting)
    monkeypatch.chdir(tmp_path)
    spectrum._poly_head.cache_clear()
    eigs = {"kind": "poly", "alpha": 1.0, "c": 1.0, "j_max": 10**6}
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"eigs": eigs, "B": 3.0, "B_values": [1.0, 5.0], "grid": {"points": 20}}))
    for cmd in ("figure1", "bound-curve", "lambda-star", "lower-bound", "critical-radius"):
        assert main([cmd, "--config", "cfg.json", "--out", f"{cmd}.out"]) == 0
    assert built == [(1.0, 1.0, 10**6)]


def test_held_heads_are_bounded_by_the_cache_size():
    j_max = 10**5
    spectrum._poly_head.cache_clear()
    tracemalloc.start()
    try:
        seqs = [EigenSequence.poly_decay(1.0 + 0.1 * k, 1.0, j_max) for k in range(10)]
        for eigs in seqs:
            eigs.resolvent_sum(1e-3)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current <= spectrum.HEAD_CACHE_SIZE * 24 * j_max + 2**20


def test_a_list_sequence_leaves_the_callers_array_writeable():
    values = np.array([1.0, 0.5, 0.25])
    eigs = EigenSequence.finite_rank(values)
    assert eigs.tail_sum(0) == 1.75
    assert values.flags.writeable
    values[0] = 2.0
