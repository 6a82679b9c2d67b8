"""The spectral head: built once per (alpha, c, j_max) per process, shared read-only, bit-exact.

A head keeps both suffix sums at every ``_STRIDE``-th index and the full
arrays only up to the largest index asked for, so these tests also check
that every value equals the one summed over the whole head in one array.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftkrr import spectrum
from shiftkrr.cli import main
from shiftkrr.spectrum import EigenSequence

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _reference_head(mu):
    """The head summed in one array: separate cumsums, reversed and padded."""
    return (mu,
            np.concatenate((np.cumsum(mu[::-1])[::-1], [0.0])),
            np.concatenate((np.cumsum((mu * mu)[::-1])[::-1], [0.0])))


def _assert_prefix_of(arrays, reference, k):
    """``arrays`` reach index k and equal ``reference`` bit for bit as far as they go."""
    mu, suf_mu, suf_mu2 = arrays
    assert len(mu) >= k and len(suf_mu) == len(suf_mu2) == len(mu) + 1
    for got, want in zip(arrays, reference):
        assert got.dtype == want.dtype and got.tobytes() == want[:len(got)].tobytes()


def test_equal_poly_sequences_share_one_read_only_head():
    a, b = EigenSequence.poly_decay(1.0, 1.0), EigenSequence.poly_decay(1.0, 1.0)
    head = a._head()
    assert b._head() is head
    for k in (0, 1000):
        for arr in (*head.upto(k), head._marks):
            with pytest.raises(ValueError):
                arr[0] = 1.0
    assert a.tail_sum(0) == b.tail_sum(0)
    assert a.tail_sum(3000) == b.tail_sum(3000)


# lengths on both sides of checkpoint and chunk boundaries, up to a few chunks
_lengths = st.one_of(
    st.integers(min_value=1, max_value=4 * spectrum._STRIDE),
    st.integers(min_value=spectrum._CHUNK - spectrum._STRIDE,
                max_value=3 * spectrum._CHUNK + 2 * spectrum._STRIDE))


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.51, max_value=6.0),
       c=st.floats(min_value=1e-3, max_value=1e3),
       j_max=_lengths,
       asked=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4))
def test_poly_head_equals_the_separate_cumsums_bit_for_bit(alpha, c, j_max, asked):
    spectrum._poly_head.cache_clear()
    eigs = EigenSequence.poly_decay(alpha, c, j_max)
    head = eigs._head()
    mu = c * np.arange(1, j_max + 1, dtype=float) ** (-2.0 * alpha)
    reference = _reference_head(mu)
    for row, want in zip(head._marks, reference[1:]):
        assert row.tobytes() == want[::spectrum._STRIDE].tobytes()
    # the arrays grow at requests in any order and keep every earlier value;
    # the last request holds the whole head, so every k in 0..J is compared
    for k in [int(f * j_max) for f in asked] + [0, j_max]:
        assert eigs.tail_sum(k) == float(reference[1][k]) + eigs._tail
        _assert_prefix_of(head.upto(k), reference, k)


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=600),
       asked=st.lists(st.integers(min_value=0, max_value=600), max_size=3))
def test_list_head_equals_the_separate_cumsums_bit_for_bit(vals, asked):
    mu = np.array(sorted(vals, reverse=True), dtype=float)
    head = EigenSequence.finite_rank(mu)._head()
    for k in [min(k, len(mu)) for k in asked] + [len(mu)]:
        _assert_prefix_of(head.upto(k), _reference_head(mu), k)


def test_figure1_and_the_bound_subcommands_build_the_head_once(tmp_path, monkeypatch):
    built = []

    class Counting(spectrum._Head):
        def __init__(self, values, length):
            built.append(length)
            super().__init__(values, length)

    monkeypatch.setattr(spectrum, "_Head", Counting)
    monkeypatch.chdir(tmp_path)
    spectrum._poly_head.cache_clear()
    eigs = {"kind": "poly", "alpha": 1.0, "c": 1.0, "j_max": 10**6}
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"eigs": eigs, "B": 3.0, "B_values": [1.0, 5.0], "grid": {"points": 20}}))
    for cmd in ("figure1", "bound-curve", "lambda-star", "lower-bound", "critical-radius"):
        assert main([cmd, "--config", "cfg.json", "--out", f"{cmd}.out"]) == 0
    assert built == [10**6]
    assert spectrum._poly_head.cache_info().misses == 1


def test_held_heads_are_bounded_by_the_cache_size():
    j_max, level = 10**5, 1e-7
    spectrum._poly_head.cache_clear()
    tracemalloc.start()
    try:
        seqs = [EigenSequence.poly_decay(1.0 + 0.1 * k, 1.0, j_max) for k in range(10)]
        for eigs in seqs:
            eigs.resolvent_sum(1e4 * level)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each kept head asked for fewer than one checkpoint's worth of indices, so it
    # holds its checkpoints and arrays up to the first one; the evicted six are freed
    kept = seqs[-spectrum.HEAD_CACHE_SIZE:]
    assert all(eigs.count_at_least(level) <= spectrum._STRIDE for eigs in kept)
    per_head = 16 * (j_max // spectrum._STRIDE + 1) + 24 * (spectrum._STRIDE + 1)
    assert current <= spectrum.HEAD_CACHE_SIZE * per_head + 2**15


def test_a_list_sequence_leaves_the_callers_array_writeable():
    values = np.array([1.0, 0.5, 0.25])
    eigs = EigenSequence.finite_rank(values)
    assert eigs.tail_sum(0) == 1.75
    assert values.flags.writeable
    values[0] = 2.0


def test_bound_subcommands_at_j_max_1e7_hold_no_whole_head(tmp_path):
    """Summing to j_max = 10**7 used to hold 24 * 10**7 bytes; the rise now stays small."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eigs": {"kind": "poly", "alpha": 1.0, "j_max": 10**7}}))
    script = textwrap.dedent(f"""
        import resource
        from shiftkrr.cli import main
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for cmd in ("lambda-star", "critical-radius"):
            assert main([cmd, "--config", {str(cfg)!r}, "--out", {str(tmp_path)!r} + "/" + cmd]) == 0
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    rise_kib = int(out.stdout.split()[-1])  # ru_maxrss is in KiB on Linux
    assert rise_kib < 32 * 1024
