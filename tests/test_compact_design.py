"""The hard-pair samplers' rows: the same stream as the float sampler they
replaced, filled from float32 row blocks whose Gram matrices are exact."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftkrr.hard_instance import HardInstanceState
from shiftkrr.seeding import rng_for
from shiftkrr.shifts import (_XTE_ROWS, HYPERCUBE_BLOCK_ROWS, hypercube_hard_pair,
                             sample_hard_pair_moments)

BLOCK = HYPERCUBE_BLOCK_ROWS


def float_design(n, D, B, rng):
    """The hard-pair source sampler as it was written before the block draw."""
    x = rng.integers(0, 2, size=(n, D)).astype(float) * 2.0 - 1.0
    if B > 1:
        x[rng.random(n) >= 1.0 / B, 0] = 0.0
    return x


ROWS = st.one_of(
    st.just(1),
    st.integers(2, BLOCK - 1),
    st.integers(BLOCK + 1, 3 * BLOCK).filter(lambda n: n % BLOCK),
)


@settings(max_examples=30, deadline=None)
@given(n=ROWS, D=st.integers(1, 70), B=st.one_of(st.just(1.0), st.floats(1.5, 400.0)),
       seed=st.integers(0, 2**32 - 1))
def test_source_rows_reproduce_the_float_stream(n, D, B, seed):
    old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    old = float_design(n, D, B, old_rng)
    new = hypercube_hard_pair(D, B).sample_source(n, new_rng)
    assert new.dtype == np.float64
    assert np.array_equal(new, old)
    assert new_rng.random() == old_rng.random()


@settings(max_examples=10, deadline=None)
@given(n=ROWS, D=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
def test_samplers_reproduce_the_float_stream(n, D, seed):
    pair = hypercube_hard_pair(D, 4.0)
    rngs = [np.random.default_rng(seed) for _ in range(4)]
    assert np.array_equal(pair.sample_source(n, rngs[0]), float_design(n, D, 4.0, rngs[1]))
    assert np.array_equal(pair.sample_target(n, rngs[2]),
                          rngs[3].integers(0, 2, size=(n, D)).astype(float) * 2.0 - 1.0)
    assert rngs[0].random() == rngs[1].random()
    assert rngs[2].random() == rngs[3].random()


def test_float32_block_gram_equals_the_float64_product():
    n, D = 20000, 96
    rng = rng_for(5)
    x = hypercube_hard_pair(D, 16.0).sample_source(n, rng)
    e = rng.normal(size=n)
    xtx, xte = sample_hard_pair_moments(n, D, 16.0, 1.0, rng_for(5))
    assert xtx.dtype == np.float64
    assert np.array_equal(xtx, x.T @ x)
    np.testing.assert_allclose(xte, x.T @ e, rtol=1e-12, atol=1e-12 * np.linalg.norm(e))


def test_sampled_state_covariance_is_bit_identical():
    n, B, D, seed = 1500, 3.0, 40, 21
    state = HardInstanceState.from_sample(n, B, 1.0, D, seed=seed)
    rng = rng_for(seed, 17)
    x = float_design(n, D, B, rng)
    w = rng.normal(0.0, 1.0, size=n)
    core = state.core
    root = np.sqrt(core.kernel.mu)
    assert np.array_equal(core.G, (x.T @ x) * np.outer(root, root))
    # c - G e_1 = M^(1/2) x^T w
    np.testing.assert_allclose(core.c - core.G[:, 0], root * (x.T @ w), rtol=1e-12,
                               atol=1e-15 * n)


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64]


@settings(max_examples=40, deadline=None)
@given(bitgen=st.sampled_from(BIT_GENERATORS),
       n=st.one_of(st.just(1), st.integers(1, 40), st.integers(BLOCK - 2, BLOCK + 3)),
       D=st.one_of(st.just(1), st.integers(1, 9)),
       before=st.sampled_from([0, 1, 3, 8]),
       seed=st.integers(0, 2**32 - 1))
def test_signs_are_the_stream_of_integers(bitgen, n, D, before, seed):
    # odd and even n*D, n*D = 1, and a buffered half-word on entry (odd `before`)
    new, old = np.random.Generator(bitgen(seed)), np.random.Generator(bitgen(seed))
    assert np.array_equal(new.integers(0, 2, size=before), old.integers(0, 2, size=before))
    x = hypercube_hard_pair(D, 1.0).sample_target(n, new)
    assert x.dtype == np.float64
    assert np.array_equal(x, old.integers(0, 2, size=(n, D)) * 2 - 1)
    np.testing.assert_equal(new.bit_generator.state, old.bit_generator.state)
    assert np.array_equal(new.integers(0, 2, size=5), old.integers(0, 2, size=5))
    assert new.random() == old.random()


def test_signs_refuse_a_generator_with_32_bit_words():
    with pytest.raises(TypeError, match="MT19937"):
        hypercube_hard_pair(3, 1.0).sample_target(4, np.random.Generator(np.random.MT19937(0)))


def test_design_holds_itself_and_one_block_of_raw_words():
    n, D = 3 * BLOCK + 5, 64
    pair = hypercube_hard_pair(D, 4.0)
    pair.sample_source(n, rng_for(2))  # warm up numpy's own allocations
    tracemalloc.start()
    try:
        pair.sample_source(n, rng_for(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float64 design, one block of 64-bit words (two signs each), the mask's draws
    assert peak <= 8 * n * D + 4 * BLOCK * D + 9 * n + 64 * 1024


def test_a_large_target_draw_holds_its_rows_and_little_else():
    n, D = 10**5, 64
    pair = hypercube_hard_pair(D, 1.0)
    pair.sample_target(BLOCK, rng_for(2))  # warm up numpy's own allocations
    tracemalloc.start()
    try:
        pair.sample_target(n, rng_for(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float64 rows, with no second n x D copy beside them
    assert peak <= 8 * n * D + 2 * 2**20


def test_xty_is_the_float64_block_sum_bit_for_bit():
    n, D = 2 * BLOCK + 77, 48
    rng = rng_for(8)
    x = hypercube_hard_pair(D, 16.0).sample_source(n, rng)
    e = rng.normal(size=n)
    expected = np.zeros(D)
    for i in range(0, n, _XTE_ROWS):
        expected += e[i:i + _XTE_ROWS] @ x[i:i + _XTE_ROWS]
    assert np.array_equal(sample_hard_pair_moments(n, D, 16.0, 1.0, rng_for(8))[1], expected)
