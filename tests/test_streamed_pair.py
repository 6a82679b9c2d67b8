"""The streamed hard-pair moments: the source sampler's rows and their noise,
reduced to (x^T x, x^T e) block by block, with the generator left as the
design -> mask -> noise draw leaves it."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftkrr.seeding import rng_for
from shiftkrr.shifts import HYPERCUBE_BLOCK_ROWS, hypercube_hard_pair, sample_hard_pair_moments

BLOCK = HYPERCUBE_BLOCK_ROWS


def drawn_moments(n, D, B, sigma, rng):
    """The moments of the design as an array, then the noise, as drawn before streaming."""
    x = hypercube_hard_pair(D, B).sample_source(n, rng)
    e = rng.normal(0.0, sigma, size=n) if sigma > 0 else np.zeros(n)
    return x.T @ x, x.T @ e, e


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, BLOCK - 1, BLOCK + 1, 3 * BLOCK + 5]),
       D=st.one_of(st.just(1), st.integers(1, 35).map(lambda k: 2 * k - 1),
                   st.integers(1, 35).map(lambda k: 2 * k)),
       B=st.one_of(st.just(1.0), st.floats(1.5, 400.0)),
       sigma=st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
       before=st.sampled_from([0, 1, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_streamed_moments_are_those_of_the_drawn_design(n, D, B, sigma, before, seed):
    # an odd `before` leaves a half-word buffered in the generator on entry
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(old.integers(0, 2, size=before), new.integers(0, 2, size=before))
    xtx_old, xte_old, e = drawn_moments(n, D, B, sigma, old)
    xtx, xte = sample_hard_pair_moments(n, D, B, sigma, new)
    assert xtx.dtype == xte.dtype == np.float64
    assert np.array_equal(xtx, xtx_old)
    np.testing.assert_allclose(xte, xte_old, rtol=1e-12, atol=1e-12 * np.linalg.norm(e))
    np.testing.assert_equal(new.bit_generator.state, old.bit_generator.state)
    assert np.array_equal(new.integers(0, 2, size=5), old.integers(0, 2, size=5))
    assert new.random() == old.random()


def test_memory_does_not_grow_with_n():
    D = 64

    def peak(n):
        tracemalloc.start()
        try:
            sample_hard_pair_moments(n, D, 4.0, 1.0, rng_for(3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(BLOCK)  # warm up numpy's own allocations
    small, large = peak(2 * BLOCK + 3), peak(12 * BLOCK + 5)
    # one block of raw words and its float32 Gram, one float64 sub-block, the moments
    assert small <= 4 * BLOCK * D + 4 * D * D + 8 * (BLOCK // 8) * D + 24 * D * D + 64 * 1024
    assert abs(large - small) <= 64 * 1024


@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.SFC64,
                                    np.random.PCG64DXSM, np.random.Philox])
def test_other_bit_generators_are_refused(bitgen):
    with pytest.raises(TypeError, match=bitgen.__name__):
        sample_hard_pair_moments(4, 3, 2.0, 1.0, np.random.Generator(bitgen(0)))


@pytest.mark.parametrize("draw", [
    lambda rng: sample_hard_pair_moments(-2, 5, 4.0, 0.0, rng),
    lambda rng: sample_hard_pair_moments(-2, 5, 1.0, 1.0, rng),
    lambda rng: hypercube_hard_pair(5, 4.0).sample_source(-2, rng),
    lambda rng: hypercube_hard_pair(5, 4.0).sample_target(-2, rng),
], ids=["moments", "noisy-moments", "design", "signs"])
def test_negative_n_is_refused_before_the_generator_moves(draw):
    rng = np.random.default_rng(9)
    rng.integers(0, 2, size=1)  # leave a half-word buffered
    entry = rng.bit_generator.state
    with pytest.raises(ValueError, match="n must be >= 0"):
        draw(rng)
    np.testing.assert_equal(rng.bit_generator.state, entry)


@pytest.mark.parametrize("bitgen", [np.random.PCG64DXSM, np.random.Philox, np.random.SFC64])
def test_a_mask_or_noise_needs_pcg64_where_the_signs_do_not(bitgen):
    # the signs alone run on any half-word generator; a mask or a noise draw is refused
    pair = hypercube_hard_pair(2, 2.0)
    assert pair.sample_target(3, np.random.Generator(bitgen(0))).shape == (3, 2)
    for B, sigma in ((2.0, 0.0), (1.0, 0.5)):
        rng = np.random.Generator(bitgen(0))
        with pytest.raises(TypeError, match=f"needs PCG64, not {bitgen.__name__}"):
            sample_hard_pair_moments(3, 2, B, sigma, rng)
        np.testing.assert_equal(rng.bit_generator.state, bitgen(0).state)
    with pytest.raises(TypeError, match=bitgen.__name__):
        pair.sample_source(3, np.random.Generator(bitgen(0)))
