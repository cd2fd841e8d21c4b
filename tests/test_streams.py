"""The block-seeded streams against numpy's own SeedSequence -> default_rng."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ancillary_pricing.streams import BLOCK, seed_words, stream, streams

WORD = 2 ** 32
KEYS = st.sampled_from([0, 1, 3])
SEEDS = st.one_of(st.just(0), st.integers(0, WORD - 1), st.integers(WORD, 2 ** 64),
                  st.integers(2 ** 128, 2 ** 200))


def _numpy_stream(seed, key, index):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key, index)))


def _assert_streams_match(seed, key, start, stop):
    got = list(streams(seed, key, start, stop))
    assert len(got) == stop - start
    for index, rng in zip(range(start, stop), got):
        want = _numpy_stream(seed, key, index)
        assert rng.bit_generator.state == want.bit_generator.state, index
        assert rng.random(3).tobytes() == want.random(3).tobytes()
        assert rng.integers(2 ** 63) == want.integers(2 ** 63)
        assert rng.standard_normal() == want.standard_normal()


@given(seed=SEEDS, key=KEYS, start=st.integers(0, 2 ** 40), n=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_streams_equal_numpy_seed_sequence(seed, key, start, n):
    _assert_streams_match(seed, key, start, start + n)


@given(seed=SEEDS, key=KEYS, before=st.integers(0, 20), after=st.integers(1, 20),
       boundary=st.sampled_from([WORD, 2 * WORD, 2 ** 64]))
@settings(max_examples=30, deadline=None)
def test_blocks_that_cross_a_multiple_of_2_32_are_split(seed, key, before, after, boundary):
    # Below the boundary an index has one word fewer than above it.
    _assert_streams_match(seed, key, boundary - before, boundary + after)


def test_seed_zero_first_block_and_a_block_past_the_array_pass():
    _assert_streams_match(0, 0, 0, BLOCK + 5)


def test_seed_words_are_generate_state():
    words = seed_words(12345, 3, 7, 19)
    assert words.dtype == np.uint64 and words.shape == (12, 4)
    for index, row in zip(range(7, 19), words):
        want = np.random.SeedSequence(12345, spawn_key=(3, index)).generate_state(4, np.uint64)
        assert row.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="cross"):
        seed_words(0, 0, WORD - 1, WORD + 1)


def test_one_stream_is_the_definition():
    assert (stream(9, 1, 4).bit_generator.state
            == _numpy_stream(9, 1, 4).bit_generator.state)


@pytest.mark.parametrize("seed,key,start", [(-1, 0, 0), (0, -1, 0), (0, 0, -3)])
def test_negative_words_are_refused_as_numpy_refuses_them(seed, key, start):
    with pytest.raises(ValueError, match="non-negative"):
        _numpy_stream(seed, key, start)
    with pytest.raises(ValueError, match="non-negative"):
        list(streams(seed, key, start, start + 2))
