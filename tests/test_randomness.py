"""Reproducibility and stream-splitting behaviour of RandomSource."""

from __future__ import annotations

import numpy as np
import pytest

from functools import partial

from npbbm import RandomSource
from npbbm.randomness import BLOCK_ITEMS, TAG_CLOCK, TAG_DRIVING, ReadAhead


def test_same_key_reproduces_bit_for_bit():
    a = RandomSource(1234, 7).generator(TAG_DRIVING).standard_normal(1000)
    b = RandomSource(1234, 7).generator(TAG_DRIVING).standard_normal(1000)
    assert np.array_equal(a, b)


def test_distinct_tags_give_distinct_streams():
    src = RandomSource(1234, 7)
    a = src.generator(TAG_DRIVING).standard_normal(100)
    b = src.generator(TAG_CLOCK).standard_normal(100)
    assert not np.array_equal(a, b)


def test_distinct_stream_indices_give_distinct_streams():
    a = RandomSource(1234, 0).generator(TAG_DRIVING).standard_normal(100)
    b = RandomSource(1234, 1).generator(TAG_DRIVING).standard_normal(100)
    assert not np.array_equal(a, b)


def test_child_offsets_stream_index():
    src = RandomSource(99, 10)
    assert src.child(0) == src
    assert src.child(5) == RandomSource(99, 15)
    with pytest.raises(ValueError):
        src.child(-1)


def test_seed_validation():
    with pytest.raises(ValueError):
        RandomSource(-1)
    with pytest.raises(ValueError):
        RandomSource(2**64)
    with pytest.raises(ValueError):
        RandomSource(3, -2)


def test_generator_is_fresh_each_call():
    src = RandomSource(42)
    first = src.generator(TAG_DRIVING).standard_normal(10)
    again = src.generator(TAG_DRIVING).standard_normal(10)
    assert np.array_equal(first, again)


# ---------------------------------------------------------------------------
# read-ahead layout contract


def _gen(seed=20260815):
    return RandomSource(seed, 3).generator(TAG_DRIVING)


@pytest.mark.parametrize(
    "sizes",
    [
        [7] * 3000,  # fixed n, many blocks
        [4000] * 9,  # blocks of whole multiples of n
        [BLOCK_ITEMS + 5, 3, BLOCK_ITEMS * 2 + 1, 1],  # requests above the cap
        list(range(900, 0, -3)),  # shrinking n, as in the exit kernel
    ],
    ids=["fixed-small", "fixed-large", "above-cap", "shrinking"],
)
def test_take_equals_call_by_call_normals(sizes):
    direct = _gen()
    ahead = ReadAhead(_gen().standard_normal)
    for n in sizes:
        assert np.array_equal(ahead.take(n), direct.standard_normal(n))


def test_one_equals_call_by_call_scalars():
    # a block taken at once equals the scalar draws made one call at a time
    n = 37
    kinds = [
        (lambda g: g.standard_exponential, lambda g: g.standard_exponential()),
        (lambda g: partial(g.integers, 1, n + 1), lambda g: g.integers(1, n + 1)),
        (lambda g: g.random, lambda g: g.random()),
    ]
    for block_draw, one_draw in kinds:
        direct = _gen()
        ahead = ReadAhead(block_draw(_gen()))
        got = []
        for size in [1, 163, BLOCK_ITEMS, 2, BLOCK_ITEMS + 3, 5, 1]:
            got.extend(ahead.take(size).tolist())
        want = [one_draw(direct) for _ in range(len(got))]
        assert got == want
        assert type(got[0]) in (int, float)


def test_scaled_exponential_equals_exponential():
    # the particle clock relies on exponential(1/n) == (1/n) * standard_exponential()
    direct = _gen()
    ahead = ReadAhead(_gen().standard_exponential)
    for n in (1, 3, 50, 4000):
        for size in (1, 7, 163, 2):
            got = (1.0 / n) * ahead.take(size)
            want = [direct.exponential(1.0 / n) for _ in range(size)]
            assert np.array_equal(got, want)


def test_mixed_take_and_one_keep_the_order():
    # single draws and blocks of any size, interleaved, keep the call order
    direct = _gen()
    ahead = ReadAhead(_gen().standard_normal)
    for n in [5, 1, 0, 3000, 1, 1, 8190, 2, 1]:
        if n == 1:
            assert ahead.take(1)[0] == direct.standard_normal()
        else:
            assert np.array_equal(ahead.take(n), direct.standard_normal(n))


def test_take_returns_read_only_views():
    ahead = ReadAhead(_gen().standard_normal)
    block = ahead.take(4)
    with pytest.raises(ValueError):
        block[0] = 1.0
    with pytest.raises(ValueError):
        ahead.take(-1)
