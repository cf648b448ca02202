"""Reproducibility and stream-splitting behaviour of RandomSource."""

from __future__ import annotations

import numpy as np
import pytest

from npbbm import RandomSource
from npbbm.particles import BLOCK_ITEMS
from npbbm.randomness import TAG_CLOCK, TAG_DRIVING


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
# the generator contract the particle loop relies on: a batched call equals
# the same draws made one call at a time


def _gen(seed=20260815):
    return RandomSource(seed, 3).generator(TAG_DRIVING)


# batch sizes below, at and above a block, with single draws and an empty
# batch between them
SIZES = [1, 163, BLOCK_ITEMS, BLOCK_ITEMS + 1, 0, 2, 4000, 1]


@pytest.mark.parametrize(
    "batched, one",
    [
        (lambda g, b: g.standard_normal(b), lambda g: g.standard_normal()),
        (lambda g, b: g.standard_exponential(b), lambda g: g.standard_exponential()),
        (lambda g, b: g.integers(1, 38, b), lambda g: g.integers(1, 38)),
        (lambda g, b: g.random(b), lambda g: g.random()),
    ],
    ids=["normal", "exponential", "integers", "random"],
)
def test_batched_draws_equal_call_by_call(batched, one):
    direct = _gen()
    batches = _gen()
    for b in SIZES:
        got = batched(batches, b).tolist()
        assert got == [one(direct) for _ in range(b)]
    assert batched(batches, 1)[0] == one(direct)  # both streams at one place


def test_scaled_exponential_equals_exponential():
    # the particle clock relies on exponential(1/n) == (1/n) * standard_exponential()
    direct = _gen()
    batches = _gen()
    for n in (1, 3, 50, 4000):
        for size in (1, 7, 163, 2):
            got = batches.standard_exponential(size)
            got *= 1.0 / n
            want = [direct.exponential(1.0 / n) for _ in range(size)]
            assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "n, rows",
    [
        (1, [BLOCK_ITEMS, 3, 0, BLOCK_ITEMS, 1]),  # one-particle rows
        (50, [163] * 4 + [1, 0, 162, 7]),  # N = 50, batches of 163
        (4000, [16] * 3 + [5, 16]),  # the batch floor at N = 4000
        (BLOCK_ITEMS + 1, [16, 1, 2]),  # one row larger than a block
    ],
    ids=["n1", "n50", "n4000", "above-a-block"],
)
def test_normals_into_a_reused_buffer_equal_flat_draws(n, rows):
    direct = _gen()
    batches = _gen()
    buf = np.empty((max(rows), n))
    for r in rows:
        got = batches.standard_normal(out=buf[:r])
        assert got.base is buf  # written in place, also when empty
        assert np.array_equal(got, direct.standard_normal(r * n).reshape(r, n))
