"""Seeded, splittable random streams.

Every stochastic routine in this package draws from a :class:`RandomSource`,
a (master_seed, stream_index) pair.  Each named substream is realised as a
counter-based Philox generator keyed on (master_seed, stream_index, tag), so

* identical (master_seed, stream_index) pairs reproduce draws bit for bit,
* distinct stream_index values (replicas, CLI commands) are independent,
* the substreams of one source (driving noise, event clocks, selection
  draws, ...) are mutually independent.

Replica fan-out uses disjoint stream_index ranges: replica r of an operation
seeded with source s draws from s.child(r).

Layout contract of :class:`ReadAhead`.  A Philox generator consumes its
counter in order, so draws taken in one block equal the same draws taken
call by call: ``standard_normal(n)`` with fixed or varying n,
``standard_exponential``, ``integers(lo, hi)`` for fixed bounds and
``random()``, whether each call asks for one draw or for many; and
``exponential(1/n)`` equals ``(1/n) * standard_exponential()`` bit for bit.
Reading ahead is therefore invisible as long as each generator has exactly
one consumer, which holds because every consumer makes its own generators
from :meth:`RandomSource.generator` and reads each one through a single
:class:`ReadAhead`.  The draws fetched past the last one used are discarded
with the generator.  A block holds at most ``BLOCK_ITEMS`` draws (64 KB of
float64 or int64), unless one request alone is larger.

Draw layout.  :data:`DRAW_LAYOUT` numbers the layout: which draws each
routine takes from which substream, and in which order.  A new layout
changes output bits at the same seed; the CLI manifest records it as
``"draw_layout"``.

* Layout 1 (package 0.1.x): the killed-path kernel in ``exits`` drew one
  uniform per alive path and step from each of TAG_UNIFORM_A and
  TAG_UNIFORM_B, whether the path was near a barrier or not.
* Layout 2 (package 0.2.0): the kernel draws those uniforms only for the
  paths whose bridge-crossing exponent -2 d0 d1 / h is above -37, in path
  order, one call per barrier and step, and none without bridge
  correction.  Only the outputs of ``exit`` moved; every other substream
  is drawn as in layout 1.
* Layout 3 (package 0.3.0): the kernel applies the exact two-sided law of
  Brownian motion in a strip, and with bridge correction takes a parallel
  barrier piece in as few steps as that law allows (one on the wave
  strip).  Each step draws one normal per alive path and then one
  ``random(m)`` call from TAG_UNIFORM_A, one uniform for each of the m
  paths whose larger crossing exponent is above -37, in path order; that
  uniform decides left, right or stay.  TAG_UNIFORM_B is retired: no
  routine draws from it.  Without bridge correction the draws are those of
  layout 2.  Only the outputs of ``exit`` moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

# Substream tags.  The particle simulator uses the first four; other modules
# reuse DRIVING/CLOCK for their own Gaussian/exponential draws and the
# remaining tags for auxiliary uniforms.
TAG_DRIVING = 0    # Brownian increments
TAG_CLOCK = 1      # exponential event clocks
TAG_INDEX = 2      # uniform particle index at branch events
TAG_SELECT = 3     # Bernoulli left/right selection
TAG_UNIFORM_A = 4  # auxiliary uniforms (bridge exits)
TAG_UNIFORM_B = 5  # retired in layout 3; drawn by nothing
TAG_INITIAL = 6    # initial-condition sampling

# the draw layout this package implements; see the module docstring
DRAW_LAYOUT = 3

# Largest read-ahead block, 64 KB of 8-byte draws: larger blocks fall out of
# the cache and made the particle loop slower.
BLOCK_ITEMS = 8192


@dataclass(frozen=True)
class RandomSource:
    """Key for a family of independent, reproducible random substreams."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not (0 <= int(self.master_seed) < 2**64):
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if int(self.stream_index) < 0:
            raise ValueError("stream_index must be non-negative")

    def generator(self, tag: int) -> np.random.Generator:
        """Fresh generator for substream `tag`; same key -> same draws."""
        seq = np.random.SeedSequence(
            entropy=int(self.master_seed),
            spawn_key=(int(self.stream_index), int(tag)),
        )
        return np.random.Generator(np.random.Philox(seq))

    def child(self, offset: int) -> "RandomSource":
        """Source for replica `offset`; callers keep offset ranges disjoint."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        return RandomSource(self.master_seed, self.stream_index + offset)


class ReadAhead:
    """The draws of one generator method, fetched in blocks, handed out in order.

    ``draw`` takes a size, e.g. ``gen.standard_normal`` or
    ``functools.partial(gen.integers, 1, n + 1)``.  :meth:`take` returns
    exactly the draws that successive calls of ``draw`` would, in the same
    order (see the module docstring), so the generator must have no other
    consumer.  Its arrays are read-only views of the current block.
    """

    def __init__(self, draw: Callable[[int], NDArray]) -> None:
        self._draw = draw
        self._block: NDArray = np.empty(0)
        self._pos = 0

    def _refill(self, n: int) -> None:
        rest = self._block[self._pos :]
        # whole multiples of n, so a run of equal requests never straddles blocks
        fresh = self._draw(max(n - rest.size, BLOCK_ITEMS // n * n))
        block = np.concatenate((rest, fresh)) if rest.size else fresh
        block.flags.writeable = False
        self._block = block
        self._pos = 0

    def take(self, n: int) -> NDArray:
        """The next n draws as an array."""
        if n < 0:
            raise ValueError(f"take needs n >= 0, got n={n!r}")
        if self._pos + n > self._block.size:
            self._refill(n)
        start = self._pos
        self._pos = start + n
        return self._block[start : self._pos]
