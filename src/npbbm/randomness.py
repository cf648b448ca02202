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

Draw layout.  :data:`DRAW_LAYOUT` numbers the layout: which draws each
routine takes from which substream, and in which order.  A new layout
changes output bits at the same seed; the CLI manifest records it as
``"draw_layout"``.

* Layout 1 (package 0.1.x): the killed-path kernel in ``exits`` drew one
  uniform per alive path and step from each of TAG_UNIFORM_A and a second
  uniform substream, tag 5, whether the path was near a barrier or not.
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
  uniform decides left, right or stay.  Tag 5, the second uniform
  substream of layouts 1 and 2, is retired: nothing draws from it, and no
  substream will reuse it.  Without bridge correction the draws are those
  of layout 2.  Only the outputs of ``exit`` moved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RandomSource",
    "DRAW_LAYOUT",
    "TAG_DRIVING",
    "TAG_CLOCK",
    "TAG_INDEX",
    "TAG_SELECT",
    "TAG_UNIFORM_A",
    "TAG_INITIAL",
]

# Substream tags.  The particle simulator uses the first four; other modules
# reuse DRIVING/CLOCK for their own Gaussian/exponential draws and the
# remaining tags for auxiliary uniforms.
TAG_DRIVING = 0    # Brownian increments
TAG_CLOCK = 1      # exponential event clocks
TAG_INDEX = 2      # uniform particle index at branch events
TAG_SELECT = 3     # Bernoulli left/right selection
TAG_UNIFORM_A = 4  # auxiliary uniforms (bridge exits)
TAG_INITIAL = 6    # initial-condition sampling (tag 5 is retired, never reused)

# the draw layout this package implements; see the module docstring
DRAW_LAYOUT = 3


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
