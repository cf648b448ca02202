"""Discrete-time bounding particle systems.

Between selection times the population branches freely (a Yule tree per
particle, unit binary-split rate, Brownian motion along every branch).
Selection acts only at multiples of the step delta:

* lower side: drop the expected casualties from the left up front, branch
  freely for delta, then truncate back to the N leftmost;
* upper side: the mirror image (drop from the right, keep the N rightmost).

Run at matching times these two systems bracket the continuously selected
process in distribution from below and above.  A step takes its parameters
as ``BoundSystemParams(p, delta, side)``, another name for the grid scheme's
:class:`~npbbm.density.SchemeParams`; N is the size of the configuration,
which every step keeps.
:func:`bound_step` and :func:`run_bounds` take their start through
:func:`npbbm.particles.order` (stable sort, non-empty, finite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .density import SchemeParams
from .particles import order
from .randomness import RandomSource, TAG_CLOCK, TAG_DRIVING

__all__ = [
    "MAX_POPULATION",
    "BoundSystemParams",
    "BoundStep",
    "BoundStepResult",
    "BoundsRun",
    "bound_step",
    "run_bounds",
]


# Largest free-branching population a run may plan (mean n e^t) or reach;
# the largest in use is about 21 000 (N = 20 000, delta = 0.05).
MAX_POPULATION = 1 << 22


def _check_population(n: int, delta: float) -> None:
    """Reject, before any work, n particles branching for delta above the cap."""
    try:
        planned = n * math.exp(delta)
    except OverflowError:
        planned = math.inf
    if not planned <= MAX_POPULATION:
        raise ValueError(
            f"delta={delta!r} with N={n} plans {planned:.6g} particles (N e^delta), "
            f"above the cap of {MAX_POPULATION}"
        )


BoundSystemParams = SchemeParams


def _free_bbm(
    positions: NDArray[np.float64],
    t: float,
    moves: np.random.Generator,
    clocks: np.random.Generator,
) -> NDArray[np.float64]:
    """Level-synchronous exact Yule/Brownian evolution of all particles.

    Returns the sorted positions of all particles alive at t; the population
    rooted at one particle is Geometric(e^{-t}) with mean e^t.  Each level
    draws one Exponential(1) lifetime from ``clocks`` and one standard
    normal from ``moves`` per alive particle.  Raises OverflowError when the
    population (alive plus finished) exceeds MAX_POPULATION, which a plan
    within the cap can reach by chance.
    """
    pos = np.array(positions, dtype=np.float64, copy=True)
    rem = np.full(pos.size, float(t))
    finished: list[NDArray[np.float64]] = []
    n_finished = 0
    while pos.size:
        if pos.size + n_finished > MAX_POPULATION:
            raise OverflowError(
                f"free branching over t={t!r} reached {pos.size + n_finished} "
                f"particles, above the cap of {MAX_POPULATION}"
            )
        life = clocks.exponential(1.0, pos.size)
        g = moves.standard_normal(pos.size)
        done = life >= rem
        finished.append(pos[done] + g[done] * np.sqrt(rem[done]))
        n_finished += finished[-1].size
        pos = np.repeat(pos[~done] + g[~done] * np.sqrt(life[~done]), 2)
        rem = np.repeat(rem[~done] - life[~done], 2)
    out = np.sort(np.concatenate(finished), kind="quicksort")
    # Quicksort may order +0.0 and -0.0 unlike the stable sort; both can
    # meet only where a -0.0 start moves by a zero step, as at t = 0.
    zeros = out[np.searchsorted(out, 0.0) : np.searchsorted(out, 0.0, side="right")]
    if zeros.size > 1 and np.signbit(zeros).any():
        out = np.sort(np.concatenate(finished), kind="stable")
    return out


@dataclass(frozen=True)
class BoundStep:
    """The bookkeeping of one selection step."""

    removed: int
    pre_truncation_size: int
    padded: bool


@dataclass(frozen=True)
class BoundStepResult(BoundStep):
    """One selection step: its bookkeeping and the new configuration."""

    config: NDArray[np.float64]


def _one_step(
    config: NDArray[np.float64],
    params: BoundSystemParams,
    moves: np.random.Generator,
    clocks: np.random.Generator,
) -> tuple[NDArray[np.float64], BoundStep]:
    """One step from a sorted configuration; N is its size."""
    n = len(config)
    _check_population(n, params.delta)
    lower = params.side == "lower"
    q = params.p if lower else 1.0 - params.p
    removed = round(n * q * (1.0 - math.exp(-params.delta)))
    if removed >= n:
        raise ValueError("removal count reached N; shrink delta or N")
    survivors = config[removed:] if lower else config[: n - removed]
    grown = _free_bbm(survivors, params.delta, moves, clocks)
    pre = int(grown.size)
    padded = pre < n
    if not padded:
        out = grown[:n] if lower else grown[pre - n :]
    elif lower:
        out = np.concatenate([np.full(n - pre, grown[0]), grown])
    else:
        out = np.concatenate([grown, np.full(n - pre, grown[-1])])
    return out, BoundStep(removed, pre, padded)


def bound_step(config, params: BoundSystemParams, src: RandomSource) -> BoundStepResult:
    """One step of the bounding system on the side ``params.side``.

    Lower side: removes round(N p (1-e^{-delta})) leftmost particles,
    branches freely for delta, keeps the N leftmost.  Upper side: removes
    round(N (1-p) (1-e^{-delta})) rightmost particles, branches, keeps the N
    rightmost.  Too few survivors (possible but vanishingly rare at
    practical sizes) pad with copies of the extreme that is kept and set the
    ``padded`` flag.
    """
    x = order(config)
    moves, clocks = src.generator(TAG_DRIVING), src.generator(TAG_CLOCK)
    out, step = _one_step(x, params, moves, clocks)
    return BoundStepResult(step.removed, step.pre_truncation_size, step.padded, out)


@dataclass(frozen=True)
class BoundsRun:
    """The configuration after the last step plus every step's bookkeeping."""

    config: NDArray[np.float64]
    steps: list[BoundStep]


def run_bounds(
    init,
    params: BoundSystemParams,
    k_steps: int,
    src: RandomSource,
) -> BoundsRun:
    """Iterate one bounding system k_steps times; keep only the last config."""
    if k_steps < 0:
        raise ValueError("k_steps must be non-negative")
    config = order(init)
    moves, clocks = src.generator(TAG_DRIVING), src.generator(TAG_CLOCK)
    steps: list[BoundStep] = []
    for _ in range(k_steps):
        config, step = _one_step(config, params, moves, clocks)
        steps.append(step)
    return BoundsRun(config, steps)
