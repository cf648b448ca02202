"""Discrete-time bounding particle systems.

Between selection times the population branches freely (a Yule tree per
particle, unit binary-split rate, Brownian motion along every branch).
Selection acts only at multiples of the step delta:

* lower side: drop the expected casualties from the left up front, branch
  freely for delta, then truncate back to the N leftmost;
* upper side: the mirror image (drop from the right, keep the N rightmost).

Run at matching times these two systems bracket the continuously selected
process in distribution from below and above.  With R(x) = -x[::-1], the
``mirror=True`` variant of each function is R applied to the same draws run
on R(config), with the sides swapped and p replaced by 1-p, so the
lower/upper mirror identity is exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np
from numpy.typing import NDArray

from .randomness import RandomSource, TAG_CLOCK, TAG_DRIVING

__all__ = [
    "MAX_POPULATION",
    "BoundSystemParams",
    "BoundStepResult",
    "BoundsRun",
    "YuleStreams",
    "free_bbm",
    "lower_step",
    "upper_step",
    "run_bounds",
]


# Largest free-branching population a run may plan (mean n e^t) or reach;
# the largest in use is about 21 000 (N = 20 000, delta = 0.05).
MAX_POPULATION = 1 << 22


def _check_population(n: int, t: float, name: str) -> None:
    """Reject, before any work, n particles branching for t above the cap."""
    try:
        planned = n * math.exp(t)
    except OverflowError:
        planned = math.inf
    if not planned <= MAX_POPULATION:
        raise ValueError(
            f"{name}={t!r} with N={n} plans {planned:.6g} particles (N e^{name}), "
            f"above the cap of {MAX_POPULATION}"
        )


@dataclass(frozen=True)
class BoundSystemParams:
    """Step parameters for one bounding system."""

    N: int
    p: float
    delta: float
    side: Literal["lower", "upper"]

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly in (0,1)")
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        if self.side not in ("lower", "upper"):
            raise ValueError("side must be 'lower' or 'upper'")


class YuleStreams:
    """Exponential split clocks and Gaussian moves for free branching."""

    def __init__(self, src: RandomSource) -> None:
        self._moves = src.generator(TAG_DRIVING)
        self._clocks = src.generator(TAG_CLOCK)

    def lifetimes(self, n: int) -> NDArray[np.float64]:
        return self._clocks.exponential(1.0, n)

    def moves(self, n: int) -> NDArray[np.float64]:
        return self._moves.standard_normal(n)


def _streams(src: RandomSource | None) -> YuleStreams:
    if src is None:
        raise ValueError("a RandomSource is required")
    return YuleStreams(src)


def _free_bbm(positions: NDArray[np.float64], t: float, streams: YuleStreams):
    """Level-synchronous exact Yule/Brownian evolution of all particles.

    Raises OverflowError when the population (alive plus finished) exceeds
    MAX_POPULATION, which a plan within the cap can reach by chance.
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
        life = streams.lifetimes(pos.size)
        g = streams.moves(pos.size)
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


def free_bbm(
    init,
    t: float,
    src: RandomSource | None = None,
    *,
    mirror: bool = False,
) -> NDArray[np.float64]:
    """Branching Brownian motion without selection for time t.

    Every initial particle starts an independent unit-rate binary branching
    tree; split times are exact Exponential(1) clocks, so the population size
    rooted at one particle is Geometric(e^{-t}) with mean e^t.  Output is the
    sorted positions of all particles alive at t.  ``mirror=True`` returns
    R(free_bbm(R(init))) with R(x) = -x[::-1].
    """
    if t < 0.0:
        raise ValueError("time must be non-negative")
    streams = _streams(src)
    arr = np.asarray(init, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("init must hold at least one particle")
    _check_population(arr.size, t, "t")
    if mirror:
        return -_free_bbm(-arr[::-1], t, streams)[::-1]
    return _free_bbm(arr, t, streams)


@dataclass(frozen=True)
class BoundStepResult:
    """One selection step plus the bookkeeping the tests need."""

    config: NDArray[np.float64]
    removed: int
    pre_truncation_size: int
    padded: bool


def _one_step(
    config: NDArray[np.float64],
    params: BoundSystemParams,
    streams: YuleStreams,
) -> BoundStepResult:
    n = params.N
    if len(config) != n:
        raise ValueError(f"config must hold exactly N={n} particles")
    _check_population(n, params.delta, "delta")
    kill_frac = 1.0 - math.exp(-params.delta)
    if params.side == "lower":
        removed = round(n * params.p * kill_frac)
    else:
        removed = round(n * (1.0 - params.p) * kill_frac)
    if removed >= n:
        raise ValueError("removal count reached N; shrink delta or N")
    survivors = config[removed:] if params.side == "lower" else config[: n - removed]
    grown = _free_bbm(survivors, params.delta, streams)
    pre = int(grown.size)
    padded = pre < n
    if params.side == "lower":
        if padded:
            out = np.concatenate([np.full(n - pre, grown[0]), grown])
        else:
            out = grown[:n]
    else:
        if padded:
            out = np.concatenate([grown, np.full(n - pre, grown[-1])])
        else:
            out = grown[pre - n :]
    return BoundStepResult(out, removed, pre, padded)


def _side_step(config, params, side, src, mirror) -> BoundStepResult:
    """Shared body of :func:`lower_step` and :func:`upper_step`."""
    if params.side != side:
        raise ValueError(f"params.side must be '{side}'")
    streams = _streams(src)
    arr = np.asarray(config, dtype=np.float64)
    if not mirror:
        return _one_step(arr, params, streams)
    other = "upper" if side == "lower" else "lower"
    swapped = BoundSystemParams(params.N, 1.0 - params.p, params.delta, other)
    res = _one_step(-arr[::-1], swapped, streams)
    return replace(res, config=-res.config[::-1])


def lower_step(
    config,
    params: BoundSystemParams,
    src: RandomSource | None = None,
    *,
    mirror: bool = False,
) -> BoundStepResult:
    """One step of the lower bounding system.

    Removes round(N p (1-e^{-delta})) leftmost particles, branches freely for
    delta, keeps the N leftmost survivors.  Too few survivors (possible but
    vanishingly rare at practical sizes) pad with copies of the leftmost and
    set the ``padded`` flag.  ``mirror=True`` returns the reflection of the
    upper step at 1-p on the reflected configuration.
    """
    return _side_step(config, params, "lower", src, mirror)


def upper_step(
    config,
    params: BoundSystemParams,
    src: RandomSource | None = None,
    *,
    mirror: bool = False,
) -> BoundStepResult:
    """Mirror image of :func:`lower_step`: trims the right, keeps the N
    rightmost, pads (if ever needed) with copies of the rightmost.
    ``mirror=True`` returns the reflection of the lower step at 1-p on the
    reflected configuration."""
    return _side_step(config, params, "upper", src, mirror)


@dataclass(frozen=True)
class BoundsRun:
    """Configs at times 0, delta, ..., k*delta plus per-step metadata."""

    configs: list[NDArray[np.float64]]
    steps: list[BoundStepResult]


def run_bounds(
    init,
    params: BoundSystemParams,
    k_steps: int,
    src: RandomSource,
) -> BoundsRun:
    """Iterate one bounding system k_steps times, recording every config."""
    if k_steps < 0:
        raise ValueError("k_steps must be non-negative")
    config = np.sort(np.asarray(init, dtype=np.float64), kind="stable")
    streams = YuleStreams(src)
    configs = [config]
    steps: list[BoundStepResult] = []
    for _ in range(k_steps):
        res = _one_step(config, params, streams)
        config = res.config
        configs.append(config)
        steps.append(res)
    return BoundsRun(configs, steps)
