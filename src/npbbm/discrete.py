"""Discrete-time bounding particle systems and the checks against them.

Between selection times the population branches freely (a Yule tree per
particle, unit binary-split rate, Brownian motion along every branch).
Selection acts only at multiples of the step delta:

* lower side: drop the expected casualties from the left up front, branch
  freely for delta, then truncate back to the N leftmost;
* upper side: the mirror image (drop from the right, keep the N rightmost).

Run at matching times these two systems bracket the continuously selected
process in distribution from below and above.  :func:`run_bounds` takes
its parameters as the grid scheme's ``SchemeParams(p, delta, side)``
(:class:`~npbbm.density.SchemeParams`); N is the size of the configuration,
which every step keeps.  It takes its start through
:func:`npbbm.particles.order` (stable sort, non-empty, finite); one step is
``run_bounds(config, params, 1, src)``.

The checks against the bounds live here too: :func:`bounds_verdict` tests
that the lower system lies below the upper one, and
:func:`hydrodynamic_report` sets N particles against the scheme sandwich.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .density import (
    GridDensity,
    SchemeParams,
    iterate_scheme,
    sample_from_density,
    tail_mass,
)
from .particles import order, simulate
from .randomness import RandomSource, TAG_CLOCK, TAG_DRIVING, TAG_INITIAL
from .stats import dkw_band, empirical_tail, ks_critical, ks_distance

__all__ = [
    "MAX_POPULATION",
    "MAX_BOUND_STEPS",
    "MAX_BOUND_MOVES",
    "BoundStep",
    "BoundsRun",
    "ComparisonReport",
    "run_bounds",
    "bounds_verdict",
    "hydrodynamic_report",
]


# Largest free-branching population a run may plan (mean n e^t) or reach;
# the largest in use is about 21 000 (N = 20 000, delta = 0.05).
MAX_POPULATION = 1 << 22

# Largest plans run_bounds runs.  A step costs at least about 20 us (N = 1)
# and about 90 us at N = 200, delta = 0.1, but each step keeps a record that
# the `bounds` command also writes, about 220 bytes of memory a step, so the
# step cap is set by memory: the two sides at the cap take about 0.45 GB and
# 3 minutes at N = 200.  From N = 2 000 up a particle move (a particle alive
# at the end of a step, N e^delta of them a step) costs 60-100 ns, so the
# two sides at the move cap take about six to ten minutes on a 2-core VM.
# The largest plan in use, N = 20 000, delta = 0.05 and 60 steps, is 1.26e6
# moves a side.
MAX_BOUND_STEPS = 1_000_000
MAX_BOUND_MOVES = 3_000_000_000


def _check_plan(n: int, delta: float, k: int) -> None:
    """Reject, before any draw, k steps of n particles branching for delta
    whose population (N e^delta), steps or particle moves (k N e^delta) are
    above their caps."""
    try:
        grown = n * math.exp(delta)
    except OverflowError:
        grown = math.inf
    if not grown <= MAX_POPULATION:
        raise ValueError(
            f"delta={delta!r} with N={n} plans {grown:.6g} particles (N e^delta), "
            f"above the cap of {MAX_POPULATION}"
        )
    if k > MAX_BOUND_STEPS:
        raise ValueError(
            f"k_steps={k} plans {k} steps a side, above the cap of {MAX_BOUND_STEPS}"
        )
    if not k * grown <= MAX_BOUND_MOVES:
        raise ValueError(
            f"k_steps={k} with N={n}, delta={delta!r} plans {k * grown:.6g} particle "
            f"moves a side (k N e^delta), above the cap of {MAX_BOUND_MOVES:.6g}"
        )


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
    # quicksort gives a stable sort's bits: as in particles, -0.0 and +0.0
    # can meet only after a draw of exactly +-0.0, probability 2^-53 a draw
    return np.sort(np.concatenate(finished), kind="quicksort")


@dataclass(frozen=True)
class BoundStep:
    """The bookkeeping of one selection step."""

    removed: int
    pre_truncation_size: int
    padded: bool


@dataclass(frozen=True)
class BoundsRun:
    """The configuration after the last step plus every step's bookkeeping."""

    config: NDArray[np.float64]
    steps: list[BoundStep]


def run_bounds(
    init,
    params: SchemeParams,
    k_steps: int,
    src: RandomSource,
) -> BoundsRun:
    """Iterate one bounding system k_steps times; keep only the last config.

    Lower side: each step removes round(N p (1-e^{-delta})) leftmost
    particles, branches freely for delta, keeps the N leftmost.  Upper side:
    removes round(N (1-p) (1-e^{-delta})) rightmost particles, branches,
    keeps the N rightmost.  Too few survivors (possible but vanishingly rare
    at practical sizes) pad with copies of the extreme that is kept and set
    the step's ``padded`` flag.  The plan is checked before any draw against
    MAX_POPULATION, MAX_BOUND_STEPS and MAX_BOUND_MOVES.
    """
    if k_steps < 0:
        raise ValueError("k_steps must be non-negative")
    config = order(init)
    n, lower = len(config), params.side == "lower"
    q = params.p if lower else 1.0 - params.p
    removed = round(n * q * (1.0 - math.exp(-params.delta)))
    if k_steps:
        _check_plan(n, params.delta, k_steps)
        if removed >= n:
            raise ValueError(
                f"removal count reached N: round(N q (1 - e^-delta)) = {removed} "
                f"with N={n}, q={q!r} ({params.side} side), delta={params.delta!r}; "
                "shrink delta or N"
            )
    moves, clocks = src.generator(TAG_DRIVING), src.generator(TAG_CLOCK)
    steps: list[BoundStep] = []
    for _ in range(k_steps):
        survivors = config[removed:] if lower else config[: n - removed]
        grown = _free_bbm(survivors, params.delta, moves, clocks)
        pre = int(grown.size)
        padded = pre < n
        if not padded:
            config = grown[:n] if lower else grown[pre - n :]
        elif lower:
            config = np.concatenate([np.full(n - pre, grown[0]), grown])
        else:
            config = np.concatenate([grown, np.full(n - pre, grown[-1])])
        steps.append(BoundStep(removed, pre, padded))
    return BoundsRun(config, steps)


# ---------------------------------------------------------------------------
# checks against the bounds


def bounds_verdict(lower, upper) -> dict:
    """Whether the lower system's configuration lies below the upper one's.

    The two systems bound the selection process in distribution, not
    pathwise (their populations desynchronize after the first removal), so
    the verdict is statistical: the lower tail may not exceed the upper
    tail by more than the 99% two-sample KS band.  Returns ``dominated``,
    ``tail_excess``, ``ks_band_99`` and ``ks_distance``, in that order.
    """
    grid = np.union1d(lower, upper)
    excess = float(np.max(empirical_tail(lower, grid) - empirical_tail(upper, grid)))
    band = ks_critical(len(lower), len(upper), 0.01)
    return {
        "dominated": bool(excess <= band),
        "tail_excess": excess,
        "ks_band_99": band,
        "ks_distance": ks_distance(lower, upper),
    }


@dataclass(frozen=True)
class ComparisonReport:
    """Particle system against the scheme sandwich at one time."""

    sup_gap: float
    width: float
    dkw: float
    gap_left: float
    gap_right: float
    left_boundary: float
    right_boundary: float
    leftmost: float
    rightmost: float
    xs: NDArray[np.float64]
    empirical: NDArray[np.float64]
    lower_tail: NDArray[np.float64]
    upper_tail: NDArray[np.float64]


def hydrodynamic_report(
    p: float,
    N: int,
    t: float,
    delta: float,
    rho: GridDensity,
    src: RandomSource,
) -> ComparisonReport:
    """Run N particles from i.i.d. rho samples and compare with the schemes.

    The scheme sandwich is iterated with step delta up to time t (t/delta
    must be an integer).  Tails are compared at every grid edge; the moving
    boundaries are estimated by the final recorded cut positions (the upper
    scheme cuts the left boundary at time t, the lower scheme the right).
    """
    k = round(t / delta)
    if abs(t - k * delta) > 1e-9 or k < 1:
        raise ValueError("t must be a positive integer multiple of delta")
    init = sample_from_density(rho, N, src.generator(TAG_INITIAL))
    rec = simulate(init, p, t, src, sample_times=[t], record_configs=True)
    final = rec.full_configs[0]

    lower = iterate_scheme(rho, SchemeParams(p, delta, "lower"), k)
    upper = iterate_scheme(rho, SchemeParams(p, delta, "upper"), k)
    xs = rho.edges()
    lo_tail = tail_mass(lower.density, xs)
    hi_tail = tail_mass(upper.density, xs)
    emp = empirical_tail(final, xs)
    mid = 0.5 * (lo_tail + hi_tail)
    sup_gap = float(np.max(np.abs(emp - mid)))
    width = float(np.max(hi_tail - lo_tail))
    l_hat = float(upper.left_cuts[-1])
    r_hat = float(lower.right_cuts[-1])
    return ComparisonReport(
        sup_gap=sup_gap,
        width=width,
        dkw=dkw_band(N, 0.01),
        gap_left=abs(float(rec.leftmost[-1]) - l_hat),
        gap_right=abs(float(rec.rightmost[-1]) - r_hat),
        left_boundary=l_hat,
        right_boundary=r_hat,
        leftmost=float(rec.leftmost[-1]),
        rightmost=float(rec.rightmost[-1]),
        xs=xs,
        empirical=emp,
        lower_tail=lo_tail,
        upper_tail=hi_tail,
    )
