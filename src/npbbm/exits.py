"""Monte Carlo Brownian motion killed at two moving piecewise-linear barriers.

Paths take exact Gaussian increments on a step grid that contains every
barrier knot, so each step sees two linear barrier segments, and one
uniform per step decides whether the Brownian bridge between the step's
ends has left the strip, and on which side.  Brownian motion minus a linear
function is again Brownian motion, so the laws below hold for moving
barriers as they are.

The exact two-sided law.  On a step of length dt over which the strip has
constant width W (the barriers are parallel), take distances from the
barriers: x, y from the left one at the step's start and end, and W - x,
W - y from the right one.  The bridge from x to y leaves (0, W) through 0
first with probability

    P(x, y) = sum_{k>=0} exp(-2 (x + kW)(y + kW) / dt)
              - sum_{k>=1} exp(-2 kW (kW + y - x) / dt)

(alternating reflections; Anderson 1960, Hall 1997), and through W first
with P(W - x, W - y).  A path that ends inside leaves left with P(x, y),
right with P(W - x, W - y), and stays otherwise.  A path that ends on or
beyond a barrier has left for sure: the far side gets its series and the
near side the rest, so every term evaluated is at most 1.  The sums keep
k = 1..K, K <= 7 the fewest for which every dropped term is below
exp(-37); this needs dt <= 56 W^2 / 18.5, about 3 W^2.  With bridge
correction the barriers must be parallel between knots, and each piece
between barrier knots is taken in the fewest equal steps of at most that
length: on the CLI's wave strip that is one step for any t up to about 14,
whatever h is.  Without bridge correction the steps are at most h long,
and a path exits only where its end is on or beyond a barrier.

Draw layout 3 (see ``randomness.DRAW_LAYOUT``).  Each step draws one normal
for every alive path from TAG_DRIVING.  The candidates are the paths whose
larger k = 0 exponent -2 x y / dt is above -37, which takes in every path
that ends on or beyond a barrier.  One ``random(m)`` call per step from
TAG_UNIFORM_A gives the m candidates one uniform each, in path order; u <
P_left exits left, else u < P_left + P_right exits right.  The other paths
draw nothing and stay: their exit probability is below about 2 exp(-37).
Without bridge correction the candidates are the paths that end on or
beyond a barrier, and no uniform is drawn.

The module cross-validates the killed semigroup against the grid scheme
(the exit-mass identity behind the probabilistic representation) and
measures small-horizon exit fluxes for extrapolation to the boundary
derivative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .density import GridDensity, _support, refine_limit, sample_from_density, tail_mass
from .randomness import RandomSource, TAG_DRIVING, TAG_INITIAL, TAG_UNIFORM_A
from .stats import binomial_se
from .wave import Barrier

__all__ = [
    "MAX_PATHS",
    "MAX_STEPS",
    "PathParams",
    "ExitStats",
    "RepresentationResult",
    "FluxSequence",
    "exit_statistics",
    "representation_check",
    "small_delta_flux",
]


# Most paths one run may start.  An `exit` run peaks at about 130 bytes of
# resident memory per path: ru_maxrss went from 38-40 MiB at 1e3 paths to
# 162-164 MiB at 1e6 and 534-536 MiB at 4e6 (stats and representation modes;
# flux peaks lower, at 109 MiB at 1e6), so a run at the cap peaks near
# 1.3 GiB, under 2 GiB.
MAX_PATHS = 10_000_000


@dataclass(frozen=True)
class PathParams:
    """Time horizon, step bound, and path count for one Monte Carlo run.

    h bounds the step only without bridge correction, which then takes
    max(1, ceil(t/h)) steps, so h may exceed t; with it every step is one of
    the exact law's, whatever h is.
    """

    t: float
    h: float
    n_paths: int

    def __post_init__(self) -> None:
        if not 0.0 < self.t < math.inf:
            raise ValueError(
                f"horizon t must be positive and finite, got t={self.t!r}"
            )
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"step h must be positive and finite, got h={self.h!r}")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.n_paths > MAX_PATHS:
            raise ValueError(
                f"n_paths={self.n_paths!r} is above the cap of {MAX_PATHS}"
            )


@dataclass(frozen=True)
class ExitStats:
    """Aggregated outcome frequencies with binomial standard errors."""

    n_paths: int
    exit_left_prob: float
    exit_right_prob: float
    survive_prob: float
    exit_left_se: float
    exit_right_se: float
    survive_se: float
    survivor_positions: NDArray[np.float64]

    def __post_init__(self) -> None:
        total = self.exit_left_prob + self.exit_right_prob + self.survive_prob
        counts = (
            round(self.exit_left_prob * self.n_paths)
            + round(self.exit_right_prob * self.n_paths)
            + round(self.survive_prob * self.n_paths)
        )
        if counts != self.n_paths or abs(total - 1.0) > 1e-12:
            raise ValueError("outcome counts must partition n_paths exactly")


# Most time steps one run may plan.  A step costs about 50 us even for a
# single path, so the cap keeps a run's step loop to about a minute.
MAX_STEPS = 1 << 20

# a path draws a uniform only where its larger k = 0 exponent is above -37;
# exp(-37) ~ 8.5e-17 bounds each dropped term of the series too
_EXP_CUTOFF = -37.0
# the most reflection terms k = 1..K a parallel step keeps; the first one
# dropped is at most exp(-2 K (K + 1) W^2 / dt), so a step may be as long
# as K (K + 1) W^2 / 18.5
_MAX_REFLECTIONS = 7
_LONGEST_STEP = _MAX_REFLECTIONS * (_MAX_REFLECTIONS + 1) / (-0.5 * _EXP_CUTOFF)
# relative change of the strip's width below which a piece is parallel; it
# covers the rounding of wave_barriers' knot values
_PARALLEL_RTOL = 1e-12


def _plan(t: float, h: float, left: Barrier, right: Barrier, bridge_correction: bool):
    """The step grid on [0, t], the barriers on it, and each step's reflections.

    Returns (grid, lv, rv, reflections): reflections[k] is the K of step k.
    The grid holds every barrier knot.  With bridge correction every piece
    between knots must be parallel, and is cut into the fewest equal steps
    of at most _LONGEST_STEP W^2, W its smaller end width.  Without it the
    grid is the uniform grid of ceil(t/h) steps with the knots added, and
    every K is 0.  The steps are counted against MAX_STEPS before any of
    them is built.
    """
    knots = np.concatenate((left.knot_times, right.knot_times))
    edges = np.union1d([0.0, t], knots[(knots > 0.0) & (knots < t)])
    width = right.value(edges) - left.value(edges)
    if not np.all(width > 0.0):
        raise ValueError("barriers must satisfy L < R on the whole horizon")
    a, b = edges[:-1], edges[1:]
    w = np.minimum(width[:-1], width[1:])
    if bridge_correction:
        bent = np.abs(np.diff(width)) > _PARALLEL_RTOL * np.maximum(width[:-1], width[1:])
        if np.any(bent):
            j = int(np.argmax(bent))
            start, end, w0, w1 = map(float, (a[j], b[j], width[j], width[j + 1]))
            raise ValueError(
                f"bridge correction needs parallel barriers, but on the piece "
                f"[{start!r}, {end!r}] the width goes from {w0!r} to {w1!r}"
            )
        steps = np.ceil((b - a) / (_LONGEST_STEP * w * w))
    else:
        with np.errstate(over="ignore"):  # a tiny h plans inf steps, refused below
            steps = np.ceil((b - a) / h - 1e-12)
    plan = float(np.sum(steps))
    if not plan <= MAX_STEPS:
        raise ValueError(
            f"step h={h!r} over horizon t={t!r} plans {plan:.6g} steps, "
            f"above the cap of {MAX_STEPS}"
        )
    if bridge_correction:
        parts = [np.linspace(a[j], b[j], int(steps[j]) + 1)[1:-1] for j in range(a.size)]
    else:
        n = max(1, math.ceil(t / h - 1e-12))
        uniform = np.arange(n + 1) * (t / n)
        parts = [uniform[(uniform > 0.0) & (uniform < t)]]
    grid = np.unique(np.concatenate([edges, *parts]))
    grid = grid[np.concatenate(([True], np.diff(grid) > 1e-15))]
    if bridge_correction:
        piece = np.searchsorted(edges, grid[:-1], side="right") - 1
        # the fewest K >= 1 with K (K + 1) >= 18.5 dt / W^2
        need = np.sqrt(0.25 - 0.5 * _EXP_CUTOFF * np.diff(grid) / w[piece] ** 2)
        reflections = np.clip(np.ceil(need - 0.5), 1, _MAX_REFLECTIONS)
    else:
        reflections = np.zeros(grid.size - 1)
    return grid, left.value(grid), right.value(grid), reflections.astype(np.int64)


def _series(x, y, w, s, reflections):
    """P(x, y) of the module docstring, with s = -2 / dt.

    Summed as e_0 + (e_1 - e'_1) + ... + (e_K - e'_K), e_k the k-th term
    of the first sum and e'_k of the second, each exponent formed as
    ((x + kw) (y + kw)) s and (kw ((kw + y) - x)) s.
    """
    p = x * y
    p *= s
    np.exp(p, out=p)
    for k in range(1, reflections + 1):
        kw = k * w
        term = (x + kw) * (y + kw)
        term *= s
        p += np.exp(term, out=term)
        term = (kw + y) - x
        term *= kw
        term *= s
        p -= np.exp(term, out=term)
    return p


def _exit_probabilities(x, y, left, right, s, reflections):
    """(P_left, P_right) for the bridges from x to y over one step, s = -2 / dt.

    left and right hold each barrier's values at the step's start and end;
    an end on or beyond one barrier has that side get the rest of the other
    side's series.  The distances are formed one side at a time, so at most
    two of them are alive at once.
    """
    w = right[0] - left[0]
    d1 = y - left[1]
    left_beyond = d1 <= 0.0
    p_left = _series(x - left[0], np.maximum(d1, 0.0, out=d1), w, s, reflections)
    d1 = right[1] - y
    right_beyond = d1 <= 0.0
    p_right = _series(right[0] - x, np.maximum(d1, 0.0, out=d1), w, s, reflections)
    np.subtract(1.0, p_right, out=p_left, where=left_beyond)
    np.subtract(1.0, p_left, out=p_right, where=right_beyond)
    return p_left, p_right


def _run_paths(
    x0: NDArray[np.float64],
    left: Barrier,
    right: Barrier,
    t: float,
    h: float,
    src: RandomSource,
    *,
    bridge_correction: bool = True,
):
    """Drive a batch of paths; returns (code, final_position).

    code is 0 for survival, 1 for a left exit, 2 for a right exit, and
    final_position is NaN for exited paths.  Each step draws a normal for
    every alive path and runs the exit logic on the candidates alone (see
    the module docstring); every other path stays inside.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    grid, lv, rv, reflections = _plan(t, h, left, right, bridge_correction)
    if np.any(x0 <= lv[0]) or np.any(x0 >= rv[0]):
        raise ValueError("initial positions must lie strictly between the barriers")

    gauss = src.generator(TAG_DRIVING)
    uniforms = src.generator(TAG_UNIFORM_A)

    n = x0.size
    code = np.zeros(n, dtype=np.int64)
    final = np.full(n, np.nan)
    idx = np.arange(n)
    cur = x0  # never written in place

    for k in range(grid.size - 1):
        if idx.size == 0:
            break
        dt = grid[k + 1] - grid[k]
        nxt = gauss.standard_normal(idx.size)
        nxt *= math.sqrt(dt)
        nxt += cur

        if bridge_correction:
            s = -2.0 / dt
            a = (cur - lv[k]) * (nxt - lv[k + 1])
            a *= s
            b = (rv[k] - cur) * (rv[k + 1] - nxt)
            b *= s
            cand = np.flatnonzero(np.maximum(a, b, out=a) > _EXP_CUTOFF)
            del a, b
            side = np.zeros(cand.size, dtype=np.int64)
            if cand.size:
                p_left, p_right = _exit_probabilities(
                    cur[cand], nxt[cand], lv[k : k + 2], rv[k : k + 2],
                    s, int(reflections[k]),
                )
                u = uniforms.random(cand.size)
                side[u < p_left + p_right] = 2
                side[u < p_left] = 1
        else:
            end_left = nxt <= lv[k + 1]
            cand = np.flatnonzero(end_left | (nxt >= rv[k + 1]))
            side = np.where(end_left[cand], 1, 2)

        gone = side > 0
        if np.any(gone):
            out = cand[gone]
            code[idx[out]] = side[gone]
            keep = np.ones(idx.size, dtype=bool)
            keep[out] = False
            idx = idx[keep]
            cur = nxt[keep]
        else:
            cur = nxt

    final[idx] = cur
    return code, final


def _draw_initial(
    rho: GridDensity, left: Barrier, right: Barrier, n: int, src: RandomSource
):
    """Inverse-CDF draw from rho, clipped strictly inside the barriers.

    Cells of rho may straddle a barrier by up to one cell width (a
    cell-averaged density puts the boundary sliver's mass on the whole
    cell), so the support check allows one-cell overlap and the in-cell
    interpolation is clipped to the open strip.  The displaced mass is
    O(dx^2), far below Monte Carlo resolution.
    """
    support = _support(rho.values)
    if support is None:
        raise ValueError("cannot sample from a zero density")
    lo, hi = rho.x0 + support[0] * rho.dx, rho.x0 + (support[1] + 1) * rho.dx
    l0 = float(left.value(0.0))
    r0 = float(right.value(0.0))
    if lo < l0 - rho.dx - 1e-12 or hi > r0 + rho.dx + 1e-12:
        raise ValueError("initial density support must lie between the barriers")
    x0 = sample_from_density(rho, n, src.generator(TAG_INITIAL))
    return np.clip(x0, np.nextafter(l0, np.inf), np.nextafter(r0, -np.inf))


def exit_statistics(
    rho: GridDensity,
    left: Barrier,
    right: Barrier,
    params: PathParams,
    src: RandomSource,
    *,
    bridge_correction: bool = True,
) -> ExitStats:
    """Aggregate outcomes of n_paths paths started i.i.d. from rho."""
    x0 = _draw_initial(rho, left, right, params.n_paths, src)
    code, final = _run_paths(
        x0, left, right, params.t, params.h, src, bridge_correction=bridge_correction
    )
    n = params.n_paths
    k_left = int(np.sum(code == 1))
    k_right = int(np.sum(code == 2))
    k_surv = n - k_left - k_right
    return ExitStats(
        n_paths=n,
        exit_left_prob=k_left / n,
        exit_right_prob=k_right / n,
        survive_prob=k_surv / n,
        exit_left_se=binomial_se(k_left / n, n),
        exit_right_se=binomial_se(k_right / n, n),
        survive_se=binomial_se(k_surv / n, n),
        survivor_positions=final[code == 0],
    )


@dataclass(frozen=True)
class RepresentationResult:
    """Killed-semigroup tails: Monte Carlo against the scheme limit.

    rows() packs (x, mc_value, scheme_value, std_error); scheme_width is the
    sandwich width of the refinement that produced scheme_value, for use in
    cross-validation tolerances.
    """

    xs: NDArray[np.float64]
    mc_values: NDArray[np.float64]
    scheme_values: NDArray[np.float64]
    std_errors: NDArray[np.float64]
    scheme_width: float
    survive_prob: float

    def rows(self) -> NDArray[np.float64]:
        return np.column_stack(
            (self.xs, self.mc_values, self.scheme_values, self.std_errors)
        )


def representation_check(
    rho: GridDensity,
    left: Barrier,
    right: Barrier,
    x_grid,
    params: PathParams,
    src: RandomSource,
    *,
    p: float,
    n_max: int = 6,
    tol: float = 1e-2,
) -> RepresentationResult:
    """Compare e^t P(survive, B_t >= x) with the scheme's tail mass at x.

    The horizon t is ``params.t``.  The left side is estimated from killed
    paths started i.i.d. from rho, the right side from the refinement limit
    of the grid scheme started at rho with selection parameter p (the scheme
    needs p even though the killed paths do not).  Standard errors are
    binomial, scaled by e^t.
    """
    t = params.t
    # checked before any work: e^t must be a finite float, the steps capped
    t_max = math.log(sys.float_info.max)
    if not t <= t_max:
        raise ValueError(f"t={t!r} exceeds {t_max!r}, the largest t with e^t finite")
    _plan(t, params.h, left, right, True)
    # deterministic, so run first: its argument checks precede the paths
    refined = refine_limit(rho, p, t, n_max=n_max, tol=tol)
    x_grid = np.asarray(x_grid, dtype=np.float64)
    x0 = _draw_initial(rho, left, right, params.n_paths, src)
    code, final = _run_paths(x0, left, right, t, params.h, src)
    survivors = np.sort(final[code == 0])
    n = params.n_paths
    scale = math.exp(t)
    # survivors at or beyond each x, as a fraction of all paths
    frac = (survivors.size - np.searchsorted(survivors, x_grid, side="left")) / n
    return RepresentationResult(
        xs=x_grid,
        mc_values=scale * frac,
        scheme_values=tail_mass(refined.psi, x_grid),
        std_errors=scale * binomial_se(frac, n),
        scheme_width=refined.width,
        survive_prob=survivors.size / n,
    )


@dataclass(frozen=True)
class FluxSequence:
    """Exit fluxes P(exit before delta)/delta over a decreasing delta ladder."""

    deltas: NDArray[np.float64]
    flux_left: NDArray[np.float64]
    flux_right: NDArray[np.float64]
    se_left: NDArray[np.float64]
    se_right: NDArray[np.float64]

    def extrapolate(self, side: str) -> tuple[float, float]:
        """Eliminate the O(delta) error term from the two smallest deltas.

        :func:`small_delta_flux` checks that they are in ratio 2: with f(d) =
        f0 + a d + O(d^2), 2 f(d) - f(2d) = f0 + O(d^2).  The standard error
        follows by independence of the two runs.
        """
        v = self.flux_left if side == "left" else self.flux_right
        s = self.se_left if side == "left" else self.se_right
        return 2.0 * v[-1] - v[-2], math.sqrt(4.0 * s[-1] ** 2 + s[-2] ** 2)


def _delta_ladder(deltas) -> NDArray[np.float64]:
    """deltas as an array, checked: at least two, positive, strictly
    decreasing, and the two smallest in ratio 2 (to a relative 1e-12)."""
    d = np.asarray(deltas, dtype=np.float64)
    if d.ndim != 1 or d.size < 2:
        problem = "must hold at least 2 values"
    elif not np.all(d > 0.0) or np.any(np.diff(d) >= 0.0):
        problem = "must be positive and strictly decreasing"
    elif abs(d[-2] - 2.0 * d[-1]) > 1e-12 * d[-1]:
        problem = f"must end in two values in ratio 2, got {float(d[-2] / d[-1])!r}"
    else:
        return d
    raise ValueError(f"deltas={d.tolist()} {problem}")


def small_delta_flux(
    f: GridDensity,
    left: Barrier,
    right: Barrier,
    deltas,
    n_paths: int,
    src: RandomSource,
) -> FluxSequence:
    """Measure exit_side probability / delta over a decreasing delta ladder.

    The ladder is checked before any path runs: at least two deltas, the
    two smallest in ratio 2, the largest no later than the barriers' last
    knot.  Each delta runs n_paths fresh paths (independent sub-source per
    delta) up to horizon delta under the exact two-sided law: on the wave
    strip each delta is one step.  The caller supplies a density vanishing
    at both barriers; the fluxes then converge linearly in delta to half
    the edge slopes, which the ratio-2 extrapolation of
    :meth:`FluxSequence.extrapolate` recovers.
    """
    d = _delta_ladder(deltas)
    end = min(float(left.knot_times[-1]), float(right.knot_times[-1]))
    if d[0] > end:
        raise ValueError(
            f"deltas={d.tolist()}: the largest, {float(d[0])!r}, is beyond "
            f"{end!r}, the barriers' last knot"
        )
    fl = np.empty(d.size)
    fr = np.empty(d.size)
    sl = np.empty(d.size)
    sr = np.empty(d.size)
    for j, delta in enumerate(d):
        run = PathParams(t=float(delta), h=float(delta), n_paths=n_paths)
        stats = exit_statistics(f, left, right, run, src.child(j))
        fl[j] = stats.exit_left_prob / delta
        fr[j] = stats.exit_right_prob / delta
        sl[j] = stats.exit_left_se / delta
        sr[j] = stats.exit_right_se / delta
    return FluxSequence(deltas=d, flux_left=fl, flux_right=fr, se_left=sl, se_right=sr)
