"""Monte Carlo Brownian motion killed at two moving piecewise-linear barriers.

Paths take exact Gaussian increments on a step grid that contains every
barrier knot, so each step sees two linear barrier segments.  For a linear
segment the probability that the Brownian bridge over one step crosses the
barrier, given start and end distances d0, d1 > 0, is exp(a) with
a = -2 d0 d1 / h exactly (Brownian motion minus a linear function is again
Brownian motion), so the per-step crossing correction removes all
discretization bias (Baldi 1995; Gobet 2000).  Endpoint-side violations
exit at the step end, hidden crossings are timed at the step midpoint
(diagnostic only).  If both barriers trigger in one step the exit is
attributed to the barrier nearer the path at the step start; the error of
treating the two crossing events independently is O(exp(-2 (R-L)^2 / h)).

Draw layout 2 (see ``randomness.DRAW_LAYOUT``).  Each step draws one normal
for every alive path.  A uniform decides a hidden crossing, u < exp(a), and
is drawn only where a is above -37: one ``random(m)`` call per barrier and
step takes the m uniforms for those paths, in path order, from that
barrier's stream.  Where a <= -37 the path draws nothing and does not cross.
Layout 1 drew a uniform for every alive path and crossed there with
probability 2^-53 (a uniform of exactly 0).  The true probability exp(a) <=
8.5e-17 lies between 0 and 2^-53, so layout 2's per-step error is no larger
than layout 1's.  Without bridge correction no uniform is drawn.

The exit logic runs only on the candidates: the paths that start or end
within r = sqrt(18.5 h) of a barrier.  The rest cannot exit in the step.
They end strictly inside, and with d0, d1 > 0 an exponent above -37 needs
d0 d1 < 18.5 h, hence min(d0, d1) < r.  r is widened by a relative 1e-9
and each band edge is rounded one ulp towards the strip's centre.  That is
far more than the few-ulp error in the computed exponent, so every path
whose exponent is above -37 is a candidate, and the candidates draw their
uniforms in the order the paths have.  On the wave strip at h = 1e-3 about
2 % of the alive paths are candidates.  Without bridge correction, the
candidates are the paths that end at or beyond a barrier.

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

from .density import GridDensity, refine_limit, sample_from_density, tail_mass
from .randomness import (
    RandomSource,
    TAG_DRIVING,
    TAG_INITIAL,
    TAG_UNIFORM_A,
    TAG_UNIFORM_B,
)
from .stats import binomial_se
from .wave import Barrier

__all__ = [
    "MAX_STEPS",
    "PathParams",
    "ExitOutcome",
    "ExitStats",
    "RepresentationResult",
    "FluxSequence",
    "sample_exit",
    "exit_statistics",
    "representation_check",
    "small_delta_flux",
    "richardson_extrapolate",
]


@dataclass(frozen=True)
class PathParams:
    """Time horizon, step bound, and path count for one Monte Carlo run."""

    t: float
    h: float
    n_paths: int

    def __post_init__(self) -> None:
        if not 0.0 < self.t < math.inf:
            raise ValueError(
                f"horizon t must be positive and finite, got t={self.t!r}"
            )
        if not 0.0 < self.h <= self.t:
            raise ValueError(
                f"step h must satisfy 0 < h <= t, got h={self.h!r} with t={self.t!r}"
            )
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")


@dataclass(frozen=True)
class ExitOutcome:
    """Result of one path: kind is 'left', 'right', or 'survive'.

    Exits carry the (diagnostic) exit time; survivors carry the final
    position.
    """

    kind: str
    time: float | None = None
    position: float | None = None


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


def _step_count(t: float, h: float) -> int:
    """ceil(t / h), the uniform steps over [0, t]; at most MAX_STEPS."""
    planned = t / h - 1e-12
    if not planned <= MAX_STEPS:
        raise ValueError(
            f"step h={h!r} over horizon t={t!r} plans {t / h:.6g} steps (t/h), "
            f"above the cap of {MAX_STEPS}"
        )
    return max(1, math.ceil(planned))


def _time_grid(t: float, h: float, left: Barrier, right: Barrier):
    """Uniform grid of step <= h on [0, t], refined by all barrier knots."""
    n = _step_count(t, h)
    base = np.linspace(0.0, t, n + 1)
    knots = np.concatenate([left.knot_times, right.knot_times])
    knots = knots[(knots > 0.0) & (knots < t)]
    grid = np.union1d(base, knots)
    return grid[np.concatenate(([True], np.diff(grid) > 1e-15))]


# a uniform is drawn only where the crossing exponent is above -37:
# exp(-37) ~ 8.5e-17 bounds the crossing probability left out below it
_EXP_CUTOFF = -37.0
# relative widening of the candidate reach; far above the few-ulp error of
# the exponent, so no path with an exponent above the cutoff is left out
_REACH_MARGIN = 1e-9


def _bridge_crossed(a, inside, uniforms):
    """Hidden crossings: ``u < exp(a)`` where inside and a > _EXP_CUTOFF.

    Draws ``uniforms.random(m)`` for exactly those m entries, in order; the
    others draw nothing and do not cross.
    """
    live = inside & (a > _EXP_CUTOFF)
    hit = np.zeros(a.size, dtype=bool)
    hit[live] = uniforms.random(np.count_nonzero(live)) < np.exp(a[live])
    return hit


def _candidate_bands(grid, lv, rv, bridge_correction: bool):
    """Per-step band edges (lo0, hi0, lo1, hi1) outside which a path may exit.

    A path can leave in step k only if its end lies below lo1[k] or above
    hi1[k], or, with bridge correction, its start lies below lo0[k] or
    above hi0[k].  Without bridge correction the edges sit one ulp inside
    the barriers, so the end test is the end-exit test itself.  With it, they sit r inside, r being
    sqrt(18.5 dt) widened by _REACH_MARGIN and each edge rounded one ulp
    towards the centre of the strip (see the module docstring).
    """
    if bridge_correction:
        r = np.sqrt(-0.5 * _EXP_CUTOFF * np.diff(grid)) * (1.0 + _REACH_MARGIN)
    else:
        r = 0.0
    return (
        np.nextafter(lv[:-1] + r, np.inf),
        np.nextafter(rv[:-1] - r, -np.inf),
        np.nextafter(lv[1:] + r, np.inf),
        np.nextafter(rv[1:] - r, -np.inf),
    )


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
    """Drive a batch of paths; returns (code, exit_time, final_position).

    code is 0 for survival, 1 for a left exit, 2 for a right exit; exit_time
    is NaN for survivors and final_position is NaN for exited paths.

    Each step draws a normal for every alive path, then gathers the
    candidates, the few paths near a barrier (see _candidate_bands), and
    runs the exit logic on them alone, drawing uniforms only where a bridge
    can cross; every other path stays inside with certainty.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    grid = _time_grid(t, h, left, right)
    lv = left.value(grid)
    rv = right.value(grid)
    if np.any(lv >= rv):
        raise ValueError("barriers must satisfy L < R on the whole horizon")
    if np.any(x0 <= lv[0]) or np.any(x0 >= rv[0]):
        raise ValueError("initial positions must lie strictly between the barriers")
    lo0, hi0, lo1, hi1 = _candidate_bands(grid, lv, rv, bridge_correction)

    gauss = src.generator(TAG_DRIVING)
    uni_left = src.generator(TAG_UNIFORM_A)
    uni_right = src.generator(TAG_UNIFORM_B)

    n = x0.size
    code = np.zeros(n, dtype=np.int64)
    exit_time = np.full(n, np.nan)
    final = np.full(n, np.nan)
    idx = np.arange(n)
    cur = x0.copy()

    for k in range(len(grid) - 1):
        if idx.size == 0:
            break
        dt = grid[k + 1] - grid[k]
        nxt = gauss.standard_normal(idx.size)
        nxt *= math.sqrt(dt)
        nxt += cur

        near = nxt < lo1[k]
        near |= nxt > hi1[k]
        if bridge_correction:
            near |= cur < lo0[k]
            near |= cur > hi0[k]
        cand = np.flatnonzero(near)

        c_nxt = nxt[cand]
        d1l = c_nxt - lv[k + 1]
        d1r = rv[k + 1] - c_nxt
        end_left = d1l <= 0.0
        end_right = ~end_left & (d1r <= 0.0)
        inside = ~(end_left | end_right)

        if bridge_correction and np.any(inside):
            c_cur = cur[cand]
            d0l = c_cur - lv[k]
            d0r = rv[k] - c_cur
            hid_left = _bridge_crossed(-2.0 * d0l * d1l / dt, inside, uni_left)
            hid_right = _bridge_crossed(-2.0 * d0r * d1r / dt, inside, uni_right)
            both = hid_left & hid_right
            if np.any(both):
                to_left = both & (d0l <= d0r)
                hid_left = (hid_left & ~both) | to_left
                hid_right = (hid_right & ~both) | (both & ~to_left)
        else:
            hid_left = hid_right = np.zeros(cand.size, dtype=bool)

        gone = end_left | end_right | hid_left | hid_right
        if np.any(gone):
            out = cand[gone]
            sel = idx[out]
            code[sel] = np.where((end_left | hid_left)[gone], 1, 2)
            exit_time[sel] = np.where(
                (end_left | end_right)[gone], grid[k + 1], grid[k] + 0.5 * dt
            )
            keep = np.ones(idx.size, dtype=bool)
            keep[out] = False
            idx = idx[keep]
            cur = nxt[keep]
        else:
            cur = nxt

    final[idx] = cur
    return code, exit_time, final


def sample_exit(
    x0: float,
    left: Barrier,
    right: Barrier,
    params: PathParams,
    src: RandomSource,
    *,
    bridge_correction: bool = True,
) -> ExitOutcome:
    """Run a single path from x0; see the module docstring for the stepping."""
    code, when, final = _run_paths(
        np.array([x0]),
        left,
        right,
        params.t,
        params.h,
        src,
        bridge_correction=bridge_correction,
    )
    if code[0] == 0:
        return ExitOutcome(kind="survive", position=float(final[0]))
    side = "left" if code[0] == 1 else "right"
    return ExitOutcome(kind=side, time=float(when[0]))


def _support_interval(rho: GridDensity) -> tuple[float, float]:
    nz = np.nonzero(rho.values)[0]
    if nz.size == 0:
        raise ValueError("cannot sample from a zero density")
    return rho.x0 + nz[0] * rho.dx, rho.x0 + (nz[-1] + 1) * rho.dx


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
    lo, hi = _support_interval(rho)
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
    code, _, final = _run_paths(
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
    horizon: float

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
    _step_count(t, params.h)
    # deterministic, so run first: its argument checks precede the paths
    refined = refine_limit(rho, p, t, n_max=n_max, tol=tol)
    x_grid = np.asarray(x_grid, dtype=np.float64)
    x0 = _draw_initial(rho, left, right, params.n_paths, src)
    code, _, final = _run_paths(x0, left, right, t, params.h, src)
    survivors = final[code == 0]
    n = params.n_paths
    scale = math.exp(t)
    frac = np.array(
        [np.sum(survivors >= x) / n for x in x_grid], dtype=np.float64
    )
    ses = np.array([binomial_se(f, n) for f in frac], dtype=np.float64)

    scheme = np.array([tail_mass(refined.psi, x) for x in x_grid])
    return RepresentationResult(
        xs=x_grid,
        mc_values=scale * frac,
        scheme_values=scheme,
        std_errors=scale * ses,
        scheme_width=refined.width,
        survive_prob=survivors.size / n,
        horizon=t,
    )


@dataclass(frozen=True)
class FluxSequence:
    """Exit fluxes P(exit before delta)/delta over a decreasing delta ladder."""

    deltas: NDArray[np.float64]
    flux_left: NDArray[np.float64]
    flux_right: NDArray[np.float64]
    se_left: NDArray[np.float64]
    se_right: NDArray[np.float64]

    def rows(self) -> NDArray[np.float64]:
        return np.column_stack((self.deltas, self.flux_left, self.flux_right))

    def extrapolate(self, side: str) -> tuple[float, float]:
        """Linear-in-delta extrapolation to 0 from the two smallest deltas."""
        return richardson_extrapolate(
            self.deltas,
            self.flux_left if side == "left" else self.flux_right,
            self.se_left if side == "left" else self.se_right,
        )


def richardson_extrapolate(deltas, values, ses) -> tuple[float, float]:
    """Eliminate the O(delta) error term from the two smallest deltas.

    Requires the two smallest deltas in ratio 2: with f(d) = f0 + a d +
    O(d^2), 2 f(d) - f(2d) = f0 + O(d^2).  The standard error follows by
    independence of the two runs.
    """
    d = np.asarray(deltas, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    s = np.asarray(ses, dtype=np.float64)
    if d.size < 2 or np.any(np.diff(d) >= 0.0):
        raise ValueError("need at least two strictly decreasing deltas")
    if abs(d[-2] - 2.0 * d[-1]) > 1e-12 * d[-1]:
        raise ValueError("two smallest deltas must be in ratio 2 for the eliminant")
    value = 2.0 * v[-1] - v[-2]
    se = math.sqrt(4.0 * s[-1] ** 2 + s[-2] ** 2)
    return value, se


def small_delta_flux(
    f: GridDensity,
    left: Barrier,
    right: Barrier,
    deltas,
    params: PathParams,
    src: RandomSource,
) -> FluxSequence:
    """Measure exit_side probability / delta over a decreasing delta ladder.

    Each delta runs params.n_paths fresh paths (independent sub-source per
    delta) up to horizon delta with step min(params.h, delta/100), so the
    step is always at least a hundred times finer than the horizon.  The
    caller supplies a density vanishing at both barriers; the fluxes then
    converge linearly in delta to half the edge slopes, which the ratio-2
    extrapolation of :meth:`FluxSequence.extrapolate` recovers.
    """
    d = np.asarray(deltas, dtype=np.float64)
    if d.size < 1 or np.any(d <= 0.0) or np.any(np.diff(d) >= 0.0):
        raise ValueError("deltas must be positive and strictly decreasing")
    fl = np.empty(d.size)
    fr = np.empty(d.size)
    sl = np.empty(d.size)
    sr = np.empty(d.size)
    for j, delta in enumerate(d):
        run = PathParams(
            t=float(delta), h=min(params.h, float(delta) / 100.0), n_paths=params.n_paths
        )
        stats = exit_statistics(f, left, right, run, src.child(j))
        fl[j] = stats.exit_left_prob / delta
        fr[j] = stats.exit_right_prob / delta
        sl[j] = stats.exit_left_se / delta
        sr[j] = stats.exit_right_se / delta
    return FluxSequence(deltas=d, flux_left=fl, flux_right=fr, se_left=sl, se_right=sr)
