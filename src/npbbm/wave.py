"""Closed-form travelling wave of the selection free boundary problem.

For selection parameter p the limiting front moves at constant speed

    c = sign(p - 1/2) * sqrt(2 L^2 / (L^2 + pi^2)),   L = log(p/(1-p)),

and the wave profile on its canonical support (0, R0), R0 = pi/omega,
omega = sqrt(2 - c^2), is  (2p/omega) e^{-c x} sin(omega x).  The closed
form integrates to exactly 1 (the antiderivative of e^{-cx} sin(omega x)
together with e^{-c R0} = (1-p)/p), which the constructor-level invariants
and the tests lean on heavily.

The moving-frame convention used by cross-module fixtures puts the right
boundary at 0 at time 0, i.e. the profile shifted by -R0 and barriers
L_t = c t - R0, R_t = c t.  This module also assembles the hydrodynamic
comparison: empirical particle tails against the scheme sandwich, and the
extreme particles against the scheme's recorded cut positions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .density import (
    GridDensity,
    GridSpec,
    SchemeParams,
    grid_cells,
    iterate_scheme,
    sample_from_density,
    tail_mass,
)
from .particles import simulate
from .randomness import RandomSource, TAG_INITIAL
from .stats import dkw_band, empirical_tail

__all__ = [
    "TravellingWave",
    "Barrier",
    "ComparisonReport",
    "travelling_wave",
    "wave_speed",
    "wave_profile",
    "wave_density",
    "ode_residual",
    "wave_barriers",
    "hydrodynamic_report",
]


def wave_speed(p: float) -> float:
    """Travelling speed of the selection front.

    The log-odds are evaluated as log(p) - log1p(-p) on the half p <= 1/2
    and by negating the value at 1-p on the other half; log1p keeps full
    relative accuracy for p near 0, and since 1-p is exact for p >= 1/2
    (floating subtraction with both operands in [1/2, 1] is exact) the
    antisymmetry c(1-p) = -c(p) holds bit for bit.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly in (0,1)")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -wave_speed(1.0 - p)
    lam = math.log(p) - math.log1p(-p)
    return -math.sqrt(2.0 * lam * lam / (lam * lam + math.pi * math.pi))


@dataclass(frozen=True)
class TravellingWave:
    """Wave parameters for one value of p; build with :func:`travelling_wave`."""

    p: float
    c: float
    R0: float
    amplitude: float
    omega: float

    def __post_init__(self) -> None:
        if abs(self.c * self.c + self.omega * self.omega - 2.0) > 1e-12:
            raise ValueError("inconsistent wave: c^2 + omega^2 != 2")
        if abs(self.R0 * self.omega - math.pi) > 1e-12:
            raise ValueError("inconsistent wave: R0 * omega != pi")
        if (self.c > 0) != (self.p > 0.5) or (self.c == 0) != (self.p == 0.5):
            raise ValueError("inconsistent wave: sign(c) must match sign(p - 1/2)")


def travelling_wave(p: float) -> TravellingWave:
    """Construct the wave for selection parameter p."""
    c = wave_speed(p)
    omega = math.sqrt(2.0 - c * c)
    return TravellingWave(
        p=p, c=c, R0=math.pi / omega, amplitude=2.0 * p / omega, omega=omega
    )


def _profile_raw(w: TravellingWave, x):
    """Closed form amplitude * e^{-cx} sin(omega x) without the support mask."""
    x = np.asarray(x, dtype=np.float64)
    return w.amplitude * np.exp(-w.c * x) * np.sin(w.omega * x)


def wave_profile(w: TravellingWave, x):
    """Wave density at x (canonical support (0, R0), zero outside)."""
    arr = np.asarray(x, dtype=np.float64)
    inside = (arr > 0.0) & (arr < w.R0)
    out = np.where(inside, np.maximum(_profile_raw(w, arr), 0.0), 0.0)
    return float(out) if np.isscalar(x) else out


def _profile_antiderivative(w: TravellingWave, x):
    """Integral of the profile from 0 to x (valid for x in [0, R0]).

    Uses the closed form for the antiderivative of e^{-cs} sin(omega s) with
    c^2 + omega^2 = 2; the total over the support is exactly 1.
    """
    x = np.asarray(x, dtype=np.float64)
    inner = -w.c * np.sin(w.omega * x) - w.omega * np.cos(w.omega * x)
    return w.amplitude * (np.exp(-w.c * x) * inner + w.omega) / 2.0


def wave_density(w: TravellingWave, grid: GridSpec, shift: float = 0.0) -> GridDensity:
    """Exact cell averages of the shifted profile on the given grid.

    Cell values come from the closed-form antiderivative, so the grid mass
    equals the continuum mass (exactly 1) to rounding.  The shifted support
    (shift, shift + R0) must avoid the first and last grid cell.
    """
    edges = grid.edges() - shift
    if edges[1] > 0.0 or edges[-2] < w.R0:
        raise ValueError("grid does not cover the shifted wave support")
    clipped = np.clip(edges, 0.0, w.R0)
    cdf = _profile_antiderivative(w, clipped)
    vals = np.maximum(np.diff(cdf), 0.0) / grid.dx
    return GridDensity(grid.x0, grid.dx, vals)


def ode_residual(w: TravellingWave, dx: float) -> float:
    """Max residual of (1/2) w'' + c w' + w on the support interior.

    Centered finite differences of the analytic profile on the grid j*dx;
    second-order accurate, so the value shrinks about fourfold per halving.
    """
    j_max = int(math.floor(grid_cells(w.R0, dx))) - 1
    if j_max < 2:
        raise ValueError("dx too coarse for the wave support")
    x = np.arange(1, j_max + 1) * dx
    f_minus = _profile_raw(w, x - dx)
    f_mid = _profile_raw(w, x)
    f_plus = _profile_raw(w, x + dx)
    second = (f_plus - 2.0 * f_mid + f_minus) / (dx * dx)
    first = (f_plus - f_minus) / (2.0 * dx)
    return float(np.max(np.abs(0.5 * second + w.c * first + f_mid)))


@dataclass(frozen=True)
class Barrier:
    """Piecewise-linear barrier defined on [knot_times[0], knot_times[-1]]."""

    knot_times: NDArray[np.float64]
    knot_values: NDArray[np.float64]

    def __post_init__(self) -> None:
        t = np.asarray(self.knot_times, dtype=np.float64)
        v = np.asarray(self.knot_values, dtype=np.float64)
        if t.ndim != 1 or t.size < 2 or t.shape != v.shape:
            raise ValueError("need matching knot arrays with at least two knots")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("knot times must be strictly increasing")
        object.__setattr__(self, "knot_times", t)
        object.__setattr__(self, "knot_values", v)

    def value(self, t):
        t_arr = np.asarray(t, dtype=np.float64)
        lo, hi = self.knot_times[0], self.knot_times[-1]
        if np.any(t_arr < lo - 1e-12) or np.any(t_arr > hi + 1e-12):
            raise ValueError("barrier evaluated outside its time domain")
        out = np.interp(t_arr, self.knot_times, self.knot_values)
        return float(out) if np.isscalar(t) else out


def wave_barriers(w: TravellingWave, t_max: float) -> tuple[Barrier, Barrier]:
    """Moving-frame barriers L_t = c t - R0, R_t = c t on [0, t_max]."""
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    times = np.array([0.0, t_max])
    left = Barrier(times, np.array([-w.R0, w.c * t_max - w.R0]))
    right = Barrier(times, np.array([0.0, w.c * t_max]))
    return left, right


# ---------------------------------------------------------------------------
# hydrodynamic comparison


@dataclass(frozen=True)
class ComparisonReport:
    """Particle system against the scheme sandwich at one time."""

    p: float
    n_particles: int
    t: float
    delta: float
    master_seed: int
    stream_index: int
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

    def to_json(self, path) -> None:
        payload = {
            "p": self.p,
            "n_particles": self.n_particles,
            "t": self.t,
            "delta": self.delta,
            "master_seed": self.master_seed,
            "stream_index": self.stream_index,
            "sup_gap": self.sup_gap,
            "width": self.width,
            "dkw_99": self.dkw,
            "gap_left": self.gap_left,
            "gap_right": self.gap_right,
            "left_boundary": self.left_boundary,
            "right_boundary": self.right_boundary,
            "leftmost": self.leftmost,
            "rightmost": self.rightmost,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    def curves_to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,empirical_tail,lower_tail,upper_tail\n")
            for row in zip(self.xs, self.empirical, self.lower_tail, self.upper_tail):
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def hydrodynamic_report(
    p: float,
    N: int,
    t: float,
    delta: float,
    rho: GridDensity,
    src: RandomSource,
    *,
    mirror: bool = False,
) -> ComparisonReport:
    """Run N particles from i.i.d. rho samples and compare with the schemes.

    The scheme sandwich is iterated with step delta up to time t (t/delta
    must be an integer).  Tails are compared at every grid edge; the moving
    boundaries are estimated by the final recorded cut positions (the upper
    scheme cuts the left boundary at time t, the lower scheme the right).

    ``mirror=True`` is the reflection-coupling hook: the initial particles
    become the exact spatial reflection of the base sample (so their law is
    the reflection of rho) and the simulation runs with ``mirror=True``.  The
    trajectory is then the exact negation of the base run for parameter 1-p;
    the scheme sandwich is still computed for (p, rho) as supplied.
    """
    k = round(t / delta)
    if abs(t - k * delta) > 1e-9 or k < 1:
        raise ValueError("t must be a positive integer multiple of delta")
    init = np.sort(
        sample_from_density(rho, N, src.generator(TAG_INITIAL)), kind="stable"
    )
    if mirror:
        init = -init[::-1]
    rec = simulate(init, p, t, src, sample_times=[t], mirror=mirror,
                   record_configs=True)
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
        p=p,
        n_particles=N,
        t=t,
        delta=delta,
        master_seed=src.master_seed,
        stream_index=src.stream_index,
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

