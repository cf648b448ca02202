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
L_t = c t - R0, R_t = c t.  Everything here is closed form; the checks of
the particle system against the bounds live in :mod:`npbbm.discrete`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .density import GridDensity, GridSpec, grid_cells

__all__ = [
    "TravellingWave",
    "Barrier",
    "travelling_wave",
    "wave_speed",
    "wave_density",
    "ode_residual",
    "wave_barriers",
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
        raise ValueError(f"p must lie strictly in (0,1), got p={p!r}")
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
    """Closed form amplitude * e^{-cx} sin(omega x), the profile on [0, R0]."""
    x = np.asarray(x, dtype=np.float64)
    return w.amplitude * np.exp(-w.c * x) * np.sin(w.omega * x)


def _profile_antiderivative(w: TravellingWave, x):
    """Integral of the profile from 0 to x (valid for x in [0, R0]).

    Uses the closed form for the antiderivative of e^{-cs} sin(omega s) with
    c^2 + omega^2 = 2; the total over the support is exactly 1.
    """
    x = np.asarray(x, dtype=np.float64)
    inner = -w.c * np.sin(w.omega * x) - w.omega * np.cos(w.omega * x)
    return w.amplitude * (np.exp(-w.c * x) * inner + w.omega) / 2.0


def _support_cells(w: TravellingWave, dx: float) -> int:
    """Whole cells of width dx across the support [0, R0]; at least three."""
    cells = math.floor(grid_cells(w.R0, dx))
    if cells < 3:
        raise ValueError(
            f"dx too coarse for the wave support: dx={dx!r} leaves fewer than "
            f"three cells across [0, R0] with R0={w.R0!r}"
        )
    return cells


def wave_density(w: TravellingWave, grid: GridSpec, shift: float = 0.0) -> GridDensity:
    """Exact cell averages of the shifted profile on the given grid.

    Cell values come from the closed-form antiderivative, so the grid mass
    equals the continuum mass (exactly 1) to rounding.  The shifted support
    (shift, shift + R0) must avoid the first and last grid cell, and dx must
    leave at least three cells across it, the rule of :func:`ode_residual`.
    """
    _support_cells(w, grid.dx)
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
    j_max = _support_cells(w, dx) - 1
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
        lo, hi = float(self.knot_times[0]), float(self.knot_times[-1])
        outside = (t_arr < lo - 1e-12) | (t_arr > hi + 1e-12)
        if np.any(outside):
            raise ValueError(
                f"barrier evaluated at t={float(t_arr[outside].flat[0])!r}, "
                f"outside its time domain [{lo!r}, {hi!r}]"
            )
        out = np.interp(t_arr, self.knot_times, self.knot_values)
        return float(out) if np.isscalar(t) else out


def wave_barriers(w: TravellingWave, t_max: float) -> tuple[Barrier, Barrier]:
    """Moving-frame barriers L_t = c t - R0, R_t = c t on [0, t_max]."""
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got t_max={t_max!r}")
    times = np.array([0.0, t_max])
    left = Barrier(times, np.array([-w.R0, w.c * t_max - w.R0]))
    right = Barrier(times, np.array([0.0, w.c * t_max]))
    return left, right
