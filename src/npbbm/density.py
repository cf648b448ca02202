"""Deterministic density evolution on a uniform grid.

This module hosts the measure-level counterpart of the bounding particle
systems: Gaussian propagation, exponential growth, and the mass-cut
operators that trim a prescribed amount of density from the left or right.
One composite step of the lower scheme is

    trim p(1-e^{-delta}) from the left
    -> diffuse for delta -> grow by e^delta -> trim back to mass 1 from the right

and the upper scheme is its mirror image, computed as the lower step at 1-p
on the reflected grid.  Iterated at matching total times the two schemes
bracket the continuum solution, and their gap shrinks as the step is halved,
which is how the common limit is extracted.

The k steps of one side run as a single loop over a window that is exactly
the support (first and last cells nonzero): the input is trimmed to it
once, each step hands on only the window, its offset on the grid and its
mass, and the full-grid density is built once, after the last step.  The
upper side reflects its input once and its result once, so a run is
R . lower(1-p)^k . R with R(x) = -x.  Both cuts of a step work by index and
copy no window: the left cut finds its cell in the window, the right cut
runs the same search on a reversed view of the grown window and zeroes its
tail in place.  `gaussian_propagate` diffuses through the same windowed
convolution.  The loop keeps the bits of the step-by-step full-grid
evaluation.

Densities are nonnegative cell-centered samples on a uniform grid.  The
support must stay inside the grid interior (first and last cells exactly
zero); operations that would push mass past the edge raise
:class:`GridTooSmallError` rather than silently losing it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "GridTooSmallError",
    "MAX_GRID_CELLS",
    "MAX_SCHEME_STEPS",
    "MAX_SCHEME_CELL_STEPS",
    "GridSpec",
    "GridDensity",
    "SchemeParams",
    "SchemeRun",
    "RefineResult",
    "grid_cells",
    "plan_grid",
    "gaussian_propagate",
    "scale",
    "cut_left_amount",
    "cut_right_amount",
    "iterate_scheme",
    "l1_distance",
    "tail_mass",
    "dominates",
    "refine_limit",
    "sample_from_density",
]

# Relative slack accepted when a requested cut mass overshoots the actual
# mass through float rounding (e.g. a cut of 1.0 against a mass 1-1ulp).
_CUT_SLACK = 1e-9

# Largest grid a step size may plan (2^22 cells, 32 MiB a float64 array); the
# largest grid the shipped configs use has 19 293 cells.
MAX_GRID_CELLS = 1 << 22

# Largest plans refine_limit runs, each about ten minutes on a 2-core VM.  A
# step costs at least about 65 us, as on a 391-cell grid (dx = 0.05), so
# steps need a cap of their own; on larger grids a cell step costs about
# 10 ns (19 293 cells, n_max = 8) to 20 ns (192 876 cells, n_max = 4).
MAX_SCHEME_STEPS = 10_000_000
MAX_SCHEME_CELL_STEPS = 30_000_000_000

# Longest scheme step whose mass can pass its check, 1 within 1e-10: a step
# of length delta grows the mass by e^delta and cuts e^delta - 1 back, which
# rounds away up to about e^delta 2^-53 of the unit mass.  Measured on the
# wave at p = 0.75, dx = 1e-3: 1.5e-10 at delta = 13.7, 1.5e-8 at 20, and all
# of it from about 36.7 on.
_MAX_STEP = math.log(1e-10 * 2.0**53)  # about 13.71

# plan_grid pads a support by this many standard deviations of the diffusion,
# and the heat kernel is truncated there; the Gaussian tail beyond eight is
# below 1e-14.
_PAD_SIGMAS = 8.0

# A mass cut accumulates its prefix sum in blocks of this many cells, then
# twice as many each time, until the sum reaches the amount.  Both cuts of a
# scheme step land about 500 cells in at dx = 1e-3 and 2^8 steps, so one
# block reaches them.
_PREFIX_CELLS = 1024


class GridTooSmallError(RuntimeError):
    """Density support reached the grid boundary; enlarge the domain."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid: cell i covers [x0 + i*dx, x0 + (i+1)*dx)."""

    x0: float
    dx: float
    n: int

    def __post_init__(self) -> None:
        if self.dx <= 0.0 or self.n < 3:
            raise ValueError("need dx > 0 and at least 3 cells")

    def centers(self) -> NDArray[np.float64]:
        return self.x0 + (np.arange(self.n) + 0.5) * self.dx

    def edges(self) -> NDArray[np.float64]:
        return self.x0 + np.arange(self.n + 1) * self.dx


def grid_cells(span: float, dx: float) -> float:
    """span / dx, the cells a grid of step dx needs to cover span.

    Raises ValueError, before anything is allocated, unless span is finite,
    dx is finite and positive, and the count (plus one end cell) is at most
    MAX_GRID_CELLS.
    """
    if not (math.isfinite(dx) and dx > 0.0):
        raise ValueError(f"grid step dx must be finite and positive, got dx={dx!r}")
    if not math.isfinite(span):
        raise ValueError(f"grid span must be finite, got span={span!r} at dx={dx!r}")
    cells = span / dx
    if not cells <= MAX_GRID_CELLS - 1:
        raise ValueError(
            f"grid step dx={dx!r} plans {cells:.6g} cells, "
            f"above the cap of {MAX_GRID_CELLS}"
        )
    return cells


def plan_grid(
    support_lo: float,
    support_hi: float,
    total_time: float,
    drift: float = 0.0,
    dx: float = 1e-3,
) -> GridSpec:
    """Grid sized so diffusion over total_time plus drift stays interior.

    Pads the initial support by 8*sqrt(total_time) + |drift|*total_time on
    each side.
    """
    if support_hi < support_lo:
        raise ValueError("empty support")
    pad = _PAD_SIGMAS * math.sqrt(max(total_time, 0.0)) + abs(drift) * total_time
    lo = support_lo - pad - 2.0 * dx
    hi = support_hi + pad + 2.0 * dx
    n = int(math.ceil(grid_cells(hi - lo, dx))) + 1
    return GridSpec(lo, dx, n)


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative density samples at cell centers with cached total mass."""

    x0: float
    dx: float
    values: NDArray[np.float64]
    mass: float = field(init=False)  # derived in __post_init__

    def __post_init__(self) -> None:
        # copy first, so the checks below read contiguous memory even when
        # values is a reversed view
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 3:
            raise ValueError("values must be a 1-d array with at least 3 cells")
        if self.dx <= 0.0:
            raise ValueError("dx must be positive")
        # min is NaN when any value is; two reductions, no temporaries
        if not vals.min() >= 0.0 or vals.max() == math.inf:
            raise ValueError("density values must be finite and non-negative")
        if vals[0] != 0.0 or vals[-1] != 0.0:
            raise GridTooSmallError(
                "support touches the grid boundary (first/last cell non-zero)"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "mass", float(np.sum(vals) * self.dx))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def spec(self) -> GridSpec:
        return GridSpec(self.x0, self.dx, self.n)

    def centers(self) -> NDArray[np.float64]:
        return self.spec.centers()

    def edges(self) -> NDArray[np.float64]:
        return self.spec.edges()


def _same_grid(f: GridDensity, g: GridDensity) -> None:
    if f.x0 != g.x0 or f.dx != g.dx or f.n != g.n:
        raise ValueError("densities live on different grids; resample first")


# ---------------------------------------------------------------------------
# Gaussian propagation


def _kernel_radius(dx: float, t: float) -> int:
    """Half-width in cells of the heat kernel truncated at _PAD_SIGMAS."""
    return max(1, int(math.ceil(_PAD_SIGMAS * math.sqrt(t) / dx)))


def _heat_kernel(dx: float, t: float) -> NDArray[np.float64]:
    """Heat-kernel weights on the grid, truncated at 8 standard deviations.

    Grid values represent cell averages, i.e. samples of the true function
    convolved with one cell-width box.  Diffusing such samples must convolve
    with point samples of the Gaussian kernel (midpoint rule); a cell-mass
    kernel would smear an extra box per application, breaking the semigroup
    identity at order dx^2.  Point samples are spectrally accurate as long
    as the kernel is resolved (sqrt(t) a few cells wide); below that scale
    the weights fall back to exact cell masses, where the narrow kernel is
    essentially an identity and the box smear is harmless.  There the radius
    is at most 16 cells, and the cell masses are CDF differences evaluated
    with the standard library's erf/erfc, cell by cell.  The kernel is NOT
    renormalized: mass drift is a grid-health signal, not noise.
    """
    sd = math.sqrt(t)
    r = _kernel_radius(dx, t)
    if sd >= 2.0 * dx:
        m = np.arange(0, r + 1)
        half = dx / (sd * math.sqrt(2.0 * math.pi)) * np.exp(
            -0.5 * (m * dx / sd) ** 2
        )
        return np.concatenate([half[:0:-1], half])
    c = dx / (sd * math.sqrt(2.0))
    right = [
        0.5 * (math.erfc((m - 0.5) * c) - math.erfc((m + 0.5) * c))
        for m in range(1, r + 1)
    ]
    return np.array(right[::-1] + [math.erf(0.5 * c)] + right)


@functools.lru_cache(maxsize=1024)
def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=16)
def _kernel_spectrum(dx: float, t: float, nfft: int) -> NDArray[np.complex128]:
    """rfft of the heat kernel at length nfft.

    Every step of one refinement level diffuses for the same time, so each
    level computes its spectrum about once.  The cached array is read-only
    and is the very array a miss computed, so a hit gives the same bits.
    """
    spectrum = np.fft.rfft(_heat_kernel(dx, t), nfft)
    spectrum.setflags(write=False)
    return spectrum


def _support(values: NDArray[np.float64]) -> tuple[int, int] | None:
    """First and last nonzero cell, or None when every cell is zero."""
    nonzero = values != 0.0
    first = int(nonzero.argmax())
    if not nonzero[first]:
        return None
    return first, len(values) - 1 - int(nonzero[::-1].argmax())


def _check_room(first: int, last: int, r: int, n: int) -> None:
    """Raise unless support cells [first, last] widened by r stay in [1, n-2]."""
    if first - r < 1 or last + r > n - 2:
        raise GridTooSmallError(
            f"support cells [{first}, {last}] widened by the kernel radius "
            f"r={r} reach [{first - r}, {last + r}], beyond the interior "
            f"[1, {n - 2}] of the {n}-cell grid; enlarge the domain"
        )


def gaussian_propagate(f: GridDensity, t: float) -> GridDensity:
    """Diffuse the density for time t (convolution with the heat kernel).

    Only the support is convolved: the nonzero cells [first, last] go
    through a real FFT of 2*3*5-smooth length with the kernel of radius r,
    and the exact linear convolution fills cells [first - r, last + r];
    every other cell stays zero.  Mass is preserved to within 1e-10
    relative (the truncated kernel loses about 1e-15).  If the widened
    support would touch the grid boundary, or more than 1e-12 of the mass
    would land beyond it, the grid is too small.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be non-negative and finite, got t={t!r}")
    if t == 0.0:
        return f
    support = _support(f.values)
    if support is None:
        return f
    first, last = support
    r = _kernel_radius(f.dx, t)
    _check_room(first, last, r, f.n)
    return GridDensity(f.x0, f.dx, _diffuse(f.values, first, last, r, f.dx, t, f.mass))


def _diffuse(values, first: int, last: int, r: int, dx: float, t: float, mass: float):
    """values diffused for t, as a new array of the same length.

    The support [first, last] must have room for the kernel radius r on
    both sides; the convolution fills cells [first - r, last + r].  Raises
    if the result lost more than 1e-12 of `mass`, the mass of values.
    """
    size = last - first + 1 + 2 * r
    nfft = _fft_size(size)
    spectrum = np.fft.rfft(values[first : last + 1], nfft)
    spectrum *= _kernel_spectrum(dx, t, nfft)
    out = np.zeros(len(values))
    window = out[first - r : last + r + 1]
    window[:] = np.fft.irfft(spectrum, nfft)[:size]
    np.maximum(window, 0.0, out=window)
    new_mass = float(window.sum() * dx)
    if mass - new_mass > 1e-12 * mass:
        raise GridTooSmallError(
            f"mass {mass!r} fell to {new_mass!r} after diffusing for t={t!r}: "
            "more than 1e-12 of it left the grid"
        )
    if abs(new_mass - mass) > 1e-10 * mass:
        raise AssertionError("heat-kernel mass drift exceeded 1e-10")
    return out


def scale(f: GridDensity, c: float) -> GridDensity:
    """Pointwise multiplication by a finite c >= 0; mass scales by c."""
    if not 0.0 <= c < math.inf:
        raise ValueError(f"scale factor must be finite and non-negative, got c={c!r}")
    return GridDensity(f.x0, f.dx, f.values * c)


# ---------------------------------------------------------------------------
# mass cuts


def _cut_index(values: NDArray[np.float64], x0: float, dx: float, m: float, total: float):
    """Where removing mass m from the left of values ends: (j, keep, pos).

    The cut zeroes cells 0..j-1 and leaves cell j holding `keep`, a
    proportional share of its value, so the removed mass is exact; pos is the
    position where the cumulative mass equals m, for boundary tracking.  A cut
    of nothing keeps every cell (j = 0) and one of everything none (j = n-1,
    keep = 0).  values is only read, a prefix block at a time, so it may be
    a reversed view.
    """
    n = len(values)
    if m <= 0.0 or m >= total:
        support = _support(values)
        if m <= 0.0:
            return 0, values[0], x0 + (support[0] if support else 0) * dx
        return n - 1, 0.0, x0 + (support[1] + 1 if support else n) * dx
    # cumsum adds in order, so the prefix sum can be taken in blocks, each
    # continuing from the last sum of the one before, with the same bits;
    # the blocks stop at the one the cut reaches
    start, size, carry = 0, _PREFIX_CELLS, 0.0
    while True:
        block = values[start : start + size].copy()
        block[0] += carry
        block.cumsum(out=block)
        prefix = block * dx
        if prefix[-1] >= m or start + size >= n:
            break
        start, size, carry = start + size, 2 * size, block[-1]
    j = min(start + int(prefix.searchsorted(m, side="left")), n - 1)
    part = float(values[: j + 1].sum() * dx)  # pairwise sum: mass of cells 0..j
    value = float(values[j])
    keep = min(max(part - m, 0.0) / dx, value)
    if value > 0.0:
        below = part - value * dx
        return j, keep, x0 + j * dx + min(max((m - below) / value, 0.0), dx)
    return j, keep, x0 + j * dx


def _checked_amount(m: float, mass: float) -> float:
    """The cut amount m, clipped to the available mass."""
    if not m >= 0.0:
        raise ValueError(f"cut amount must be non-negative, got m={m!r}")
    if m > mass * (1.0 + _CUT_SLACK) + 1e-300:
        raise ValueError(f"cut amount m={m!r} exceeds the available mass {mass!r}")
    return min(m, mass)


def cut_left_amount(f: GridDensity, m: float) -> GridDensity:
    """Remove exactly mass m from the left (D-type cut)."""
    m = _checked_amount(m, f.mass)
    j, keep, _ = _cut_index(f.values, f.x0, f.dx, m, f.mass)
    out = f.values.copy()
    out[:j] = 0.0
    out[j] = keep
    return GridDensity(f.x0, f.dx, out)


def cut_right_amount(f: GridDensity, m: float) -> GridDensity:
    """Remove exactly mass m from the right (D-type cut): the left cut of the
    reversed cells."""
    m = _checked_amount(m, f.mass)
    j, keep, _ = _cut_index(f.values[::-1], -(f.x0 + f.n * f.dx), f.dx, m, f.mass)
    out = f.values.copy()
    out[f.n - j :] = 0.0
    out[f.n - 1 - j] = keep
    return GridDensity(f.x0, f.dx, out)


# ---------------------------------------------------------------------------
# composite scheme steps


@dataclass(frozen=True)
class SchemeParams:
    """One-step parameters of a bounding scheme or bounding particle system.

    :func:`npbbm.discrete.run_bounds` takes it too; delta > 0 keeps every
    free-branching time positive.
    """

    p: float
    delta: float
    side: Literal["lower", "upper"]

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie strictly in (0,1), got p={self.p!r}")
        if not 0.0 < self.delta < math.inf:
            raise ValueError(
                f"delta must be positive and finite, got delta={self.delta!r}"
            )
        if self.side not in ("lower", "upper"):
            raise ValueError("side must be 'lower' or 'upper'")


@dataclass(frozen=True)
class SchemeRun:
    """k-step iteration record: final density plus per-step cut positions."""

    density: GridDensity
    left_cuts: NDArray[np.float64]
    right_cuts: NDArray[np.float64]


def iterate_scheme(f: GridDensity, params: SchemeParams, k_steps: int) -> SchemeRun:
    """k_steps composite steps (see the module docstring) from a probability
    density, recording the cut positions, which estimate the moving
    boundaries of the limiting free boundary problem.  The mass must be 1
    within 1e-10 before each step and after the last one.

    The steps run as one loop over the support window.  The upper side runs
    the lower steps at 1-p on the reflected grid, which it reflects once on
    the way in and once on the way out.  Between steps the loop carries the
    support window, its offset on the (reflected) grid and its mass; a
    GridTooSmallError names the step it happened at.
    """
    if k_steps < 0:
        raise ValueError("k_steps must be non-negative")
    lower = params.side == "lower"
    q = params.p if lower else 1.0 - params.p
    d = params.delta
    cut = q * (1.0 - math.exp(-d))
    n, dx = f.n, f.dx
    x0 = f.x0 if lower else -(f.x0 + n * dx)
    r = _kernel_radius(dx, d)
    window = f.values if lower else f.values[::-1]
    offset, last = _support(window) or (0, -1)
    window, mass = window[offset : last + 1], f.mass
    lefts, rights = np.empty(k_steps), np.empty(k_steps)
    for i in range(k_steps):
        if i and (abs(mass - 1.0) > 5e-11 or cut >= mass * (1.0 - 1e-12)):
            # near the mass check or a cut of all the mass, decide (and
            # report) with the full grid's own sum, which may differ from the
            # window's in the last bits
            mass = float(np.sum(_on_grid(window, offset, n, lower)) * dx)
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(
                "step expects a probability density (mass 1 within 1e-10), "
                f"got mass {mass!r}"
            )
        m = _checked_amount(cut, mass)
        try:
            window, offset, mass, left, right = _lower_step(
                window, offset, x0, dx, n, m, mass, d, r, not lower
            )
        except GridTooSmallError as exc:
            msg = f"at step {i + 1} of {k_steps} (delta={d!r}): {exc}"
            raise GridTooSmallError(msg) from None
        lefts[i] = left if lower else -right
        rights[i] = right if lower else -left
    if k_steps and abs(mass - 1.0) > 5e-11:  # the last step's result, checked alike
        mass = float(np.sum(_on_grid(window, offset, n, lower)) * dx)
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(
                f"step {k_steps} of {k_steps} (delta={d!r}) left mass {mass!r}, "
                "not 1 within 1e-10"
            )
    density = GridDensity(f.x0, dx, _on_grid(window, offset, n, lower)) if k_steps else f
    return SchemeRun(density, lefts, rights)


def _on_grid(window, offset: int, n: int, lower: bool):
    """The window placed at `offset` on a zeroed n-cell grid, reflected back
    for the upper side."""
    out = np.zeros(n)
    out[offset : offset + len(window)] = window
    return out if lower else out[::-1]


def _lower_step(values, offset, x0, dx, n, m, total, d, r, mirrored):
    """Lower step on the support window `values` (first and last cells
    nonzero) at cell `offset` of an n-cell grid: cut m of total from the
    left, diffuse and grow for d, cut back to mass 1 from the right.

    The left cut is an index into the window; diffusion, growth and the
    right cut run on a new window holding the kept cells widened by the
    kernel radius r and one empty cell a side, and the right cut zeroes that
    window's tail in place.  ``mirrored`` says the grid is reflected, so a
    GridTooSmallError names the cells of the original one.

    Returns (window, offset, mass, left cut position, right cut position),
    the window again the support.  The mass is summed over the whole grown
    window: a sum over the trimmed one may differ in the last bits.
    """
    last = len(values) - 1
    j, keep, left_pos = _cut_index(values, x0 + offset * dx, dx, m, total)
    if keep > 0.0:
        kept = j
    elif j < last:  # the cut ends on a cell boundary; skip any gap
        kept = j + 1 + _support(values[j + 1 :])[0]
    else:  # the cut took all the mass
        return np.zeros(0), offset, 0.0, left_pos, x0 + n * dx
    lo, hi = offset + kept, offset + last
    cells = (n - 1 - hi, n - 1 - lo) if mirrored else (lo, hi)
    _check_room(*cells, r, n)
    start = lo - r - 1
    padded = np.zeros(hi - lo + 2 * r + 3)
    padded[r + 1 : r + 2 + hi - lo] = values[kept:]
    if kept == j:
        padded[r + 1] = keep
    mass = float(padded.sum() * dx)
    out = _diffuse(padded, r + 1, r + 1 + hi - lo, r, dx, d, mass)
    out *= math.exp(d)
    grown = float(out.sum() * dx)
    # the right cut is the left cut of the reversed window, on the reflected
    # grid, whose left edge is -(x0 + (start + size) * dx)
    size = len(out)
    x_end = -(x0 + start * dx + size * dx)
    j, keep, pos = _cut_index(out[::-1], x_end, dx, grown - 1.0, grown)
    end = size - 1 - j
    out[end + 1 :] = 0.0
    out[end] = keep
    mass = float(out.sum() * dx)
    # clipping may zero cells from cell 1 on, and a cut that kept nothing of
    # its cell leaves zeros before it; one of all the mass leaves only zeros
    first, last = 1, end
    while last >= first and out[last] == 0.0:
        last -= 1
    while first < last and out[first] == 0.0:
        first += 1
    return out[first : last + 1], start + first, mass, left_pos, -pos


# ---------------------------------------------------------------------------
# comparison functionals


def l1_distance(f: GridDensity, g: GridDensity) -> float:
    """L1 distance of two densities on the same grid."""
    _same_grid(f, g)
    return float(np.sum(np.abs(f.values - g.values)) * f.dx)


def _edge_tails(f: GridDensity) -> NDArray[np.float64]:
    """Mass to the right of every cell edge (length n+1, ends at 0)."""
    rev = np.cumsum(f.values[::-1])[::-1] * f.dx
    return np.concatenate([rev, [0.0]])


def tail_mass(f: GridDensity, a) -> float | NDArray[np.float64]:
    """Mass strictly to the right of position a (cellwise-linear in a)."""
    tails = _edge_tails(f)
    out = np.interp(np.asarray(a, dtype=np.float64), f.edges(), tails)
    return float(out) if np.isscalar(a) else out


def dominates(f: GridDensity, g: GridDensity) -> bool:
    """True iff every right tail of f is at most the matching tail of g + tol.

    The tolerance 1e-9 + 2*dx*max(f,g) absorbs the O(dx) quantile
    discretization of the cut operators.
    """
    _same_grid(f, g)
    return _dominates(f, _edge_tails(f), g, _edge_tails(g))


def _dominates(f: GridDensity, f_tails, g: GridDensity, g_tails) -> bool:
    """:func:`dominates` from the two densities' edge tails."""
    tol = 1e-9 + 2.0 * f.dx * max(float(np.max(f.values)), float(np.max(g.values)))
    return bool(np.all(f_tails <= g_tails + tol))


# ---------------------------------------------------------------------------
# step-halving limit


# L1 width of two disjoint supports, 2 up to the rounding of the unit masses
_L1_CEILING = 2.0 - 1e-9


@dataclass(frozen=True)
class RefineResult:
    """Common-limit extraction by step halving."""

    psi: GridDensity
    width: float
    converged: bool
    n_used: int
    widths: NDArray[np.float64]


def refine_limit(
    f: GridDensity,
    p: float,
    t: float,
    n_max: int = 6,
    tol: float = 1e-2,
) -> RefineResult:
    """Bracket the total-time-t evolution of f between the two schemes.

    Runs both schemes with step t/2^n for n = 0..n_max.  The sandwich is
    checked on the way: lower tails grow, upper tails shrink, and the L1
    width strictly decreases with each halving, unless the earlier width is
    at the ceiling of 2 (disjoint supports).  Returns the midpoint at the
    first n whose width is within tol; if n_max is exhausted, the best
    midpoint is returned with ``converged=False``.  Before any step the
    planned work, 2(2^(n_max+1) - 1) steps and those steps times the grid's
    cells, is checked against MAX_SCHEME_STEPS and MAX_SCHEME_CELL_STEPS, and
    level 0's step, t, against the longest whose mass can pass its check.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"total time must be positive and finite, got t={t!r}")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got tol={tol!r}")
    _check_step(t)
    _check_plan(f.n, n_max)
    widths = []
    prev_lower = prev_upper = prev_tails = None
    best: tuple[GridDensity, GridDensity] | None = None
    n_used = -1
    for n in range(n_max + 1):
        k = 2**n
        delta = t / k
        lower = iterate_scheme(f, SchemeParams(p, delta, "lower"), k).density
        upper = iterate_scheme(f, SchemeParams(p, delta, "upper"), k).density
        width = l1_distance(upper, lower)
        tails = _edge_tails(lower), _edge_tails(upper)
        if not _dominates(lower, tails[0], upper, tails[1]):
            problem = "lower scheme escaped above the upper scheme"
        elif prev_lower is not None and not _dominates(
            prev_lower, prev_tails[0], lower, tails[0]
        ):
            problem = "halving the step lowered the lower scheme"
        elif prev_upper is not None and not _dominates(
            upper, tails[1], prev_upper, prev_tails[1]
        ):
            problem = "halving the step raised the upper scheme"
        elif widths and widths[-1] < _L1_CEILING and not width < widths[-1]:
            # at the L1 ceiling of 2 the supports are disjoint: the width says
            # nothing about the step there and need not decrease
            problem = (
                "sandwich width failed to decrease under halving, "
                f"from {widths[-1]!r} to {width!r}"
            )
        else:
            problem = None
        if problem:
            raise AssertionError(f"at level {n}: {problem}")
        widths.append(width)
        prev_lower, prev_upper, prev_tails = lower, upper, tails
        best = (lower, upper)
        n_used = n
        if width <= tol:
            break
    lower, upper = best
    psi = GridDensity(f.x0, f.dx, 0.5 * (lower.values + upper.values))
    return RefineResult(
        psi=psi,
        width=widths[-1],
        converged=widths[-1] <= tol,
        n_used=n_used,
        widths=np.asarray(widths),
    )


def _check_step(t: float) -> None:
    """Raise unless level 0's one step, of length t, is short enough for its
    mass to pass the check after it."""
    if t > _MAX_STEP:
        raise ValueError(
            f"t={t!r} plans a level-0 scheme step of {t!r}, above the limit of "
            f"{_MAX_STEP:.6g}: a step of length delta rounds away about "
            "e^delta 2^-53 of the unit mass, more than the 1e-10 its mass check "
            "allows"
        )


def _check_plan(cells: int, n_max: int) -> None:
    """Raise unless the steps of levels 0..n_max on both sides, and those
    steps times the grid's cells, are within their caps."""
    # past n_max = 1000 the count is beyond any cap, and beyond a float
    steps = 2 * (2 ** (n_max + 1) - 1) if n_max <= 1000 else math.inf
    if not steps <= MAX_SCHEME_STEPS:
        raise ValueError(
            f"n_max={n_max} plans {steps:.6g} scheme steps, "
            f"above the cap of {MAX_SCHEME_STEPS}"
        )
    if not cells * steps <= MAX_SCHEME_CELL_STEPS:
        raise ValueError(
            f"n_max={n_max} plans {cells * steps:.6g} cell steps ({steps} steps on "
            f"{cells} cells), above the cap of {MAX_SCHEME_CELL_STEPS:.6g}"
        )


# ---------------------------------------------------------------------------
# sampling


def sample_from_density(f: GridDensity, n: int, rng: np.random.Generator):
    """n i.i.d. samples from f by inverting the piecewise-linear CDF."""
    if f.mass <= 0.0:
        raise ValueError("cannot sample from a zero density")
    u = np.maximum(rng.random(n), 1e-16)
    targets = u * f.mass
    prefix = np.cumsum(f.values) * f.dx
    # mass is a pairwise sum and can exceed prefix[-1] by an ulp; clamping
    # the target keeps the searched cell inside the support
    np.minimum(targets, prefix[-1], out=targets)
    idx = np.searchsorted(prefix, targets, side="left")
    idx = np.minimum(idx, f.n - 1)
    below = np.where(idx > 0, prefix[np.maximum(idx - 1, 0)], 0.0)
    denom = f.values[idx] * f.dx
    frac = np.divide(
        targets - below, denom, out=np.ones(n, dtype=np.float64), where=denom > 0.0
    )
    return f.x0 + (idx + np.clip(frac, 0.0, 1.0)) * f.dx

