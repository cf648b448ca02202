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

Densities are nonnegative cell-centered samples on a uniform grid.  The
support must stay inside the grid interior (first and last cells exactly
zero); operations that would push mass past the edge raise
:class:`GridTooSmallError` rather than silently losing it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "GridTooSmallError",
    "MAX_GRID_CELLS",
    "GridSpec",
    "GridDensity",
    "SchemeParams",
    "StepResult",
    "SchemeRun",
    "RefineResult",
    "grid_cells",
    "plan_grid",
    "gaussian_propagate",
    "scale",
    "cut_left_keep",
    "cut_right_keep",
    "cut_left_amount",
    "cut_right_amount",
    "step",
    "iterate_scheme",
    "l1_distance",
    "tail_mass",
    "dominates",
    "refine_limit",
    "sample_from_density",
    "save_density",
    "load_density",
]

# Relative slack accepted when a requested cut mass overshoots the actual
# mass through float rounding (e.g. keep-mass 1.0 against a mass 1-1ulp).
_CUT_SLACK = 1e-9

# Largest grid a step size may plan (2^22 cells, 32 MiB a float64 array); the
# largest grid the shipped configs use has 19 293 cells.
MAX_GRID_CELLS = 1 << 22


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
    pad_sigmas: float = 8.0,
) -> GridSpec:
    """Grid sized so diffusion over total_time plus drift stays interior.

    Pads the initial support by pad_sigmas*sqrt(total_time) + |drift|*total_time
    on each side; at eight sigmas the stray Gaussian tail is below 1e-14.
    """
    if support_hi < support_lo:
        raise ValueError("empty support")
    pad = pad_sigmas * math.sqrt(max(total_time, 0.0)) + abs(drift) * total_time
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
    mass: float = None  # type: ignore[assignment]  # derived in __post_init__

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
    """Half-width in cells of the heat kernel truncated at 8 standard deviations."""
    return max(1, int(math.ceil(8.0 * math.sqrt(t) / dx)))


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
    if t < 0.0:
        raise ValueError("time must be non-negative")
    if t == 0.0:
        return f
    support = _support(f.values)
    if support is None:
        return f
    first, last = support
    r = _kernel_radius(f.dx, t)
    _check_room(first, last, r, f.n)
    size = last - first + 1 + 2 * r
    nfft = _fft_size(size)
    spectrum = np.fft.rfft(f.values[first : last + 1], nfft)
    spectrum *= _kernel_spectrum(f.dx, t, nfft)
    out = np.zeros(f.n)
    window = out[first - r : last + r + 1]
    window[:] = np.fft.irfft(spectrum, nfft)[:size]
    np.maximum(window, 0.0, out=window)
    new_mass = float(np.sum(window) * f.dx)
    if f.mass - new_mass > 1e-12 * f.mass:
        raise GridTooSmallError(
            f"mass {f.mass!r} fell to {new_mass!r} after diffusing for t={t!r}: "
            "more than 1e-12 of it left the grid"
        )
    if abs(new_mass - f.mass) > 1e-10 * f.mass:
        raise AssertionError("heat-kernel mass drift exceeded 1e-10")
    return GridDensity(f.x0, f.dx, out)


def scale(f: GridDensity, c: float) -> GridDensity:
    """Pointwise multiplication by c >= 0; mass scales by c."""
    if c < 0.0:
        raise ValueError("scale factor must be non-negative")
    return GridDensity(f.x0, f.dx, f.values * c)


# ---------------------------------------------------------------------------
# mass cuts


def _trim_left(values: NDArray[np.float64], x0: float, dx: float, m: float, total: float):
    """Remove mass m from the left; returns (values, sub-cell cut position).

    The cell containing the cut keeps a proportional share of its value so
    the removed mass is exact; the position where the cumulative mass equals
    m is reported for boundary tracking.
    """
    n = len(values)
    if m <= 0.0:
        nz = np.flatnonzero(values)
        return values.copy(), x0 + (nz[0] if nz.size else 0) * dx
    if m >= total:
        nz = np.flatnonzero(values)
        pos = x0 + ((nz[-1] + 1) if nz.size else n) * dx
        return np.zeros(n), pos
    prefix = np.cumsum(values) * dx
    j = int(np.searchsorted(prefix, m, side="left"))
    j = min(j, n - 1)
    part = float(np.sum(values[: j + 1]) * dx)  # pairwise sum: mass of cells 0..j
    out = values.copy()
    out[:j] = 0.0
    out[j] = min(max(part - m, 0.0) / dx, values[j])
    below = part - values[j] * dx
    if values[j] > 0.0:
        pos = x0 + j * dx + min(max((m - below) / values[j], 0.0), dx)
    else:
        pos = x0 + j * dx
    return out, pos


def _trim_right(values: NDArray[np.float64], x0: float, dx: float, m: float, total: float):
    """Mirror of :func:`_trim_left`: remove mass m from the right.

    Runs :func:`_trim_left` on the reflected grid, whose cells are reversed
    and whose left edge is -(x0 + n*dx), and reflects the result back.
    """
    out, pos = _trim_left(values[::-1], -(x0 + len(values) * dx), dx, m, total)
    return out[::-1], -pos


def _checked_amount(f: GridDensity, m: float, what: str) -> float:
    if m < 0.0:
        raise ValueError(f"{what} must be non-negative")
    if m > f.mass * (1.0 + _CUT_SLACK) + 1e-300:
        raise ValueError(f"{what} exceeds the available mass {f.mass!r}")
    return min(m, f.mass)


def cut_left_amount(f: GridDensity, m: float) -> GridDensity:
    """Remove exactly mass m from the left (D-type cut)."""
    out, _ = _trim_left(f.values, f.x0, f.dx, _checked_amount(f, m, "cut amount"), f.mass)
    return GridDensity(f.x0, f.dx, out)


def cut_right_amount(f: GridDensity, m: float) -> GridDensity:
    """Remove exactly mass m from the right (D-type cut)."""
    out, _ = _trim_right(f.values, f.x0, f.dx, _checked_amount(f, m, "cut amount"), f.mass)
    return GridDensity(f.x0, f.dx, out)


def cut_left_keep(f: GridDensity, k: float) -> GridDensity:
    """Trim from the left until exactly mass k remains (C-type cut)."""
    k = _checked_amount(f, k, "kept mass")
    out, _ = _trim_left(f.values, f.x0, f.dx, f.mass - k, f.mass)
    return GridDensity(f.x0, f.dx, out)


def cut_right_keep(f: GridDensity, k: float) -> GridDensity:
    """Trim from the right until exactly mass k remains (C-type cut)."""
    k = _checked_amount(f, k, "kept mass")
    out, _ = _trim_right(f.values, f.x0, f.dx, f.mass - k, f.mass)
    return GridDensity(f.x0, f.dx, out)


# ---------------------------------------------------------------------------
# composite scheme steps


@dataclass(frozen=True)
class SchemeParams:
    """One-step parameters of a bounding scheme."""

    p: float
    delta: float
    side: Literal["lower", "upper"]

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly in (0,1)")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.side not in ("lower", "upper"):
            raise ValueError("side must be 'lower' or 'upper'")


@dataclass(frozen=True)
class StepResult:
    """Post-step density plus the recorded sub-cell cut positions."""

    density: GridDensity
    left_cut: float
    right_cut: float
    post_scale_mass: float


def step(f: GridDensity, params: SchemeParams) -> StepResult:
    """One composite scheme step on a probability density.

    Lower side: left cut to mass 1 - p(1-e^{-d}), diffuse for d, grow by e^d,
    right cut back to mass 1.  Upper side: the lower step at 1-p on the
    reflected grid, reflected back.  The positions of the two cuts estimate
    the moving boundaries of the limiting free boundary problem.
    """
    if abs(f.mass - 1.0) > 1e-10:
        raise ValueError("step expects a probability density (mass 1 within 1e-10)")
    d = params.delta
    lower = params.side == "lower"
    q = params.p if lower else 1.0 - params.p
    m = _checked_amount(f, q * (1.0 - math.exp(-d)), "cut amount")
    if lower:
        v, left_pos, right_pos, grown = _lower_step(f.values, f.x0, f.dx, m, f.mass, d)
        return StepResult(GridDensity(f.x0, f.dx, v), left_pos, right_pos, grown)
    x0 = -(f.x0 + f.n * f.dx)
    v, left_pos, right_pos, grown = _lower_step(
        f.values[::-1], x0, f.dx, m, f.mass, d, mirrored=True
    )
    return StepResult(GridDensity(f.x0, f.dx, v[::-1]), -right_pos, -left_pos, grown)


def _lower_step(
    values, x0: float, dx: float, m: float, total: float, d: float, mirrored=False
):
    """Lower step on raw values: cut m of total from the left, diffuse and
    grow for d, cut back to mass 1 from the right.

    Only the support is touched.  The left cut runs on the nonzero slice;
    diffusion, growth and the right cut run on a zero-padded window holding
    the trimmed support widened by the kernel radius r and one empty cell a
    side, which is then written into a zeroed full grid.  ``mirrored`` says
    the values are a reflected grid, so a GridTooSmallError names the cells
    of the original one.

    Returns (values, left cut position, right cut position, grown mass).
    """
    n = len(values)
    first, last = _support(values)
    v1, left_pos = _trim_left(values[first : last + 1], x0 + first * dx, dx, m, total)
    support = _support(v1)
    if support is None:  # the cut took all the mass
        return np.zeros(n), left_pos, x0 + n * dx, 0.0
    lo, hi = first + support[0], first + support[1]
    r = _kernel_radius(dx, d)
    cells = (n - 1 - hi, n - 1 - lo) if mirrored else (lo, hi)
    _check_room(*cells, r, n)
    start = lo - r - 1
    window = np.zeros(hi - lo + 2 * r + 3)
    window[r + 1 : r + 2 + hi - lo] = v1[support[0] : support[1] + 1]
    wx0 = x0 + start * dx
    scaled = scale(gaussian_propagate(GridDensity(wx0, dx, window), d), math.exp(d))
    v2, right_pos = _trim_right(scaled.values, wx0, dx, scaled.mass - 1.0, scaled.mass)
    out = np.zeros(n)
    out[start : start + len(v2)] = v2
    return out, left_pos, right_pos, scaled.mass


@dataclass(frozen=True)
class SchemeRun:
    """k-step iteration record: final density plus per-step diagnostics."""

    density: GridDensity
    masses: NDArray[np.float64]
    post_scale_masses: NDArray[np.float64]
    left_cuts: NDArray[np.float64]
    right_cuts: NDArray[np.float64]


def iterate_scheme(f: GridDensity, params: SchemeParams, k_steps: int) -> SchemeRun:
    """Apply `step` k_steps times, recording masses and cut positions."""
    if k_steps < 0:
        raise ValueError("k_steps must be non-negative")
    masses = np.empty(k_steps)
    post_scale = np.empty(k_steps)
    lefts = np.empty(k_steps)
    rights = np.empty(k_steps)
    cur = f
    for i in range(k_steps):
        res = step(cur, params)
        cur = res.density
        masses[i] = cur.mass
        post_scale[i] = res.post_scale_mass
        lefts[i] = res.left_cut
        rights[i] = res.right_cut
    return SchemeRun(cur, masses, post_scale, lefts, rights)


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


def dominates(f: GridDensity, g: GridDensity, tol: float | None = None) -> bool:
    """True iff every right tail of f is at most the matching tail of g + tol.

    The default tolerance 1e-9 + 2*dx*max(f,g) absorbs the O(dx) quantile
    discretization of the cut operators.
    """
    _same_grid(f, g)
    if tol is None:
        tol = 1e-9 + 2.0 * f.dx * max(
            float(np.max(f.values)), float(np.max(g.values))
        )
    return bool(np.all(_edge_tails(f) <= _edge_tails(g) + tol))


# ---------------------------------------------------------------------------
# step-halving limit


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
    width strictly decreases with each halving.  Returns the midpoint at the
    first n whose width is within tol; if n_max is exhausted, the best
    midpoint is returned with ``converged=False``.
    """
    if t <= 0.0:
        raise ValueError("total time must be positive")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    widths = []
    prev_lower = prev_upper = None
    best: tuple[GridDensity, GridDensity] | None = None
    n_used = -1
    for n in range(n_max + 1):
        k = 2**n
        delta = t / k
        lower = iterate_scheme(f, SchemeParams(p, delta, "lower"), k).density
        upper = iterate_scheme(f, SchemeParams(p, delta, "upper"), k).density
        if not dominates(lower, upper):
            raise AssertionError("lower scheme escaped above the upper scheme")
        if prev_lower is not None:
            if not dominates(prev_lower, lower):
                raise AssertionError("halving the step lowered the lower scheme")
            if not dominates(upper, prev_upper):
                raise AssertionError("halving the step raised the upper scheme")
        width = l1_distance(upper, lower)
        if widths and not width < widths[-1]:
            raise AssertionError("sandwich width failed to decrease under halving")
        widths.append(width)
        prev_lower, prev_upper = lower, upper
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


# ---------------------------------------------------------------------------
# sampling and I/O


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


def save_density(f: GridDensity, path) -> None:
    """Write a density as a JSON header line plus x,value CSV rows.

    All floats carry 17 significant digits, enough to reproduce the double-
    precision values bit for bit on reload.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            '{"x0": %s, "dx": %s, "count": %d, "mass": %s}\n'
            % (format(f.x0, ".17g"), format(f.dx, ".17g"), f.n, format(f.mass, ".17g"))
        )
        fh.write("x,value\n")
        for x, v in zip(f.centers(), f.values):
            fh.write(f"{x:.17g},{v:.17g}\n")


def load_density(path) -> GridDensity:
    """Inverse of :func:`save_density`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if fh.readline().strip() != "x,value":
            raise ValueError("malformed density file: missing x,value header")
        values = np.array(
            [float(line.split(",")[1]) for line in fh if line.strip()],
            dtype=np.float64,
        )
    if len(values) != int(header["count"]):
        raise ValueError("malformed density file: row count mismatch")
    out = GridDensity(float(header["x0"]), float(header["dx"]), values)
    if abs(out.mass - float(header["mass"])) > 1e-12 * max(1.0, out.mass):
        raise ValueError("density file mass header disagrees with the values")
    return out
