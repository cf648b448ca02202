"""Grid densities: heat propagation, mass cuts, and the bounding schemes."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import fftconvolve
from scipy.special import erf, erfc

import npbbm
from npbbm import (
    GridDensity,
    GridSpec,
    GridTooSmallError,
    SchemeParams,
    cut_left_amount,
    cut_right_amount,
    dominates,
    gaussian_propagate,
    iterate_scheme,
    plan_grid,
    refine_limit,
    sample_from_density,
    scale,
    tail_mass,
    travelling_wave,
    wave_density,
)
from npbbm.density import (
    MAX_GRID_CELLS,
    _heat_kernel,
    l1_distance,
)

from helpers import gaussian_density, random_bump_density, uniform_density, wave_fixture
from test_reference import trim_left_reference


# ---------------------------------------------------------------------------
# grid plumbing


def test_grid_spec_centers_and_edges():
    spec = GridSpec(0.0, 0.5, 4)
    assert np.allclose(spec.centers(), [0.25, 0.75, 1.25, 1.75])
    assert np.allclose(spec.edges(), [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.0, 4)
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.1, 2)


def test_plan_grid_pads_for_diffusion_and_drift():
    spec = plan_grid(-1.0, 1.0, 4.0, drift=0.5, dx=1e-2)
    assert spec.x0 < -1.0 - 8.0 * 2.0
    assert spec.x0 + spec.n * spec.dx > 1.0 + 8.0 * 2.0 + 2.0


def test_plan_grid_caps_the_cell_count():
    # with no time and dx = 1 the grid spans the support plus four cells
    spec = plan_grid(0.0, MAX_GRID_CELLS - 5.0, 0.0, dx=1.0)
    assert spec.n == MAX_GRID_CELLS
    with pytest.raises(ValueError, match="above the cap"):
        plan_grid(0.0, MAX_GRID_CELLS - 4.0, 0.0, dx=1.0)
    with pytest.raises(ValueError, match="span=nan"):
        plan_grid(0.0, 1.0, math.nan, dx=1e-3)


def test_grid_density_validation():
    with pytest.raises(ValueError):
        GridDensity(0.0, 0.1, np.array([0.0, -1.0, 0.0]))
    with pytest.raises(ValueError):
        GridDensity(0.0, 0.1, np.array([0.0, math.nan, 0.0]))
    with pytest.raises(ValueError):
        GridDensity(0.0, 0.1, np.array([0.0, math.inf, 0.0]))
    with pytest.raises(ValueError):
        GridDensity(0.0, -0.1, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(GridTooSmallError):
        GridDensity(0.0, 0.1, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(GridTooSmallError):
        GridDensity(0.0, 0.1, np.array([0.0, 0.0, 2.0]))


def test_grid_density_mass_and_immutability():
    f = GridDensity(0.0, 0.5, np.array([0.0, 2.0, 1.0, 0.0]))
    assert f.mass == pytest.approx(1.5)
    with pytest.raises(ValueError):
        f.values[1] = 7.0


# ---------------------------------------------------------------------------
# heat propagation


def test_propagate_zero_time_is_identity():
    f = gaussian_density(0.0, 1.0, -8.0, 1e-2, 1600)
    g = gaussian_propagate(f, 0.0)
    assert np.array_equal(g.values, f.values)


def test_propagate_zero_density_stays_zero():
    f = GridDensity(0.0, 0.1, np.zeros(50))
    g = gaussian_propagate(f, 1.0)
    assert np.all(g.values == 0.0)


def test_propagate_gaussian_matches_closed_form():
    # N(0,1) diffused for t=0.5 is N(0,1.5); compare cell averages.
    dx = 1e-3
    n = 32_001
    f = gaussian_density(0.0, 1.0, -16.0, dx, n)
    g = gaussian_propagate(f, 0.5)
    want = gaussian_density(0.0, math.sqrt(1.5), -16.0, dx, n)
    assert np.max(np.abs(g.values - want.values)) <= 1e-6


def test_propagate_preserves_mass():
    f = gaussian_density(0.3, 0.7, -16.0, 1e-2, 3200)
    g = gaussian_propagate(f, 0.8)
    assert abs(g.mass - f.mass) <= 1e-10 * f.mass


def test_propagate_semigroup():
    f = gaussian_density(0.0, 0.5, -16.0, 5e-3, 6400)
    once = gaussian_propagate(f, 0.5)
    twice = gaussian_propagate(gaussian_propagate(f, 0.2), 0.3)
    assert l1_distance(once, twice) <= 1e-8


def test_propagate_raises_when_grid_cannot_hold_tails():
    f = uniform_density(0.2, 0.8, 0.0, 1e-2, 100)
    with pytest.raises(GridTooSmallError):
        gaussian_propagate(f, 1.0)


def _random_support_density(rng, n, first, last, dx=1e-2):
    """Unnormalized density with i.i.d. positive values on cells [first, last]."""
    values = np.zeros(n)
    values[first : last + 1] = rng.uniform(0.1, 2.0, last - first + 1)
    return GridDensity(0.0, dx, values)


@pytest.mark.parametrize("sd_cells", [0.3, 1.2, 2.0, 7.5, 60.0])
def test_propagate_matches_full_grid_fftconvolve(sd_cells):
    # The windowed rfft convolution against scipy's full-grid convolution on
    # random supports; sd < 2 cells takes the narrow (cell-mass) kernel.
    rng = np.random.default_rng(int(10 * sd_cells))
    dx, n = 1e-2, 3000
    t = (sd_cells * dx) ** 2
    r = (len(_heat_kernel(dx, t)) - 1) // 2
    for _ in range(6):
        first = int(rng.integers(r + 1, n // 2))
        last = int(rng.integers(first, n - 2 - r + 1))
        f = _random_support_density(rng, n, first, last, dx)
        got = gaussian_propagate(f, t).values
        want = fftconvolve(f.values, _heat_kernel(dx, t), mode="same")
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)
        assert np.all(got[: first - r] == 0.0) and np.all(got[last + r + 1 :] == 0.0)


def test_narrow_heat_kernel_matches_scipy_erf():
    dx = 1e-2
    for sd in (0.05 * dx, 0.5 * dx, 1.999 * dx):
        kernel = _heat_kernel(dx, sd * sd)
        r = (len(kernel) - 1) // 2
        m = np.arange(1, r + 1)
        a = (m - 0.5) * dx / (sd * math.sqrt(2.0))
        b = (m + 0.5) * dx / (sd * math.sqrt(2.0))
        right = 0.5 * (erfc(a) - erfc(b))
        center = erf(0.5 * dx / (sd * math.sqrt(2.0)))
        want = np.concatenate([right[::-1], [center], right])
        assert np.allclose(kernel, want, rtol=1e-14, atol=1e-300)


def test_propagate_support_at_the_edge_limit():
    # The widened support may reach cell 1 and cell n-2 but not the edge
    # cells; the error names the support, the radius and the grid.
    rng = np.random.default_rng(3)
    dx, n, t = 1e-2, 400, 0.01
    r = (len(_heat_kernel(dx, t)) - 1) // 2
    gaussian_propagate(_random_support_density(rng, n, r + 1, n - 2 - r, dx), t)
    for first, last in ((r, 200), (200, n - 1 - r)):
        f = _random_support_density(rng, n, first, last, dx)
        with pytest.raises(GridTooSmallError) as err:
            gaussian_propagate(f, t)
        msg = str(err.value)
        assert f"[{first}, {last}]" in msg and f"r={r}" in msg and f"{n}-cell" in msg


def test_scale_multiplies_mass():
    f = uniform_density(0.0, 1.0, -0.5, 1e-2, 200)
    g = scale(f, 2.5)
    assert g.mass == pytest.approx(2.5 * f.mass, rel=1e-15)
    assert np.allclose(g.values, 2.5 * f.values)
    with pytest.raises(ValueError):
        scale(f, -1.0)


# ---------------------------------------------------------------------------
# mass cuts


def test_cut_left_amount_uniform_restriction():
    # Cutting all but mass 0.75 of the uniform law on [0,1] from the left
    # leaves the uniform restriction to [0.25, 1].
    f = uniform_density(0.0, 1.0, -0.1, 1e-3, 1202)
    g = cut_left_amount(f, f.mass - 0.75)
    want = uniform_density(0.25, 1.0, -0.1, 1e-3, 1202)
    assert g.mass == pytest.approx(0.75, abs=1e-12)
    assert l1_distance(g, scale(want, 0.75)) <= 1e-9


def test_cut_right_amount_uniform_restriction():
    f = uniform_density(0.0, 1.0, -0.1, 1e-3, 1202)
    g = cut_right_amount(f, f.mass - 0.5)
    want = uniform_density(0.0, 0.5, -0.1, 1e-3, 1202)
    assert g.mass == pytest.approx(0.5, abs=1e-12)
    assert l1_distance(g, scale(want, 0.5)) <= 1e-9


def test_cut_amount_zero_is_identity():
    f = uniform_density(0.0, 1.0, -0.1, 1e-2, 130)
    assert np.array_equal(cut_left_amount(f, 0.0).values, f.values)
    assert np.array_equal(cut_right_amount(f, 0.0).values, f.values)


def test_cut_whole_mass_leaves_zero():
    f = uniform_density(0.0, 1.0, -0.1, 1e-2, 130)
    assert cut_left_amount(f, f.mass).mass == 0.0


def test_cut_rejects_overdraw():
    f = uniform_density(0.0, 1.0, -0.1, 1e-2, 130)
    with pytest.raises(ValueError):
        cut_left_amount(f, f.mass * 1.001)
    with pytest.raises(ValueError):
        cut_right_amount(f, -0.1)
    with pytest.raises(ValueError):
        cut_right_amount(f, f.mass * 1.001)


def test_cut_removes_exact_mass():
    rng = np.random.default_rng(11)
    f = random_bump_density(rng)
    for m in (0.1 * f.mass, 0.5 * f.mass, 0.9 * f.mass):
        assert cut_left_amount(f, m).mass == pytest.approx(f.mass - m, abs=1e-12)
        assert cut_right_amount(f, m).mass == pytest.approx(f.mass - m, abs=1e-12)


# ---------------------------------------------------------------------------
# operator interplay (the lemma suite, small sample; the acceptance test
# repeats it on 200 random densities)


def _lemma_suite(f, g, rng):
    mf, mg = f.mass, g.mass
    a = rng.uniform(0.05, 0.9) * min(mf, mg)
    b = rng.uniform(0.05, 0.9) * min(mf, mg)
    dist = l1_distance(f, g)

    # cut distance in the cut amount
    da = cut_left_amount(f, a)
    db = cut_left_amount(f, b)
    assert abs(l1_distance(da, db) - abs(a - b)) <= 1e-10

    # cuts and diffusion are L1 contractions
    assert l1_distance(cut_left_amount(f, a), cut_left_amount(g, a)) <= dist + 1e-10
    assert l1_distance(cut_right_amount(f, a), cut_right_amount(g, a)) <= dist + 1e-10
    t = rng.uniform(0.05, 0.5)
    assert l1_distance(gaussian_propagate(f, t), gaussian_propagate(g, t)) <= dist + 1e-10

    # opposite-side cuts commute when they cannot collide
    ab = rng.uniform(0.05, 0.45, 2) * mf
    lr = cut_right_amount(cut_left_amount(f, ab[0]), ab[1])
    rl = cut_left_amount(cut_right_amount(f, ab[1]), ab[0])
    assert np.max(np.abs(lr.values - rl.values)) <= 1e-12 * max(1.0, np.max(f.values))

    # same-side cuts add up
    both = cut_left_amount(cut_left_amount(f, a), min(b, mf - a - 0.01))
    joint = cut_left_amount(f, a + min(b, mf - a - 0.01))
    assert abs(both.mass - joint.mass) <= 1e-12
    assert l1_distance(both, joint) <= 1e-10

    # cutting commutes with scaling (amount capped so neither side overdraws)
    c = rng.uniform(0.5, 2.0)
    a_sc = min(a, 0.9 * c * mf)
    scaled = cut_left_amount(scale(f, c), a_sc)
    unscaled = scale(cut_left_amount(f, a_sc / c), c)
    assert l1_distance(scaled, unscaled) <= 1e-10

    # cut-then-diffuse is dominated by diffuse-then-cut (left cuts)
    early = gaussian_propagate(cut_left_amount(f, a), t)
    late = cut_left_amount(gaussian_propagate(f, t), a)
    assert dominates(early, late)


def test_operator_lemma_suite_small():
    rng = np.random.default_rng(123)
    for _ in range(10):
        f = random_bump_density(rng)
        g = random_bump_density(rng)
        _lemma_suite(f, g, rng)


# ---------------------------------------------------------------------------
# scheme steps


def _one_step(f, params):
    """One scheme step: (density, left cut, right cut)."""
    run = iterate_scheme(f, params, 1)
    return run.density, run.left_cuts[0], run.right_cuts[0]


def test_step_requires_unit_mass():
    f = uniform_density(0.0, 1.0, -8.0, 1e-2, 1700)
    with pytest.raises(ValueError):
        iterate_scheme(scale(f, 1.5), SchemeParams(0.5, 0.1, "lower"), 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_ranges_name_the_value_and_its_limit(bad):
    f = uniform_density(0.0, 1.0, -8.0, 1e-2, 1700)
    msg = f"p must lie strictly in (0,1), got p={bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        SchemeParams(bad, 0.1, "lower")
    # delta = nan used to fail in step with "cannot convert float NaN to
    # integer", delta = inf with an OverflowError
    msg = f"delta must be positive and finite, got delta={bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        SchemeParams(0.5, bad, "upper")
    msg = f"total time must be positive and finite, got t={bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        refine_limit(f, 0.5, bad)
    msg = f"time must be non-negative and finite, got t={bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        gaussian_propagate(f, bad)


@pytest.mark.parametrize(
    "cut, msg",
    [
        (cut_left_amount, "cut amount must be non-negative, got m=nan"),
        (cut_right_amount, "cut amount must be non-negative, got m=nan"),
        (scale, "scale factor must be finite and non-negative, got c=nan"),
    ],
)
def test_a_nan_amount_or_factor_is_named(cut, msg):
    # each used to fail in GridDensity with "density values must be finite
    # and non-negative", scale after numpy's "invalid value" warning
    f = uniform_density(0.0, 1.0, -8.0, 1e-2, 1700)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(msg)):
            cut(f, math.nan)


def test_step_names_the_mass_it_rejects():
    f = scale(uniform_density(0.0, 1.0, -8.0, 1e-2, 1700), 1.0 + 2e-10)
    with pytest.raises(ValueError, match=rf"within 1e-10\), got mass {f.mass!r}"):
        iterate_scheme(f, SchemeParams(0.5, 0.1, "lower"), 1)


@pytest.mark.parametrize("side", ["lower", "upper"])
@pytest.mark.parametrize("k", [1, 3])
def test_last_step_must_leave_unit_mass(k, side):
    # a step of 25 grows the mass by e^25 and rounds away about 5e-6 of it:
    # the second step's input check catches that, and a run of one step
    # used to return it as its result
    f = uniform_density(-1.0, 1.0, -150.0, 0.25, 1201)
    if k == 1:
        msg = r"^step 1 of 1 \(delta=25\.0\) left mass 1\.00000\d+, not 1 within 1e-10$"
    else:
        msg = r"^step expects a probability density \(mass 1 within 1e-10\)"
    with pytest.raises(ValueError, match=msg):
        iterate_scheme(f, SchemeParams(0.5, 25.0, side), k)


@pytest.mark.parametrize("t", [14.0, 40.0, 710.0])
def test_refine_limit_refuses_a_step_too_long_for_its_mass_check(t):
    # e^t 2^-53 of the unit mass rounds away in level 0's one step: at
    # t = 40 all of it, and t = 710 overflowed e^t
    _, rho, _, _ = wave_fixture(0.75, 0.5, 1e-2)
    msg = f"t={t!r} plans a level-0 scheme step of {t!r}, above the limit of 13.7109"
    with pytest.raises(ValueError, match=re.escape(msg)):
        refine_limit(rho, 0.75, t, n_max=1)


def test_step_tiny_delta_is_near_identity():
    _, rho, _, _ = wave_fixture(0.75, 1.0, dx=1e-3)
    res = iterate_scheme(rho, SchemeParams(0.75, 1e-4, "lower"), 1)
    assert l1_distance(res.density, rho) <= 0.01


def test_step_internal_mass_bookkeeping():
    # Lower side: after the left cut and the e^delta growth the mass is
    # exactly e^d (1 - p (1 - e^{-d})); the final trim returns it to 1.  The
    # step is that composition of the public operators.
    _, rho, _, _ = wave_fixture(0.75, 1.0, dx=1e-3)
    d, p = 0.1, 0.75
    density, left, right = _one_step(rho, SchemeParams(p, d, "lower"))
    grown = cut_left_amount(rho, p * (1.0 - math.exp(-d)))
    grown = scale(gaussian_propagate(grown, d), math.exp(d))
    expected = math.exp(d) * (1.0 - p * (1.0 - math.exp(-d)))
    assert grown.mass == pytest.approx(expected, abs=1e-10)
    assert l1_distance(density, cut_right_amount(grown, grown.mass - 1.0)) <= 1e-12
    assert density.mass == pytest.approx(1.0, abs=1e-10)
    assert left < right


def test_step_wave_advances_by_speed_delta():
    # One lower step moves the travelling-wave profile by about c*delta; the
    # L1 gap is controlled by the one-step sandwich bound 2(e^d - 1)e^d.
    w, rho, _, _ = wave_fixture(0.75, 1.0, dx=1e-3)
    d = 0.05
    res = iterate_scheme(rho, SchemeParams(0.75, d, "lower"), 1)
    shifted = wave_density(w, rho.spec, shift=-w.R0 + w.c * d)
    bound = 2.0 * (math.exp(d) - 1.0) * math.exp(d)
    assert l1_distance(res.density, shifted) <= bound + 1e-3


@pytest.mark.parametrize("p", [0.125, 0.25, 0.5, 0.75, 0.875])
def test_scheme_step_mirror_identity_exact(p):
    # On a dyadic grid the reflection x -> -x maps cell edges onto cell edges
    # without rounding, and 1 - (1 - p) == p, so the upper step at 1-p on the
    # reflected density must be the reflected lower step at p bit for bit.
    rng = np.random.default_rng(int(8 * p))
    x0, dx, n = -16.0, 2.0**-9, 16001
    for _ in range(8):
        bump = random_bump_density(rng, x0, dx, n)
        f = GridDensity(x0, dx, bump.values / bump.mass)
        refl = GridDensity(-(x0 + n * dx), dx, f.values[::-1])
        d = float(rng.uniform(0.01, 0.5))
        lo, lo_left, lo_right = _one_step(f, SchemeParams(p, d, "lower"))
        hi, hi_left, hi_right = _one_step(refl, SchemeParams(1.0 - p, d, "upper"))
        assert np.array_equal(hi.values, lo.values[::-1])
        assert hi_left == -lo_right
        assert hi_right == -lo_left


def _full_grid_lower_step(values, x0, dx, q, d, total):
    """The lower step on the whole grid, diffusing with scipy's fftconvolve.

    Returns (values, left cut, right cut) and, for each cut, the density of
    the cell it falls in: a cut position moves by the mass
    rounding divided by that density.
    """
    v1, left = trim_left_reference(values, x0, dx, q * (1.0 - math.exp(-d)), total)
    kernel = _heat_kernel(dx, d)
    r = (len(kernel) - 1) // 2
    nz = np.flatnonzero(v1)
    conv = fftconvolve(v1, kernel, mode="same")
    conv[: nz[0] - r] = 0.0
    conv[nz[-1] + r + 1 :] = 0.0
    grown = np.maximum(conv, 0.0) * math.exp(d)
    mass = float(np.sum(grown) * dx)
    x_end = -(x0 + len(grown) * dx)
    v2, right = trim_left_reference(grown[::-1], x_end, dx, mass - 1.0, mass)
    v2, right = v2[::-1], -right

    def cell(pos):
        return min(int((pos - x0) / dx), len(values) - 1)

    return (v2, left, right), (values[cell(left)], grown[cell(right)])


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_step_matches_full_grid_reference(side):
    # Rounding in the mass sums moves the value of each cut cell by about
    # 1e-16 / dx, so values are compared as cell masses (value * dx).
    rng = np.random.default_rng(17 if side == "lower" else 18)
    for d in (1e-6, 1e-3, 0.05, 0.4):
        bump = random_bump_density(rng)
        f = GridDensity(bump.x0, bump.dx, bump.values / bump.mass)
        p = float(rng.uniform(0.1, 0.9))
        density, got_left, got_right = _one_step(f, SchemeParams(p, d, side))
        if side == "lower":
            (v, left, right), dens = _full_grid_lower_step(
                f.values, f.x0, f.dx, p, d, f.mass
            )
        else:
            x0 = -(f.x0 + f.n * f.dx)
            (v, left, right), dens = _full_grid_lower_step(
                f.values[::-1], x0, f.dx, 1.0 - p, d, f.mass
            )
            v, left, right, dens = v[::-1], -right, -left, dens[::-1]
        assert np.max(np.abs(density.values - v)) * f.dx <= 1e-13
        tails = np.cumsum(density.values) - np.cumsum(v)
        assert np.max(np.abs(tails)) * f.dx <= 1e-13
        assert abs(got_left - left) * dens[0] <= 1e-13
        assert abs(got_right - right) * dens[1] <= 1e-13


def test_step_checks_the_edge_after_the_first_cut():
    # A faint shoulder reaches within r cells of the left edge.  The lower
    # step's left cut removes it, so that step fits; the upper step cuts on
    # the right first, keeps the shoulder, and must raise, naming cells of
    # the original grid.
    rng = np.random.default_rng(21)
    dx, n, d = 1e-2, 600, 0.04
    r = (len(_heat_kernel(dx, d)) - 1) // 2
    values = np.zeros(n)
    values[50:250] = 1e-6
    values[250 : n - 1 - r] = rng.uniform(0.5, 1.0, n - 1 - r - 250)
    f = GridDensity(0.0, dx, values / (np.sum(values) * dx))
    lower = iterate_scheme(f, SchemeParams(0.5, d, "lower"), 1)
    assert lower.density.mass == pytest.approx(1.0)
    with pytest.raises(GridTooSmallError) as err:
        iterate_scheme(f, SchemeParams(0.5, d, "upper"), 1)
    msg = str(err.value)
    assert "support cells [50, " in msg and f"r={r}" in msg and f"{n}-cell" in msg
    assert "at step 1 of 1 (delta=0.04)" in msg
    # in a run the error names the step and the run's length
    with pytest.raises(GridTooSmallError, match=r"^at step 1 of 5 \(delta=0\.04\): "):
        iterate_scheme(f, SchemeParams(0.5, d, "upper"), 5)


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, npbbm.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    # the package directory the suite imports, wherever pytest runs from
    src = str(Path(npbbm.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_iterate_zero_steps_identity():
    _, rho, _, _ = wave_fixture(0.6, 1.0, dx=1e-2)
    run = iterate_scheme(rho, SchemeParams(0.6, 0.1, "upper"), 0)
    assert np.array_equal(run.density.values, rho.values)


def test_iterate_sandwich_bound_unit_time():
    # Ten steps of size 0.1: the lower/upper gap is below 2(e^d - 1)e^{kd}.
    _, rho, _, _ = wave_fixture(0.75, 1.0, dx=1e-3)
    d, k = 0.1, 10
    lo = iterate_scheme(rho, SchemeParams(0.75, d, "lower"), k)
    hi = iterate_scheme(rho, SchemeParams(0.75, d, "upper"), k)
    bound = 2.0 * (math.exp(d) - 1.0) * math.exp(k * d)
    assert l1_distance(lo.density, hi.density) <= bound + 1e-3
    assert dominates(lo.density, hi.density)


def test_iterate_halving_delta_tightens_both_sides():
    # S(d)-lower <= S(d/2)-lower <= S(d/2)-upper <= S(d)-upper at equal time.
    _, rho, _, _ = wave_fixture(0.75, 0.5, dx=1e-3)
    t = 0.5
    lo_coarse = iterate_scheme(rho, SchemeParams(0.75, t / 4, "lower"), 4).density
    lo_fine = iterate_scheme(rho, SchemeParams(0.75, t / 8, "lower"), 8).density
    hi_fine = iterate_scheme(rho, SchemeParams(0.75, t / 8, "upper"), 8).density
    hi_coarse = iterate_scheme(rho, SchemeParams(0.75, t / 4, "upper"), 4).density
    assert dominates(lo_coarse, lo_fine)
    assert dominates(lo_fine, hi_fine)
    assert dominates(hi_fine, hi_coarse)


def test_iterate_records_cut_positions():
    _, rho, _, _ = wave_fixture(0.75, 1.0, dx=1e-3)
    run = iterate_scheme(rho, SchemeParams(0.75, 0.1, "lower"), 5)
    assert run.left_cuts.shape == (5,)
    assert np.all(run.left_cuts < run.right_cuts)
    # the wave drifts right at speed c > 0, so the cuts drift right too
    assert run.left_cuts[-1] > run.left_cuts[0]


# ---------------------------------------------------------------------------
# comparison functionals


def test_tail_mass_endpoints_and_midpoint():
    f = uniform_density(0.0, 1.0, -0.1, 1e-3, 1202)
    assert tail_mass(f, -5.0) == pytest.approx(f.mass, abs=1e-12)
    assert tail_mass(f, 5.0) == 0.0
    assert tail_mass(f, 0.5) == pytest.approx(0.5, abs=1e-6)


def test_l1_distance_examples():
    f = uniform_density(0.0, 1.0, -0.1, 1e-3, 1202)
    g = uniform_density(0.5, 1.5, -0.1, 1e-3, 1702)
    assert l1_distance(f, f) == 0.0
    with pytest.raises(ValueError):
        l1_distance(f, g)  # different grids


def test_dominates_examples():
    f = uniform_density(0.0, 1.0, -0.1, 1e-3, 1702)
    g = uniform_density(0.5, 1.5, -0.1, 1e-3, 1702)
    assert dominates(f, g)
    assert not dominates(g, f)
    assert dominates(f, f)


# ---------------------------------------------------------------------------
# refinement limit


def test_refine_limit_wave_converges_to_shifted_wave():
    w, rho, _, _ = wave_fixture(0.75, 0.5, dx=1e-3)
    t = 0.5
    result = refine_limit(rho, 0.75, t, n_max=7, tol=1e-2)
    assert result.converged
    assert result.width <= 1e-2
    assert np.all(np.diff(result.widths) < 0.0)
    shifted = wave_density(w, rho.spec, shift=-w.R0 + w.c * t)
    assert l1_distance(result.psi, shifted) <= result.width + 2.0 * rho.dx


@pytest.mark.parametrize(
    "n_max, dx, plan",
    [
        (22, 0.05, "plans 1.67772e+07 scheme steps, above the cap of 10000000"),
        (10**6, 0.05, "plans inf scheme steps, above the cap of 10000000"),
        (
            16,
            1e-4,
            "plans 5.05609e+10 cell steps (262142 steps on 192876 cells), "
            "above the cap of 3e+10",
        ),
    ],
    ids=["steps", "steps-beyond-a-float", "cell-steps"],
)
def test_refine_limit_checks_its_plan_before_any_step(n_max, dx, plan, monkeypatch):
    def no_steps(*args):
        raise AssertionError("stepped before the plan was checked")

    monkeypatch.setattr(npbbm.density, "_lower_step", no_steps)
    w = travelling_wave(0.75)
    rho = wave_density(w, plan_grid(-w.R0, 0.0, 1.0, drift=w.c, dx=dx), shift=-w.R0)
    with pytest.raises(ValueError, match=re.escape(f"n_max={n_max} {plan}")):
        refine_limit(rho, 0.75, 1.0, n_max=n_max)
    # one level fewer is within both caps, and steps
    with pytest.raises(AssertionError, match="stepped before"):
        refine_limit(rho, 0.75, 1.0, n_max=min(n_max, 22) - 1)


def test_refine_limit_reports_failure_honestly():
    _, rho, _, _ = wave_fixture(0.75, 0.5, dx=1e-3)
    result = refine_limit(rho, 0.75, 0.5, n_max=1, tol=1e-6)
    assert not result.converged
    assert result.width > 1e-6


# ---------------------------------------------------------------------------
# sampling


def test_sampling_inverse_cdf_matches_law():
    f = uniform_density(0.0, 1.0, -0.1, 1e-3, 1202)
    rng = np.random.default_rng(77)
    xs = sample_from_density(f, 20_000, rng)
    assert np.all(xs >= 0.0) and np.all(xs <= 1.0)
    # DKW at 99%: empirical CDF within 0.0163 of the true CDF
    grid = np.linspace(0.05, 0.95, 19)
    emp = np.searchsorted(np.sort(xs), grid) / len(xs)
    assert np.max(np.abs(emp - grid)) <= math.sqrt(math.log(2 / 0.01) / (2 * 20_000))


def test_sampling_deterministic_given_generator():
    f = gaussian_density(0.0, 1.0, -8.0, 1e-2, 1600)
    a = sample_from_density(f, 100, np.random.default_rng(5))
    b = sample_from_density(f, 100, np.random.default_rng(5))
    assert np.array_equal(a, b)
