"""Closed-form travelling wave and the hydrodynamic comparison report."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from npbbm import (
    Barrier,
    GridSpec,
    RandomSource,
    hydrodynamic_report,
    ode_residual,
    travelling_wave,
    wave_barriers,
    wave_density,
    wave_speed,
)
from npbbm import GridDensity
from npbbm.stats import dkw_band

# Speed of the p=0.75 wave, frozen from a 40-digit evaluation of
# sqrt(2 L^2/(L^2+pi^2)) with L = log(3); at that p the defining relation
# reduces to c*R0 = log 3.
SPEED_3_4 = 0.4668282488893254
WIDTH_3_4 = 2.353354346661584


def test_speed_values():
    assert wave_speed(0.5) == 0.0
    assert math.isclose(wave_speed(0.75), SPEED_3_4, rel_tol=1e-12)
    assert wave_speed(0.75) > 0.0 > wave_speed(0.25)


def test_speed_approaches_sqrt2_slowly():
    # The approach to sqrt(2) is logarithmic in 1-p: the exact value at
    # p=0.999999 is sqrt(2)L/sqrt(L^2+pi^2) with L=log(999999), about 1.379.
    c = wave_speed(0.999999)
    assert wave_speed(0.9) < wave_speed(0.99) < c < math.sqrt(2.0)
    assert c > 1.37


def test_speed_antisymmetric():
    # Bitwise on dyadic p, where 1-p round-trips exactly in floats.
    for k in range(1, 128):
        p = k / 256.0
        assert wave_speed(1.0 - p) == -wave_speed(p)
    # within an ulp elsewhere (1-p itself rounds)
    for p in np.linspace(0.01, 0.99, 99):
        assert math.isclose(wave_speed(1.0 - p), -wave_speed(p), rel_tol=1e-13)


def test_speed_domain():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            wave_speed(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_ranges_name_the_value_and_its_limit(bad):
    msg = f"p must lie strictly in (0,1), got p={bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        wave_speed(bad)
    # t_max = nan used to return barriers
    msg = f"t_max must be positive and finite, got t_max={bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        wave_barriers(travelling_wave(0.75), bad)


def test_wave_invariants_on_p_grid():
    for p in np.linspace(0.01, 0.99, 99):
        w = travelling_wave(p)
        assert abs(w.c**2 + w.omega**2 - 2.0) <= 1e-12
        assert abs(w.R0 * w.omega - math.pi) <= 1e-12
        # the defining speed equation
        assert abs(math.exp(-w.c * w.R0) - (1.0 - p) / p) <= 1e-10
        if p != 0.5:
            assert math.copysign(1.0, w.c) == math.copysign(1.0, p - 0.5)


def test_wave_half_is_pure_sine():
    w = travelling_wave(0.5)
    assert w.c == 0.0
    assert math.isclose(w.R0, math.pi / math.sqrt(2.0), rel_tol=1e-15)
    assert math.isclose(w.amplitude, 2.0 * 0.5 / math.sqrt(2.0), rel_tol=1e-15)


def test_profile_boundary_values_and_slopes():
    for p in (0.25, 0.5, 0.75, 0.9):
        w = travelling_wave(p)
        assert math.isclose(w.amplitude * w.omega, 2.0 * p, rel_tol=1e-14)
        right_slope = -w.amplitude * w.omega * math.exp(-w.c * w.R0)
        assert abs(right_slope - 2.0 * (p - 1.0)) <= 1e-10


def test_wave_density_mass_one():
    for p in (0.1, 0.3, 0.5, 0.75, 0.9):
        w = travelling_wave(p)
        grid = GridSpec(-1.0, 1e-3, int((w.R0 + 2.0) / 1e-3))
        rho = wave_density(w, grid)
        assert abs(rho.mass - 1.0) <= 1e-8


def test_wave_density_mass_shift_invariant():
    w = travelling_wave(0.75)
    grid = GridSpec(-6.0, 1e-3, 10_000)
    masses = [wave_density(w, grid, shift=s).mass for s in (-3.0, 0.0, 1.0)]
    assert max(masses) - min(masses) <= 1e-12


def test_wave_density_symmetric_at_half():
    # c=0 makes the profile a pure sine arch, symmetric about R0/2; sample it
    # on a grid symmetric about the same point.
    w = travelling_wave(0.5)
    n = 4000
    dx = (w.R0 + 1.0) / n
    grid = GridSpec(-0.5, dx, n)
    rho = wave_density(w, grid, shift=0.0)
    assert np.max(np.abs(rho.values - rho.values[::-1])) <= 1e-12


def test_wave_density_requires_covering_grid():
    w = travelling_wave(0.75)
    with pytest.raises(ValueError):
        wave_density(w, GridSpec(0.5, 1e-2, 400))  # left edge inside support
    with pytest.raises(ValueError):
        wave_density(w, GridSpec(-1.0, 1e-2, 100))  # stops short of R0


@pytest.mark.parametrize("dx", [0.7, 0.75, 1.0, 3.0])
def test_wave_density_needs_three_cells_across_the_support(dx):
    # the rule ode_residual applies: at p = 1/2, R0 = 2.22 holds three cells
    # of 0.7 but not of 0.75
    w = travelling_wave(0.5)
    grid = GridSpec(-2.0 * dx, dx, math.ceil(w.R0 / dx) + 4)
    coarse = math.floor(w.R0 / dx) < 3
    assert coarse == (dx >= 0.75)
    if not coarse:
        assert wave_density(w, grid).mass == pytest.approx(1.0, abs=1e-12)
        ode_residual(w, dx)
        return
    msg = f"dx too coarse for the wave support: dx={dx!r} leaves fewer than three"
    for build in (lambda: wave_density(w, grid), lambda: ode_residual(w, dx)):
        with pytest.raises(ValueError, match=re.escape(msg) + r".*R0=2\.22"):
            build()


def test_ode_residual_small_and_second_order():
    for p in (0.5, 0.75):
        w = travelling_wave(p)
        coarse = ode_residual(w, 1e-3)
        assert coarse <= 1e-4
        ratio = coarse / ode_residual(w, 5e-4)
        assert 3.5 <= ratio <= 4.5


# ---------------------------------------------------------------------------
# barriers


def test_barrier_interpolation():
    b = Barrier(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, -2.0]))
    assert b.value(0.5) == pytest.approx(1.0)
    assert b.value(2.0) == pytest.approx(0.0)
    # the message names the first time outside the domain, and the domain
    with pytest.raises(ValueError, match=re.escape("t=3.5, outside its time domain [0.0, 3.0]")):
        b.value(3.5)
    with pytest.raises(ValueError, match=re.escape("t=-0.5, outside its time domain")):
        b.value(np.array([1.0, -0.5, 4.0]))


def test_barrier_validation():
    with pytest.raises(ValueError):
        Barrier(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Barrier(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Barrier(np.array([0.0, 1.0]), np.array([1.0]))


def test_wave_barriers_track_the_speed():
    w = travelling_wave(0.75)
    left, right = wave_barriers(w, 2.0)
    assert right.value(0.0) == 0.0
    assert left.value(0.0) == -w.R0
    assert math.isclose(right.value(1.0), SPEED_3_4, rel_tol=1e-12)
    for t in (0.0, 0.7, 2.0):
        assert right.value(t) - left.value(t) == pytest.approx(w.R0, rel=1e-15)
    with pytest.raises(ValueError):
        wave_barriers(w, 0.0)


# ---------------------------------------------------------------------------
# hydrodynamic comparison


def _dyadic_uniform():
    # Uniform on [-1,1] on a symmetric dyadic grid: every quantity in the
    # reflection identities is exactly representable.
    dx = 2.0**-10
    n = 16_384
    values = np.zeros(n)
    lo = int((-1.0 - (-8.0)) / dx)
    hi = int((1.0 - (-8.0)) / dx)
    values[lo:hi] = 0.5
    return GridDensity(-8.0, dx, values)


def test_hydrodynamic_report_fields():
    rho = _dyadic_uniform()
    rep = hydrodynamic_report(0.75, 300, 0.25, 0.05, rho, RandomSource(321))
    assert rep.dkw == pytest.approx(dkw_band(300, 0.01))
    assert 0.0 <= rep.sup_gap <= 1.0
    assert rep.width > 0.0
    assert rep.leftmost < rep.rightmost
    assert rep.left_boundary < rep.right_boundary
    assert rep.gap_left >= 0.0 and rep.gap_right >= 0.0
    assert rep.xs.shape == rep.empirical.shape == rep.lower_tail.shape
    # tails decrease from total mass to zero
    assert rep.empirical[0] == 1.0 and rep.empirical[-1] == 0.0
    assert rep.lower_tail[0] == pytest.approx(1.0, abs=1e-9)
    assert rep.lower_tail[-1] == 0.0


def test_hydrodynamic_report_requires_integer_steps():
    rho = _dyadic_uniform()
    with pytest.raises(ValueError):
        hydrodynamic_report(0.75, 100, 0.23, 0.05, rho, RandomSource(1))
