"""End-to-end acceptance suite.

One test per advertised guarantee; run with ``pytest -v tests/test_acceptance.py``
to get one pass/fail line per guarantee.  Statistical checks use frozen seeds
and 3-standard-error bands around independently derived reference values.
"""

from __future__ import annotations

import math

import numpy as np

from npbbm import (
    Barrier,
    GridDensity,
    PathParams,
    RandomSource,
    SchemeParams,
    couple_simulate,
    estimate_speed,
    exit_statistics,
    hydrodynamic_report,
    iterate_scheme,
    ode_residual,
    plan_grid,
    refine_limit,
    representation_check,
    run_bounds,
    sample_from_density,
    simulate,
    small_delta_flux,
    travelling_wave,
    wave_density,
    wave_speed,
)
from npbbm.density import dominates, l1_distance
from npbbm.particles import _map_replicas
from npbbm.randomness import TAG_INITIAL

from helpers import mean_and_se, random_bump_density, wave_fixture
from test_density import _lemma_suite

MASTER = 20260815

# Closed-form speed at p = 3/4: with L = log 3, c = sqrt(2 L^2 / (L^2 + pi^2)),
# evaluated once at 50-digit precision and frozen.
SPEED_3_4 = 0.4668282488893254

# Exit masses for the travelling-wave fixture at horizon t: the wave is a
# stationary survival profile, so P(exit by t) = (1 - e^{-t}) split p : 1-p
# between the barriers and P(survive) = e^{-t}.  Frozen for p = 3/4, t = 1.
EXIT_LEFT_3_4 = 0.47409041912141825
EXIT_RIGHT_3_4 = 0.15803013970713942
SURVIVE_T1 = 0.36787944117144233

# One-sided benchmark: P(a standard Brownian path from 1 hits 0 by t = 1)
# equals 2 Phi(-1).
ONE_SIDED = 0.3173105078629141


def _point_mass_density(x: float, dx: float = 1e-5) -> GridDensity:
    """Unit mass in a single cell of width dx centred near x."""
    values = np.zeros(5)
    values[2] = 1.0 / dx
    return GridDensity(x - 2.5 * dx, dx, values)


def test_travelling_wave_closed_form():
    for p in np.linspace(0.1, 0.9, 9):
        w = travelling_wave(float(p))
        res = ode_residual(w, 1e-3)
        assert res <= 1e-4
        assert 3.2 <= res / ode_residual(w, 5e-4) <= 4.8  # second order
        assert abs(w.amplitude * w.omega - 2.0 * p) <= 1e-10  # left slope
        right_slope = -w.amplitude * w.omega * math.exp(-w.c * w.R0)
        assert abs(right_slope - 2.0 * (p - 1.0)) <= 1e-10
        assert abs(math.exp(-w.c * w.R0) - (1.0 - p) / p) <= 1e-10
        rho = wave_density(w, plan_grid(0.0, w.R0, 0.0, dx=1e-3))
        assert abs(rho.mass - 1.0) <= 1e-8
    assert wave_speed(0.5) == 0.0
    assert abs(wave_speed(0.75) - SPEED_3_4) <= 1e-6


def test_cut_diffuse_operator_lemmas_on_random_densities():
    rng = np.random.default_rng(MASTER)
    for _ in range(100):  # 200 random densities in pairs
        f = random_bump_density(rng)
        g = random_bump_density(rng)
        _lemma_suite(f, g, rng)


def test_scheme_sandwich_l1_bound_through_twenty_steps():
    for p in (0.25, 0.5, 0.75):
        w = travelling_wave(p)
        grid = plan_grid(-w.R0, 0.0, 2.0, drift=w.c, dx=1e-3)
        rho = wave_density(w, grid, shift=-w.R0)
        for delta in (0.05, 0.1):
            lo = hi = rho
            for k in range(1, 21):
                lo = iterate_scheme(lo, SchemeParams(p, delta, "lower"), 1).density
                hi = iterate_scheme(hi, SchemeParams(p, delta, "upper"), 1).density
                bound = 2.0 * (math.exp(delta) - 1.0) * math.exp(k * delta)
                assert l1_distance(lo, hi) < bound + 1e-3


def test_step_halving_ordering_and_common_limit():
    p, t = 0.75, 0.5
    w, rho, _, _ = wave_fixture(p, t)
    lowers, uppers = [], []
    for n in range(6):
        k = 2**n
        lowers.append(iterate_scheme(rho, SchemeParams(p, t / k, "lower"), k).density)
        uppers.append(iterate_scheme(rho, SchemeParams(p, t / k, "upper"), k).density)
    widths = [l1_distance(hi, lo) for lo, hi in zip(lowers, uppers)]
    for n in range(5):
        assert dominates(lowers[n], lowers[n + 1])
        assert dominates(lowers[n + 1], uppers[n + 1])
        assert dominates(uppers[n + 1], uppers[n])
        assert widths[n + 1] < widths[n]
    refined = refine_limit(rho, p, t, n_max=5, tol=1e-3)
    target = wave_density(w, rho.spec, shift=-w.R0 + w.c * t)
    assert l1_distance(refined.psi, target) <= refined.width + 2.0 * rho.dx


def test_killed_paths_match_boundary_exit_laws():
    _, rho, left, right = wave_fixture(0.75, 1.0)
    stats = exit_statistics(
        rho, left, right, PathParams(t=1.0, h=1e-3, n_paths=100_000),
        RandomSource(MASTER, 205),
    )
    assert abs(stats.exit_left_prob - EXIT_LEFT_3_4) <= 3.0 * stats.exit_left_se
    assert abs(stats.exit_right_prob - EXIT_RIGHT_3_4) <= 3.0 * stats.exit_right_se
    assert abs(stats.survive_prob - SURVIVE_T1) <= 3.0 * stats.survive_se

    # one-sided constant barrier from a (near-)point start at 1
    start = _point_mass_density(1.0)
    knots = np.array([0.0, 1.0])
    floor = Barrier(knots, np.zeros(2))
    ceiling = Barrier(knots, np.full(2, 40.0))
    coarse = PathParams(t=1.0, h=1e-2, n_paths=200_000)
    good = exit_statistics(start, floor, ceiling, coarse, RandomSource(MASTER, 206))
    assert abs(good.exit_left_prob - ONE_SIDED) <= 3.0 * good.exit_left_se
    naive = exit_statistics(
        start, floor, ceiling, coarse, RandomSource(MASTER, 207),
        bridge_correction=False,
    )
    assert naive.exit_left_prob < ONE_SIDED - 3.0 * naive.exit_left_se


def test_killed_semigroup_representation_identity():
    p, t = 0.75, 0.5
    w, rho, left, right = wave_fixture(p, t)
    xs = np.linspace(w.c * t - w.R0, w.c * t, 20)
    res = representation_check(
        rho, left, right, xs,
        PathParams(t=t, h=1e-3, n_paths=20_000),
        RandomSource(MASTER, 208), p=p, n_max=6,
    )
    gap = np.abs(res.mc_values - res.scheme_values)
    assert np.all(gap <= 3.0 * res.std_errors + res.scheme_width)


def test_exit_flux_extrapolates_to_selection_split():
    for slot, p in enumerate((0.5, 0.75)):
        _, rho, left, right = wave_fixture(p, 1.0)
        seq = small_delta_flux(
            rho, left, right, [0.02, 0.01, 0.005], 200_000,
            RandomSource(MASTER, 209).child(slot * 8),
        )
        value_l, se_l = seq.extrapolate("left")
        value_r, se_r = seq.extrapolate("right")
        assert abs(value_l - p) <= 3.0 * se_l
        assert abs(value_r - (1.0 - p)) <= 3.0 * se_r


def test_ordered_pairs_never_break_dominance():
    base = RandomSource(MASTER, 210)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        lo = rng.normal(0.0, 1.0, 50)
        hi = lo + rng.uniform(0.0, 1.0, 50)
        # couple_simulate itself raises CouplingViolationError on any
        # dominance break at an event or sample time
        rec_lo, rec_hi = couple_simulate(
            lo, hi, 0.75, 5.0, base.child(seed),
            sample_times=[5.0], record_configs=True,
        )
        assert np.all(rec_lo.full_configs[0] <= rec_hi.full_configs[0])


def test_empirical_tails_sandwiched_with_dkw_halving():
    _, rho, _, _ = wave_fixture(0.75, 1.0)
    src = RandomSource(MASTER, 211)
    small = hydrodynamic_report(0.75, 2000, 1.0, 0.05, rho, src.child(0))
    big = hydrodynamic_report(0.75, 8000, 1.0, 0.05, rho, src.child(1))
    assert small.sup_gap <= small.width / 2.0 + 3.0 * small.dkw
    assert big.sup_gap <= big.width / 2.0 + 3.0 * big.dkw
    assert abs(big.dkw / small.dkw - 0.5) < 1e-12  # quadrupling N halves the band


def test_speed_estimate_properties():
    src = RandomSource(MASTER, 212)

    # (a) p = 1/2 gives zero speed
    sym = estimate_speed(0.5, 50, 50.0, src.child(0), burn_in=10.0, replicas=20)
    assert abs(sym.v_hat) <= 3.0 * sym.std_error
    assert abs(sym.v_hat_right) <= 3.0 * sym.std_error_right

    # (b) the reflection coupling negates the estimate exactly
    fwd = estimate_speed(0.75, 50, 20.0, src.child(40), replicas=5)
    bwd = estimate_speed(0.25, 50, 20.0, src.child(40), replicas=5, mirror=True)
    assert np.array_equal(bwd.samples_left, -fwd.samples_right)
    assert np.array_equal(bwd.samples_right, -fwd.samples_left)

    # (c) the finite-N error shrinks toward the closed-form speed
    medians = {}
    estimates = {}
    for slot, n in enumerate((10, 50, 200)):
        est = estimate_speed(
            0.75, n, 50.0, src.child(300 + 40 * slot), burn_in=10.0, replicas=20
        )
        estimates[n] = est
        medians[n] = float(np.median(est.samples_left))
    errs = [abs(medians[n] - SPEED_3_4) for n in (10, 50, 200)]
    assert errs[0] >= errs[1] >= errs[2]
    assert 0.0 < medians[200] < math.sqrt(2.0)

    # (d) leftmost- and rightmost-based estimates agree
    est = estimates[200]
    combined = math.hypot(est.std_error, est.std_error_right)
    assert abs(est.v_hat - est.v_hat_right) <= 3.0 * combined


def test_extreme_particle_tracks_front_as_n_grows():
    w, rho, _, _ = wave_fixture(0.75, 1.0)
    base = RandomSource(MASTER, 213)
    medians = []
    for slot, n in enumerate((500, 1000, 2000, 4000)):

        def error(seed):
            src = base.child(1000 * slot + seed)
            init = sample_from_density(rho, n, src.generator(TAG_INITIAL))
            rec = simulate(init, 0.75, 1.0, src, sample_times=[1.0])
            return abs(float(rec.rightmost[-1]) - w.c * 1.0)

        # the seeds of a size share the cores, as estimate_speed's replicas do
        medians.append(float(np.median(_map_replicas(error, 20, n))))
    assert medians[0] > medians[1] > medians[2] > medians[3]


def test_pre_truncation_population_law():
    src = RandomSource(MASTER, 214)
    rng = np.random.default_rng(7)
    combo = 0
    for delta in (0.1, 0.2):
        for p in (0.5, 0.75):
            lower_factor = math.exp(delta) * (1.0 - p) + p
            upper_factor = p * math.exp(delta) + (1.0 - p)
            for side, factor in (("lower", lower_factor), ("upper", upper_factor)):
                params = SchemeParams(p, delta, side)
                config = np.sort(rng.normal(0.0, 1.0, 1000))
                sizes = []
                for k in range(50):
                    run = run_bounds(config, params, 1, src.child(100 * combo + k))
                    sizes.append(run.steps[0].pre_truncation_size)
                    config = run.config
                mean, se = mean_and_se(sizes)
                assert abs(mean - 1000.0 * factor) <= 3.0 * se
                combo += 1
