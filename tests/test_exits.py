"""Killed Brownian motion: exits, the tail representation, boundary fluxes."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from npbbm import (
    Barrier,
    ExitStats,
    FluxSequence,
    PathParams,
    RandomSource,
    exit_statistics,
    representation_check,
    small_delta_flux,
)
from npbbm.cli import _OutputSet
from npbbm.exits import MAX_STEPS, _exit_probabilities, _plan, _run_paths, _series

from helpers import uniform_density, wave_fixture

# One-sided exit probability from distance 1 in unit time, 2*Phi(-1), frozen
# from a 40-digit evaluation.
ONE_SIDED = 0.3173105078629141


def _constant(level, t_max=1.0):
    return Barrier(np.array([0.0, t_max]), np.array([level, level]))


# ---------------------------------------------------------------------------
# parameter and stats plumbing


def test_path_params_validation():
    with pytest.raises(ValueError):
        PathParams(0.0, 1e-3, 10)
    with pytest.raises(ValueError):
        PathParams(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        PathParams(1.0, 1e-3, 0)


def test_step_above_the_horizon_plans_one_naive_step():
    # h > t used to be refused, though h bounds the step only without bridge
    # correction, and there max(1, ceil(t/h)) steps is one step
    params = PathParams(1.0, 2.0, 10)
    left, right = _constant(0.0), _constant(1.0)
    grid = _plan(params.t, params.h, left, right, False)[0]
    assert grid.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_path_params_name_the_value_and_its_limit(bad):
    msg = f"step h must be positive and finite, got h={bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        PathParams(1.0, bad, 10)
    # t = inf used to pass and fail later with an OverflowError
    msg = f"horizon t must be positive and finite, got t={bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        PathParams(bad, 1e-3, 10)


def test_step_plan_is_capped():
    # without bridge correction h sets the step, and 1/MAX_STEPS plans the cap
    left, right = _constant(0.0), _constant(1.0)
    grid = _plan(1.0, 1.0 / MAX_STEPS, left, right, False)[0]
    assert grid.size - 1 == MAX_STEPS
    # one path at h = 1e-7 used to take about 8 minutes
    msg = f"step h=1e-07 over horizon t=1.0 plans 1e+07 steps, above the cap of {MAX_STEPS}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        _run_paths(
            np.array([0.5]), left, right, 1.0, 1e-7, RandomSource(1),
            bridge_correction=False,
        )
    # with bridge correction the parallel strip is one step, whatever h is
    grid, _, _, reflections = _plan(1.0, 1e-12, left, right, True)
    assert np.array_equal(grid, [0.0, 1.0]) and reflections.tolist() == [4]


def test_non_parallel_piece_plan_is_capped():
    # without bridge correction h bounds the steps on every piece, parallel
    # or not: the two pieces [0, 0.5] and [0.5, 1] at h = 1e-7 plan 1e7 steps
    times = np.array([0.0, 0.5, 1.0])
    left = Barrier(times, np.zeros(3))
    right = Barrier(times, np.array([1.0, 1.0, 2.0]))
    msg = f"step h=1e-07 over horizon t=1.0 plans 1e+07 steps, above the cap of {MAX_STEPS}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        _run_paths(
            np.array([0.5]), left, right, 1.0, 1e-7, RandomSource(1),
            bridge_correction=False,
        )
    grid, _, _, reflections = _plan(1.0, 0.1, left, right, False)
    assert np.allclose(grid, np.linspace(0.0, 1.0, 11), atol=1e-15)
    assert reflections.tolist() == [0] * 10


def test_bridge_correction_refuses_a_piece_that_is_not_parallel():
    # the exact strip law holds on parallel barriers only; the piece [0.5, 1]
    # widens from 1 to 2, and the refusal comes before any path runs
    times = np.array([0.0, 0.5, 1.0])
    left = Barrier(times, np.zeros(3))
    right = Barrier(times, np.array([1.0, 1.0, 2.0]))
    msg = (
        "bridge correction needs parallel barriers, but on the piece [0.5, 1.0] "
        "the width goes from 1.0 to 2.0"
    )
    with pytest.raises(ValueError, match=re.escape(msg)):
        _run_paths(np.array([0.5]), left, right, 1.0, 0.1, RandomSource(1))
    rho = uniform_density(0.25, 0.75, -0.5, 1e-2, 200)
    with pytest.raises(ValueError, match=re.escape(msg)):
        exit_statistics(rho, left, right, PathParams(1.0, 0.1, 10), RandomSource(1))


def test_exit_stats_partition_enforced():
    with pytest.raises(ValueError):
        ExitStats(10, 0.5, 0.3, 0.1, 0.0, 0.0, 0.0, np.array([0.0]))


def test_erfc_quadrature_self_check():
    # integral of x*erfc(x) over [0, inf) equals 1/4
    val, _ = quad(lambda x: x * erfc(x), 0.0, np.inf)
    assert abs(val - 0.25) <= 1e-10


# ---------------------------------------------------------------------------
# single-path sampling


def test_unreachable_barriers_always_survive():
    params = PathParams(1.0, 1e-2, 10_000)
    rho = uniform_density(-1.0, 1.0, -1.5, 1e-2, 300)
    stats = exit_statistics(rho, _constant(-1e6), _constant(1e6), params, RandomSource(90))
    assert stats.survive_prob == 1.0
    assert stats.exit_left_prob == 0.0 and stats.exit_right_prob == 0.0
    code, final = _run_paths(
        np.array([0.0]), _constant(-1e6), _constant(1e6), 1.0, 1e-2, RandomSource(91)
    )
    assert code.tolist() == [0] and np.isfinite(final[0])


def test_run_paths_validates_start_and_barriers():
    with pytest.raises(ValueError, match="strictly between"):
        _run_paths(np.array([2.0]), _constant(0.0), _constant(1.0), 1.0, 1e-2, RandomSource(1))
    with pytest.raises(ValueError, match="L < R"):
        _run_paths(np.array([0.5]), _constant(1.0), _constant(0.0), 1.0, 1e-2, RandomSource(1))


def test_run_paths_exits_on_both_sides():
    # strip so narrow almost every path exits, on either side
    code, final = _run_paths(
        np.zeros(20), _constant(-0.05), _constant(0.05), 1.0, 1e-3, RandomSource(92)
    )
    assert {1, 2} <= set(code.tolist())
    assert np.all(np.isnan(final[code > 0]))


def test_one_sided_benchmark():
    # Reflection principle: exit probability 2*Phi(-1) for barrier at
    # distance 1 over unit time.
    n = 20_000
    code, _ = _run_paths(
        np.full(n, 1.0), _constant(0.0), _constant(1e6), 1.0, 1e-3, RandomSource(93)
    )
    est = np.mean(code == 1)
    se = math.sqrt(est * (1.0 - est) / n)
    assert abs(est - ONE_SIDED) <= 3.0 * se


def test_symmetric_strip_balances_sides():
    n = 20_000
    code, _ = _run_paths(
        np.zeros(n), _constant(-1.0), _constant(1.0), 1.0, 1e-3, RandomSource(94)
    )
    pl = np.mean(code == 1)
    pr = np.mean(code == 2)
    se = math.sqrt((pl * (1 - pl) + pr * (1 - pr)) / n)
    assert abs(pl - pr) <= 3.0 * se


def test_bridge_correction_removes_step_bias():
    # With the bridge correction, halving the step moves the estimate by
    # less than one combined standard error (frozen seed); without it the
    # estimate undercounts exits by many standard errors at a coarse step.
    n = 20_000
    left, right = _constant(0.0), _constant(1e6)
    x0 = np.full(n, 1.0)
    code_a, _ = _run_paths(x0, left, right, 1.0, 1e-3, RandomSource(105))
    code_b, _ = _run_paths(x0, left, right, 1.0, 5e-4, RandomSource(105, 1))
    est_a, est_b = np.mean(code_a == 1), np.mean(code_b == 1)
    se = math.sqrt((est_a * (1 - est_a) + est_b * (1 - est_b)) / n)
    assert abs(est_a - est_b) <= se

    code_u, _ = _run_paths(
        x0, left, right, 1.0, 1e-2, RandomSource(96), bridge_correction=False
    )
    est_u = np.mean(code_u == 1)
    se_u = math.sqrt(est_u * (1 - est_u) / n)
    assert est_u < ONE_SIDED - 3.0 * se_u


# ---------------------------------------------------------------------------
# aggregated statistics on the wave fixture


def test_wave_fixture_exit_masses():
    # Boundary conditions of the tail representation: over [0,1] the left
    # barrier absorbs p(1-1/e), the right (1-p)(1-1/e), and e^{-1} survives.
    _, rho, left, right = wave_fixture(0.75, 1.0)
    params = PathParams(1.0, 1e-3, 20_000)
    stats = exit_statistics(rho, left, right, params, RandomSource(97))
    assert abs(stats.exit_left_prob - 0.47409041912141825) <= 3.0 * stats.exit_left_se
    assert abs(stats.exit_right_prob - 0.15803013970713942) <= 3.0 * stats.exit_right_se
    assert abs(stats.survive_prob - 0.36787944117144233) <= 3.0 * stats.survive_se
    total = stats.exit_left_prob + stats.exit_right_prob + stats.survive_prob
    assert total == pytest.approx(1.0, abs=1e-12)
    lo, hi = left.value(1.0), right.value(1.0)
    assert len(stats.survivor_positions) == round(stats.survive_prob * params.n_paths)
    assert np.all(stats.survivor_positions > lo)
    assert np.all(stats.survivor_positions < hi)


def test_exit_statistics_rejects_support_outside_barriers():
    rho = uniform_density(0.0, 1.0, -0.5, 1e-2, 200)
    params = PathParams(1.0, 1e-2, 10)
    with pytest.raises(ValueError):
        exit_statistics(rho, _constant(0.25), _constant(2.0), params, RandomSource(1))


def test_exit_statistics_deterministic():
    _, rho, left, right = wave_fixture(0.75, 1.0)
    params = PathParams(1.0, 1e-2, 2000)
    a = exit_statistics(rho, left, right, params, RandomSource(98))
    b = exit_statistics(rho, left, right, params, RandomSource(98))
    assert a.exit_left_prob == b.exit_left_prob
    assert np.array_equal(a.survivor_positions, b.survivor_positions)


# ---------------------------------------------------------------------------
# tail representation


def test_representation_check_wave_fixture():
    w, rho, left, right = wave_fixture(0.75, 1.0)
    t = 0.5
    xs = np.array([-8.0, w.c * t - w.R0 / 2.0, right.value(t)])
    params = PathParams(t, 2e-3, 5000)
    result = representation_check(
        rho, left, right, xs, params, RandomSource(99), p=0.75, n_max=5
    )
    et = math.exp(t)
    # far left: the Monte Carlo tail is e^t times the survival fraction and
    # the scheme tail is the full unit mass
    assert result.mc_values[0] == pytest.approx(et * result.survive_prob, abs=1e-12)
    assert result.scheme_values[0] == pytest.approx(1.0, abs=1e-6)
    # at the right barrier both tails vanish
    assert result.mc_values[-1] == 0.0
    assert result.scheme_values[-1] <= result.scheme_width + 1e-9
    # in the middle the two estimates agree within noise plus sandwich width
    mid_gap = abs(result.mc_values[1] - result.scheme_values[1])
    assert mid_gap <= 3.0 * result.std_errors[1] + result.scheme_width
    rows = result.rows()
    assert rows.shape == (3, 4)
    assert np.array_equal(rows[:, 0], xs)


def test_representation_csv(tmp_path):
    # representation.csv is rows() through the exit command's CSV writer;
    # its 17 significant digits read every value back exactly.
    _, rho, left, right = wave_fixture(0.75, 1.0)
    params = PathParams(0.5, 1e-2, 500)
    result = representation_check(
        rho, left, right, [-1.0, 0.0], params, RandomSource(100), p=0.75, n_max=3
    )
    out = _OutputSet(tmp_path)
    out.write_csv("rep.csv", "x,mc,scheme,se", result.rows())
    lines = (tmp_path / "rep.csv").read_text().splitlines()
    assert lines[0] == "x,mc,scheme,se"
    assert len(lines) == 3
    back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(back, result.rows())


# ---------------------------------------------------------------------------
# small-delta fluxes


def test_flux_matches_exact_exit_masses():
    # For wave initial data the exact exit mass by time d is p(1-e^{-d}), so
    # the flux at each rung is known in closed form (frozen values).
    _, rho, left, right = wave_fixture(0.75, 1.0)
    seq = small_delta_flux(rho, left, right, [0.02, 0.01, 0.005], 30_000, RandomSource(101))
    exact_left = {
        0.02: 0.742549750996676,
        0.01: 0.746262468812396,
        0.005: 0.748128121097653,
    }
    for d, fl, se in zip(seq.deltas, seq.flux_left, seq.se_left):
        assert abs(fl - exact_left[d]) <= 3.0 * se
    value, se = seq.extrapolate("left")
    assert abs(value - 0.75) <= 3.0 * se
    value_r, se_r = seq.extrapolate("right")
    assert abs(value_r - 0.25) <= 3.0 * se_r


def test_flux_symmetric_at_half():
    _, rho, left, right = wave_fixture(0.5, 1.0)
    seq = small_delta_flux(rho, left, right, [0.02, 0.01], 20_000, RandomSource(102))
    for fl, fr, sl, sr in zip(seq.flux_left, seq.flux_right, seq.se_left, seq.se_right):
        assert abs(fl - fr) <= 3.0 * math.hypot(sl, sr)


def test_flux_validates_delta_ladder(monkeypatch):
    # every ladder is refused before any path runs, naming deltas and the limit
    import npbbm.exits as exits

    def no_paths(*args, **kwargs):
        raise AssertionError("paths drawn before the deltas were checked")

    monkeypatch.setattr(exits, "_run_paths", no_paths)
    _, rho, left, right = wave_fixture(0.75, 1.0)
    for deltas, message in [
        ([0.01, 0.02], " must be positive and strictly decreasing"),
        ([-0.01], " must hold at least 2 values"),
        ([0.02, -0.01], " must be positive and strictly decreasing"),
        ([0.01], " must hold at least 2 values"),
        ([0.02, 0.01, 0.004], " must end in two values in ratio 2, got 2.5"),
        ([4.0, 2.0], ": the largest, 4.0, is beyond 1.0, the barriers' last knot"),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"deltas={deltas}{message}")):
            small_delta_flux(rho, left, right, deltas, 10, RandomSource(1))


def test_richardson_extrapolation_protocol():
    # linear-in-delta data extrapolates exactly; the two smallest deltas'
    # runs are independent, so their SEs add in quadrature
    seq = FluxSequence(
        deltas=np.array([0.04, 0.02, 0.01]),
        flux_left=np.array([1.04, 1.02, 1.01]),
        flux_right=np.zeros(3),
        se_left=np.array([0.0, 0.01, 0.02]),
        se_right=np.zeros(3),
    )
    value, se = seq.extrapolate("left")
    assert value == pytest.approx(1.0, abs=1e-12)
    assert se == pytest.approx(math.sqrt(4 * 0.02**2 + 0.01**2), rel=1e-12)


# ---------------------------------------------------------------------------
# the exact two-sided law


def _heat_kernel(x, y, w, dt):
    """Density of ending at y alive in (0, w) from x after dt, by eigenfunctions."""
    n = np.arange(1, 400)[:, None]
    modes = np.sin(n * np.pi * x / w) * np.sin(n * np.pi * y / w)
    return (2.0 / w) * np.sum(modes * np.exp(-((n * np.pi / w) ** 2) * dt / 2.0), axis=0)


@pytest.mark.parametrize("width", [0.05, 0.3, 1.0, 2.5])
@pytest.mark.parametrize("t", [0.01, 1.0, 7.0, 40.0])
def test_parallel_plan_takes_the_fewest_steps_the_series_allows(width, t):
    # Each step keeps the fewest K <= 7 for which the first dropped term,
    # at most exp(-2 K (K + 1) W^2 / dt), is below exp(-37), and one step
    # fewer over the piece would need more than seven terms.
    left, right = _constant(-0.3, t), _constant(width - 0.3, t)
    grid, _, _, reflections = _plan(t, 1e-9, left, right, True)
    dt = np.diff(grid)
    k = reflections
    assert np.all((1 <= k) & (k <= 7))
    assert np.all(2.0 * k * (k + 1) * width**2 / dt >= 37.0 * (1.0 - 1e-12))
    assert np.all((k == 1) | (2.0 * (k - 1) * k * width**2 / dt < 37.0))
    assert np.allclose(dt, t / dt.size, rtol=1e-12)
    if dt.size > 1:
        assert 2.0 * 7 * 8 * width**2 / (t / (dt.size - 1)) < 37.0 * (1.0 + 1e-12)


@pytest.mark.parametrize("dt_over_w2", [0.05, 0.5, 1.0, 3.0])
def test_series_matches_the_strip_heat_kernel(dt_over_w2):
    # The Gaussian density times the bridge's survival, 1 - P0 - PW, is the
    # Dirichlet heat kernel of the strip.  The plan's K for this dt keeps
    # every dropped term below exp(-37).
    w = 1.3
    dt = dt_over_w2 * w * w
    left, right = _constant(0.0, dt), _constant(w, dt)
    _, _, _, reflections = _plan(dt, dt, left, right, True)
    assert 1 <= reflections[0] <= 7
    rng = np.random.default_rng(4)
    x = w * rng.uniform(0.01, 0.99, 400)
    y = w * rng.uniform(0.01, 0.99, 400)
    p_left, p_right = _exit_probabilities(x, y, (0.0, 0.0), (w, w), -2.0 / dt, int(reflections[0]))
    gauss = np.exp(-((y - x) ** 2) / (2.0 * dt)) / math.sqrt(2.0 * math.pi * dt)
    assert np.allclose(gauss * (1.0 - p_left - p_right), _heat_kernel(x, y, w, dt), rtol=1e-9, atol=1e-14)


def test_series_far_barrier_is_the_one_barrier_law():
    # with W -> infinity every reflection term vanishes: P0 = exp(-2 x y / dt)
    rng = np.random.default_rng(5)
    x, y = rng.uniform(0.0, 3.0, (2, 1000))
    s = -2.0 / 0.7
    for reflections in (0, 1, 7):
        assert np.array_equal(_series(x, y, 1e6, s, reflections), np.exp(x * y * s))


def test_exit_probabilities_are_mirror_symmetric_and_sub_stochastic():
    # P0(x, y) = PW(W - x, W - y), bit for bit: the mirror image of the
    # strip swaps the two exit probabilities.  With the K the plan gives
    # this step (7), the two exit probabilities inside the strip sum to at
    # most 1, up to the rounding of the sums; the k = 0 terms alone do not.
    rng = np.random.default_rng(6)
    w, dt = 0.8, 1.5
    x = w * rng.uniform(0.0, 1.0, 5000)
    y = w * rng.uniform(-0.5, 1.5, 5000)
    inside = (y > 0.0) & (y < w)
    assert _plan(dt, dt, _constant(0.0, dt), _constant(w, dt), True)[3].tolist() == [7]
    for reflections in (0, 7):
        pl, pr = _exit_probabilities(x, y, (0.0, 0.0), (w, w), -2.0 / dt, reflections)
        ml, mr = _exit_probabilities(-x, -y, (-w, -w), (0.0, 0.0), -2.0 / dt, reflections)
        assert np.array_equal(pl, mr) and np.array_equal(pr, ml)
        assert np.all(pl >= 0.0) and np.all(pr >= 0.0)
        # an end on or beyond a barrier has left for sure
        assert np.all(pl[~inside] + pr[~inside] == 1.0)
    assert np.all(pl[inside] + pr[inside] <= 1.0 + 1e-15)


@pytest.mark.parametrize("p, seed", [(0.5, 110), (0.75, 111), (0.9, 112)])
def test_one_step_law_on_the_wave_strip(p, seed):
    # over t = 1 the wave strip is one step of the exact law, and the left,
    # right and survive frequencies are p(1-1/e), (1-p)(1-1/e) and 1/e
    _, rho, left, right = wave_fixture(p, 1.0)
    params = PathParams(1.0, 1e-3, 500_000)
    assert _plan(params.t, params.h, left, right, True)[0].size == 2
    stats = exit_statistics(rho, left, right, params, RandomSource(seed))
    killed = -math.expm1(-1.0)
    assert abs(stats.exit_left_prob - p * killed) <= 3.0 * stats.exit_left_se
    assert abs(stats.exit_right_prob - (1.0 - p) * killed) <= 3.0 * stats.exit_right_se
    assert abs(stats.survive_prob - math.exp(-1.0)) <= 3.0 * stats.survive_se
