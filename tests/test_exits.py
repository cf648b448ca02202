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
    PathParams,
    RandomSource,
    exit_statistics,
    representation_check,
    richardson_extrapolate,
    sample_exit,
    small_delta_flux,
)
from npbbm.cli import _OutputSet
from npbbm.exits import MAX_STEPS, _bridge_crossed, _run_paths, _step_count

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
        PathParams(1.0, 2.0, 10)
    with pytest.raises(ValueError):
        PathParams(1.0, 1e-3, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_path_params_name_the_value_and_its_limit(bad):
    msg = f"step h must satisfy 0 < h <= t, got h={bad!r} with t=1.0"
    with pytest.raises(ValueError, match=re.escape(msg)):
        PathParams(1.0, bad, 10)
    # t = inf used to pass and fail later with an OverflowError
    msg = f"horizon t must be positive and finite, got t={bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        PathParams(bad, 1e-3, 10)


def test_step_plan_is_capped():
    assert _step_count(1.0, 1.0 / MAX_STEPS) == MAX_STEPS
    msg = (
        "step h=1e-07 over horizon t=2.0 plans 2e+07 steps (t/h), "
        f"above the cap of {MAX_STEPS}"
    )
    with pytest.raises(ValueError, match=re.escape(msg)):
        _step_count(2.0, 1e-7)
    # one path at h = 1e-7 used to take about 8 minutes
    params = PathParams(t=1.0, h=1e-7, n_paths=1)
    with pytest.raises(ValueError, match="above the cap"):
        sample_exit(0.5, _constant(0.0), _constant(1.0), params, RandomSource(1))


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
    out = sample_exit(0.0, _constant(-1e6), _constant(1e6), PathParams(1.0, 1e-2, 1), RandomSource(91))
    assert out.kind == "survive"
    assert out.position is not None and out.time is None


def test_sample_exit_validates_start_and_barriers():
    params = PathParams(1.0, 1e-2, 1)
    with pytest.raises(ValueError):
        sample_exit(2.0, _constant(0.0), _constant(1.0), params, RandomSource(1))
    with pytest.raises(ValueError):
        sample_exit(0.5, _constant(1.0), _constant(0.0), params, RandomSource(1))


def test_sample_exit_kinds():
    # strip so narrow almost every path exits quickly on one side
    params = PathParams(1.0, 1e-3, 1)
    kinds = set()
    for r in range(20):
        out = sample_exit(0.0, _constant(-0.05), _constant(0.05), params, RandomSource(92, r))
        kinds.add(out.kind)
        if out.kind != "survive":
            assert 0.0 < out.time <= 1.0
    assert {"left", "right"} <= kinds


def test_one_sided_benchmark():
    # Reflection principle: exit probability 2*Phi(-1) for barrier at
    # distance 1 over unit time.
    n = 20_000
    code, _, _ = _run_paths(
        np.full(n, 1.0), _constant(0.0), _constant(1e6), 1.0, 1e-3, RandomSource(93)
    )
    est = np.mean(code == 1)
    se = math.sqrt(est * (1.0 - est) / n)
    assert abs(est - ONE_SIDED) <= 3.0 * se


def test_symmetric_strip_balances_sides():
    n = 20_000
    code, _, _ = _run_paths(
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
    code_a, _, _ = _run_paths(x0, left, right, 1.0, 1e-3, RandomSource(105))
    code_b, _, _ = _run_paths(x0, left, right, 1.0, 5e-4, RandomSource(105, 1))
    est_a, est_b = np.mean(code_a == 1), np.mean(code_b == 1)
    se = math.sqrt((est_a * (1 - est_a) + est_b * (1 - est_b)) / n)
    assert abs(est_a - est_b) <= se

    code_u, _, _ = _run_paths(
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
    params = PathParams(1.0, 1e-3, 30_000)
    seq = small_delta_flux(rho, left, right, [0.02, 0.01, 0.005], params, RandomSource(101))
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
    assert seq.rows().shape == (3, 3)


def test_flux_symmetric_at_half():
    _, rho, left, right = wave_fixture(0.5, 1.0)
    params = PathParams(1.0, 1e-3, 20_000)
    seq = small_delta_flux(rho, left, right, [0.02, 0.01], params, RandomSource(102))
    for fl, fr, sl, sr in zip(seq.flux_left, seq.flux_right, seq.se_left, seq.se_right):
        assert abs(fl - fr) <= 3.0 * math.hypot(sl, sr)


def test_flux_validates_delta_ladder():
    _, rho, left, right = wave_fixture(0.75, 1.0)
    params = PathParams(1.0, 1e-3, 10)
    with pytest.raises(ValueError):
        small_delta_flux(rho, left, right, [0.01, 0.02], params, RandomSource(1))
    with pytest.raises(ValueError):
        small_delta_flux(rho, left, right, [-0.01], params, RandomSource(1))


def test_richardson_extrapolation_protocol():
    # linear-in-delta data extrapolates exactly; mismatched ladders refuse
    value, se = richardson_extrapolate(
        [0.04, 0.02, 0.01], [1.04, 1.02, 1.01], [0.0, 0.01, 0.02]
    )
    assert value == pytest.approx(1.0, abs=1e-12)
    assert se == pytest.approx(math.sqrt(4 * 0.02**2 + 0.01**2), rel=1e-12)
    with pytest.raises(ValueError):
        richardson_extrapolate([0.04, 0.02, 0.013], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        richardson_extrapolate([0.01], [1.0], [0.0])


class _FixedUniforms:
    """Hands out one fixed value for every uniform drawn, counting them."""

    def __init__(self, value):
        self.value = value
        self.drawn = 0

    def random(self, size):
        self.drawn += size
        return np.full(size, self.value)


def test_bridge_crossed_draws_only_above_the_cutoff():
    # Draw layout 2: one uniform per inside entry whose exponent is above
    # -37, taken in order; the verdict there is u < exp(a), and the other
    # entries draw nothing and do not cross.
    rng = np.random.default_rng(20260815)
    cut = -37.0
    a = np.concatenate(
        [
            np.linspace(-800.0, 0.0, 4001),
            [np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf)],
            [-745.2, -745.1, -708.4, -36.7368005696771, 0.0, -0.0],
        ]
    )
    for inside in (np.ones(a.size, dtype=bool), rng.random(a.size) < 0.5):
        live = inside & (a > cut)
        for u_value in (0.0, 2.0**-53, 0.5):
            uniforms = _FixedUniforms(u_value)
            got = _bridge_crossed(a, inside, uniforms)
            assert uniforms.drawn == np.count_nonzero(live)
            assert np.array_equal(got, live & (u_value < np.exp(a)))
        gen, ref = RandomSource(3).generator(4), RandomSource(3).generator(4)
        got = _bridge_crossed(a, inside, gen)
        want = np.zeros(a.size, dtype=bool)
        want[live] = ref.random(np.count_nonzero(live)) < np.exp(a[live])
        assert np.array_equal(got, want)
        # both streams stand at the same draw
        assert np.array_equal(gen.random(4), ref.random(4))
    # the crossing probability left out at or below the cutoff
    assert np.exp(cut) < 8.6e-17
