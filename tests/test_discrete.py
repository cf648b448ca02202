"""Free branching and the discrete-time bounding systems."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from scipy.stats import chisquare

from npbbm import (
    RandomSource,
    SchemeParams,
    run_bounds,
    simulate,
)
import npbbm.discrete as discrete
from npbbm.cli import COMMAND_IDS
from npbbm.discrete import MAX_BOUND_STEPS, MAX_POPULATION, bounds_verdict
from npbbm.randomness import TAG_CLOCK, TAG_DRIVING
from npbbm.stats import dkw_band, empirical_tail

from helpers import mean_and_se


# ---------------------------------------------------------------------------
# free branching


def free_bbm(init, t, src):
    """Free branching from init for time t on src's driving and clock streams,
    the draws a bounding step takes."""
    moves, clocks = src.generator(TAG_DRIVING), src.generator(TAG_CLOCK)
    return discrete._free_bbm(np.asarray(init, dtype=np.float64), t, moves, clocks)


def test_free_bbm_zero_time_identity():
    init = np.array([-1.0, 0.5, 2.0])
    out = free_bbm(init, 0.0, RandomSource(1))
    assert np.array_equal(out, init)


def test_free_bbm_population_growth_rate():
    # Each tree size is Geometric(e^{-t}); mean population factor is e^t.
    src = RandomSource(22)
    factors = []
    for r in range(30):
        out = free_bbm(np.zeros(1000), 0.5, src.child(r))
        factors.append(len(out) / 1000.0)
    mean, se = mean_and_se(factors)
    assert abs(mean - math.exp(0.5)) <= 3.0 * se


def test_free_bbm_descendants_centred():
    src = RandomSource(23)
    means = []
    for r in range(200):
        out = free_bbm([0.0], 1.0, src.child(r))
        means.append(out.mean())
    mean, se = mean_and_se(means)
    assert abs(mean) <= 3.0 * se


def test_free_bbm_size_is_geometric():
    # Chi-square goodness of fit at the 1% level, m=1, t=0.7, 10^4 replicates.
    t = 0.7
    src = RandomSource(24)
    sizes = np.array([len(free_bbm([0.0], t, src.child(r))) for r in range(10_000)])
    q = math.exp(-t)
    k_max = 14
    probs = np.array([q * (1.0 - q) ** (k - 1) for k in range(1, k_max)])
    probs = np.append(probs, 1.0 - probs.sum())  # tail bin k >= k_max
    observed = np.array(
        [(sizes == k).sum() for k in range(1, k_max)] + [(sizes >= k_max).sum()]
    )
    stat = chisquare(observed, probs * len(sizes))
    assert stat.pvalue > 0.01


def test_free_bbm_max_mean_bounded_by_sqrt2():
    # E[max position] at t=1 is at most sqrt(2); test the sample mean.
    src = RandomSource(26)
    tops = []
    for r in range(400):
        tops.append(free_bbm([0.0], 1.0, src.child(r)).max())
    mean, se = mean_and_se(tops)
    assert mean <= math.sqrt(2.0) + 3.0 * se


def test_free_bbm_overshoot_raises_overflow(monkeypatch):
    # mean population e^2 = 7.4 passes a cap of 8; this seed reaches 9
    monkeypatch.setattr(discrete, "MAX_POPULATION", 8)
    with pytest.raises(OverflowError, match="reached 9 particles, above the cap of 8"):
        free_bbm([0.0], 2.0, RandomSource(2))
    assert free_bbm([0.0], 2.0, RandomSource(5)).size == 5


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_steps_reject_a_population_plan_above_the_cap(side):
    params = SchemeParams(0.5, 50.0, side)
    with pytest.raises(ValueError, match=r"delta=50.0 with N=5 plans .* cap"):
        run_bounds(np.zeros(5), params, 1, RandomSource(1))
    with pytest.raises(ValueError, match="delta=50.0"):
        run_bounds(np.zeros(5), params, 3, RandomSource(1))


def test_population_cap_is_on_the_planned_mean_n_e_delta():
    # N e^delta just above the cap is refused before any draw, naming the plan
    n = 1000
    delta = math.log(MAX_POPULATION / n) + 0.01
    msg = (
        f"delta={delta!r} with N={n} plans {n * math.exp(delta):.6g} particles "
        f"(N e^delta), above the cap of {MAX_POPULATION}"
    )
    with pytest.raises(ValueError, match=re.escape(msg)):
        run_bounds(np.zeros(n), SchemeParams(0.5, delta, "lower"), 1, RandomSource(1))


def test_steps_reject_a_plan_whose_growth_overflows():
    # e^1000 overflows a float; the plan is then infinite, not an OverflowError
    params = SchemeParams(0.5, 1000.0, "upper")
    with pytest.raises(ValueError, match=r"delta=1000.0 with N=5 plans inf particles"):
        run_bounds(np.zeros(5), params, 1, RandomSource(1))


@pytest.mark.parametrize(
    "n, delta, k, plan",
    [
        (1, 0.1, MAX_BOUND_STEPS + 1, f"plans {MAX_BOUND_STEPS + 1} steps a side"),
        # 4000 e^0.1 = 4420.68 particles a step
        (4000, 0.1, 1_000_000, "plans 4.42068e+09 particle moves a side"),
    ],
    ids=["steps", "moves"],
)
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_steps_and_moves_above_their_caps_are_refused_before_any_draw(
    n, delta, k, plan, side, monkeypatch
):
    def no_draws(*args):
        raise AssertionError("drew before the plan was checked")

    monkeypatch.setattr(RandomSource, "generator", no_draws)
    params = SchemeParams(0.5, delta, side)
    message = re.escape(f"k_steps={k} ") + ".*" + re.escape(plan)
    with pytest.raises(ValueError, match=message):
        run_bounds(np.zeros(n), params, k, RandomSource(1))


# ---------------------------------------------------------------------------
# single bound steps


def test_removal_counts():
    src = RandomSource(30)
    res = run_bounds(np.zeros(100), SchemeParams(0.75, 0.1, "lower"), 1, src)
    # round(100 * 0.75 * (1 - e^{-0.1})) evaluated exactly
    assert res.steps[0].removed == 7
    tiny = run_bounds(np.zeros(100), SchemeParams(0.75, 1e-6, "lower"), 1, src)
    assert tiny.steps[0].removed == 0


def test_steps_return_exactly_n_sorted():
    src = RandomSource(31)
    lo = run_bounds(np.zeros(200), SchemeParams(0.6, 0.25, "lower"), 1, src)
    hi = run_bounds(np.zeros(200), SchemeParams(0.6, 0.25, "upper"), 1, src)
    for res in (lo, hi):
        assert len(res.config) == 200
        assert np.all(np.diff(res.config) >= 0.0)
        assert res.steps[0].padded == (res.steps[0].pre_truncation_size < 200)


def test_pre_truncation_mean_size():
    # After removing round(N p (1-e^{-d})) and branching for d, the expected
    # population is N e^d (1 - p(1-e^{-d})) up to the integer rounding.
    N, p, d = 1000, 0.5, 0.2
    src = RandomSource(32)
    sizes = []
    config = np.zeros(N)
    for r in range(60):
        res = run_bounds(config, SchemeParams(p, d, "lower"), 1, src.child(r))
        sizes.append(res.steps[0].pre_truncation_size)
        config = res.config
    mean, se = mean_and_se(sizes)
    expected = N * math.exp(d) * (1.0 - p * (1.0 - math.exp(-d)))
    assert abs(mean - expected) <= 3.0 * se


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_step_sorts_its_start(side):
    # an unsorted start used to be cut as given: at p = 0.9 the lower step
    # removed the first 4 entries instead of the 4 leftmost
    config = np.random.default_rng(9).normal(size=10)
    params = SchemeParams(0.9 if side == "lower" else 0.1, 0.5, side)
    got = run_bounds(config, params, 1, RandomSource(36))
    ref = run_bounds(np.sort(config), params, 1, RandomSource(36))
    assert got.config.tobytes() == ref.config.tobytes()
    assert got.steps[0].removed == ref.steps[0].removed == 4
    assert got.steps[0].pre_truncation_size == ref.steps[0].pre_truncation_size


@pytest.mark.parametrize("start", [[math.nan, 0.0], [0.0, math.inf], []])
def test_steps_reject_a_start_that_is_not_finite(start):
    # run_bounds([nan, 0.0], ...) used to return a configuration holding nan
    params = SchemeParams(0.5, 0.1, "lower")
    with pytest.raises(ValueError, match="configuration"):
        run_bounds(start, params, 2, RandomSource(37))
    with pytest.raises(ValueError, match="configuration"):
        run_bounds(start, params, 1, RandomSource(37))


def test_step_raises_when_removal_reaches_n():
    # delta large enough that round(N p (1-e^{-delta})) == N
    src = RandomSource(35)
    with pytest.raises(ValueError):
        run_bounds(np.zeros(2), SchemeParams(0.9, 20.0, "lower"), 1, src)


def test_upper_step_removes_by_one_minus_p():
    # the upper side removes round(N (1-p) (1-e^{-delta})): at delta = 2 and
    # N = 2 that is 2 at p = 0.1, where the lower side removes none
    src = RandomSource(35)
    with pytest.raises(ValueError, match="removal count reached N"):
        run_bounds(np.zeros(2), SchemeParams(0.1, 2.0, "upper"), 1, src)
    for p, side in ((0.1, "lower"), (0.9, "upper")):
        run = run_bounds(np.zeros(2), SchemeParams(p, 2.0, side), 1, src)
        assert run.steps[0].removed == 0


def test_run_bounds_rejects_a_negative_step_count():
    with pytest.raises(ValueError, match="k_steps must be non-negative"):
        run_bounds([0.0], SchemeParams(0.5, 0.1, "lower"), -1, RandomSource(41))


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(0.0, 0.1, "lower")
    with pytest.raises(ValueError):
        SchemeParams(0.5, 0.0, "lower")
    with pytest.raises(ValueError):
        SchemeParams(0.5, 0.1, "middle")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_params_name_the_value_and_its_limit(bad):
    msg = f"p must lie strictly in (0,1), got p={bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        SchemeParams(bad, 0.1, "lower")
    msg = f"delta must be positive and finite, got delta={bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        SchemeParams(0.5, bad, "upper")


# ---------------------------------------------------------------------------
# iterated runs


def test_run_bounds_zero_steps():
    init = np.array([0.0, 1.0, 2.0])
    run = run_bounds(init, SchemeParams(0.5, 0.1, "lower"), 0, RandomSource(40))
    assert np.array_equal(run.config, init)
    assert run.steps == []


def test_run_bounds_distributional_sandwich():
    # Lower/main/upper tails at matched parameters stay ordered within DKW
    # bands: tail_lower <= tail_main + eps <= tail_upper + 2 eps.
    N, p, delta, t = 2000, 0.75, 0.05, 0.5
    k = round(t / delta)
    src = RandomSource(41)
    lower = run_bounds(np.zeros(N), SchemeParams(p, delta, "lower"), k, src.child(0))
    upper = run_bounds(np.zeros(N), SchemeParams(p, delta, "upper"), k, src.child(1))
    rec = simulate(np.zeros(N), p, t, src.child(2), record_configs=True)
    main = rec.full_configs[-1]
    xs = np.unique(np.concatenate([lower.config, main, upper.config]))
    lo_tail = empirical_tail(lower.config, xs)
    mid_tail = empirical_tail(main, xs)
    hi_tail = empirical_tail(upper.config, xs)
    eps = dkw_band(N, 0.01)
    assert np.all(lo_tail <= mid_tail + eps)
    assert np.all(mid_tail <= hi_tail + eps)


def test_run_bounds_matches_grid_scheme():
    # Hydrodynamic cross-check: the empirical tail of the bounding particle
    # system tracks the matching grid scheme within a DKW-scale band plus a
    # one-cell quantisation allowance.  Selection makes the particles weakly
    # dependent, so the band is approximate; the seed is frozen.
    from npbbm import iterate_scheme, sample_from_density
    from npbbm.density import _edge_tails

    from helpers import wave_fixture

    _, rho, _, _ = wave_fixture(0.75, 0.5)
    N, k, delta = 5000, 5, 0.1
    src = RandomSource(51)
    init = sample_from_density(rho, N, src.generator(6))
    band = dkw_band(N, 0.01) + rho.dx * float(np.max(rho.values))
    for side in ("lower", "upper"):
        run = run_bounds(init, SchemeParams(0.75, delta, side), k, src)
        scheme = iterate_scheme(rho, SchemeParams(0.75, delta, side), k)
        emp = empirical_tail(run.config, scheme.density.edges())
        sup = float(np.max(np.abs(emp - _edge_tails(scheme.density))))
        assert sup <= band


# ---------------------------------------------------------------------------
# checks against the bounds


def test_bounds_verdict_passes_the_ordered_pair_and_fails_the_swapped_one():
    # the bounds command's streams at p = 0.5, delta = 0.1, k = 10, N = 2000:
    # lower below upper passes and upper below lower fails on every seed
    for seed in range(1, 21):
        src = RandomSource(seed, COMMAND_IDS["bounds"] << 32)
        lower, upper = (
            run_bounds(np.zeros(2000), SchemeParams(0.5, 0.1, side), 10, src).config
            for side in ("lower", "upper")
        )
        assert bounds_verdict(lower, upper)["dominated"], seed
        assert not bounds_verdict(upper, lower)["dominated"], seed
