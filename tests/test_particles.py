"""Event-driven particle system: operators, coupling, speed estimation."""

from __future__ import annotations

import math
import csv

import numpy as np
import pytest

from npbbm import (
    CouplingViolationError,
    RandomSource,
    SimulationStreams,
    branch_select_step,
    couple_simulate,
    dominance_check,
    estimate_speed,
    simulate,
    stationarity_diagnostic,
)
from npbbm.particles import order, trajectory_to_csv, viewed_from_leftmost
from npbbm.stats import ks_critical

from helpers import mean_and_se


# ---------------------------------------------------------------------------
# order


def test_order_sorts():
    assert np.array_equal(order([3.0, 1.0, 2.0]), [1.0, 2.0, 3.0])


def test_order_identity_on_sorted():
    assert np.array_equal(order([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_order_handles_duplicates():
    assert np.array_equal(order([2.0, 2.0, 1.0]), [1.0, 2.0, 2.0])


def test_order_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        order([])
    with pytest.raises(ValueError):
        order([1.0, math.nan])
    with pytest.raises(ValueError):
        order([1.0, math.inf])


# ---------------------------------------------------------------------------
# branch_select_step


def test_branch_kill_leftmost():
    assert np.array_equal(branch_select_step(np.array([1.0, 2.0, 3.0]), 2, 1), [2.0, 2.0, 3.0])


def test_branch_kill_rightmost():
    assert np.array_equal(branch_select_step(np.array([1.0, 2.0, 3.0]), 2, 0), [1.0, 2.0, 2.0])


def test_branch_singleton_is_fixed_point():
    v = np.array([5.0])
    assert np.array_equal(branch_select_step(v, 1, 0), [5.0])
    assert np.array_equal(branch_select_step(v, 1, 1), [5.0])


def test_branch_rejects_out_of_range_rank():
    v = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        branch_select_step(v, 0, 1)
    with pytest.raises(ValueError):
        branch_select_step(v, 3, 1)


def test_branch_output_sorted_and_length_preserving():
    rng = np.random.default_rng(2026)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        v = np.sort(rng.normal(size=n))
        i = int(rng.integers(1, n + 1))
        q = int(rng.integers(0, 2))
        out = branch_select_step(v, i, q)
        assert len(out) == n
        assert np.all(np.diff(out) >= 0.0)
        # The duplicated value is present at least twice unless it replaced
        # the particle the trim removed.
        assert np.any(out == v[i - 1])


@pytest.mark.parametrize("q", [0, 1])
def test_branch_on_a_stack_acts_row_by_row(q):
    rng = np.random.default_rng(77)
    stack = np.sort(rng.normal(size=(3, 6)), axis=1)
    for i in (1, 3, 6):
        rows = [branch_select_step(row, i, q) for row in stack]
        assert np.array_equal(branch_select_step(stack, i, q), rows)


# ---------------------------------------------------------------------------
# dominance_check


def test_dominance_simple_true():
    assert dominance_check(np.array([0.0]), np.array([1.0]))


def test_dominance_counts_at_upper_values():
    assert not dominance_check(np.array([0.0, 2.0]), np.array([1.0, 1.0]))


def test_dominance_reflexive():
    a = np.array([0.0, 1.0, 1.5])
    assert dominance_check(a, a)


def test_dominance_mixed_sizes_uses_counts():
    assert dominance_check(np.array([1.0]), np.array([0.0, 1.0]))
    assert not dominance_check(np.array([0.0, 1.0]), np.array([1.0]))


def test_dominance_partial_order_properties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        a = np.sort(rng.normal(size=n))
        b = np.sort(a + rng.exponential(0.5, size=n))
        c = np.sort(b + rng.exponential(0.5, size=n))
        # constructed chain is ordered; transitivity closes it
        assert dominance_check(a, b) and dominance_check(b, c)
        assert dominance_check(a, c)
        # antisymmetry: mutual dominance forces equal multisets
        if dominance_check(b, a):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# viewed_from_leftmost


def test_viewed_from_leftmost_examples():
    assert np.array_equal(viewed_from_leftmost(np.array([2.0, 3.0, 5.0])), [0.0, 1.0, 3.0])
    assert np.array_equal(viewed_from_leftmost(np.zeros(3)), np.zeros(3))


def test_viewed_from_leftmost_translation_invariant():
    c = np.array([1.25, 2.5, 2.75, 9.0])
    for s in (-3.0, 0.5, 100.0):
        assert np.array_equal(viewed_from_leftmost(c + s), viewed_from_leftmost(c))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zero_horizon_returns_init():
    init = np.array([-1.0, 0.0, 2.0])
    rec = simulate(init, 0.5, 0.0, RandomSource(1), record_configs=True)
    assert np.array_equal(rec.sample_times, [0.0])
    assert np.array_equal(rec.full_configs[0], init)
    assert rec.event_count == 0


class _NoEventStreams(SimulationStreams):
    """Suppress branching; diffusion draws come from a fixed table."""

    def __init__(self, gaussians):
        self._table = np.asarray(gaussians, dtype=np.float64)
        self._used = 0

    def increments(self, n, dt):
        g = self._table[self._used : self._used + n]
        self._used += n
        return g * math.sqrt(dt)

    def event_gap(self, n):
        return math.inf


def test_simulate_without_events_is_sorted_diffusion():
    init = np.array([0.0, 1.0, 5.0])
    g = np.array([2.5, -0.5, -4.0])
    rec = simulate(init, 0.5, 4.0, streams=_NoEventStreams(g), record_configs=True)
    expected = np.sort(init + g * 2.0)
    assert np.array_equal(rec.full_configs[0], expected)
    assert rec.event_count == 0


def test_simulate_midpoint_centred_at_symmetric_p():
    # At p=1/2 the law is symmetric under reflection, so the midpoint of the
    # extremes has mean 0.
    src = RandomSource(515151)
    mids = []
    for r in range(200):
        rec = simulate(np.zeros(50), 0.5, 10.0, src.child(r))
        mids.append(0.5 * (rec.leftmost[-1] + rec.rightmost[-1]))
    mean, se = mean_and_se(mids)
    assert abs(mean) <= 3.0 * se


def test_simulate_deterministic_per_seed():
    init = np.linspace(-1.0, 1.0, 10)
    times = [0.5, 1.0, 2.0]
    a = simulate(init, 0.7, 2.0, RandomSource(88, 5), times, record_configs=True)
    b = simulate(init, 0.7, 2.0, RandomSource(88, 5), times, record_configs=True)
    assert np.array_equal(a.leftmost, b.leftmost)
    assert np.array_equal(a.rightmost, b.rightmost)
    assert np.array_equal(a.full_configs, b.full_configs)
    assert a.event_count == b.event_count


def test_simulate_mirror_is_exact_reflection():
    init = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
    src = RandomSource(424242)
    base = simulate(init, 0.75, 3.0, src, [1.0, 3.0], record_configs=True)
    refl = simulate(
        -init[::-1], 0.25, 3.0, src, [1.0, 3.0], record_configs=True, mirror=True
    )
    assert np.array_equal(refl.leftmost, -base.rightmost)
    assert np.array_equal(refl.rightmost, -base.leftmost)
    assert np.array_equal(refl.full_configs, -base.full_configs[:, ::-1])
    assert refl.event_count == base.event_count


def test_simulate_validates_arguments():
    with pytest.raises(ValueError):
        simulate([0.0], 0.0, 1.0, RandomSource(1))
    with pytest.raises(ValueError):
        simulate([0.0], 1.0, 1.0, RandomSource(1))
    with pytest.raises(ValueError):
        simulate([0.0], 0.5, -1.0, RandomSource(1))
    with pytest.raises(ValueError):
        simulate([0.0], 0.5, 1.0, RandomSource(1), [0.5, 0.25])
    with pytest.raises(ValueError):
        simulate([0.0], 0.5, 1.0, RandomSource(1), [0.5, 2.0])
    with pytest.raises(ValueError):
        simulate([0.0], 0.5, 1.0)  # neither src nor streams


@pytest.mark.parametrize("T", [math.nan, math.inf])
def test_simulate_rejects_nonfinite_horizon(T):
    # a non-finite horizon used to leave the event loop without an exit
    with pytest.raises(ValueError, match="finite"):
        simulate([0.0, 1.0], 0.5, T, RandomSource(1))
    with pytest.raises(ValueError, match="finite"):
        couple_simulate([0.0, 1.0], [0.0, 1.0], 0.5, T, RandomSource(1))


def test_sample_times_recorded_between_events():
    src = RandomSource(9001)
    times = np.linspace(0.25, 4.0, 16)
    rec = simulate(np.zeros(5), 0.6, 4.0, src, times)
    assert np.array_equal(rec.sample_times, times)
    assert np.all(rec.leftmost <= rec.rightmost)


# ---------------------------------------------------------------------------
# couple_simulate


def test_couple_identical_inits_identical_paths():
    init = np.array([-1.0, 0.0, 0.5, 2.0])
    lo, hi = couple_simulate(init, init.copy(), 0.6, 2.0, RandomSource(31), record_configs=True)
    assert np.array_equal(lo.full_configs, hi.full_configs)
    assert np.array_equal(lo.leftmost, hi.leftmost)


def test_couple_shifted_inits_stay_ordered():
    init = np.sort(np.random.default_rng(5).normal(size=8))
    for seed in range(10):
        lo, hi = couple_simulate(init, init + 1.0, 0.75, 2.0, RandomSource(1000 + seed))
        assert np.all(lo.leftmost <= hi.leftmost)
        assert np.all(lo.rightmost <= hi.rightmost)


def test_couple_rejects_bad_pairs():
    with pytest.raises(ValueError):
        couple_simulate([0.0, 1.0], [0.0], 0.5, 1.0, RandomSource(1))
    with pytest.raises(ValueError):
        couple_simulate([0.0, 2.0], [1.0, 1.0], 0.5, 1.0, RandomSource(1))


def test_couple_rows_share_the_single_run_draws():
    # each row of the coupled pair is the run simulate makes from its start
    lo_init = np.linspace(-1.0, 1.0, 7)
    hi_init = lo_init + np.linspace(0.0, 0.5, 7)
    times = [0.5, 1.25, 3.0]
    for seed in range(4):
        src = RandomSource(4040, seed)
        pair = couple_simulate(
            lo_init, hi_init, 0.65, 3.0, src, times, record_configs=True
        )
        for init, rec in zip((lo_init, hi_init), pair):
            alone = simulate(init, 0.65, 3.0, src, times, record_configs=True)
            assert np.array_equal(rec.leftmost, alone.leftmost)
            assert np.array_equal(rec.rightmost, alone.rightmost)
            assert np.array_equal(rec.full_configs, alone.full_configs)
            assert rec.event_count == alone.event_count
        assert pair[0].event_count > 0


class _OneEventStreams(SimulationStreams):
    """Zero diffusion and exactly one branch event at time 0.5, rank 1."""

    def __init__(self, q):
        self._q = q
        self._fired = False

    def increments(self, n, dt):
        return np.zeros(n)

    def event_gap(self, n):
        if self._fired:
            return math.inf
        self._fired = True
        return 0.5

    def branch_rank(self, n):
        return 1

    def keep_right(self, p):
        return bool(self._q)


def test_forced_single_event_matches_hand_computation():
    # One event with rank i=1: kill-leftmost (q=1) duplicates the leftmost in
    # place, kill-rightmost (q=0) shifts mass down.
    init = np.array([1.0, 2.0])
    rec1 = simulate(init, 0.5, 1.0, streams=_OneEventStreams(1), record_configs=True)
    assert np.array_equal(rec1.full_configs[0], [1.0, 2.0])
    rec0 = simulate(init, 0.5, 1.0, streams=_OneEventStreams(0), record_configs=True)
    assert np.array_equal(rec0.full_configs[0], [1.0, 1.0])
    assert rec0.event_count == 1


# ---------------------------------------------------------------------------
# estimate_speed


def test_speed_zero_at_half():
    est = estimate_speed(0.5, 20, 20.0, RandomSource(606), replicas=20)
    assert abs(est.v_hat) <= 3.0 * est.std_error
    assert est.burn_in == pytest.approx(4.0)  # default T/5


def test_speed_antisymmetric_under_mirroring():
    src = RandomSource(607)
    est = estimate_speed(0.75, 20, 20.0, src, replicas=10)
    mirrored = estimate_speed(0.25, 20, 20.0, src, replicas=10, mirror=True)
    # the mirrored run reflects every replica exactly, swapping the extremes
    assert np.array_equal(mirrored.samples_left, -est.samples_right)
    assert np.array_equal(mirrored.samples_right, -est.samples_left)
    assert mirrored.v_hat == -est.v_hat_right


def test_speed_extremes_share_one_velocity():
    est = estimate_speed(0.7, 30, 30.0, RandomSource(608), replicas=20)
    combined = math.hypot(est.std_error, est.std_error_right)
    assert abs(est.v_hat - est.v_hat_right) <= 3.0 * combined


def test_speed_rejects_bad_arguments():
    with pytest.raises(ValueError):
        estimate_speed(0.5, 10, 10.0, RandomSource(1), replicas=0)
    with pytest.raises(ValueError):
        estimate_speed(0.5, 10, 10.0, RandomSource(1), burn_in=10.0)


# ---------------------------------------------------------------------------
# stationarity_diagnostic


def test_stationarity_equal_times_zero_distance():
    d = stationarity_diagnostic(0.75, 10, 5.0, 5.0, 40, RandomSource(70))
    assert d == 0.0


def test_stationarity_two_large_times_close():
    d = stationarity_diagnostic(0.75, 20, 20.0, 40.0, 200, RandomSource(71))
    assert d < ks_critical(200, 200, 0.01)


def test_stationarity_degenerate_start_far():
    d = stationarity_diagnostic(0.75, 20, 0.01, 40.0, 200, RandomSource(71))
    assert d > ks_critical(200, 200, 0.01)


# ---------------------------------------------------------------------------
# CSV export


def test_trajectory_csv_narrow(tmp_path):
    rec = simulate(np.zeros(4), 0.5, 1.0, RandomSource(3), [0.5, 1.0])
    path = tmp_path / "trace.csv"
    trajectory_to_csv(rec, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "leftmost", "rightmost"]
    assert len(rows) == 3
    assert float(rows[1][1]) == rec.leftmost[0]
    # 17 significant digits round-trip doubles exactly
    assert float(rows[2][2]) == rec.rightmost[1]


def test_trajectory_csv_wide(tmp_path):
    rec = simulate(np.zeros(3), 0.5, 1.0, RandomSource(4), [1.0], record_configs=True)
    path = tmp_path / "wide.csv"
    trajectory_to_csv(rec, path, wide=True)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "x1", "x2", "x3"]
    assert [float(v) for v in rows[1][1:]] == list(rec.full_configs[0])

    narrow = simulate(np.zeros(3), 0.5, 1.0, RandomSource(4), [1.0])
    with pytest.raises(ValueError):
        trajectory_to_csv(narrow, tmp_path / "fail.csv", wide=True)
