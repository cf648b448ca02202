"""Event-driven particle system: operators, coupling, speed estimation."""

from __future__ import annotations

import functools
import math
import os
import re
import sys
import threading
import time

import numpy as np
import pytest

from npbbm import (
    CouplingViolationError,
    RandomSource,
    SimulationStreams,
    couple_simulate,
    estimate_speed,
    simulate,
)
from npbbm import particles
from npbbm.particles import order
from npbbm.randomness import TAG_CLOCK, TAG_DRIVING, TAG_INDEX, TAG_SELECT

from helpers import mean_and_se
from test_reference import rank_reference, same_bits


# ---------------------------------------------------------------------------
# order


def test_order_sorts():
    assert np.array_equal(order([3.0, 1.0, 2.0]), [1.0, 2.0, 3.0])


def test_order_identity_on_sorted():
    assert np.array_equal(order([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_order_handles_duplicates():
    assert np.array_equal(order([2.0, 2.0, 1.0]), [1.0, 2.0, 2.0])


def test_order_keeps_signed_zeros_in_input_order():
    # user input can hold both zeros, so order() keeps the stable sort
    raw = [0.0, -0.0, 1.0, -0.0, 0.0, -1.0]
    assert np.array_equal(
        np.signbit(order(raw)), [True, False, True, True, False, False]
    )


def test_order_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        order([])
    with pytest.raises(ValueError):
        order([1.0, math.nan])
    with pytest.raises(ValueError):
        order([1.0, math.inf])


# ---------------------------------------------------------------------------
# streams


class _KeptSource:
    """A source that keeps the generators it hands out, by tag."""

    def __init__(self, src):
        self._src = src
        self.gens = {}

    def generator(self, tag):
        self.gens[tag] = self._src.generator(tag)
        return self.gens[tag]


@pytest.mark.parametrize("n", [1, 50, 4000])
def test_event_streams_draw_exactly_a_batch_per_call(n):
    # each events() call takes its batch and nothing past it, so after k
    # calls the next draw of a stream is draw k * batch + 1 of a fresh one
    src = RandomSource(20260815, 3)
    kept = _KeptSource(src)
    streams = SimulationStreams(kept, n)
    k = 3
    for _ in range(k):
        streams.events(0.0, 0.5)
    used = k * streams.batch
    for tag, draw in [
        (TAG_CLOCK, lambda g, *size: g.standard_exponential(*size)),
        (TAG_INDEX, lambda g, *size: g.integers(1, n + 1, *size)),
        (TAG_SELECT, lambda g, *size: g.random(*size)),
    ]:
        assert draw(kept.gens[tag]) == draw(src.generator(tag), used + 1)[-1]


def test_increments_are_drawn_into_the_callers_buffer():
    n = 7
    src = RandomSource(20260815, 3)
    kept = _KeptSource(src)
    streams = SimulationStreams(kept, n)
    out = np.empty((streams.batch, n))
    dts = np.array([0.5, 2.0, 1e-3])
    rows = streams.increments(dts, out)
    assert np.shares_memory(rows, out) and rows.shape == (3, n)
    fresh = src.generator(TAG_DRIVING).standard_normal(3 * n + 1)
    assert np.array_equal(rows, fresh[:-1].reshape(3, n) * np.sqrt(dts)[:, None])
    assert kept.gens[TAG_DRIVING].standard_normal() == fresh[-1]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zero_horizon_returns_init():
    init = np.array([-1.0, 0.0, 2.0])
    rec = simulate(init, 0.5, 0.0, RandomSource(1), record_configs=True)
    assert np.array_equal(rec.sample_times, [0.0])
    assert np.array_equal(rec.full_configs[0], init)
    assert rec.event_count == 0


def _stub_streams(monkeypatch, make):
    """Have simulate take its streams from make(n) instead of its source."""
    monkeypatch.setattr(particles, "SimulationStreams", lambda src, n: make(n))


class _NoEventStreams(SimulationStreams):
    """Suppress branching; diffusion draws come from a fixed table."""

    def __init__(self, gaussians, n):
        self._table = np.asarray(gaussians, dtype=np.float64)
        self._used = 0
        self._n = n
        self.batch = 1

    def increments(self, dts, out):
        rows = []
        for dt in dts:
            rows.append(self._table[self._used : self._used + self._n] * math.sqrt(dt))
            self._used += self._n
        return np.array(rows).reshape(len(dts), self._n)

    def events(self, t, p):
        return np.array([math.inf]), np.array([1]), np.array([False])


def test_simulate_without_events_is_sorted_diffusion(monkeypatch):
    init = np.array([0.0, 1.0, 5.0])
    g = np.array([2.5, -0.5, -4.0])
    _stub_streams(monkeypatch, functools.partial(_NoEventStreams, g))
    rec = simulate(init, 0.5, 4.0, RandomSource(1), record_configs=True)
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


def test_a_broken_coupling_names_its_rank_values_and_time():
    # _run checks a pair after every stop, so a pair that starts out of order
    # fails at the first one; the error used to name nothing
    src = RandomSource(3)
    first = SimulationStreams(src, 1).events(0.0, 0.5)[0][0]
    pair = np.array([[1.0], [0.0]])
    with pytest.raises(CouplingViolationError) as err:
        streams = [SimulationStreams(src, 1)]  # the pair shares one bundle
        times = np.array([100.0])
        particles._run(pair, 0.5, 100.0, times, streams, False, coupled=True)
    msg = str(err.value)
    m = re.fullmatch(
        r"dominance order broken under shared streams at t=(\S+): "
        r"rank 1 holds (\S+) in the lower copy and (\S+) in the upper",
        msg,
    )
    assert m, msg
    assert float(m[1]) == first
    assert float(m[2]) - float(m[3]) == pytest.approx(1.0, abs=1e-12)


def test_couple_rows_share_the_single_run_draws():
    # each row of the coupled pair is the rank-order run from its start
    lo_init = np.linspace(-1.0, 1.0, 7)
    hi_init = lo_init + np.linspace(0.0, 0.5, 7)
    times = [0.5, 1.25, 3.0]
    for seed in range(4):
        src = RandomSource(4040, seed)
        pair = couple_simulate(
            lo_init, hi_init, 0.65, 3.0, src, times, record_configs=True
        )
        for init, rec in zip((lo_init, hi_init), pair):
            ref, events = rank_reference(init, 0.65, 3.0, src, times)
            assert same_bits(rec.leftmost, ref[:, 0])
            assert same_bits(rec.rightmost, ref[:, -1])
            assert same_bits(rec.full_configs, ref)
            assert rec.event_count == events
        assert pair[0].event_count > 0


class _OneEventStreams(SimulationStreams):
    """Zero diffusion and exactly one branch event at time 0.5, rank 1."""

    def __init__(self, q, n):
        self._q = q
        self._fired = False
        self._n = n
        self.batch = 2

    def increments(self, dts, out):
        return np.zeros((len(dts), self._n))

    def events(self, t, p):
        when = math.inf if self._fired else 0.5
        self._fired = True
        return np.array([when, math.inf]), np.array([1, 1]), np.full(2, bool(self._q))


def test_forced_single_event_matches_hand_computation(monkeypatch):
    # One event with brancher i=1, label 0: kill-leftmost (q=1) writes it
    # over itself, kill-rightmost (q=0) over label 1.
    init = np.array([1.0, 2.0])
    for q, want in ((1, [1.0, 2.0]), (0, [1.0, 1.0])):
        _stub_streams(monkeypatch, functools.partial(_OneEventStreams, q))
        rec = simulate(init, 0.5, 1.0, RandomSource(1), record_configs=True)
        assert np.array_equal(rec.full_configs[0], want)
        assert rec.event_count == 1


def test_sample_at_an_event_time_comes_before_the_event(monkeypatch):
    # the event at 0.5 follows the sample at 0.5, and an event at T still fires
    init = np.array([1.0, 2.0])
    _stub_streams(monkeypatch, functools.partial(_OneEventStreams, 0))
    rec = simulate(init, 0.5, 0.5, RandomSource(1), [0.0, 0.5], record_configs=True)
    assert np.array_equal(rec.full_configs, [[1.0, 2.0], [1.0, 2.0]])
    assert rec.event_count == 1
    _stub_streams(monkeypatch, functools.partial(_OneEventStreams, 0))
    rec = simulate(init, 0.5, 1.0, RandomSource(1), [0.5, 1.0], record_configs=True)
    assert np.array_equal(rec.full_configs, [[1.0, 2.0], [1.0, 1.0]])


def test_zero_length_intervals_draw_nothing(monkeypatch):
    # the table holds one interval's normals: a sample at 0 must not take any
    init = np.array([0.0, 1.0, 5.0])
    g = np.array([2.5, -0.5, -4.0])
    _stub_streams(monkeypatch, functools.partial(_NoEventStreams, g))
    rec = simulate(init, 0.5, 4.0, RandomSource(1), [0.0, 4.0], record_configs=True)
    assert np.array_equal(rec.full_configs, [init, np.sort(init + g * 2.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5])
def test_ranges_name_the_value_and_its_limit(bad):
    msg = f"p must lie strictly in (0,1), got p={bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        simulate([0.0], bad, 1.0, RandomSource(1))
    msg = f"need T > burn_in >= 0, got T=1.0, burn_in={bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        estimate_speed(0.5, 3, 1.0, RandomSource(1), burn_in=bad)


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


@pytest.mark.parametrize("mirror", [False, True])
# a stack below PARALLEL_MIN_N, threads from it
@pytest.mark.parametrize("n", [50, 300])
def test_speed_without_burn_in_is_the_last_extreme_over_t(n, mirror):
    # a sample at time 0 has a zero interval: it draws nothing and reads the
    # start, so each replica's rate is its extreme at T over T
    src = RandomSource(609)
    T = 0.5
    est = estimate_speed(0.75, n, T, src, burn_in=0.0, replicas=3, mirror=mirror)
    left, right = [], []
    for r in range(3):
        rec = simulate(
            np.zeros(n), 0.75, T, src.child(r), sample_times=[T], mirror=mirror
        )
        left.append(rec.leftmost[-1] / T)
        right.append(rec.rightmost[-1] / T)
    assert np.array_equal(est.samples_left, left)
    assert np.array_equal(est.samples_right, right)


def _bits(values):
    # equal bits, so that +0.0 and -0.0 differ
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("burn_in", [None, 0.0])
@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("p", [0.5, 0.75])
@pytest.mark.parametrize("replicas", [2, 3, 20, particles.STACK_ROWS + 1])
@pytest.mark.parametrize(
    "n, T",  # more than one round of events a run from N = 10 on
    [(1, 30.0), (2, 20.0), (10, 90.0), (50, 4.0), (particles.PARALLEL_MIN_N - 1, 0.3)],
)
def test_stacked_replicas_equal_one_simulate_each(n, T, replicas, p, mirror, burn_in):
    # below PARALLEL_MIN_N the replicas step together as stacks of at most
    # STACK_ROWS rows; each replica's rates are the bits of its own run
    src = RandomSource(615)
    est = estimate_speed(p, n, T, src, burn_in, replicas, mirror=mirror)
    burn = T / 5.0 if burn_in is None else burn_in
    left, right = [], []
    for r in range(replicas):
        rec = simulate(
            np.zeros(n), p, T, src.child(r), sample_times=[burn, T], mirror=mirror
        )
        left.append((rec.leftmost[1] - rec.leftmost[0]) / (T - burn))
        right.append((rec.rightmost[1] - rec.rightmost[0]) / (T - burn))
    assert _bits(est.samples_left) == _bits(left)
    assert _bits(est.samples_right) == _bits(right)


@pytest.mark.parametrize("mirror", [False, True])
def test_stacked_stops_that_move_no_row_keep_its_bits(monkeypatch, mirror):
    # the time-0 sample moves no row: a mirrored start is -0.0 in the run and
    # reads +0.0 once reflected, as in a single run, where adding +0.0 would
    # make it -0.0.  Rows that end first idle while the others step on.
    stacked = []
    run = particles._run

    def recorded(*args, **kwargs):
        recs = run(*args, **kwargs)
        stacked.extend(recs)
        return recs

    monkeypatch.setattr(particles, "_run", recorded)
    src = RandomSource(616)
    n, T = 50, 6.5
    estimate_speed(0.75, n, T, src, burn_in=0.0, replicas=6, mirror=mirror)
    monkeypatch.undo()
    batch = SimulationStreams(src, n).batch
    assert len({rec.event_count // batch for rec in stacked}) > 1  # rounds differ
    for r, rec in enumerate(stacked):
        alone = simulate(np.zeros(n), 0.75, T, src.child(r), [0.0, T], mirror=mirror)
        assert _bits(rec.leftmost) == _bits(alone.leftmost)
        assert _bits(rec.rightmost) == _bits(alone.rightmost)
        assert rec.event_count == alone.event_count
        assert not np.signbit(rec.leftmost[0]) and not np.signbit(rec.rightmost[0])


def test_coupled_rows_keep_signed_zeros_at_a_zero_interval():
    # the pair's first stop, a sample at time 0, moves neither row, so it is
    # not re-sorted: numpy's sort of a sorted row that holds both signed
    # zeros may reorder them, and even change how many are -0.0
    lo = np.array([-1.0] + [-0.0, 0.0] * 20)
    hi = np.array([-0.0, 0.0] * 20 + [2.0])
    src = RandomSource(617)
    pair = couple_simulate(lo, hi, 0.6, 2.0, src, [0.0, 2.0], record_configs=True)
    for init, rec in zip((lo, hi), pair):
        ref, _ = rank_reference(init, 0.6, 2.0, src, [0.0, 2.0])
        assert same_bits(rec.full_configs, ref)
        assert same_bits(rec.full_configs[0], init)


def test_speed_extremes_share_one_velocity():
    est = estimate_speed(0.7, 30, 30.0, RandomSource(608), replicas=20)
    combined = math.hypot(est.std_error, est.std_error_right)
    assert abs(est.v_hat - est.v_hat_right) <= 3.0 * combined


def test_speed_rejects_bad_arguments():
    with pytest.raises(ValueError):
        estimate_speed(0.5, 10, 10.0, RandomSource(1), replicas=0)
    with pytest.raises(ValueError):
        estimate_speed(0.5, 10, 10.0, RandomSource(1), burn_in=10.0)


def test_speed_rejects_a_single_replica():
    # one replica has no spread; its standard error used to be reported as 0
    with pytest.raises(ValueError, match="replicas=1 must be at least 2"):
        estimate_speed(0.5, 10, 10.0, RandomSource(1), replicas=1)


# ---------------------------------------------------------------------------
# replicas in threads

def _allow_cpus(monkeypatch, count):
    # the thread count is the process's CPU affinity, which taskset narrows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("replicas", [3, 4])
@pytest.mark.parametrize(
    "n", [particles.PARALLEL_MIN_N, 2 * particles.PARALLEL_MIN_N + 1]
)
def test_threaded_replicas_equal_a_serial_loop(monkeypatch, n, replicas, mirror):
    _allow_cpus(monkeypatch, 2)
    threads = set()
    # each thread's first replica waits for the other's, so both must run one
    both_started = threading.Barrier(2, timeout=10.0)

    def recorded(*args, **kwargs):
        if threading.get_ident() not in threads:
            threads.add(threading.get_ident())
            both_started.wait()
        return simulate(*args, **kwargs)

    monkeypatch.setattr(particles, "simulate", recorded)
    src = RandomSource(610)
    T, burn = 0.25, 0.05
    est = estimate_speed(0.75, n, T, src, burn, replicas, mirror=mirror)
    assert len(threads) == 2
    left, right = [], []
    for r in range(replicas):
        rec = simulate(
            np.zeros(n), 0.75, T, src.child(r), sample_times=[burn, T], mirror=mirror
        )
        left.append((rec.leftmost[1] - rec.leftmost[0]) / (T - burn))
        right.append((rec.rightmost[1] - rec.rightmost[0]) / (T - burn))
    assert np.array_equal(est.samples_left, left)
    assert np.array_equal(est.samples_right, right)


def test_a_failing_replica_propagates_and_leaves_no_thread(monkeypatch):
    src = RandomSource(611)
    failure = FloatingPointError("replica 1 failed")

    def flaky(init, p, T, replica_src, *args, **kwargs):
        if replica_src == src.child(1):
            raise failure
        return simulate(init, p, T, replica_src, *args, **kwargs)

    _allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(particles, "simulate", flaky)
    before = threading.active_count()
    with pytest.raises(FloatingPointError) as exc:
        estimate_speed(0.75, particles.PARALLEL_MIN_N, 0.2, src, replicas=6)
    assert exc.value is failure
    assert threading.active_count() == before


def test_no_replica_starts_after_one_fails(monkeypatch):
    # two threads: the one on replica 0 waits until replica 1 has failed
    _allow_cpus(monkeypatch, 2)
    src = RandomSource(612)
    started = []
    failed = threading.Event()

    def flaky(init, p, T, replica_src, *args, **kwargs):
        r = replica_src.stream_index - src.stream_index
        started.append(r)
        if r == 1:
            failed.set()
            raise FloatingPointError("replica 1 failed")
        failed.wait(10.0)  # replica 0 ends after replica 1 has failed,
        time.sleep(0.05)  # and after its thread has recorded the failure
        return simulate(init, p, T, replica_src, *args, **kwargs)

    monkeypatch.setattr(particles, "simulate", flaky)
    with pytest.raises(FloatingPointError, match="replica 1 failed"):
        estimate_speed(0.75, particles.PARALLEL_MIN_N, 0.2, src, replicas=6)
    assert sorted(started) == [0, 1]


def _no_threads(*args, **kwargs):
    raise AssertionError("a thread was started")


@pytest.mark.parametrize("n", [50, particles.PARALLEL_MIN_N - 1])
def test_no_thread_starts_below_the_threshold(monkeypatch, n):
    monkeypatch.setattr(threading, "Thread", _no_threads)
    est = estimate_speed(0.75, n, 0.2, RandomSource(613), replicas=4)
    assert est.samples_left.shape == (4,)


def test_one_allowed_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(threading, "Thread", _no_threads)
    _allow_cpus(monkeypatch, 1)
    est = estimate_speed(0.75, particles.PARALLEL_MIN_N, 0.2, RandomSource(614))
    assert est.samples_left.shape == (20,)


def test_every_replica_runs_once_under_fast_thread_switching(monkeypatch):
    # more threads than cores, switching often: an index handed out twice or
    # a result stored under the wrong index would show
    _allow_cpus(monkeypatch, 8)
    calls = []

    def run(r):
        calls.append(r)
        return r * r

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = particles._map_replicas(run, 5000, particles.PARALLEL_MIN_N)
    finally:
        sys.setswitchinterval(interval)
    assert results == [r * r for r in range(5000)]
    assert sorted(calls) == list(range(5000))
