"""Reference oracles for the hot kernels, which must match them bit for bit.

The particle loop reads its draws ahead in blocks and sorts with quicksort;
the killed-path kernel gathers the paths that may leave in a step and
draws their uniforms in one call (draw layout 3); the bounding systems
branch level by level on whole arrays and sort with quicksort; the grid
scheme runs its steps as one loop over the support window.  The plain
implementations below draw call by call, sort stably, decide path by path
and step the scheme one full-grid density at a time; the fast kernels must
return exactly their bits.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import npbbm.density as density
from npbbm import (
    GridDensity,
    GridTooSmallError,
    RandomSource,
    SchemeParams,
    couple_simulate,
    iterate_scheme,
    plan_grid,
    refine_limit,
    run_bounds,
    simulate,
    travelling_wave,
    wave_density,
)
from npbbm.density import (
    SchemeRun,
    _check_room,
    _cut_index,
    _fft_size,
    _heat_kernel,
    _kernel_radius,
    _lower_step,
    _on_grid,
    _support,
)
from npbbm.exits import _plan, _run_paths
from npbbm.particles import BLOCK_ITEMS, MIN_BATCH, SimulationStreams
from npbbm.randomness import (
    TAG_CLOCK,
    TAG_DRIVING,
    TAG_INDEX,
    TAG_SELECT,
    TAG_UNIFORM_A,
)
from npbbm.wave import Barrier, wave_barriers

from helpers import random_bump_density, wave_fixture


def simulate_reference(init, p, T, src, sample_times=None):
    """(configs, event count) of one run: call-by-call draws, stable sorts."""
    x = np.sort(np.asarray(init, dtype=np.float64), kind="stable")
    n = x.size
    times = [T] if sample_times is None else list(sample_times)
    driving = src.generator(TAG_DRIVING)
    clock = src.generator(TAG_CLOCK)
    index = src.generator(TAG_INDEX)
    select = src.generator(TAG_SELECT)

    def move(x, dt):
        if dt > 0.0:
            x = np.sort(x + driving.standard_normal(n) * math.sqrt(dt), kind="stable")
        return x

    t = 0.0
    events = 0
    configs = []
    next_event = float(clock.exponential(1.0 / n))

    def event(x):
        i = int(index.integers(1, n + 1))
        if select.random() < p:
            return np.concatenate((x[1:i], x[i - 1 :]))
        return np.concatenate((x[:i], x[i - 1 : -1]))

    for s in times:
        # a sample at the very time of an event is taken before the event
        while next_event < s:
            x = event(move(x, next_event - t))
            t = next_event
            events += 1
            next_event = t + float(clock.exponential(1.0 / n))
        x = move(x, s - t)
        t = s
        configs.append(x)
    while next_event <= T:
        x = event(move(x, next_event - t))
        t = next_event
        events += 1
        next_event = t + float(clock.exponential(1.0 / n))
    return np.array(configs), events


def _series_reference(x, y, w, s, reflections):
    """The alternating-reflection series, term by term, with s = -2 / dt."""
    p = np.exp(x * y * s)
    for k in range(1, reflections + 1):
        kw = k * w
        p = p + np.exp((x + kw) * (y + kw) * s)
        p = p - np.exp(kw * ((kw + y) - x) * s)
    return p


def run_paths_reference(x0, left, right, t, h, src, bridge_correction=True):
    """The killed-path kernel with one scalar uniform per candidate.

    Draw layout 3: each step draws a normal for every alive path.  With
    bridge correction each path whose larger k = 0 exponent is above -37
    then takes one scalar uniform, in path order: below P_left it exits
    left, else below P_left + P_right right.  A path that ends on or beyond
    a barrier gives that side the rest of the other side's series.
    Without bridge correction a path exits where its end is on or beyond a
    barrier, and no uniform is drawn.
    """
    grid, lv, rv, reflections = _plan(t, h, left, right, bridge_correction)
    gauss = src.generator(TAG_DRIVING)
    uni = src.generator(TAG_UNIFORM_A)
    n = x0.size
    code = np.zeros(n, dtype=np.int64)
    final = np.full(n, np.nan)
    idx = np.arange(n)
    cur = x0.copy()
    for k in range(len(grid) - 1):
        if idx.size == 0:
            break
        dt = grid[k + 1] - grid[k]
        nxt = cur + gauss.standard_normal(idx.size) * math.sqrt(dt)
        d0l, d1l = cur - lv[k], nxt - lv[k + 1]
        d0r, d1r = rv[k] - cur, rv[k + 1] - nxt
        side = np.zeros(idx.size, dtype=np.int64)
        if bridge_correction:
            s = -2.0 / dt
            w = rv[k] - lv[k]
            with np.errstate(over="ignore", invalid="ignore"):
                p_left = _series_reference(d0l, d1l, w, s, reflections[k])
                p_right = _series_reference(d0r, d1r, w, s, reflections[k])
            for j in range(idx.size):
                if max(d0l[j] * d1l[j] * s, d0r[j] * d1r[j] * s) <= -37.0:
                    continue
                pl, pr = p_left[j], p_right[j]
                if d1l[j] <= 0.0:
                    pl = 1.0 - pr
                elif d1r[j] <= 0.0:
                    pr = 1.0 - pl
                u = uni.random()
                if u < pl:
                    side[j] = 1
                elif u < pl + pr:
                    side[j] = 2
        else:
            side[d1r <= 0.0] = 2
            side[d1l <= 0.0] = 1
        code[idx[side > 0]] = side[side > 0]
        idx = idx[side == 0]
        cur = nxt[side == 0]
    final[idx] = cur
    return code, final


def run_bounds_reference(init, p, delta, side, k_steps, src):
    """(configs, pre-truncation sizes) of one bounding run.

    One particle at a time: each draws its lifetime and its move by a scalar
    call, splits in two if it dies before the step ends, and the survivors
    of a step are sorted stably.
    """
    moves = src.generator(TAG_DRIVING)
    clocks = src.generator(TAG_CLOCK)
    x = np.sort(np.asarray(init, dtype=np.float64), kind="stable")
    n = x.size
    q = p if side == "lower" else 1.0 - p
    removed = round(n * q * (1.0 - math.exp(-delta)))
    if removed >= n:
        raise ValueError("removal count reached N")
    configs, sizes = [x], []
    for _ in range(k_steps):
        survivors = x[removed:] if side == "lower" else x[: n - removed]
        level = [(float(v), delta) for v in survivors]
        finished = []
        while level:
            below = []
            for pos, rem in level:
                life = float(clocks.exponential(1.0))
                g = float(moves.standard_normal())
                if life >= rem:
                    finished.append(pos + g * math.sqrt(rem))
                else:
                    below += [(pos + g * math.sqrt(life), rem - life)] * 2
            level = below
        grown = np.sort(np.array(finished), kind="stable")
        sizes.append(grown.size)
        if grown.size >= n:
            x = grown[:n] if side == "lower" else grown[grown.size - n :]
        elif side == "lower":
            x = np.concatenate((np.full(n - grown.size, grown[0]), grown))
        else:
            x = np.concatenate((grown, np.full(n - grown.size, grown[-1])))
        configs.append(x)
    return configs, sizes


def same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# starts with ties and both signed zeros
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-3.0, 3.0, allow_nan=False),
)
_configs = st.lists(_values, min_size=1, max_size=64)
_p = st.floats(0.05, 0.95)
_T = st.floats(0.0, 2.0)
_seed = st.integers(0, 2**32 - 1)


@st.composite
def _sample_times(draw, T):
    if T == 0.0 or draw(st.booleans()):
        return None
    fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True))
    times = np.unique(np.array(sorted(fracs)) * T)
    return times


@settings(max_examples=60, deadline=None)
@given(init=_configs, p=_p, T=_T, seed=_seed, data=st.data())
def test_simulate_matches_reference(init, p, T, seed, data):
    times = data.draw(_sample_times(T))
    src = RandomSource(seed, 3)
    ref, events = simulate_reference(init, p, T, src, times)
    rec = simulate(init, p, T, src, times, record_configs=True)
    assert same_bits(rec.full_configs, ref)
    assert same_bits(rec.leftmost, ref[:, 0])
    assert same_bits(rec.rightmost, ref[:, -1])
    assert rec.event_count == events
    # mirror=True is the reflected run at 1-p from the reflected start
    refl = -np.asarray(init, dtype=np.float64)[::-1]
    mref, mevents = simulate_reference(refl, 1.0 - p, T, src, times)
    mrec = simulate(init, p, T, src, times, record_configs=True, mirror=True)
    assert same_bits(mrec.full_configs, -mref[:, ::-1])
    assert mrec.event_count == mevents
    plain = simulate(init, p, T, src, times)
    assert same_bits(plain.leftmost, ref[:, 0])
    assert same_bits(plain.rightmost, ref[:, -1])


@settings(max_examples=40, deadline=None)
@given(init=_configs, shift=st.floats(0.0, 1.0), p=_p, T=_T, seed=_seed)
def test_couple_simulate_matches_reference(init, shift, p, T, seed):
    lo = np.sort(np.asarray(init, dtype=np.float64), kind="stable")
    hi = lo + shift
    src = RandomSource(seed, 4)
    pair = couple_simulate(lo, hi, p, T, src, record_configs=True)
    for start, rec in zip((lo, hi), pair):
        ref, events = simulate_reference(start, p, T, src)
        assert same_bits(rec.full_configs, ref)
        assert rec.event_count == events


# (n, T, samples, mirror, batches): each case runs through at least
# `batches` of the event loop's batches
_ACROSS_BATCHES = [
    pytest.param(1, 30000.0, None, False, 3, id="n1"),
    pytest.param(8, 450.0, None, False, 3, id="n8"),
    pytest.param(BLOCK_ITEMS // 2 + 1, 0.02, None, False, 3, id="batch-floor"),
    pytest.param(BLOCK_ITEMS + 1, 0.008, None, False, 3, id="request-above-a-block"),
    pytest.param(
        MIN_BATCH * BLOCK_ITEMS + 1, 0.00005, None, False, 3, id="one-event-batches"
    ),
    # samples at 0 and at T, more of them than one batch has events
    pytest.param(8, 300.0, 5000, False, 2, id="n8-dense-samples"),
    pytest.param(8, 300.0, 40, True, 2, id="n8-mirror"),
]


@pytest.mark.parametrize("n, T, samples, mirror, batches", _ACROSS_BATCHES)
def test_simulate_matches_reference_across_batches(n, T, samples, mirror, batches):
    init = np.random.default_rng(n).normal(size=n)
    times = None if samples is None else np.linspace(0.0, T, samples)
    src = RandomSource(20260815, n)
    p = 0.7
    if mirror:  # the reflected run at 1-p from the reflected start
        ref, events = simulate_reference(-init[::-1], 1.0 - p, T, src, times)
        ref = -ref[:, ::-1]
    else:
        ref, events = simulate_reference(init, p, T, src, times)
    rec = simulate(init, p, T, src, times, record_configs=True, mirror=mirror)
    assert events >= batches * SimulationStreams(src, n).batch
    assert same_bits(rec.full_configs, ref)
    assert same_bits(rec.leftmost, ref[:, 0])
    assert same_bits(rec.rightmost, ref[:, -1])
    assert rec.event_count == events


def test_couple_simulate_matches_reference_across_batches():
    lo = np.sort(np.random.default_rng(8).normal(size=8))
    hi = lo + np.linspace(0.0, 1.0, 8)
    src = RandomSource(20260815, 88)
    times = np.linspace(0.0, 450.0, 7)
    pair = couple_simulate(lo, hi, 0.6, 450.0, src, times, record_configs=True)
    for start, rec in zip((lo, hi), pair):
        ref, events = simulate_reference(start, 0.6, 450.0, src, times)
        assert events >= 3 * SimulationStreams(src, 8).batch
        assert same_bits(rec.full_configs, ref)
        assert same_bits(rec.leftmost, ref[:, 0])
        assert same_bits(rec.rightmost, ref[:, -1])
        assert rec.event_count == events


def _check_paths(x0, left, right, t, h, src, bridge_correction=True):
    got = _run_paths(x0, left, right, t, h, src, bridge_correction=bridge_correction)
    want = run_paths_reference(x0, left, right, t, h, src, bridge_correction)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert same_bits(a, b)
    return want


def test_run_paths_matches_reference_on_the_wave_strip():
    left, right = wave_barriers(travelling_wave(0.75), 1.0)
    lo = float(left.value(0.0))
    hi = float(right.value(0.0))
    for seed in (20260815, 7):
        x0 = np.random.default_rng(seed).uniform(lo, hi, 2000)
        x0 = np.clip(x0, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf))
        for t in (1.0, 0.3):
            _check_paths(x0, left, right, t, 1e-3, RandomSource(seed, 1))


@settings(max_examples=40, deadline=None)
@given(
    width=st.floats(0.05, 3.0),
    slope=st.floats(-3.0, 3.0),
    kink=st.floats(-3.0, 3.0),
    fracs=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=50),
    t=st.floats(0.01, 5.0),
    seed=_seed,
)
def test_run_paths_matches_reference_on_parallel_strips(width, slope, kink, fracs, t, seed):
    # Parallel barriers that bend together at t/2: each half is one parallel
    # piece, cut into as many steps as the width needs (several for narrow
    # strips), and the reflection terms of the series come into play.
    times = np.array([0.0, 0.5 * t, t])
    path = np.array([0.0, 0.5 * slope * t, 0.5 * (slope + kink) * t])
    left, right = Barrier(times, path), Barrier(times, path + width)
    x0 = width * np.asarray(fracs)
    _check_paths(x0, left, right, t, t, RandomSource(seed, 2))


@settings(max_examples=40, deadline=None)
@given(
    width=st.floats(0.05, 3.0),
    fracs=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=50),
    t=st.floats(0.01, 1.0),
    seed=_seed,
)
def test_run_paths_matches_reference_near_the_barriers(width, fracs, t, seed):
    # narrow strips and starts close to a barrier put exp(-2 d0 d1 / dt)
    # near 1; a strip that drifts takes the same steps as a fixed one
    left = Barrier(np.array([0.0, t]), np.array([0.0, -0.3 * t]))
    right = Barrier(np.array([0.0, t]), np.array([width, width - 0.3 * t]))
    x0 = width * np.asarray(fracs)
    _check_paths(x0, left, right, t, t, RandomSource(seed, 2))


def _wave_strip_starts(seed, n):
    left, right = wave_barriers(travelling_wave(0.75), 1.0)
    lo = float(left.value(0.0))
    hi = float(right.value(0.0))
    x0 = np.random.default_rng(seed).uniform(lo, hi, n)
    x0 = np.clip(x0, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf))
    return left, right, x0


def test_run_paths_without_bridge_correction_matches_reference():
    # the candidates are then only the paths that end at or beyond a barrier
    for seed in (20260815, 7):
        left, right, x0 = _wave_strip_starts(seed, 2000)
        for h in (1e-3, 0.2):
            _check_paths(x0, left, right, 1.0, h, RandomSource(seed, 5), False)


@settings(max_examples=40, deadline=None)
@given(
    width=st.floats(0.05, 3.0),
    fracs=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=50),
    t=st.floats(0.01, 1.0),
    steps=st.integers(1, 60),
    seed=_seed,
)
def test_run_paths_without_bridge_correction_matches_reference_near_the_barriers(
    width, fracs, t, steps, seed
):
    left = Barrier(np.array([0.0, t]), np.array([0.0, -0.3 * t]))
    right = Barrier(np.array([0.0, t]), np.array([width, width + 0.2 * t]))
    x0 = width * np.asarray(fracs)
    _check_paths(x0, left, right, t, t / steps, RandomSource(seed, 6), False)


@settings(max_examples=40, deadline=None)
@given(
    knots=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4, unique=True),
    slopes=st.lists(st.floats(-3.0, 3.0), min_size=10, max_size=10),
    fracs=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=50),
    steps=st.integers(1, 40),
    seed=_seed,
)
def test_run_paths_matches_reference_across_barrier_knots(
    knots, slopes, fracs, steps, seed
):
    # interior knots that are off the step grid shorten the steps next to
    # them, so dt changes from step to step: with bridge correction on a
    # strip that bends at the knots, without it on barriers of their own
    # slopes as well
    t = 0.5
    times = np.concatenate(([0.0], t * np.sort(knots), [t]))
    gaps = np.diff(times)
    left_v = np.concatenate(([0.0], np.cumsum(np.asarray(slopes[: gaps.size]) * gaps)))
    left = Barrier(times, left_v)
    strip = Barrier(times, left_v + 1.0)
    x0 = np.asarray(fracs)
    _check_paths(x0, left, strip, t, t / steps, RandomSource(seed, 7))
    rise_r = np.asarray(slopes[5 : 5 + gaps.size]) * gaps
    right_v = 1.0 + np.concatenate(([0.0], np.cumsum(rise_r)))
    # keep at least 0.05 between the barriers at every knot
    right = Barrier(times, np.maximum(right_v, left_v + 0.05))
    _check_paths(x0, left, right, t, t / steps, RandomSource(seed, 7), False)


def _hidden_exits(x0, left, right, h, src):
    """Paths that exit in one step of h although they end inside the strip.

    Both runs draw the same normals, so a path the bridge stops and the
    run without bridge correction keeps ended inside.
    """
    code, _ = _check_paths(x0, left, right, h, h, src)
    plain, _ = _check_paths(x0, left, right, h, h, src, False)
    return (code > 0) & (plain == 0)


def _moving_strip(speed, h, width=3.0):
    """Parallel barriers at 0 and width that move at `speed` up to time h."""
    times = np.array([0.0, h])
    return Barrier(times, np.array([0.0, speed * h])), Barrier(
        times, np.array([width, width + speed * h])
    )


def test_run_paths_matches_reference_from_starts_at_a_receding_barrier():
    # The strip moves by 100 h = 1 in one step, away from paths that start
    # within r = sqrt(18.5 h) of its trailing barrier: they end about 1 from
    # it, so their start alone makes them candidates, yet their bridge
    # crosses with probability about exp(-200 d0), near 1 for the closest.
    h = 0.01
    reach = math.sqrt(18.5 * h)
    near = np.geomspace(1e-6, reach, 200)
    inner = np.random.default_rng(11).uniform(0.0, 3.0, 200)
    for seed in (20260815, 7):
        hidden = 0
        for speed, x0 in ((-100.0, near), (100.0, 3.0 - near)):
            x0 = np.concatenate((x0, inner))
            left, right = _moving_strip(speed, h)
            found = _hidden_exits(x0, left, right, h, RandomSource(seed, 8))
            hidden += np.count_nonzero(found[:200])
        assert 100 < hidden


def test_run_paths_matches_reference_into_an_approaching_barrier():
    # The strip moves by 100 h = 1 in one step, towards paths that start
    # 1 +- 0.1 r from its leading barrier, r = sqrt(18.5 h): their start is
    # out of reach, their end alone makes them candidates, and a bridge that
    # ends just inside crosses.
    h = 0.01
    reach = math.sqrt(18.5 * h)
    far = 1.0 + reach * np.random.default_rng(12).uniform(-0.1, 0.1, 1000)
    for seed in (20260815, 7):
        hidden = 0
        for speed, x0 in ((100.0, far), (-100.0, 3.0 - far)):
            left, right = _moving_strip(speed, h)
            found = _hidden_exits(x0, left, right, h, RandomSource(seed, 10))
            hidden += np.count_nonzero(found)
        assert 10 < hidden


# the substreams the killed-path kernel owns: its normals and its uniforms
_KERNEL_TAGS = {TAG_DRIVING, TAG_UNIFORM_A}


class _UniformStub:
    """A source that records every tag asked of it, and whose uniform
    stream records its calls.

    With ``zero_every_fifth`` the uniform stream also returns exactly 0.0 at
    every fifth draw, counted along the stream, whether drawn one at a time
    or in arrays.  A uniform of 0 stops any candidate whose exit probability
    is positive.
    """

    def __init__(self, src, zero_every_fifth=False):
        self.src = src
        self.zero = zero_every_fifth
        self.tags = set()
        self.calls = []

    def generator(self, tag):
        self.tags.add(tag)
        gen = self.src.generator(tag)
        if tag != TAG_UNIFORM_A:
            return gen
        return _StubStream(gen, self.calls, self.zero)


class _StubStream:
    def __init__(self, gen, calls, zero):
        self.gen = gen
        self.calls = calls
        self.zero = zero
        self.drawn = 0

    def random(self, size=None):
        m = 1 if size is None else size
        self.calls.append(size)
        u = np.atleast_1d(self.gen.random(m))
        if self.zero:
            u[(self.drawn + np.arange(m)) % 5 == 0] = 0.0
        self.drawn += m
        return float(u[0]) if size is None else u


def test_run_paths_matches_reference_with_zero_uniforms():
    # the wave strip at t = 1, one step, and at t = 0.05 on a strip of the
    # same width cut by barrier knots every 0.01, five steps
    wave_left, wave_right, x0 = _wave_strip_starts(20260815, 1000)
    knots = np.linspace(0.0, 0.05, 6)
    drift = np.array([0.0, 1.0, -2.0, 0.5, 3.0, -1.0]).cumsum() * 0.01
    width = float(wave_right.value(0.0) - wave_left.value(0.0))
    cut_left = Barrier(knots, drift + float(wave_left.value(0.0)))
    cut_right = Barrier(knots, drift + float(wave_left.value(0.0)) + width)
    for seed in (20260815, 7):
        for left, right, t in ((wave_left, wave_right, 1.0), (cut_left, cut_right, 0.05)):
            src = _UniformStub(RandomSource(seed, 9), zero_every_fifth=True)
            code, _ = _check_paths(x0, left, right, t, 1e-3, src)
            plain, _ = run_paths_reference(x0, left, right, t, 1e-3, src.src)
            # the zeros stop paths near the barriers that would have survived
            assert np.count_nonzero(code) > np.count_nonzero(plain)


def test_zero_uniforms_cannot_stop_a_path_below_the_cutoff():
    # From 0.25 above a barrier, one step of h = 1e-3 gives a crossing
    # exponent near -125: exp(a) > 0, so a uniform of 0 would stop the path,
    # but below -37 no uniform is drawn and no path crosses.
    h = 1e-3
    times = np.array([0.0, h])
    left, right = Barrier(times, np.zeros(2)), Barrier(times, np.full(2, 1e6))
    x0 = np.full(1000, 0.25)
    src = _UniformStub(RandomSource(20260815, 11), zero_every_fifth=True)
    code, _ = _check_paths(x0, left, right, h, h, src)
    assert not np.any(code)
    assert src.calls == []
    assert src.tags <= _KERNEL_TAGS


@pytest.mark.parametrize("h", [1e-3, 1e-2, 0.2])
def test_uniform_streams_draw_exactly_the_live_entries(h):
    # Layout 3: with bridge correction the kernel makes at most one
    # TAG_UNIFORM_A call per step, for as many uniforms as the oracle draws
    # scalars (one per candidate); the wave strip is one step, so one call.
    # Without bridge correction no uniform is drawn, and with or without it
    # the kernel asks for no substream but its own.
    left, right, x0 = _wave_strip_starts(20260815, 2000)
    for bridge in (True, False):
        steps = _plan(1.0, h, left, right, bridge)[0].size - 1
        fast = _UniformStub(RandomSource(7, 12))
        slow = _UniformStub(RandomSource(7, 12))
        _run_paths(x0, left, right, 1.0, h, fast, bridge_correction=bridge)
        run_paths_reference(x0, left, right, 1.0, h, slow, bridge)
        sizes = fast.calls
        assert sum(sizes) == len(slow.calls)
        assert set(slow.calls) <= {None}
        assert fast.tags <= _KERNEL_TAGS and slow.tags <= _KERNEL_TAGS
        if bridge:
            assert steps == 1 and len(sizes) == 1 and sizes[0] > 0
        else:
            assert steps == round(1.0 / h) and sizes == []


_sides = st.sampled_from(["lower", "upper"])


@settings(max_examples=60, deadline=None)
@given(
    init=_configs,
    p=_p,
    delta=st.floats(0.01, 1.0),
    side=_sides,
    k_steps=st.integers(0, 4),
    seed=_seed,
)
def test_run_bounds_matches_reference(init, p, delta, side, k_steps, seed):
    src = RandomSource(seed, 5)
    params = SchemeParams(p, delta, side)
    try:
        configs, sizes = run_bounds_reference(init, p, delta, side, k_steps, src)
    except ValueError:
        with pytest.raises(ValueError, match="removal count reached N"):
            run_bounds(init, params, max(k_steps, 1), src)
        return
    for k in range(k_steps + 1):
        run = run_bounds(init, params, k, src)
        assert same_bits(run.config, configs[k])
        assert [s.pre_truncation_size for s in run.steps] == sizes[:k]
        assert [s.padded for s in run.steps] == [size < len(init) for size in sizes[:k]]


def trim_left_reference(values, x0, dx, m, total):
    """Remove mass m from the left, with one prefix sum over every cell."""
    n = len(values)
    if m <= 0.0:
        nz = np.flatnonzero(values)
        return values.copy(), x0 + (nz[0] if nz.size else 0) * dx
    if m >= total:
        nz = np.flatnonzero(values)
        return np.zeros(n), x0 + ((nz[-1] + 1) if nz.size else n) * dx
    prefix = np.cumsum(values) * dx
    j = min(int(np.searchsorted(prefix, m, side="left")), n - 1)
    part = float(np.sum(values[: j + 1]) * dx)
    out = values.copy()
    out[:j] = 0.0
    out[j] = min(max(part - m, 0.0) / dx, values[j])
    below = part - values[j] * dx
    if values[j] > 0.0:
        return out, x0 + j * dx + min(max((m - below) / values[j], 0.0), dx)
    return out, x0 + j * dx


def propagate_reference(f, t):
    """Diffuse a whole-grid density: its support through one rfft."""
    first, last = _support(f.values)
    r = _kernel_radius(f.dx, t)
    _check_room(first, last, r, f.n)
    size = last - first + 1 + 2 * r
    nfft = _fft_size(size)
    spectrum = np.fft.rfft(f.values[first : last + 1], nfft)
    spectrum *= np.fft.rfft(_heat_kernel(f.dx, t), nfft)
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


def _lower_step_reference(values, x0, dx, m, total, d, mirrored):
    """The lower step on a whole grid: (values, left cut, right cut)."""
    n = len(values)
    first, last = _support(values)
    v1, left = trim_left_reference(
        values[first : last + 1], x0 + first * dx, dx, m, total
    )
    support = _support(v1)
    if support is None:
        return np.zeros(n), left, x0 + n * dx
    lo, hi = first + support[0], first + support[1]
    r = _kernel_radius(dx, d)
    _check_room(*((n - 1 - hi, n - 1 - lo) if mirrored else (lo, hi)), r, n)
    start = lo - r - 1
    window = np.zeros(hi - lo + 2 * r + 3)
    window[r + 1 : r + 2 + hi - lo] = v1[support[0] : support[1] + 1]
    diffused = propagate_reference(GridDensity(x0 + start * dx, dx, window), d)
    grown = GridDensity(diffused.x0, dx, diffused.values * math.exp(d))
    v2, right = trim_left_reference(
        grown.values[::-1], -(grown.x0 + grown.n * dx), dx, grown.mass - 1.0, grown.mass
    )
    out = np.zeros(n)
    out[start : start + grown.n] = v2[::-1]
    return out, left, -right


def step_reference(f, params):
    """(density, left cut, right cut) of one step on full-grid densities;
    the upper side reflects its input and its result."""
    if abs(f.mass - 1.0) > 1e-10:
        raise ValueError(
            "step expects a probability density (mass 1 within 1e-10), "
            f"got mass {f.mass!r}"
        )
    lower = params.side == "lower"
    q = params.p if lower else 1.0 - params.p
    m = min(q * (1.0 - math.exp(-params.delta)), f.mass)
    if lower:
        v, left, right = _lower_step_reference(
            f.values, f.x0, f.dx, m, f.mass, params.delta, False
        )
        return GridDensity(f.x0, f.dx, v), left, right
    v, left, right = _lower_step_reference(
        f.values[::-1], -(f.x0 + f.n * f.dx), f.dx, m, f.mass, params.delta, True
    )
    return GridDensity(f.x0, f.dx, v[::-1]), -right, -left


def iterate_scheme_reference(f, params, k):
    """k reference steps; a GridTooSmallError names its step."""
    lefts, rights = [], []
    for i in range(k):
        try:
            f, left, right = step_reference(f, params)
        except GridTooSmallError as exc:
            msg = f"at step {i + 1} of {k} (delta={params.delta!r}): {exc}"
            raise GridTooSmallError(msg) from None
        lefts.append(left)
        rights.append(right)
    return SchemeRun(
        f, np.array(lefts, dtype=np.float64), np.array(rights, dtype=np.float64)
    )


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (GridTooSmallError, ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def _check_run(f, params, k):
    """The reference run, or its error, after checking that the loop gives
    the same bits, or the same error."""
    got = _outcome(iterate_scheme, f, params, k)
    want = _outcome(iterate_scheme_reference, f, params, k)
    if isinstance(want, tuple):
        assert got == want
        return want
    assert same_bits(got.density.values, want.density.values)
    assert same_bits(got.left_cuts, want.left_cuts)
    assert same_bits(got.right_cuts, want.right_cuts)
    return want


_SCHEME_CONFIGS = [
    (p, dx, t)
    for p in (0.1, 0.5, 0.75, 0.9)
    for dx in (1e-3, 5e-3)
    for t in (0.5, 1.0, 2.0)
]


@pytest.mark.parametrize("p, dx, t", _SCHEME_CONFIGS)
def test_scheme_matches_reference(p, dx, t):
    _, rho, _, _ = wave_fixture(p, t, dx)
    for side in ("lower", "upper"):
        for k in (1, 3, 64):
            params = SchemeParams(p, t / k, side)
            assert isinstance(_check_run(rho, params, k), SchemeRun)


@pytest.mark.parametrize("p, dx, t", _SCHEME_CONFIGS)
def test_refine_limit_matches_reference(p, dx, t, monkeypatch):
    _, rho, _, _ = wave_fixture(p, t, dx)
    got = _outcome(refine_limit, rho, p, t, 4)
    monkeypatch.setattr(density, "iterate_scheme", iterate_scheme_reference)
    want = _outcome(refine_limit, rho, p, t, 4)
    if isinstance(want, tuple):
        assert got == want
        return
    assert same_bits(got.psi.values, want.psi.values)
    assert same_bits(got.widths, want.widths)
    assert got.n_used == want.n_used


@pytest.mark.parametrize("p", [0.1, 0.9])
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_scheme_leaves_the_grid_at_the_reference_step(p, side):
    # A grid planned for t = 0.05 holds the drifting wave for about 136
    # steps of 0.01; the error names the step and the original grid's cells.
    w = travelling_wave(p)
    grid = plan_grid(-w.R0, 0.0, 0.05, drift=w.c, dx=5e-3)
    rho = wave_density(w, grid, shift=-w.R0)
    params = SchemeParams(p, 0.01, side)
    with pytest.raises(GridTooSmallError) as err:
        iterate_scheme(rho, params, 200)
    with pytest.raises(GridTooSmallError) as ref:
        iterate_scheme_reference(rho, params, 200)
    assert str(err.value) == str(ref.value)
    msg = str(err.value)
    assert re.match(r"at step 1[0-9]{2} of 200 \(delta=0\.01\): support cells", msg)


def test_scheme_matches_reference_past_a_faint_shoulder():
    # The shoulder of test_density: the lower side cuts it off first, fits
    # and leaves the grid on the right at step 2; the upper side keeps it and
    # leaves the grid at step 1, naming cells of the original grid.
    rng = np.random.default_rng(21)
    dx, n, d = 1e-2, 600, 0.04
    r = _kernel_radius(dx, d)
    values = np.zeros(n)
    values[50:250] = 1e-6
    values[250 : n - 1 - r] = rng.uniform(0.5, 1.0, n - 1 - r - 250)
    f = GridDensity(0.0, dx, values / (np.sum(values) * dx))
    lower, upper = SchemeParams(0.5, d, "lower"), SchemeParams(0.5, d, "upper")
    assert isinstance(_check_run(f, lower, 1), SchemeRun)
    kind, msg = _check_run(f, lower, 3)
    assert kind is GridTooSmallError and msg.startswith("at step 2 of 3 (delta=0.04): ")
    for k in (1, 3):
        kind, msg = _check_run(f, upper, k)
        assert kind is GridTooSmallError
        assert msg.startswith(f"at step 1 of {k} (delta=0.04): support cells [50, ")


@pytest.mark.parametrize("dx", [0.5, 0.25, 0.1])
@pytest.mark.parametrize("excess", [0.0, 2.0**-52, -(2.0**-53)])
@pytest.mark.parametrize("side, p", [("upper", 1e-300), ("lower", 1.0 - 2.0**-53)])
def test_scheme_matches_reference_on_cuts_of_all_the_mass(dx, excess, side, p):
    # q = 1 - p within an ulp of 1 and delta = 40 cut (nearly) all the mass:
    # whether a cut takes it all is decided by the full grid's own sum, as a
    # step on the whole grid decides it.
    n = int(300 / dx) + 1
    x = -150.0 + (np.arange(n) + 0.5) * dx
    v = np.where(np.abs(x) < 1.0, 1.0, 0.0)
    f = GridDensity(-150.0, dx, v / (np.sum(v) * dx) * (1.0 + excess))
    for k in (1, 3):
        _check_run(f, SchemeParams(p, 40.0, side), k)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "side, p, delta",
    [
        ("upper", 1e-300, 43.0),
        ("lower", 1.0 - 2.0**-53, 43.0),
        ("lower", 0.5, 15.0),
        ("lower", 0.1, 20.0),
        ("upper", 0.9, 18.0),
    ],
)
def test_scheme_matches_reference_where_growth_amplifies_rounding(seed, side, p, delta):
    # e^delta grows the rounding of the mass until the mass check fails at a
    # later step, or a cut of all the mass may or may not take it all; the
    # decision and the mass it reports are the full grid's, as in a step on
    # the whole grid
    rng = np.random.default_rng(seed)
    dx, n = 0.25, 1601
    x = -200.0 + (np.arange(n) + 0.5) * dx
    v = np.where(np.abs(x) < 4.0, rng.uniform(0.5, 1.5, n), 0.0)
    f = GridDensity(-200.0, dx, v / (np.sum(v) * dx) * (1.0 + 2.0**-52))
    _check_run(f, SchemeParams(p, delta, side), 3)


@settings(max_examples=40, deadline=None)
@given(
    seed=_seed,
    p=_p,
    delta=st.floats(1e-6, 0.5),
    side=_sides,
    k=st.integers(0, 8),
)
def test_scheme_matches_reference_on_random_bumps(seed, p, delta, side, k):
    # mixtures of up to three bumps, with exact zeros between far-apart ones,
    # and kernels from narrower than a cell to 70 cells wide
    bump = random_bump_density(np.random.default_rng(seed), -30.0, 1e-2, 6001)
    f = GridDensity(bump.x0, bump.dx, bump.values / bump.mass)
    _check_run(f, SchemeParams(p, delta, side), k)


@pytest.mark.parametrize("p, dx, t", _SCHEME_CONFIGS[::3])
def test_upper_run_is_the_reflected_lower_run(p, dx, t):
    # R(f) lives on the reflected grid, so the upper run at p from f is R of
    # the lower run at 1-p from R(f), values and cut positions
    _, rho, _, _ = wave_fixture(p, t, dx)
    refl = GridDensity(-(rho.x0 + rho.n * rho.dx), rho.dx, rho.values[::-1])
    for k in (1, 3, 64):
        hi = iterate_scheme(rho, SchemeParams(p, t / k, "upper"), k)
        lo = iterate_scheme(refl, SchemeParams(1.0 - p, t / k, "lower"), k)
        assert same_bits(hi.density.values, lo.density.values[::-1])
        assert same_bits(hi.left_cuts, -lo.right_cuts)
        assert same_bits(hi.right_cuts, -lo.left_cuts)


# ---------------------------------------------------------------------------
# the index cut against the copying reference trim


def _index_trim(values, x0, dx, m, total):
    """trim_left_reference's (values, position), from the index cut."""
    j, keep, pos = _cut_index(values, x0, dx, m, total)
    out = np.array(values)
    out[:j] = 0.0
    out[j] = keep
    return out, pos


def _assert_cut_matches(values, x0, dx, m, total):
    out, pos = _index_trim(values, x0, dx, m, total)
    want, want_pos = trim_left_reference(values, x0, dx, m, total)
    assert same_bits(out, want)
    assert same_bits(np.float64(pos), np.float64(want_pos))


def _gap_density():
    """Two flat bumps with a gap between them, every sum exact: the first
    holds 1/4 of the unit mass, the second 3/4."""
    dx, n = 2.0**-6, 1400
    values = np.zeros(n)
    values[500:508] = 2.0
    values[550:566] = 3.0
    return -10.0, dx, values


def test_index_cut_ending_at_a_gap_keeps_nothing_of_its_cell():
    x0, dx, values = _gap_density()
    total = float(np.sum(values) * dx)
    assert total == 1.0
    j, keep, pos = _cut_index(values, x0, dx, 0.25, total)
    assert (j, keep) == (507, 0.0) and pos == x0 + 508 * dx
    # cuts ending at the first bump's last cell, and inside each bump
    for m in (0.25, 0.25 - 2.0 * dx, 0.1, 0.25 + 3.0 * dx, 0.6):
        _assert_cut_matches(values, x0, dx, m, total)
        _assert_cut_matches(values[500:566], x0 + 500 * dx, dx, m, total)


@pytest.mark.parametrize("d", [0.01, 0.5])
@pytest.mark.parametrize("mirrored", [False, True])
def test_step_after_a_cut_ending_at_a_gap_matches_reference(d, mirrored):
    # the left cut keeps nothing of its cell, so the kept support starts past
    # the gap; at d = 0.01 the grown mass stays below 1 and the right cut
    # removes nothing, at d = 0.5 it removes 0.75 e^0.5 - 1
    x0, dx, values = _gap_density()
    n, r = len(values), _kernel_radius(dx, d)
    first, last = _support(values)
    window, offset, mass, left, right = _lower_step(
        values[first : last + 1], first, x0, dx, n, 0.25, 1.0, d, r, mirrored
    )
    want, want_left, want_right = _lower_step_reference(
        values, x0, dx, 0.25, 1.0, d, mirrored
    )
    assert same_bits(_on_grid(window, offset, n, True), want)
    assert (left, right) == (want_left, want_right)
    assert _support(want) == (offset, offset + len(window) - 1)
    assert mass == pytest.approx(float(np.sum(want) * dx), rel=1e-14)


def test_index_cut_on_the_zero_cell_past_the_support():
    # The pairwise total can exceed the last prefix sum by an ulp; a cut
    # between the two runs past every prefix sum and lands on the last cell,
    # which is zero.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        values = np.zeros(1000)
        values[1:-1] = rng.random(998)
        dx = 1e-3
        total = float(np.sum(values) * dx)
        m = float(np.nextafter(total, 0.0))
        if m > np.cumsum(values)[-1] * dx:
            break
    else:
        pytest.fail("no seed below 200 gives a total above the last prefix sum")
    j, keep, pos = _cut_index(values, 0.5, dx, m, total)
    assert (j, keep) == (999, 0.0) and pos == 0.5 + 999 * dx
    _assert_cut_matches(values, 0.5, dx, m, total)


@pytest.mark.parametrize("seed", range(4))
def test_index_cut_of_nothing_and_of_everything(seed):
    bump = random_bump_density(np.random.default_rng(seed), -30.0, 1e-2, 6001)
    v, x0, dx, total = bump.values, bump.x0, bump.dx, bump.mass
    first, last = _support(v)
    for m in (0.0, total, 2.0 * total):
        _assert_cut_matches(v, x0, dx, m, total)
        _assert_cut_matches(v[first : last + 1], x0 + first * dx, dx, m, total)
    assert _cut_index(v, x0, dx, 0.0, total)[:2] == (0, 0.0)
    assert _cut_index(v, x0, dx, total, total)[:2] == (len(v) - 1, 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_right_index_cut_on_a_reversed_window(seed):
    # the right cut runs on the reversed view and zeroes the tail in place
    rng = np.random.default_rng(seed)
    bump = random_bump_density(rng, -30.0, 1e-2, 6001)
    first, last = _support(bump.values)
    v = bump.values[first - 3 : last + 4]
    x0, dx, total = bump.x0 + (first - 3) * bump.dx, bump.dx, bump.mass
    x_end = -(x0 + len(v) * dx)
    for m in (0.0, *(total * rng.uniform(0.0, 1.0, 6)), total):
        j, keep, pos = _cut_index(v[::-1], x_end, dx, m, total)
        out = v.copy()
        out[len(v) - j :] = 0.0
        out[len(v) - 1 - j] = keep
        want, want_pos = trim_left_reference(v[::-1], x_end, dx, m, total)
        assert same_bits(out, want[::-1])
        assert same_bits(np.float64(-pos), np.float64(-want_pos))


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_scheme_window_is_its_support(side, monkeypatch):
    # after every step the window's first and last cells are nonzero, and
    # they are the support a scan of the whole (reflected) grid finds
    step, windows = _lower_step, []

    def checked(values, offset, x0, dx, n, *rest):
        result = step(values, offset, x0, dx, n, *rest)
        window, start = result[:2]
        windows.append(len(window))
        assert window[0] != 0.0 and window[-1] != 0.0
        assert _support(_on_grid(window, start, n, True)) == (
            start,
            start + len(window) - 1,
        )
        return result

    monkeypatch.setattr(density, "_lower_step", checked)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        bump = random_bump_density(rng, -30.0, 1e-2, 6001)
        f = GridDensity(bump.x0, bump.dx, bump.values / bump.mass)
        p, d = float(rng.uniform(0.1, 0.9)), float(rng.uniform(1e-3, 0.5))
        _check_run(f, SchemeParams(p, d, side), 8)
    assert len(windows) == 64


def test_refine_limit_scans_for_the_support_once_per_run(monkeypatch):
    # the scheme-exit benchmark's run, 1022 steps over levels 0..8: one
    # support scan per side and level, none in the steps
    scan, scans = _support, []

    def counted(values):
        scans.append(len(values))
        return scan(values)

    _, rho, _, _ = wave_fixture(0.75, 1.0, 1e-3)
    monkeypatch.setattr(density, "_support", counted)
    result = refine_limit(rho, 0.75, 1.0, n_max=8, tol=1e-2)
    assert result.n_used == 8
    assert scans == [rho.n] * 18
