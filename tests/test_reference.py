"""Reference oracles for the hot kernels, which must match them bit for bit.

The particle loop reads its draws ahead in blocks and sorts with quicksort;
the killed-path kernel gathers the paths that may leave in a step and
draws their uniforms in one call (draw layout 3); the bounding systems
branch level by level on whole arrays and sort with quicksort.  The plain
implementations below draw call by call, sort stably and decide path by
path; the fast kernels must return exactly their bits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npbbm import (
    BoundSystemParams,
    RandomSource,
    bound_step,
    couple_simulate,
    run_bounds,
    simulate,
)
from npbbm.exits import _plan, _run_paths
from npbbm.particles import MIN_BATCH, SimulationStreams
from npbbm.randomness import (
    BLOCK_ITEMS,
    TAG_CLOCK,
    TAG_DRIVING,
    TAG_INDEX,
    TAG_SELECT,
    TAG_UNIFORM_A,
    TAG_UNIFORM_B,
)
from npbbm.wave import Barrier, travelling_wave, wave_barriers


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
    steps=st.integers(1, 60),
    seed=_seed,
)
def test_run_paths_matches_reference_near_the_barriers(width, fracs, t, steps, seed):
    # narrow strips and starts close to a barrier put exp(-2 d0 d1 / h) near 1
    left = Barrier(np.array([0.0, t]), np.array([0.0, -0.3 * t]))
    right = Barrier(np.array([0.0, t]), np.array([width, width + 0.2 * t]))
    x0 = width * np.asarray(fracs)
    _check_paths(x0, left, right, t, t / steps, RandomSource(seed, 2))


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
    # them, and pieces where both slopes agree are parallel, so dt and the
    # law change from step to step
    t = 0.5
    times = np.concatenate(([0.0], t * np.sort(knots), [t]))
    gaps = np.diff(times)
    rise_l = np.asarray(slopes[: gaps.size]) * gaps
    rise_r = np.asarray(slopes[5 : 5 + gaps.size]) * gaps
    left_v = np.concatenate(([0.0], np.cumsum(rise_l)))
    right_v = 1.0 + np.concatenate(([0.0], np.cumsum(rise_r)))
    # keep at least 0.05 between the barriers at every knot
    right_v = np.maximum(right_v, left_v + 0.05)
    left, right = Barrier(times, left_v), Barrier(times, right_v)
    x0 = float(right_v[0]) * np.asarray(fracs)
    _check_paths(x0, left, right, t, t / steps, RandomSource(seed, 7))
    _check_paths(x0, left, right, t, t / steps, RandomSource(seed, 7), False)


def _hidden_exits(x0, left, right, h, src):
    """Paths that exit in one step of h although they end inside the strip.

    Both runs draw the same normals, so a path the bridge stops and the
    run without bridge correction keeps ended inside.
    """
    code, _ = _check_paths(x0, left, right, h, h, src)
    plain, _ = _check_paths(x0, left, right, h, h, src, False)
    return (code > 0) & (plain == 0)


def test_run_paths_matches_reference_from_starts_at_a_receding_barrier():
    # The barriers move apart at speed 100, so a path that starts within
    # sqrt(18.5 h) of one ends about 100 h = 1 from it: its start alone
    # makes it a candidate, yet its bridge crosses with probability about
    # exp(-200 d0), near 1 for the closest starts.
    h = 0.01
    left = Barrier(np.array([0.0, h]), np.array([0.0, -100.0 * h]))
    right = Barrier(np.array([0.0, h]), np.array([1.0, 1.0 + 100.0 * h]))
    reach = math.sqrt(18.5 * h)
    near = np.geomspace(1e-6, reach, 200)
    inner = np.random.default_rng(11).uniform(0.0, 1.0, 200)
    x0 = np.concatenate((near, 1.0 - near, inner))
    for seed in (20260815, 7):
        hidden = _hidden_exits(x0, left, right, h, RandomSource(seed, 8))
        assert 100 < np.count_nonzero(hidden[:400])


def test_run_paths_matches_reference_into_an_approaching_barrier():
    # The barriers close in by 1.1 r in one step, r = sqrt(18.5 h), on
    # paths that start between r and 1.2 r from them: their end alone makes
    # them candidates, and a bridge that ends just inside crosses.
    h = 0.01
    reach = math.sqrt(18.5 * h)
    left = Barrier(np.array([0.0, h]), np.array([0.0, 1.1 * reach]))
    right = Barrier(np.array([0.0, h]), np.array([3.0, 3.0 - 1.1 * reach]))
    far = reach * np.random.default_rng(12).uniform(1.0 + 1e-6, 1.2, 1000)
    x0 = np.concatenate((far, 3.0 - far))
    for seed in (20260815, 7):
        hidden = _hidden_exits(x0, left, right, h, RandomSource(seed, 10))
        assert 10 < np.count_nonzero(hidden)


class _UniformStub:
    """A source whose two uniform streams record their calls.

    With ``zero_every_fifth`` they also return exactly 0.0 at every fifth
    draw, counted along the stream, whether drawn one at a time or in
    arrays.  A uniform of 0 stops any candidate whose exit probability is
    positive.
    """

    def __init__(self, src, zero_every_fifth=False):
        self.src = src
        self.zero = zero_every_fifth
        self.calls = {TAG_UNIFORM_A: [], TAG_UNIFORM_B: []}

    def generator(self, tag):
        gen = self.src.generator(tag)
        if tag not in self.calls:
            return gen
        return _StubStream(gen, self.calls[tag], self.zero)


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
    assert src.calls[TAG_UNIFORM_A] == src.calls[TAG_UNIFORM_B] == []


@pytest.mark.parametrize("h", [1e-3, 1e-2, 0.2])
def test_uniform_streams_draw_exactly_the_live_entries(h):
    # Layout 3: with bridge correction the kernel makes at most one
    # TAG_UNIFORM_A call per step, for as many uniforms as the oracle draws
    # scalars (one per candidate); the wave strip is one step, so one call.
    # TAG_UNIFORM_B is never drawn, and without bridge correction neither is.
    left, right, x0 = _wave_strip_starts(20260815, 2000)
    for bridge in (True, False):
        steps = _plan(1.0, h, left, right, bridge)[0].size - 1
        fast = _UniformStub(RandomSource(7, 12))
        slow = _UniformStub(RandomSource(7, 12))
        _run_paths(x0, left, right, 1.0, h, fast, bridge_correction=bridge)
        run_paths_reference(x0, left, right, 1.0, h, slow, bridge)
        sizes = fast.calls[TAG_UNIFORM_A]
        assert sum(sizes) == len(slow.calls[TAG_UNIFORM_A])
        assert set(slow.calls[TAG_UNIFORM_A]) <= {None}
        assert fast.calls[TAG_UNIFORM_B] == slow.calls[TAG_UNIFORM_B] == []
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
    params = BoundSystemParams(p, delta, side)
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


@settings(max_examples=40, deadline=None)
@given(init=_configs, p=_p, delta=st.floats(0.01, 1.0), side=_sides, seed=_seed)
def test_bound_step_matches_reference(init, p, delta, side, seed):
    src = RandomSource(seed, 6)
    params = BoundSystemParams(p, delta, side)
    try:
        configs, sizes = run_bounds_reference(init, p, delta, side, 1, src)
    except ValueError:
        with pytest.raises(ValueError, match="removal count reached N"):
            bound_step(init, params, src)
        return
    res = bound_step(init, params, src)
    assert same_bits(res.config, configs[1])
    assert res.pre_truncation_size == sizes[0]
