"""Reference oracles for the two hot kernels, which must match them bit for bit.

The particle loop and the killed-path kernel read their draws ahead in
blocks, sort with quicksort and skip ``exp`` where it cannot matter.  The
plain implementations below draw call by call, sort stably and evaluate
everything; the fast kernels must return exactly their bits.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from npbbm import RandomSource, couple_simulate, simulate
from npbbm.exits import _run_paths, _time_grid
from npbbm.randomness import (
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


def run_paths_reference(x0, left, right, t, h, src):
    """The killed-path kernel with exp evaluated on every inside path."""
    grid = _time_grid(t, h, left, right)
    lv = left.value(grid)
    rv = right.value(grid)
    gauss = src.generator(TAG_DRIVING)
    uni_left = src.generator(TAG_UNIFORM_A)
    uni_right = src.generator(TAG_UNIFORM_B)
    n = x0.size
    code = np.zeros(n, dtype=np.int64)
    exit_time = np.full(n, np.nan)
    final = np.full(n, np.nan)
    idx = np.arange(n)
    cur = x0.copy()
    for k in range(len(grid) - 1):
        if idx.size == 0:
            break
        dt = grid[k + 1] - grid[k]
        nxt = cur + gauss.standard_normal(idx.size) * math.sqrt(dt)
        u_l = uni_left.random(idx.size)
        u_r = uni_right.random(idx.size)
        d1l = nxt - lv[k + 1]
        d1r = rv[k + 1] - nxt
        end_left = d1l <= 0.0
        end_right = ~end_left & (d1r <= 0.0)
        inside = ~(end_left | end_right)
        hid_left = np.zeros(idx.size, dtype=bool)
        hid_right = np.zeros(idx.size, dtype=bool)
        d0l = cur - lv[k]
        d0r = rv[k] - cur
        hid_left[inside] = u_l[inside] < np.exp(-2.0 * d0l[inside] * d1l[inside] / dt)
        hid_right[inside] = u_r[inside] < np.exp(-2.0 * d0r[inside] * d1r[inside] / dt)
        both = hid_left & hid_right
        to_left = both & (d0l <= d0r)
        hid_left = (hid_left & ~both) | to_left
        hid_right = (hid_right & ~both) | (both & ~to_left)
        gone = end_left | end_right | hid_left | hid_right
        sel = idx[gone]
        code[sel] = np.where((end_left | hid_left)[gone], 1, 2)
        exit_time[sel] = np.where(
            (end_left | end_right)[gone], grid[k + 1], grid[k] + 0.5 * dt
        )
        idx = idx[~gone]
        cur = nxt[~gone]
    final[idx] = cur
    return code, exit_time, final


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


def _check_paths(x0, left, right, t, h, src):
    got = _run_paths(x0, left, right, t, h, src)
    want = run_paths_reference(x0, left, right, t, h, src)
    for a, b in zip(got, want):
        assert same_bits(a, b)


def test_run_paths_matches_reference_on_the_wave_strip():
    left, right = wave_barriers(travelling_wave(0.75), 1.0)
    lo = float(left.value(0.0))
    hi = float(right.value(0.0))
    for seed in (20260815, 7):
        x0 = np.random.default_rng(seed).uniform(lo, hi, 2000)
        x0 = np.clip(x0, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf))
        for h in (1e-3, 1e-2, 0.2):
            _check_paths(x0, left, right, 1.0, h, RandomSource(seed, 1))


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
