"""Event-driven simulation of N-particle branching Brownian motion with
two-sided selection.

The process keeps exactly N particles.  Branch events arrive at rate N
(cumulative Exponential draws from the clock stream).  At an event a uniform
particle duplicates and a Bernoulli(p) bit decides which extreme dies: q=1
kills the leftmost particle, q=0 the rightmost.  Between events every
particle receives an exact Gaussian increment of variance equal to the
elapsed time: each interval takes one vector of N standard normals from the
single driving stream.  There is no path-discretization error.

A configuration is kept by label, not by rank: row entry j is particle j,
the start sorted.  Label j takes entry j of each increment vector, and
nothing re-sorts.  At an event the index stream's i (uniform in 1..N) picks
label i-1 as the brancher, whose value is written over the dying extreme,
the first minimum (q=1) or the first maximum (q=0) of the row in label
order.  The increments are i.i.d. and a uniform label is a uniform
particle, so this is the law of the ranked process.  A sample reads each
row's extremes; recorded configurations are stably sorted copies.

One event loop, ``_run``, advances a (K, N) stack of configurations, row r
on its own bundle of streams.  It works through each row's events in
batches of B: BLOCK_ITEMS // N events (163 at N = 50), but at least
MIN_BATCH = 16 where the increments of 16 fit in 16 blocks (1 MB), and else
as many as fit there (16 at N = 4000, 6 at N = 20 000, 1 above N = 65 536).
For each batch it takes B clock gaps, B indices and B selection uniforms in
one generator call per stream, sums the gaps from the last event time into
event times in order, merges the sample times into that schedule (a sample
at an event's time comes first; the first event after T ends the run), and
draws the normals for the positive intervals of up to B stops in one call,
straight into a reused row buffer, scaled row by row by the square root of
the interval.  Python then only adds a row and records the sample or
applies the event, once a stop for the whole stack.  A batched generator
call equals the same draws made one at a time, so the draws, the event times
(each the last one plus its gap) and the increments are those of one event
at a time.  K = 1 is a single run (:func:`simulate`); K up to STACK_ROWS
replicas on their own streams is how :func:`estimate_speed` runs them below
PARALLEL_MIN_N particles.

The monotone coupling (:func:`couple_simulate`) is the one path that keeps
ranks: two copies started in dominance order stay ordered pathwise when
rank j of both takes the same normal and rank i of both branches.  Its pair
of rows shares one bundle, each stop's increment row is added to both, the
pair re-sorts after each move, and a branch shifts each row by one place
between rank i and the dying end, which keeps it sorted.  The re-sort uses
numpy's quicksort, which gives the same bits as a stable sort unless a row
holds both +0.0 and -0.0: there the vectorised sort may reorder them, and
even change how many are -0.0.  x + g is -0.0 only when both are, so after
an increment that needs a start holding -0.0 and a normal draw of exactly
-0.0, which comes with probability 2^-53 a draw; a stop that moves no row
does not sort.
The reflection coupling between parameters p and 1-p is built from the base
run: with R(x) = -x[::-1], the mirrored run at p from x is R applied to the
run at 1-p from R(x) on the same streams, so it is exact by construction.

:func:`estimate_speed` steps its replicas below PARALLEL_MIN_N particles as
stacks of at most STACK_ROWS rows, where one stop's Python work serves every
row of the stack, and from there on runs them in threads, one per CPU of the
process's affinity: numpy draws the normals without the GIL, and they are
most of an event at large N.  Replica r draws only from its own streams and
its result is stored under r, so the estimate is the same bits in a stack,
alone, or on any number of threads.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .randomness import (
    RandomSource,
    TAG_CLOCK,
    TAG_DRIVING,
    TAG_INDEX,
    TAG_SELECT,
)

__all__ = [
    "TrajectoryRecord",
    "SpeedEstimate",
    "SimulationStreams",
    "CouplingViolationError",
    "order",
    "simulate",
    "couple_simulate",
    "estimate_speed",
]


# Draws in a block, 64 KB of float64.  It sets only the batch size: a batch
# holds BLOCK_ITEMS // N events, whose increment rows fill one block.
BLOCK_ITEMS = 8192

# Fewest events in a batch, where the increments of that many fit in
# MIN_BATCH blocks.  A batch costs about a dozen vector calls: at two events
# a batch (BLOCK_ITEMS // N at N = 4000) an event took 105 us against 99 us
# one event at a time, and at 16 it takes 98 us.
MIN_BATCH = 16

# Fewest particles at which estimate_speed runs its replicas in threads;
# below it they run as stacks in the one event loop.  Median us an event,
# 4 replicas of 24 000 events in all, 7 interleaved rounds in process on a
# 2-core VM, one after another -> one stack -> 2 threads: N = 50 2.44 ->
# 2.29 -> 3.17, N = 100 4.41 -> 4.15 -> 4.76, N = 200 8.19 -> 6.10 -> 7.09,
# N = 256 8.25 -> 8.38 -> 8.11, N = 500 12.7 -> 13.5 -> 9.35: from there on
# the N normals of a stop, drawn without the GIL, are most of an event.
PARALLEL_MIN_N = 256

# Most replicas in one stack; its increment buffer holds STACK_ROWS blocks
# (2 MB).  Median us an event over 100 000 events, stacks of 4 -> 8 -> 16 ->
# 32 -> 64 rows, 5 rounds in process: N = 10 1.30 -> 0.87 -> 0.71 -> 0.61 ->
# 0.55, N = 50 2.94 -> 2.18 -> 2.02 -> 1.94 -> 1.81, N = 200 8.90 -> 7.69 ->
# 6.51 -> 5.66 -> 6.28.
STACK_ROWS = 32


class CouplingViolationError(RuntimeError):
    """Raised if a shared-stream coupled pair ever leaves dominance order."""


# ---------------------------------------------------------------------------
# elementary configuration operations


def order(raw: Sequence[float] | NDArray[np.float64]) -> NDArray[np.float64]:
    """Sorted copy of a configuration (stable, so ties keep input order)."""
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("configuration must be a non-empty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("configuration entries must be finite")
    return np.sort(arr, kind="stable")


# ---------------------------------------------------------------------------
# stream bundles


class SimulationStreams:
    """The four independent substreams driving one run of n particles.

    n is bound at construction, and so is ``batch``, the number of events
    one :meth:`events` call hands out (see the module docstring).  Each
    batch takes one generator call per stream.  A Philox generator consumes
    its counter in order, so a batched call equals the same draws made one
    at a time: ``standard_normal(out=rows)`` the calls
    ``standard_normal(n)``, ``(1/n) * standard_exponential(b)`` the calls
    ``exponential(1/n)``, ``integers(1, n + 1, b)`` the calls
    ``integers(1, n + 1)`` and ``random(b)`` the calls ``random()``.  Each
    generator has this one consumer, which draws nothing it does not use.
    """

    def __init__(self, src: RandomSource, n: int) -> None:
        self._n = n
        self._mean_gap = 1.0 / n
        self.batch = max(
            1, BLOCK_ITEMS // n, min(MIN_BATCH, MIN_BATCH * BLOCK_ITEMS // n)
        )
        self._driving = src.generator(TAG_DRIVING)
        self._clock = src.generator(TAG_CLOCK)
        self._ranks = src.generator(TAG_INDEX)
        self._select = src.generator(TAG_SELECT)

    def events(self, t: float, p: float) -> tuple[NDArray, NDArray, NDArray]:
        """The next ``batch`` branch events after time t: times, branchers,
        kill bits.

        The times add Exponential gaps of rate n to t in order, so each is
        the last one plus its gap, as one event at a time.  Branchers are
        uniform in 1..n, a label (a rank in the coupled pair); a Bernoulli(p)
        kill bit of True removes the leftmost particle, False the rightmost.
        """
        b = self.batch
        times = self._clock.standard_exponential(b)
        times *= self._mean_gap
        times[0] += t
        np.add.accumulate(times, out=times)  # np.cumsum, less overhead
        ranks = self._ranks.integers(1, self._n + 1, b)
        return times, ranks, self._select.random(b) < p

    def increments(self, dts: NDArray, out: NDArray) -> NDArray:
        """Gaussian increments over the positive intervals dts, one row each.

        Label j (rank j in the coupled pair) takes entry j of a row.  The
        rows are drawn into ``out[:len(dts)]``, which is returned.
        """
        rows = out[: len(dts)]
        self._driving.standard_normal(out=rows)
        rows *= np.sqrt(dts)[:, None]
        return rows


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled extremes of one run; optionally the full configurations."""

    sample_times: NDArray[np.float64]
    leftmost: NDArray[np.float64]
    rightmost: NDArray[np.float64]
    full_configs: NDArray[np.float64] | None
    event_count: int


def _prepare(init, p, T, sample_times):
    x = order(init)
    if not 0.0 < p < 1.0:
        raise ValueError(
            f"selection probability p must lie strictly in (0,1), got p={p!r}"
        )
    if not math.isfinite(T) or T < 0.0:
        raise ValueError(f"time horizon must be finite and non-negative, got {T!r}")
    if sample_times is None:
        times = np.array([float(T)])
    else:
        times = np.asarray(sample_times, dtype=np.float64)
        if times.size == 0:
            raise ValueError("sample_times must be non-empty")
        if np.any(times < 0.0) or np.any(times > T):
            raise ValueError("sample_times must lie inside [0, T]")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("sample_times must be strictly increasing")
    return x, times


def simulate(
    init,
    p: float,
    T: float,
    src: RandomSource,
    sample_times=None,
    *,
    record_configs: bool = False,
    mirror: bool = False,
) -> TrajectoryRecord:
    """Run one (N,p)-BBM trajectory; deterministic given its arguments.

    ``mirror=True`` returns the reflection of the run at 1-p from the
    reflected start, on the same streams: extremes swap and change sign,
    configurations become -x[::-1].
    """
    x, times = _prepare(init, p, T, sample_times)
    streams = [SimulationStreams(src, len(x))]
    return _run(x[None], p, T, times, streams, record_configs, mirror=mirror)[0]


def _check_order(x, t: float) -> None:
    """Raise unless the pair x is in dominance order after the stop at t."""
    if not np.all(x[0] <= x[1]):
        j = int(np.argmin(x[0] <= x[1]))
        raise CouplingViolationError(
            f"dominance order broken under shared streams at t={t!r}: "
            f"rank {j + 1} holds {float(x[0, j])!r} in the lower copy and "
            f"{float(x[1, j])!r} in the upper"
        )


def _plan(streams, t, p, T, times, sample_times, si):
    """One bundle's next round of stops after time t.

    A round is one ``streams.events`` batch: its events up to T, and the
    samples from index si up to its last event, a sample at an event's time
    before the event.  The first event after T ends the run, and its round
    takes every sample left.  Returns the stops, their branchers (0 marks a
    sample) and kill bits, the events fired, whether the run ended, and the
    index of the next sample.
    """
    stops, branchers, kills = streams.events(t, p)
    ended = bool(stops[-1] > T)
    if ended:
        fired = int(np.searchsorted(stops, T, side="right"))
        stops, branchers, kills = stops[:fired], branchers[:fired], kills[:fired]
        sj = len(times)
    else:
        fired = len(stops)
        sj = bisect.bisect_right(sample_times, stops[-1], si)
    if sj > si:  # samples go before the first event at or after them
        at = np.searchsorted(stops, times[si:sj])
        stops = np.insert(stops, at, times[si:sj])
        branchers = np.insert(branchers, at, 0)
        kills = np.insert(kills, at, False)
    return stops, branchers, kills, fired, ended, sj


def _run(
    x, p, T, times, streams, record_configs, *, mirror=False, coupled=False
) -> list[TrajectoryRecord]:
    """The event loop: row r of the (K, N) stack x draws only from streams[r],
    but the two rows of a ``coupled`` pair share streams[0].

    Each round, every bundle that has not ended plans its own stops
    (:func:`_plan`).  The increment rows of up to B stops of a bundle at a
    time are drawn into that bundle's (B, N) slice of one buffer that every
    chunk of stops reuses.  K = 1 steps its row as a 1-d array
    (:func:`_step_row`), K >= 2 rows on their own bundles step in lockstep
    by stop index (:func:`_step_stack`), both in label order, and the
    coupled pair steps by rank (:func:`_step_pair`).

    ``mirror=True`` runs at 1 - p from the reflected start and reflects the
    records back.
    """
    if mirror:
        x, p = -x[:, ::-1], 1.0 - p
    k, n = x.shape
    # the rows, stepped in place, and a scratch row for _step_stack
    state = np.zeros((k + 1, n))
    state[:k] = x
    x = state[:k]
    m = len(times)
    lefts = np.empty((k, m))
    rights = np.empty((k, m))
    configs = np.empty((k, m, n)) if record_configs else None
    sample_times = times.tolist()  # for bisect
    bundles = len(streams)
    buf = np.empty((bundles, streams[0].batch, n))  # increment rows, reused

    t = [0.0] * bundles
    si = [0] * bundles
    events = [0] * bundles
    live = list(range(bundles))
    while live:
        plans = []  # (bundle, stops, intervals, branchers, kill bits, first sample)
        for r in live.copy():
            stops, branchers, kills, fired, ended, sj = _plan(
                streams[r], t[r], p, T, times, sample_times, si[r]
            )
            events[r] += fired
            if stops.size:
                dts = stops - np.concatenate(([t[r]], stops[:-1]))
                plans.append((r, stops, dts, branchers, kills, si[r]))
                t[r] = stops[-1]
            si[r] = sj
            if ended:
                live.remove(r)
        if not plans:
            continue
        if coupled:
            _step_pair(x, plans[0], streams[0], buf[0], lefts, rights, configs)
        elif k == 1:
            rec = None if configs is None else configs[0]
            _step_row(x[0], plans[0], streams[0], buf[0], lefts[0], rights[0], rec)
        else:
            _step_stack(state, plans, streams, buf, lefts, rights, configs)

    if mirror:
        lefts, rights = -rights, -lefts
        configs = None if configs is None else -configs[:, :, ::-1]
    return [
        TrajectoryRecord(
            times,
            lefts[r],
            rights[r],
            None if configs is None else configs[r],
            events[0 if coupled else r],
        )
        for r in range(k)
    ]


def _increment_rows(stream, dts, buf):
    """The increment rows of stops with intervals dts, drawn into buf: an
    array, or a list that holds None for a stop at the last one's time,
    which moves nothing."""
    moves = dts > 0.0
    rows = stream.increments(dts[moves], buf)
    if len(rows) < len(dts):
        it = iter(rows)
        rows = [next(it) if mv else None for mv in moves.tolist()]
    return rows


def _step_row(v, plan, stream, buf, lefts, rights, configs) -> None:
    """Step the row v, in label order, through one round's plan.

    A stop adds its increment row; then an event writes its brancher's
    value over the row's first minimum (kill bit 1) or first maximum
    (kill bit 0), and a sample records the row's extremes and, with
    ``configs``, a stably sorted copy.
    """
    _, _, dts, branchers, kills, s = plan
    branchers, kills = branchers.tolist(), kills.tolist()
    batch = len(buf)
    argmin, argmax = v.argmin, v.argmax
    for c in range(0, len(dts), batch):
        rows = _increment_rows(stream, dts[c : c + batch], buf)
        for row, i, kill in zip(rows, branchers[c : c + batch], kills[c : c + batch]):
            if row is not None:
                v += row
            if i:
                v[argmin() if kill else argmax()] = v[i - 1]
            else:
                lefts[s] = v[argmin()]
                rights[s] = v[argmax()]
                if configs is not None:
                    configs[s] = np.sort(v, kind="stable")
                s += 1


def _step_stack(state, plans, streams, buf, lefts, rights, configs) -> None:
    """Step the first K rows of state, in label order, through one round's
    plans, in lockstep by stop index: one add and at most one branch of the
    whole stack a stop, each row as :func:`_step_row` steps it.

    A row with fewer stops, or one that has ended, idles.  Its increment is
    -0.0, which adds to any float, -0.0 included, without changing a bit,
    and a stop that moves no row does not add.  A row that does not branch
    at a stop where another does writes into the scratch row, state's last.
    """
    k, n = state.shape[0] - 1, state.shape[1]
    x = state[:k]
    v = state.reshape(-1)  # the same memory, 1-d
    offsets = np.arange(k) * n  # where each row starts in v
    # A branch picks, for each row, one entry of ext, and adds the row's
    # offset: its first maximum, its first minimum, or for a row that does
    # not branch the scratch row's start, (K - r) N past the row's own.
    ext = np.concatenate((np.empty(2 * k, dtype=np.intp), (k - np.arange(k)) * n))
    maxima, minima = ext[:k], ext[k : 2 * k]
    samples = {}  # stop -> [(row, sample index)]
    for r, _, _, branchers, _, s in plans:
        for j in np.flatnonzero(branchers == 0).tolist():
            samples.setdefault(j, []).append((r, s))
            s += 1
    idle = set(range(k)) - {plan[0] for plan in plans}
    length = max(len(plan[1]) for plan in plans)
    batch = buf.shape[1]
    for c in range(0, length, batch):
        size = min(batch, length - c)
        moves = np.zeros((size, k), dtype=bool)
        branchers_c = np.zeros((size, k), dtype=np.intp)
        kills_c = np.zeros((size, k), dtype=bool)
        for r, _, dts, branchers, kills, _ in plans:
            d = dts[c : c + size]
            mv = d > 0.0
            rows = streams[r].increments(d[mv], buf[r])
            if len(rows) < len(d):  # a stop at the last one's time moves nothing
                held = buf[r, : len(d)]
                held[mv] = rows.copy()
                held[~mv] = -0.0
            buf[r, len(d) : size] = -0.0
            moves[: len(d), r] = mv
            branchers_c[: len(d), r] = branchers[c : c + size]
            kills_c[: len(d), r] = kills[c : c + size]
        for r in idle:
            buf[r, :size] = -0.0
        branch = branchers_c > 0
        picks = np.where(branch, kills_c * k, 2 * k) + np.arange(k)
        born = np.where(branch, offsets + branchers_c - 1, k * n)  # flat, in v
        for j, inc, moved, branched, pick, bj in zip(
            range(c, c + size),
            buf[:, :size].swapaxes(0, 1),
            moves.any(axis=1).tolist(),
            branch.any(axis=1).tolist(),
            picks,
            born,
        ):
            if moved:
                x += inc
            for r, s in samples.get(j, ()):
                row = x[r]
                lefts[r, s] = row[row.argmin()]
                rights[r, s] = row[row.argmax()]
                if configs is not None:
                    configs[r, s] = np.sort(row, kind="stable")
            if branched:
                x.argmax(axis=1, out=maxima)
                x.argmin(axis=1, out=minima)
                dead = ext[pick]
                dead += offsets
                v[dead] = v[bj]


def _step_pair(x, plan, stream, buf, lefts, rights, configs) -> None:
    """Step the coupled pair x, two sorted rows, through one round's plan of
    their shared bundle, checking their order after every stop.

    A stop adds its increment row to both rows and re-sorts them; then an
    event duplicates rank i of each row and shifts the row by one place
    towards the dying end, and a sample records both rows.
    """
    _, stops, dts, branchers, kills, s = plan
    stops, branchers, kills = stops.tolist(), branchers.tolist(), kills.tolist()
    batch = len(buf)
    for c in range(0, len(dts), batch):
        rows = _increment_rows(stream, dts[c : c + batch], buf)
        chunk = slice(c, c + batch)
        for t, row, i, kill in zip(stops[chunk], rows, branchers[chunk], kills[chunk]):
            if row is not None:
                x += row
                x.sort()  # quicksort, numpy's default, row by row
            if i:  # the duplicate sits next to its parent, so the rows stay sorted
                if kill:
                    x[:, : i - 1] = x[:, 1:i]
                else:
                    x[:, i:] = x[:, i - 1 : -1]
            else:
                lefts[:, s] = x[:, 0]
                rights[:, s] = x[:, -1]
                if configs is not None:
                    configs[:, s] = x
                s += 1
            _check_order(x, t)


def couple_simulate(
    init_lo,
    init_hi,
    p: float,
    T: float,
    src: RandomSource,
    sample_times=None,
    *,
    record_configs: bool = False,
) -> tuple[TrajectoryRecord, TrajectoryRecord]:
    """Evolve two ordered configurations through the same randomness.

    Both copies step by rank on one bundle of streams: rank j of both takes
    the same normal and rank i of both branches, so the dominance order of
    the initial pair is preserved pathwise.  The order is checked after
    every event and sample; a violation (which the coupling argument rules
    out) raises :class:`CouplingViolationError`.
    """
    lo, times = _prepare(init_lo, p, T, sample_times)
    hi, _ = _prepare(init_hi, p, T, sample_times)
    if len(lo) != len(hi):
        raise ValueError("coupled configurations must have equal length")
    if not np.all(lo <= hi):
        raise ValueError("initial configurations must be in dominance order")
    streams = [SimulationStreams(src, len(lo))]
    pair = np.stack((lo, hi))
    rec_lo, rec_hi = _run(pair, p, T, times, streams, record_configs, coupled=True)
    return rec_lo, rec_hi


# ---------------------------------------------------------------------------
# asymptotic velocity


def _map_replicas(run, count: int, n: int) -> list:
    """``[run(0), ..., run(count - 1)]``: in threads at n >= PARALLEL_MIN_N,
    else one after another in the calling thread.

    The threads, one per CPU this process may use and at most one per
    replica, take replica indices in turn; the calling thread is one of
    them, and with one CPU or below PARALLEL_MIN_N it is the only one.
    Each result is stored under its index, so the list does not depend on
    the thread count.  Once a replica raises, no further replica starts;
    every thread is joined, and the exception of the lowest index that
    raised propagates.
    """
    # the CPUs this process may run on, which taskset narrows
    workers = min(count, len(os.sched_getaffinity(0))) if n >= PARALLEL_MIN_N else 1
    results = [None] * count
    failed: list[tuple[int, BaseException]] = []
    # shared by the threads: next() on it is one call, atomic under the GIL
    pending = iter(range(count))

    def work() -> None:
        for r in pending:
            if failed:
                return
            try:
                results[r] = run(r)
            except BaseException as exc:
                failed.append((r, exc))
                return

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        for thread in helpers:
            thread.join()
    if failed:
        raise min(failed, key=lambda item: item[0])[1]
    return results


@dataclass(frozen=True)
class SpeedEstimate:
    """Velocity estimate from replicated runs started with all particles at 0.

    ``v_hat`` tracks the leftmost particle; the rightmost-based estimate is
    recorded alongside because both extremes share the same limit speed.
    ``burn_in`` is the prefix each replica discarded, T/5 unless given.
    """

    v_hat: float
    std_error: float
    v_hat_right: float
    std_error_right: float
    burn_in: float
    samples_left: NDArray[np.float64]
    samples_right: NDArray[np.float64]


def estimate_speed(
    p: float,
    N: int,
    T: float,
    src: RandomSource,
    burn_in: float | None = None,
    replicas: int = 20,
    *,
    mirror: bool = False,
) -> SpeedEstimate:
    """Displacement-rate estimate of the travelling speed.

    Each replica runs from all particles at 0, discards a burn-in prefix
    (default T/5) to approximate the stationary shape seen from the leftmost
    particle, and measures (X(T) - X(burn_in)) / (T - burn_in) for both
    extremes.  Replica r draws from ``src.child(r)``.  Below N =
    PARALLEL_MIN_N the replicas step together as stacks of at most
    STACK_ROWS rows, and from there on they run in threads, one per CPU the
    process may use; either way the samples are those of running them one
    after another.
    """
    if replicas < 2:
        raise ValueError(
            f"replicas={replicas} must be at least 2: one replica has no spread"
        )
    if burn_in is None:
        burn_in = T / 5.0
    if not 0.0 <= burn_in < T:
        raise ValueError(f"need T > burn_in >= 0, got T={T!r}, burn_in={burn_in!r}")
    span = T - burn_in
    # checks p and T; a sample at time 0 has a zero interval and draws nothing
    _, times = _prepare(np.zeros(N), p, T, [burn_in, T])

    def rates(rec: TrajectoryRecord) -> tuple[float, float]:
        l0, r0 = rec.leftmost[0], rec.rightmost[0]
        return (rec.leftmost[-1] - l0) / span, (rec.rightmost[-1] - r0) / span

    if N >= PARALLEL_MIN_N:

        def replica(r: int) -> TrajectoryRecord:
            return simulate(
                np.zeros(N), p, T, src.child(r), sample_times=times, mirror=mirror
            )

        recs = _map_replicas(replica, replicas, N)
    else:  # stacks of at most STACK_ROWS replicas, as even as they divide
        count = -(-replicas // STACK_ROWS)
        cuts = [replicas * j // count for j in range(count + 1)]
        recs = []
        for lo, hi in zip(cuts, cuts[1:]):
            streams = [SimulationStreams(src.child(r), N) for r in range(lo, hi)]
            start = np.zeros((hi - lo, N))
            recs += _run(start, p, T, times, streams, False, mirror=mirror)
    vl, vr = map(np.array, zip(*map(rates, recs)))
    sel = float(np.std(vl, ddof=1) / math.sqrt(replicas))
    ser = float(np.std(vr, ddof=1) / math.sqrt(replicas))
    return SpeedEstimate(
        v_hat=float(np.mean(vl)),
        std_error=sel,
        v_hat_right=float(np.mean(vr)),
        std_error_right=ser,
        burn_in=burn_in,
        samples_left=vl,
        samples_right=vr,
    )

