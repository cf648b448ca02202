"""Event-driven simulation of N-particle branching Brownian motion with
two-sided selection.

The process keeps exactly N particles.  Branch events arrive at rate N
(cumulative Exponential draws from the clock stream).  At an event a uniform
rank i duplicates and a Bernoulli(p) bit decides which extreme dies: q=1
kills the leftmost particle, q=0 the rightmost.  Between events every
particle receives an exact Gaussian increment of variance equal to the
elapsed time: each interval takes one vector of N standard normals from the
single driving stream, and after each re-sort rank j takes its j-th entry.
There is no path-discretization error.

One event loop, ``_run``, advances a (K, N) stack of sorted configurations,
row r on its own bundle of streams.  It works through each row's events in
batches of B: BLOCK_ITEMS // N events (163 at N = 50), but at least
MIN_BATCH = 16 where the increments of 16 fit in 16 blocks (1 MB), and else
as many as fit there (16 at N = 4000, 6 at N = 20 000, 1 above N = 65 536).
For each batch it takes B clock gaps, B ranks and B selection uniforms in
one generator call per stream, sums the gaps from the last event time into
event times in order, merges the sample times into that schedule (a sample
at an event's time comes first; the first event after T ends the run), and
draws the normals for the positive intervals of up to B stops in one call,
straight into a reused row buffer, scaled row by row by the square root of
the interval.  Python then only adds a row, re-sorts and records the sample
or applies the event, once a stop for the whole stack.  A batched generator
call equals the same draws made one at a time, so the draws, the event times
(each the last one plus its gap) and the increments are those of one event
at a time.
The loop re-sorts with numpy's quicksort, which gives the same bits as a
stable sort unless a row holds both +0.0 and -0.0: there the vectorised sort
may reorder them, and even change how many are -0.0.  x + g is -0.0 only when
both are, so after an increment that needs a start holding -0.0 and a normal
draw of exactly -0.0, which comes with probability 2^-53 a draw; a stop that
moves no row does not sort.  K = 1 is a single run (:func:`simulate`); K = 2
on two bundles that draw alike is the monotone coupling
(:func:`couple_simulate`), under which two copies started in dominance order
stay ordered pathwise; K up to STACK_ROWS replicas on their own streams is
how :func:`estimate_speed` runs them below PARALLEL_MIN_N particles.
The reflection coupling between parameters p and 1-p is built from the base
run: with R(x) = -x[::-1], the mirrored run at p from x is R applied to the
run at 1-p from R(x) on the same streams, so it is exact by construction.

:func:`estimate_speed` steps its replicas below PARALLEL_MIN_N particles as
stacks of at most STACK_ROWS rows, where one stop's Python work serves every
row of the stack, and from there on runs them in threads, one per CPU of the
process's affinity: numpy draws the normals and re-sorts without the GIL,
and they are most of an event at large N.  Replica r draws only from its own
streams and its result is stored under r, so the estimate is the same bits
in a stack, alone, or on any number of threads.
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
# one after another -> 2 threads, 4 replicas of 24 000 events in all, 5 to 7
# interleaved rounds in process on a 2-core VM: N = 50 2.3 -> 2.3, N = 100
# 3.2 -> 2.8, N = 200 5.3 -> 3.8 (a tie in an earlier, busier measurement),
# N = 256 6.3 -> 3.6, N = 500 10.5 -> 5.9, N = 4000 74 -> 40.  One after
# another -> one stack of the 4, 9 rounds: N = 200 6.05 -> 5.87, N = 256
# 7.17 -> 7.31, N = 500 13.2 -> 14.2, where the stack's second sort of a row
# costs more than the Python it saves.
PARALLEL_MIN_N = 256

# Most replicas in one stack; its increment buffer holds STACK_ROWS blocks
# (2 MB).  Median us an event over 100 000 events, stacks of 4 -> 8 -> 16 ->
# 32 -> 64 rows, 5 rounds in process: N = 10 1.06 -> 0.78 -> 0.61 -> 0.49 ->
# 0.48, N = 50 1.95 -> 2.00 -> 1.67 -> 1.73 -> 1.72, N = 200 6.37 -> 6.39 ->
# 5.75 -> 5.40 -> 5.46.
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


def _branch(v: NDArray[np.float64], i: int, q: int) -> None:
    """One branch/selection event in place on the last axis of sorted v: rank
    i (1-based) duplicates, then q=1 removes the leftmost particle and q=0 the
    rightmost.  Unvalidated; the event loop's ranks lie in 1..N."""
    # the duplicate sits next to its parent, so the output stays sorted
    if q:
        v[..., : i - 1] = v[..., 1:i]
    else:
        v[..., i:] = v[..., i - 1 : -1]


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
        """The next ``batch`` branch events after time t: times, ranks, kill bits.

        The times add Exponential gaps of rate n to t in order, so each is
        the last one plus its gap, as one event at a time.  Ranks are uniform
        in 1..n; a Bernoulli(p) kill bit of True removes the leftmost
        particle, False the rightmost.
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

        Rank j takes entry j of a row.  The rows are drawn into
        ``out[:len(dts)]``, which is returned.
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


def _check_order(x, stops, at: int) -> None:
    """Raise unless the pair x is in dominance order after stop ``at``."""
    if not np.all(x[0] <= x[1]):
        j = int(np.argmin(x[0] <= x[1]))
        raise CouplingViolationError(
            f"dominance order broken under shared streams at t={float(stops[at])!r}: "
            f"rank {j + 1} holds {float(x[0, j])!r} in the lower copy and "
            f"{float(x[1, j])!r} in the upper"
        )


def _plan(streams, t, p, T, times, sample_times, si):
    """One row's next round of stops after time t.

    A round is one ``streams.events`` batch: its events up to T, and the
    samples from index si up to its last event, a sample at an event's time
    before the event.  The first event after T ends the run, and its round
    takes every sample left.  Returns the stops, their ranks (0 marks a
    sample) and kill bits, the events fired, whether the run ended, and the
    index of the next sample.
    """
    stops, ranks, kills = streams.events(t, p)
    ended = bool(stops[-1] > T)
    if ended:
        fired = int(np.searchsorted(stops, T, side="right"))
        stops, ranks, kills = stops[:fired], ranks[:fired], kills[:fired]
        sj = len(times)
    else:
        fired = len(stops)
        sj = bisect.bisect_right(sample_times, stops[-1], si)
    if sj > si:  # samples go before the first event at or after them
        at = np.searchsorted(stops, times[si:sj])
        stops = np.insert(stops, at, times[si:sj])
        ranks = np.insert(ranks, at, 0)
        kills = np.insert(kills, at, False)
    return stops, ranks, kills, fired, ended, sj


def _run(
    x, p, T, times, streams, record_configs, *, mirror=False, coupled=False
) -> list[TrajectoryRecord]:
    """The event loop: row r of the (K, N) stack x draws only from streams[r].

    Each round, every row that has not ended plans its own stops
    (:func:`_plan`).  The increment rows of up to B stops of a row at a time
    are drawn into that row's (B, N) slice of one buffer that every chunk of
    stops reuses.  At each stop a positive interval adds its row and
    re-sorts; then the stop records the sample or applies the event.

    K = 1 steps its row as a 1-d array and branches with :func:`_branch`.
    K >= 2 steps the rows in lockstep by stop index, one add and one sort of
    the whole stack a stop; a row with fewer stops, or one that has ended,
    idles.  Its increment is -0.0, which adds to any float, -0.0 included,
    without changing a bit, and a stop that moves no row neither adds nor
    sorts.  A branch writes rank i's value over the extreme that dies, then
    re-sorts the stack (unless no row branches): the multiset of
    :func:`_branch`'s shift, so its sorted row (see the module docstring).

    ``mirror=True`` runs at 1 - p from the reflected start and reflects the
    records back.  A ``coupled`` pair, rows lower and upper on two bundles
    that draw alike, is checked after every stop.
    """
    if mirror:
        x, p = -x[:, ::-1], 1.0 - p
    k, n = x.shape
    x = x.copy()  # stepped in place
    v = x[0] if k == 1 else x.reshape(-1)  # the same memory, 1-d
    m = len(times)
    lefts = np.empty((k, m))
    rights = np.empty((k, m))
    configs = np.empty((k, m, n)) if record_configs else None
    sample_times = times.tolist()  # for bisect
    batch = streams[0].batch
    buf = np.empty((k, batch, n))  # increment rows, reused by every chunk
    offsets = np.arange(k) * n  # where each row starts in v, for K >= 2

    t = [0.0] * k
    si = [0] * k
    events = [0] * k
    live = list(range(k))
    while live:
        plans = []  # (row, stops, intervals, ranks, kill bits, first sample)
        for r in live.copy():
            stops, ranks, kills, fired, ended, sj = _plan(
                streams[r], t[r], p, T, times, sample_times, si[r]
            )
            events[r] += fired
            if stops.size:
                dts = stops - np.concatenate(([t[r]], stops[:-1]))
                plans.append((r, stops, dts, ranks, kills, si[r]))
                t[r] = stops[-1]
            si[r] = sj
            if ended:
                live.remove(r)
        if k == 1:
            for _, stops, dts, ranks, kills, s in plans:  # at most one
                ranks, kills = ranks.tolist(), kills.tolist()
                for c in range(0, len(dts), batch):
                    d = dts[c : c + batch]
                    moves = d > 0.0
                    rows = streams[0].increments(d[moves], buf[0])
                    if len(rows) < len(d):  # a stop at the last one's time moves nothing
                        it = iter(rows)
                        rows = [next(it) if mv else None for mv in moves.tolist()]
                    stepped = zip(rows, ranks[c : c + batch], kills[c : c + batch])
                    for row, i, kill in stepped:
                        if row is not None:
                            v += row
                            v.sort()  # quicksort, numpy's default
                        if i:
                            _branch(v, i, kill)
                        else:
                            lefts[0, s] = v[0]
                            rights[0, s] = v[-1]
                            if configs is not None:
                                configs[0, s] = v
                            s += 1
            continue
        if not plans:
            continue
        samples = {}  # stop -> [(row, sample index)]
        for r, _, _, ranks, _, s in plans:
            for j in np.flatnonzero(ranks == 0).tolist():
                samples.setdefault(j, []).append((r, s))
                s += 1
        idle = set(range(k)) - {plan[0] for plan in plans}
        length = max(len(plan[1]) for plan in plans)
        for c in range(0, length, batch):
            size = min(batch, length - c)
            moves = np.zeros((size, k), dtype=bool)
            ranks_c = np.zeros((size, k), dtype=np.intp)
            kills_c = np.zeros((size, k), dtype=bool)
            for r, _, dts, ranks, kills, _ in plans:
                d = dts[c : c + size]
                mv = d > 0.0
                rows = streams[r].increments(d[mv], buf[r])
                if len(rows) < len(d):  # a stop at the last one's time moves nothing
                    held = buf[r, : len(d)]
                    held[mv] = rows.copy()
                    held[~mv] = -0.0
                buf[r, len(d) : size] = -0.0
                moves[: len(d), r] = mv
                ranks_c[: len(d), r] = ranks[c : c + size]
                kills_c[: len(d), r] = kills[c : c + size]
            for r in idle:
                buf[r, :size] = -0.0
            # flat indices of the dying extreme and of rank i; a row that
            # does not branch copies its dying extreme onto itself
            dead = np.where(kills_c, offsets, offsets + (n - 1))
            born = np.where(ranks_c > 0, offsets + ranks_c - 1, dead)
            for j, inc, moved, branched, dj, bj in zip(
                range(c, c + size),
                buf[:, :size].swapaxes(0, 1),
                moves.any(axis=1).tolist(),
                (ranks_c > 0).any(axis=1).tolist(),
                dead,
                born,
            ):
                if moved:
                    x += inc
                    x.sort()  # quicksort, numpy's default, row by row
                for r, s in samples.get(j, ()):
                    lefts[r, s] = x[r, 0]
                    rights[r, s] = x[r, -1]
                    if configs is not None:
                        configs[r, s] = x[r]
                if branched:
                    v[dj] = v[bj]
                    x.sort()
                if coupled:
                    _check_order(x, plans[0][1], j)

    if mirror:
        lefts, rights = -rights, -lefts
        configs = None if configs is None else -configs[:, :, ::-1]
    return [
        TrajectoryRecord(
            times,
            lefts[r],
            rights[r],
            None if configs is None else configs[r],
            events[r],
        )
        for r in range(k)
    ]


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

    Both copies consume identical driving/clock/index/selection draws, so the
    dominance order of the initial pair is preserved pathwise.  The order is
    checked after every event and sample; a violation (which the coupling
    argument rules out) raises :class:`CouplingViolationError`.
    """
    lo, times = _prepare(init_lo, p, T, sample_times)
    hi, _ = _prepare(init_hi, p, T, sample_times)
    if len(lo) != len(hi):
        raise ValueError("coupled configurations must have equal length")
    if not np.all(lo <= hi):
        raise ValueError("initial configurations must be in dominance order")
    # two bundles on one source draw the same numbers, one bundle a row
    streams = [SimulationStreams(src, len(lo)) for _ in range(2)]
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

