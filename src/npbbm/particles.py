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

One event loop, ``_run``, advances a (K, N) stack of sorted configurations
on one draw sequence: every row takes the same clock gap, the same increment
vector, the same rank and the same selection bit.  K = 1 is a single run
(:func:`simulate`); K = 2 is the monotone coupling (:func:`couple_simulate`),
under which two copies started in dominance order stay ordered pathwise.
The reflection coupling between parameters p and 1-p is built from the base
run: with R(x) = -x[::-1], the mirrored run at p from x is R applied to the
run at 1-p from R(x) on the same streams, so it is exact by construction.
"""

from __future__ import annotations

import math
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
    "branch_select_step",
    "dominance_check",
    "viewed_from_leftmost",
    "simulate",
    "couple_simulate",
    "estimate_speed",
    "stationarity_diagnostic",
    "trajectory_to_csv",
]


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


def branch_select_step(v: NDArray[np.float64], i: int, q: int) -> NDArray[np.float64]:
    """One branch/selection event applied to a sorted configuration.

    The particle of rank ``i`` (1-based) duplicates; with ``q=1`` the leftmost
    particle is removed, with ``q=0`` the rightmost.  Output is sorted and has
    the same length as the input.  On a stack of configurations the event
    acts on the last axis, the same event on every row.
    """
    v = np.asarray(v)
    n = v.shape[-1]
    if not 1 <= i <= n:
        raise ValueError(f"rank i={i} out of range 1..{n}")
    if q not in (0, 1):
        raise ValueError("q must be 0 or 1")
    # the duplicate sits next to its parent, so the output stays sorted
    if q == 1:
        return np.concatenate((v[..., 1:i], v[..., i - 1 :]), axis=-1)
    return np.concatenate((v[..., :i], v[..., i - 1 : -1]), axis=-1)


def dominance_check(a: NDArray[np.float64], b: NDArray[np.float64]) -> bool:
    """True iff every right tail of A counts no more particles than B's.

    Exact integer comparison at the only candidate thresholds, the elements
    of A and B themselves.  For equal sizes this coincides with componentwise
    comparison of the sorted configurations.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if len(a) == len(b):
        return bool(np.all(a <= b))
    xs = np.union1d(a, b)
    count_a = len(a) - np.searchsorted(a, xs, side="left")
    count_b = len(b) - np.searchsorted(b, xs, side="left")
    return bool(np.all(count_a <= count_b))


def viewed_from_leftmost(c: NDArray[np.float64]) -> NDArray[np.float64]:
    """Configuration shifted so its leftmost particle sits at 0."""
    c = np.asarray(c, dtype=np.float64)
    out = c - c[0]
    out[0] = 0.0
    return out


# ---------------------------------------------------------------------------
# stream bundles


class SimulationStreams:
    """The four independent substreams driving one simulation run."""

    def __init__(self, src: RandomSource) -> None:
        self._driving = src.generator(TAG_DRIVING)
        self._clock = src.generator(TAG_CLOCK)
        self._index = src.generator(TAG_INDEX)
        self._select = src.generator(TAG_SELECT)

    def increments(self, n: int, dt: float) -> NDArray[np.float64]:
        """Gaussian increments over dt for ranks 1..n (rank j takes entry j)."""
        return self._driving.standard_normal(n) * math.sqrt(dt)

    def event_gap(self, n: int) -> float:
        """Time to the next branch event: Exponential with rate n."""
        return float(self._clock.exponential(1.0 / n))

    def branch_rank(self, n: int) -> int:
        """Uniform rank in 1..n."""
        return int(self._index.integers(1, n + 1))

    def keep_right(self, p: float) -> bool:
        """Bernoulli(p) selection bit: True kills the leftmost particle."""
        return bool(self._select.random() < p)


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
        raise ValueError("selection probability p must lie strictly in (0,1)")
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
    src: RandomSource | None = None,
    sample_times=None,
    *,
    record_configs: bool = False,
    mirror: bool = False,
    streams: SimulationStreams | None = None,
) -> TrajectoryRecord:
    """Run one (N,p)-BBM trajectory; deterministic given its arguments.

    Exactly one of ``src`` and ``streams`` must be given; ``streams`` exists
    so tests can stub the event clock.  ``mirror=True`` returns the
    reflection of the run at 1-p from the reflected start, on the same
    streams: extremes swap and change sign, configurations become -x[::-1].
    """
    x, times = _prepare(init, p, T, sample_times)
    if (src is None) == (streams is None):
        raise ValueError("pass exactly one of src and streams")
    if streams is None:
        streams = SimulationStreams(src)
    if not mirror:
        return _run(x[None], p, T, times, streams, record_configs)[0]
    rec = _run(-x[None, ::-1], 1.0 - p, T, times, streams, record_configs)[0]
    configs = None if rec.full_configs is None else -rec.full_configs[:, ::-1]
    return TrajectoryRecord(
        times, -rec.rightmost, -rec.leftmost, configs, rec.event_count
    )


def _check_order(x) -> None:
    if not np.all(x[0] <= x[1]):
        raise CouplingViolationError("dominance order broken under shared streams")


def _run(x, p, T, times, streams, record_configs) -> list[TrajectoryRecord]:
    """The event loop: every row of the (K, N) stack x takes the same draws.

    A pair (K = 2) is a monotone coupling, checked after every sample and
    event.
    """
    k, n = x.shape
    coupled = k == 2
    m = len(times)
    lefts = np.empty((k, m))
    rights = np.empty((k, m))
    configs = np.empty((k, m, n)) if record_configs else None

    t = 0.0
    si = 0
    events = 0
    next_event = t + streams.event_gap(n)
    while True:
        horizon = next_event if next_event <= T else T
        while si < m and times[si] <= horizon:
            dt = times[si] - t
            if dt > 0.0:
                x = np.sort(x + streams.increments(n, dt), axis=1, kind="stable")
                t = times[si]
            if coupled:
                _check_order(x)
            lefts[:, si] = x[:, 0]
            rights[:, si] = x[:, -1]
            if configs is not None:
                configs[:, si] = x
            si += 1
        if next_event > T:
            break
        dt = next_event - t
        if dt > 0.0:
            x = np.sort(x + streams.increments(n, dt), axis=1, kind="stable")
        t = next_event
        x = branch_select_step(x, streams.branch_rank(n), int(streams.keep_right(p)))
        events += 1
        if coupled:
            _check_order(x)
        next_event = t + streams.event_gap(n)

    return [
        TrajectoryRecord(
            times, lefts[r], rights[r], None if configs is None else configs[r], events
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
    pair = np.stack((lo, hi))
    rec_lo, rec_hi = _run(pair, p, T, times, SimulationStreams(src), record_configs)
    return rec_lo, rec_hi


# ---------------------------------------------------------------------------
# asymptotic velocity


@dataclass(frozen=True)
class SpeedEstimate:
    """Velocity estimate from replicated runs started with all particles at 0.

    ``v_hat`` tracks the leftmost particle; the rightmost-based estimate is
    recorded alongside because both extremes share the same limit speed.
    """

    v_hat: float
    std_error: float
    v_hat_right: float
    std_error_right: float
    n_particles: int
    p: float
    horizon: float
    burn_in: float
    replicas: int
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
    extremes.  Replica r draws from ``src.child(r)``.
    """
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    if burn_in is None:
        burn_in = T / 5.0
    if not 0.0 <= burn_in < T:
        raise ValueError("need T > burn_in >= 0")
    vl = np.empty(replicas)
    vr = np.empty(replicas)
    span = T - burn_in
    times = [burn_in, T] if burn_in > 0.0 else [T]
    for r in range(replicas):
        rec = simulate(
            np.zeros(N), p, T, src.child(r), sample_times=times, mirror=mirror
        )
        l0 = rec.leftmost[0] if burn_in > 0.0 else 0.0
        r0 = rec.rightmost[0] if burn_in > 0.0 else 0.0
        vl[r] = (rec.leftmost[-1] - l0) / span
        vr[r] = (rec.rightmost[-1] - r0) / span
    sel = float(np.std(vl, ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    ser = float(np.std(vr, ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return SpeedEstimate(
        v_hat=float(np.mean(vl)),
        std_error=sel,
        v_hat_right=float(np.mean(vr)),
        std_error_right=ser,
        n_particles=N,
        p=p,
        horizon=T,
        burn_in=burn_in,
        replicas=replicas,
        samples_left=vl,
        samples_right=vr,
    )


def stationarity_diagnostic(
    p: float,
    N: int,
    t1: float,
    t2: float,
    replicas: int,
    src: RandomSource,
) -> float:
    """KS distance between the particle-gap laws at two times.

    Each replica starts with all particles at 0 and records the spread
    X_N - X_1 at t1 and t2.  A small distance for two large times is the
    operational signature of convergence to the stationary shape.
    """
    if not 0.0 < t1 <= t2:
        raise ValueError("need 0 < t1 <= t2")
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    times = [t1] if t1 == t2 else [t1, t2]
    g1 = np.empty(replicas)
    g2 = np.empty(replicas)
    for r in range(replicas):
        rec = simulate(np.zeros(N), p, t2, src.child(r), sample_times=times)
        g1[r] = rec.rightmost[0] - rec.leftmost[0]
        g2[r] = rec.rightmost[-1] - rec.leftmost[-1]
    from .stats import ks_distance

    return ks_distance(g1, g2)


# ---------------------------------------------------------------------------
# export


def trajectory_to_csv(rec: TrajectoryRecord, path, *, wide: bool = False) -> None:
    """Write a trajectory as CSV with 17-significant-digit floats.

    Narrow format has columns time,leftmost,rightmost; the wide format
    (requires recorded configurations) has time,x1,...,xN.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if wide:
            if rec.full_configs is None:
                raise ValueError("wide export needs recorded configurations")
            n = rec.full_configs.shape[1]
            fh.write("time," + ",".join(f"x{j}" for j in range(1, n + 1)) + "\n")
            for t, row in zip(rec.sample_times, rec.full_configs):
                fh.write(",".join(format(v, ".17g") for v in (t, *row)) + "\n")
        else:
            fh.write("time,leftmost,rightmost\n")
            for t, lo, hi in zip(rec.sample_times, rec.leftmost, rec.rightmost):
                fh.write(f"{t:.17g},{lo:.17g},{hi:.17g}\n")
