"""Command-line front end: config parsing, orchestration, and output files.

Every subcommand reads an optional JSON config file, applies flag overrides
(flags win), and checks every key, the master seed and the output directory
among them, against the command's table in `_KEYS` before it creates the
output directory.  It then runs the corresponding module operations and
writes CSV/JSON outputs plus a manifest with SHA-256 checksums into the
output directory.  This module writes every output file.  Numeric output
carries 17 significant digits so re-running a config reproduces files byte
for byte.

Sub-streams derive from (master seed, command id, replica id): each command
owns stream indices [id * 2^32, (id+1) * 2^32) and hands replica r the
index id * 2^32 + r, so no two commands or replicas ever share a stream.

Exit codes: 0 success, 2 config validation error, 3 runtime numeric error.
A run that exits 2 or 3 removes the directories it made for its output
if they are still empty; a directory that existed before stays.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .density import (
    MAX_GRID_CELLS,
    GridTooSmallError,
    SchemeParams,
    l1_distance,
    plan_grid,
    refine_limit,
)
from .discrete import bounds_verdict, run_bounds
from .exits import (
    PathParams,
    exit_statistics,
    representation_check,
    small_delta_flux,
)
from .particles import (
    CouplingViolationError,
    estimate_speed,
    simulate,
)
from .randomness import DRAW_LAYOUT, RandomSource
from .wave import (
    travelling_wave,
    wave_barriers,
    wave_density,
    ode_residual,
    wave_speed,
)

COMMAND_IDS = {
    "simulate": 1,
    "bounds": 2,
    "scheme": 3,
    "wave": 4,
    "exit": 5,
    "speedscan": 6,
}


def _int(key: str, value) -> int:
    """A JSON integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key}={value!r} is not an integer")
    return value


def _count(least: int, cap: int | None = None):
    """Checker for a count: an integer of at least `least`, and at most `cap`."""

    def check(key: str, value) -> int:
        if _int(key, value) < least:
            raise ValueError(f"{key}={value} must be at least {least}")
        if cap is not None and value > cap:
            raise ValueError(f"{key}={value} is above the cap of {cap}")
        return value

    return check


def _seed(key: str, value) -> int:
    """A master seed: an integer in [0, 2^64)."""
    if not 0 <= _int(key, value) < 1 << 64:
        raise ValueError(f"{key}={value} must lie in [0, 2^64)")
    return value


def _path(key: str, value) -> str:
    """A file-system path: a non-empty string without NUL characters."""
    if not isinstance(value, str) or not value or "\0" in value:
        raise ValueError(f"{key}={value!r} is not a path")
    return value


def _real(key: str, value) -> float:
    """A config real: a finite int or float, and not a bool or a string."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        with contextlib.suppress(OverflowError):  # an int beyond float range
            if math.isfinite(value):
                return float(value)
    raise ValueError(f"{key}={value!r} is not a finite number")


def _optional(check):
    """Checker that lets None through and hands anything else to `check`."""
    return lambda key, value: None if value is None else check(key, value)


def _non_empty(check):
    """Checker for a non-empty list whose every entry passes `check`."""

    def entries(key: str, values) -> list:
        if not isinstance(values, list) or not values:
            raise ValueError(f"{key} must be a non-empty list, got {values!r}")
        return [check(key, v) for v in values]

    return entries


def _one_of(*choices: str):
    """Checker for one of the given strings."""

    def check(key: str, value) -> str:
        if value not in choices:
            raise ValueError(f"{key}={value!r} must be one of {', '.join(choices)}")
        return value

    return check


# Each command's config keys: key -> (checker, default), the command's own
# keys followed by the master seed and the output directory.  The checkers
# hold types, count bounds and the seed's range; the ranges of reals are
# checked by the library functions that use them, whose messages name the
# value and its limit.
_COMMON = {"seed": (_seed, 20260815), "out": (_path, ".")}
_KEYS = {
    "simulate": {
        "p": (_real, 0.5),
        "n_particles": (_count(1), 50),
        "horizon": (_real, 10.0),
        "n_samples": (_count(1, MAX_GRID_CELLS), 50),  # the sample times are a grid
        "replicas": (_count(2), 20),
        "burn_in": (_optional(_real), None),
        **_COMMON,
    },
    "bounds": {
        "p": (_real, 0.5),
        "n_particles": (_count(1), 200),
        "delta": (_real, 0.1),
        "k_steps": (_count(0), 10),
        **_COMMON,
    },
    "scheme": {
        "p": (_real, 0.75),
        "t": (_real, 0.5),
        "n_max": (_count(0), 6),
        "tol": (_real, 1e-2),
        "dx": (_real, 1e-3),
        **_COMMON,
    },
    "wave": {
        "p_grid": (_non_empty(_real), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
        "dx_residual": (_real, 1e-3),
        "dx_mass": (_real, 1e-3),
        **_COMMON,
    },
    "exit": {
        "mode": (_one_of("stats", "representation", "flux"), "stats"),
        "p": (_real, 0.75),
        "t": (_real, 1.0),
        "h": (_real, 1e-3),
        "n_paths": (_count(1), 10000),
        "dx": (_real, 1e-3),
        "n_x": (_count(1, MAX_GRID_CELLS), 20),  # the x points are a grid
        "n_max": (_count(0), 5),
        "tol": (_real, 1e-2),
        "deltas": (_non_empty(_real), [0.02, 0.01, 0.005]),
        **_COMMON,
    },
    "speedscan": {
        "p": (_real, 0.75),
        "n_grid": (_non_empty(_count(1)), [10, 50, 200]),
        "horizon": (_real, 50.0),
        "burn_in": (_real, 10.0),
        "replicas": (_count(2), 20),
        **_COMMON,
    },
}


# Largest particle runs a simulate or speedscan config plans, each cap about
# ten minutes on a 2-core VM.  A run of N particles to time T has about N T
# events (the branch rate is N), and each event draws N normals, N^2 T in
# all.  A normal costs about 16 ns (16 events of 4000 normals took 1 026 us),
# and an event about 1-3 us at N <= 50 and 5-7 us at N = 200, so either cap
# allows 2-10 minutes.
_MAX_EVENTS = 10**8
_MAX_NORMALS = 2 * 10**10


def _plan_runs(config: dict, sizes_key: str, extra_runs: int) -> None:
    """Reject a config whose particle runs plan more events (N T a run) or
    normals (N^2 T a run) than their caps: each N of `sizes_key` runs
    `replicas` + `extra_runs` times to `horizon`."""
    sizes = config[sizes_key]
    sizes = sizes if isinstance(sizes, list) else [sizes]
    horizon, runs = config["horizon"], config["replicas"] + extra_runs
    try:
        events = sum(sizes) * runs * horizon
        normals = sum(n * n for n in sizes) * runs * horizon
    except OverflowError:  # a size beyond float range
        events = normals = math.inf
    for plan, what, cap in (
        (events, "events (N T", _MAX_EVENTS),
        (normals, "normals (N^2 T", _MAX_NORMALS),
    ):
        if not plan <= cap:
            raise ValueError(
                f"{sizes_key}={config[sizes_key]}, horizon={horizon!r} and "
                f"replicas={config['replicas']} plan {plan:.6g} {what} a run, "
                f"{runs} runs of each N), above the cap of {cap:.6g}"
            )


# Each command's plan of work, checked with its keys: simulate runs a
# trajectory and its replicas, speedscan the replicas of each size.
_PLANS = {
    "simulate": lambda config: _plan_runs(config, "n_particles", 1),
    "speedscan": lambda config: _plan_runs(config, "n_grid", 0),
}


def _load_config(command: str, args: argparse.Namespace) -> dict:
    keys = _KEYS[command]
    config = {key: default for key, (_, default) in keys.items()}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except RecursionError:
                raise ValueError("config file nests too deeply to parse") from None
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(loaded) - set(config)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config.update(loaded)
    for key in _COMMON:
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    for key, (check, _) in keys.items():
        config[key] = check(key, config[key])
    if command in _PLANS:
        _PLANS[command](config)
    return config


def _dump_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# write_csv formats this many rows as one string, so that only one chunk's
# Python floats are alive at a time
_CSV_CHUNK_ROWS = 4096


class _OutputSet:
    """Writes a command's output files and the manifest with their checksums.

    CSV values carry 17 significant digits, so every double reads back
    exactly; JSON is indented by two spaces.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.files: list[Path] = []
        # the directories this run makes, the deepest first
        self.made = list(
            itertools.takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents))
        )
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(
                f"out={str(out_dir)!r} cannot be made a directory: {exc.strerror}"
            ) from exc

    def discard(self) -> None:
        """Remove the directories this run made that are still empty."""
        for d in self.made:
            with contextlib.suppress(OSError):  # not empty, or gone
                d.rmdir()

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.files.append(p)
        return p

    def write_csv(self, name: str, header: str, table) -> None:
        """Write `header`, then one line per row of `table` (rows x columns);
        the header's last line names the columns.

        Every value prints with %.17g, which formats an integer through the
        float it equals, so the table is taken as float64 and formatted a
        chunk of rows at a time, each chunk as one string.
        """
        table = np.asarray(table, dtype=np.float64)
        columns = header.rsplit("\n", 1)[-1].count(",") + 1
        row = ",".join(["%.17g"] * columns) + "\n"
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for start in range(0, len(table), _CSV_CHUNK_ROWS):
                chunk = table[start : start + _CSV_CHUNK_ROWS]
                fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))

    def write_json(self, name: str, payload: dict) -> None:
        _dump_json(self.path(name), payload)

    def manifest(self, command: str, config: dict, started: str) -> None:
        entries = []
        for p in self.files:
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            entries.append({"path": p.name, "sha256": digest})
        payload = {
            "tool": "npbbm",
            "version": __version__,
            "draw_layout": DRAW_LAYOUT,
            "command": command,
            "config": config,
            "master_seed": config["seed"],
            "started": started,
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": entries,
        }
        _dump_json(self.out_dir / "manifest.json", payload)


def _command_source(config: dict, command: str) -> RandomSource:
    return RandomSource(config["seed"], COMMAND_IDS[command] << 32)


def _wave_fixture(p: float, t: float, dx: float):
    """The wave at p and its density shifted to end at 0, on a grid that
    holds it over time t."""
    w = travelling_wave(p)
    grid = plan_grid(-w.R0, 0.0, t, drift=w.c, dx=dx)
    return w, wave_density(w, grid, shift=-w.R0)


@contextlib.contextmanager
def _naming(key: str):
    """Prefix a ValueError raised in the block with the config key it concerns."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _check_burn_in(horizon: float, burn: float) -> None:
    """Reject a burn_in outside [0, horizon), naming both keys."""
    if not 0.0 <= burn < horizon:
        raise ValueError(
            f"need horizon > burn_in >= 0, got horizon={horizon!r}, burn_in={burn!r}"
        )


def cmd_simulate(config: dict, out: _OutputSet) -> None:
    p, n, horizon = config["p"], config["n_particles"], config["horizon"]
    burn, replicas = config["burn_in"], config["replicas"]
    if not horizon > 0.0:
        raise ValueError(f"horizon={horizon!r} must be positive")
    if burn is not None:
        _check_burn_in(horizon, burn)
    src = _command_source(config, "simulate")
    times = np.linspace(0.0, horizon, config["n_samples"] + 1)[1:]
    rec = simulate(np.zeros(n), p, horizon, src, sample_times=times)
    # both results first, so a rejected argument leaves no file behind
    est = estimate_speed(p, n, horizon, src.child(1), burn_in=burn, replicas=replicas)
    out.write_csv(
        "trajectory.csv",
        "time,leftmost,rightmost",
        np.column_stack((rec.sample_times, rec.leftmost, rec.rightmost)),
    )
    out.write_json(
        "speed.json",
        {
            "p": p,
            "n_particles": n,
            "horizon": horizon,
            "burn_in": est.burn_in,
            "replicas": replicas,
            "v_hat": est.v_hat,
            "std_error": est.std_error,
            "v_hat_right": est.v_hat_right,
            "std_error_right": est.std_error_right,
        },
    )


def cmd_bounds(config: dict, out: _OutputSet) -> None:
    p, n, delta, k = (config[key] for key in ("p", "n_particles", "delta", "k_steps"))
    src = _command_source(config, "bounds")
    init = np.zeros(n)
    runs = {
        side: run_bounds(init, SchemeParams(p, delta, side), k, src)
        for side in ("lower", "upper")
    }
    for side, run in runs.items():
        out.write_json(
            f"bounds_{side}.json",
            {
                "N": n,
                "p": p,
                "delta": delta,
                "side": side,
                "steps": [
                    {
                        "removed": s.removed,
                        "pre_truncation_size": s.pre_truncation_size,
                        "padded": s.padded,
                    }
                    for s in run.steps
                ],
            },
        )
    lower, upper = runs["lower"].config, runs["upper"].config
    out.write_csv(
        "bounds_final.csv",
        "rank,lower,upper",
        np.column_stack((np.arange(1, len(lower) + 1), lower, upper)),
    )
    out.write_json(
        "bounds_summary.json",
        {
            "p": p,
            "n_particles": n,
            "delta": delta,
            "k_steps": k,
            **bounds_verdict(lower, upper),
        },
    )


def cmd_scheme(config: dict, out: _OutputSet) -> None:
    p, t, n_max, tol = (config[key] for key in ("p", "t", "n_max", "tol"))
    w, rho = _wave_fixture(p, t, config["dx"])
    result = refine_limit(rho, p, t, n_max=n_max, tol=tol)
    out.write_csv(
        "widths.csv",
        "level,steps,delta,width",
        [(lvl, 2**lvl, t / 2**lvl, wd) for lvl, wd in enumerate(result.widths)],
    )
    psi = result.psi
    # the limit from the wave is the same wave moved by c t
    exact = wave_density(w, psi.spec, shift=w.c * t - w.R0)
    out.write_csv(
        "psi.csv",
        '{"x0": %.17g, "dx": %.17g, "count": %d, "mass": %.17g}\nx,value'
        % (psi.x0, psi.dx, psi.n, psi.mass),
        np.column_stack((psi.centers(), psi.values)),
    )
    out.write_json(
        "scheme_summary.json",
        {
            "p": p,
            "t": t,
            "n_max": n_max,
            "tol": tol,
            "converged": result.converged,
            "n_used": result.n_used,
            "width": result.width,
            "wave_l1": l1_distance(psi, exact),
        },
    )


def cmd_wave(config: dict, out: _OutputSet) -> None:
    rows = []
    for p in config["p_grid"]:
        w = travelling_wave(p)
        with _naming("dx_mass"):
            grid = plan_grid(0.0, w.R0, 0.0, dx=config["dx_mass"])
            mass = wave_density(w, grid).mass
        with _naming("dx_residual"):
            residual = ode_residual(w, config["dx_residual"])
        rows.append((p, w.c, w.R0, w.omega, w.amplitude, residual, mass))
    out.write_csv("wave_table.csv", "p,c,R0,omega,amplitude,residual,mass", rows)


def cmd_exit(config: dict, out: _OutputSet) -> None:
    mode, p, t = config["mode"], config["p"], config["t"]
    params = PathParams(t=t, h=config["h"], n_paths=config["n_paths"])
    src = _command_source(config, "exit")
    w, rho = _wave_fixture(p, t, config["dx"])
    left, right = wave_barriers(w, t)
    if mode == "stats":
        stats = exit_statistics(rho, left, right, params, src)
        out.write_json(
            "exit_stats.json",
            {
                "master_seed": src.master_seed,
                "stream_index": src.stream_index,
                "t": params.t,
                "h": params.h,
                "n_paths": stats.n_paths,
                "exit_left_prob": stats.exit_left_prob,
                "exit_right_prob": stats.exit_right_prob,
                "survive_prob": stats.survive_prob,
                "exit_left_se": stats.exit_left_se,
                "exit_right_se": stats.exit_right_se,
                "survive_se": stats.survive_se,
                "n_survivors": int(stats.survivor_positions.size),
            },
        )
        out.write_csv("survivors.csv", "position", stats.survivor_positions[:, None])
    elif mode == "representation":
        xs = np.linspace(w.c * t - w.R0, w.c * t, config["n_x"])
        result = representation_check(
            rho,
            left,
            right,
            xs,
            params,
            src,
            p=p,
            n_max=config["n_max"],
            tol=config["tol"],
        )
        out.write_csv("representation.csv", "x,mc,scheme,se", result.rows())
        out.write_json(
            "representation.json",
            {
                "p": p,
                "t": t,
                "scheme_width": result.scheme_width,
                "survive_prob": result.survive_prob,
                "max_abs_gap": float(
                    np.max(np.abs(result.mc_values - result.scheme_values))
                ),
            },
        )
    else:
        seq = small_delta_flux(rho, left, right, config["deltas"], params.n_paths, src)
        out.write_csv(
            "flux.csv",
            "delta,flux_left,se_left,flux_right,se_right",
            np.column_stack(
                (seq.deltas, seq.flux_left, seq.se_left, seq.flux_right, seq.se_right)
            ),
        )
        ex_l, se_l = seq.extrapolate("left")
        ex_r, se_r = seq.extrapolate("right")
        out.write_json(
            "flux.json",
            {
                "p": p,
                "flux_left_limit": ex_l,
                "flux_left_limit_se": se_l,
                "flux_right_limit": ex_r,
                "flux_right_limit_se": se_r,
            },
        )


# speedscan's size slot s hands replica r the stream s * _SLOT_STREAMS + r
_SLOT_STREAMS = 1 << 16


def cmd_speedscan(config: dict, out: _OutputSet) -> None:
    p, horizon, burn, replicas = (
        config[key] for key in ("p", "horizon", "burn_in", "replicas")
    )
    if replicas > _SLOT_STREAMS:
        raise ValueError(
            f"replicas={replicas} exceeds {_SLOT_STREAMS}, the number of streams "
            "each size slot owns"
        )
    _check_burn_in(horizon, burn)
    src = _command_source(config, "speedscan")
    reference = wave_speed(p)
    rows = []
    for slot, n in enumerate(config["n_grid"]):
        slot_src = src.child(slot * _SLOT_STREAMS)
        est = estimate_speed(p, n, horizon, slot_src, burn_in=burn, replicas=replicas)
        rows.append((n, est.v_hat, est.std_error, reference))
    out.write_csv("speedscan.csv", "n_particles,v_hat,std_error,reference", rows)


_RUNNERS = {
    "simulate": cmd_simulate,
    "bounds": cmd_bounds,
    "scheme": cmd_scheme,
    "wave": cmd_wave,
    "exit": cmd_exit,
    "speedscan": cmd_speedscan,
}


def _threads(text: str) -> int:
    """The --threads flag: an integer of at least 1."""
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}"
        )
    return threads


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports a usage error on one stderr line."""

    def error(self, message: str):
        self.exit(2, f"usage error: {self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="npbbm",
        description="Branching Brownian motion with two-sided selection: "
        "simulation and verification runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=str, default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--out", type=str, default=None)
        # accepted for scripts that pass it; it sets no thread count
        cmd.add_argument("--threads", type=_threads, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.command, args)
        out = _OutputSet(Path(config["out"]))
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        _RUNNERS[args.command](config, out)
    except (ValueError, TypeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except (
        GridTooSmallError,
        CouplingViolationError,
        ArithmeticError,
        AssertionError,
        MemoryError,
    ) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        code = 3
    else:
        out.manifest(args.command, config, started)
        return 0
    out.discard()
    return code


if __name__ == "__main__":
    sys.exit(main())
