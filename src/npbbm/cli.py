"""Command-line front end: config parsing, orchestration, and output files.

Every subcommand reads an optional JSON config file, applies flag overrides
(flags win), resolves a master seed, runs the corresponding module
operations, and writes CSV/JSON outputs plus a manifest with SHA-256
checksums into the output directory.  Numeric output carries 17 significant
digits so re-running a config reproduces files byte for byte.

Sub-streams derive from (master seed, command id, replica id): each command
owns stream indices [id * 2^32, (id+1) * 2^32) and hands replica r the
index id * 2^32 + r, so no two commands or replicas ever share a stream.

Exit codes: 0 success, 2 config validation error, 3 runtime numeric error.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .density import (
    GridTooSmallError,
    SchemeParams,
    iterate_scheme,
    plan_grid,
    refine_limit,
    save_density,
)
from .discrete import (
    BoundSystemParams,
    bounds_metadata_to_json,
    run_bounds,
)
from .exits import (
    PathParams,
    exit_statistics,
    exit_stats_to_json,
    representation_check,
    small_delta_flux,
)
from .particles import (
    CouplingViolationError,
    estimate_speed,
    simulate,
    trajectory_to_csv,
)
from .randomness import RandomSource
from .stats import empirical_tail, ks_critical, ks_distance
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

_DEFAULTS = {
    "simulate": {
        "p": 0.5,
        "n_particles": 50,
        "horizon": 10.0,
        "n_samples": 50,
        "replicas": 20,
        "burn_in": None,
    },
    "bounds": {
        "p": 0.5,
        "n_particles": 200,
        "delta": 0.1,
        "k_steps": 10,
    },
    "scheme": {
        "p": 0.75,
        "t": 0.5,
        "n_max": 6,
        "tol": 1e-2,
        "dx": 1e-3,
    },
    "wave": {
        "p_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        "dx_residual": 1e-3,
        "dx_mass": 1e-3,
    },
    "exit": {
        "mode": "stats",
        "p": 0.75,
        "t": 1.0,
        "h": 1e-3,
        "n_paths": 10000,
        "dx": 1e-3,
        "n_x": 20,
        "n_max": 5,
        "tol": 1e-2,
        "deltas": [0.02, 0.01, 0.005],
    },
    "speedscan": {
        "p": 0.75,
        "n_grid": [10, 50, 200],
        "horizon": 50.0,
        "burn_in": 10.0,
        "replicas": 20,
    },
}


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _load_config(command: str, args: argparse.Namespace) -> dict:
    config = dict(_DEFAULTS[command])
    config.update({"seed": 20260815, "out": ".", "threads": 1})
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(loaded) - set(config)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config.update(loaded)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["out"] = args.out
    if args.threads is not None:
        config["threads"] = args.threads
    threads = config["threads"]
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    _count("seed", config["seed"])
    return config


class _OutputSet:
    """Collects written files and emits the manifest with checksums."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.files: list[Path] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.files.append(p)
        return p

    def write_csv(self, name: str, header: str, rows) -> None:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    def write_json(self, name: str, payload: dict) -> None:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    def manifest(self, command: str, config: dict, started: str) -> None:
        entries = []
        for p in self.files:
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            entries.append({"path": p.name, "sha256": digest})
        payload = {
            "tool": "npbbm",
            "version": __version__,
            "command": command,
            "config": config,
            "master_seed": config["seed"],
            "started": started,
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": entries,
        }
        with open(self.out_dir / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _command_source(config: dict, command: str) -> RandomSource:
    return RandomSource(config["seed"], COMMAND_IDS[command] << 32)


def _wave_fixture(p: float, t: float, dx: float):
    """Shifted wave density (support ending at 0) plus its moving barriers."""
    w = travelling_wave(p)
    grid = plan_grid(-w.R0, 0.0, t, drift=w.c, dx=dx)
    rho = wave_density(w, grid, shift=-w.R0)
    barriers = wave_barriers(w, t) if t > 0.0 else None
    return w, rho, barriers


@contextlib.contextmanager
def _naming(key: str):
    """Prefix a ValueError raised in the block with the config key it concerns."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _non_empty(config: dict, key: str) -> list:
    values = config[key]
    if not isinstance(values, list) or not values:
        raise ValueError(f"{key} must be a non-empty list, got {values!r}")
    return values


def _count(key: str, value) -> int:
    """A config count: an int, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key}={value!r} is not an integer")
    return value


def _real(key: str, value) -> float:
    """A config real: a finite int or float, and not a bool or a string."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        with contextlib.suppress(OverflowError):  # an int beyond float range
            if math.isfinite(value):
                return float(value)
    raise ValueError(f"{key}={value!r} is not a finite number")


def cmd_simulate(config: dict, out: _OutputSet) -> None:
    p = _real("p", config["p"])
    n = _count("n_particles", config["n_particles"])
    horizon = _real("horizon", config["horizon"])
    n_samples = _count("n_samples", config["n_samples"])
    replicas = _count("replicas", config["replicas"])
    burn = config["burn_in"]
    burn = None if burn is None else _real("burn_in", burn)
    src = _command_source(config, "simulate")
    times = np.linspace(0.0, horizon, n_samples + 1)[1:]
    rec = simulate(np.zeros(n), p, horizon, src, sample_times=times)
    trajectory_to_csv(rec, out.path("trajectory.csv"))
    est = estimate_speed(
        p, n, horizon, src.child(1), burn_in=burn, replicas=replicas
    )
    out.write_json(
        "speed.json",
        {
            "p": est.p,
            "n_particles": est.n_particles,
            "horizon": est.horizon,
            "burn_in": est.burn_in,
            "replicas": est.replicas,
            "v_hat": est.v_hat,
            "std_error": est.std_error,
            "v_hat_right": est.v_hat_right,
            "std_error_right": est.std_error_right,
        },
    )


def cmd_bounds(config: dict, out: _OutputSet) -> None:
    p = _real("p", config["p"])
    n = _count("n_particles", config["n_particles"])
    delta = _real("delta", config["delta"])
    k = _count("k_steps", config["k_steps"])
    src = _command_source(config, "bounds")
    init = np.zeros(n)
    lower = run_bounds(init, BoundSystemParams(n, p, delta, "lower"), k, src)
    upper = run_bounds(init, BoundSystemParams(n, p, delta, "upper"), k, src)
    bounds_metadata_to_json(
        lower, BoundSystemParams(n, p, delta, "lower"), out.path("bounds_lower.json")
    )
    bounds_metadata_to_json(
        upper, BoundSystemParams(n, p, delta, "upper"), out.path("bounds_upper.json")
    )
    out.write_csv(
        "bounds_final.csv",
        "rank,lower,upper",
        (
            (r + 1, lo, hi)
            for r, (lo, hi) in enumerate(zip(lower.configs[-1], upper.configs[-1]))
        ),
    )
    # The two systems bound the selection process in distribution, not
    # pathwise (their populations desynchronize after the first removal), so
    # the verdict is statistical: the lower tail may not exceed the upper
    # tail by more than the 99% two-sample KS band.
    grid = np.union1d(lower.configs[-1], upper.configs[-1])
    excess = float(
        np.max(
            empirical_tail(lower.configs[-1], grid)
            - empirical_tail(upper.configs[-1], grid)
        )
    )
    band = ks_critical(n, n, 0.01)
    out.write_json(
        "bounds_summary.json",
        {
            "p": p,
            "n_particles": n,
            "delta": delta,
            "k_steps": k,
            "dominated": bool(excess <= band),
            "tail_excess": excess,
            "ks_band_99": band,
            "ks_distance": ks_distance(lower.configs[-1], upper.configs[-1]),
        },
    )


def cmd_scheme(config: dict, out: _OutputSet) -> None:
    p = _real("p", config["p"])
    t = _real("t", config["t"])
    n_max = _count("n_max", config["n_max"])
    tol = _real("tol", config["tol"])
    _, rho, _ = _wave_fixture(p, t, _real("dx", config["dx"]))
    result = refine_limit(rho, p, t, n_max=n_max, tol=tol)
    out.write_csv(
        "widths.csv",
        "level,steps,delta,width",
        (
            (lvl, 2**lvl, t / 2**lvl, w)
            for lvl, w in enumerate(result.widths)
        ),
    )
    save_density(result.psi, out.path("psi.csv"))
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
        },
    )


def cmd_wave(config: dict, out: _OutputSet) -> None:
    p_grid = [_real("p_grid", p) for p in _non_empty(config, "p_grid")]
    dx_mass = _real("dx_mass", config["dx_mass"])
    dx_residual = _real("dx_residual", config["dx_residual"])
    rows = []
    for p in p_grid:
        w = travelling_wave(p)
        with _naming("dx_mass"):
            grid = plan_grid(0.0, w.R0, 0.0, dx=dx_mass)
        mass = wave_density(w, grid).mass
        with _naming("dx_residual"):
            residual = ode_residual(w, dx_residual)
        rows.append((p, w.c, w.R0, w.omega, w.amplitude, residual, mass))
    out.write_csv("wave_table.csv", "p,c,R0,omega,amplitude,residual,mass", rows)


def cmd_exit(config: dict, out: _OutputSet) -> None:
    mode = config["mode"]
    if mode not in ("stats", "representation", "flux"):
        raise ValueError("exit mode must be one of stats, representation, flux")
    p = _real("p", config["p"])
    t = _real("t", config["t"])
    dx = _real("dx", config["dx"])
    h = _real("h", config["h"])
    n_paths = _count("n_paths", config["n_paths"])
    if mode == "representation":
        n_x = _count("n_x", config["n_x"])
        if n_x < 1:
            raise ValueError(f"n_x={n_x} must be at least 1")
        n_max = _count("n_max", config["n_max"])
        tol = _real("tol", config["tol"])
    elif mode == "flux":
        deltas = [_real("deltas", d) for d in _non_empty(config, "deltas")]
    params = PathParams(t=t, h=h, n_paths=n_paths)
    src = _command_source(config, "exit")
    w, rho, barriers = _wave_fixture(p, t, dx)
    left, right = barriers
    if mode == "stats":
        stats = exit_statistics(rho, left, right, params, src)
        exit_stats_to_json(stats, params, src, out.path("exit_stats.json"))
        out.write_csv(
            "survivors.csv", "position", ((x,) for x in stats.survivor_positions)
        )
    elif mode == "representation":
        xs = np.linspace(w.c * t - w.R0, w.c * t, n_x)
        result = representation_check(
            rho,
            left,
            right,
            t,
            xs,
            params,
            src,
            p=p,
            n_max=n_max,
            tol=tol,
        )
        result.to_csv(out.path("representation.csv"))
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
    elif mode == "flux":
        seq = small_delta_flux(rho, left, right, deltas, params, src)
        out.write_csv(
            "flux.csv",
            "delta,flux_left,se_left,flux_right,se_right",
            zip(seq.deltas, seq.flux_left, seq.se_left, seq.flux_right, seq.se_right),
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
    p = _real("p", config["p"])
    horizon = _real("horizon", config["horizon"])
    burn = _real("burn_in", config["burn_in"])
    replicas = _count("replicas", config["replicas"])
    if replicas > _SLOT_STREAMS:
        raise ValueError(
            f"replicas={replicas} exceeds {_SLOT_STREAMS}, the number of streams "
            "each size slot owns"
        )
    n_grid = [_count("n_grid", n) for n in _non_empty(config, "n_grid")]
    src = _command_source(config, "speedscan")
    reference = wave_speed(p)
    rows = []
    for slot, n in enumerate(n_grid):
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        cmd.add_argument("--threads", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.command, args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    out = _OutputSet(Path(config["out"]))
    try:
        _RUNNERS[args.command](config, out)
    except (ValueError, TypeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        GridTooSmallError,
        CouplingViolationError,
        ArithmeticError,
        AssertionError,
        MemoryError,
    ) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    out.manifest(args.command, config, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
