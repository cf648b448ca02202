"""The CLI invocations each workload runs, and the work each one does.

Every workload runs the same eight invocation kinds, so every metric is
defined on every workload; the workloads differ in which kinds run at a
large size.  Configs are written out in full rather than taken from the
program's defaults, so the work stays fixed when those defaults change.

Work counts (events, path steps, cell steps) are nominal: they follow from
the config alone, never from what the program reports, so they stay the
same across versions of the program.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

# Every invocation gets --seed <workload seed>.  DEFAULT_SEED is the CLI's own
# default; HOLDOUT_SEED is checked by the self-test but used nowhere else.
DEFAULT_SEED = 20260815
HOLDOUT_SEED = 7

KINDS = (
    "simulate",
    "bounds",
    "scheme",
    "wave",
    "exit_stats",
    "exit_representation",
    "exit_flux",
    "speedscan",
)

# The CLI defaults at the commit that introduced this benchmark.
SHIPPED = {
    "simulate": {
        "p": 0.5,
        "n_particles": 50,
        "horizon": 10.0,
        "n_samples": 50,
        "replicas": 20,
        "burn_in": None,
    },
    "bounds": {"p": 0.5, "n_particles": 200, "delta": 0.1, "k_steps": 10},
    "scheme": {"p": 0.75, "t": 0.5, "n_max": 6, "tol": 1e-2, "dx": 1e-3},
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


def _cfg(kind: str, **overrides) -> dict:
    command = kind.split("_")[0]
    config = dict(SHIPPED[command])
    if command == "exit":
        config["mode"] = kind[len("exit_"):]
    config.update(overrides)
    return config


# Smaller versions of the kinds a workload does not stress, so that every
# metric is measured on every workload.  The ones behind a throughput metric
# take 0.6-0.7 s: at a few tenths of a second, one pass's rate varies by
# +-30 % on a shared machine.  Together they take 15-20 % of the workload's
# time.  `simulate` keeps the shipped p=0.5 and 20 replicas, so the |v| <= k SE
# symmetry check runs with k = 5.1.
SMOKE = {
    "simulate": _cfg("simulate", horizon=20.0),
    "bounds": _cfg("bounds"),
    "scheme": _cfg("scheme", n_max=7),
    "wave": _cfg("wave"),
    "exit_stats": _cfg("exit_stats"),
    "exit_representation": _cfg("exit_representation", n_paths=1000, n_max=2),
    # Not fewer paths: with 1000, sometimes no path exits right within the
    # two smallest deltas, which makes the flux SE 0 and fails the 4 SE check.
    "exit_flux": _cfg("exit_flux"),
    "speedscan": _cfg(
        "speedscan", n_grid=[50, 100], horizon=10.0, burn_in=2.0, replicas=4
    ),
}

WORKLOADS = {
    # O(N) array work per event (sort, insert, N normal draws) and free
    # branching over a large population, plus a large CSV.  p=0.75: with 4
    # replicas a p=0.5 symmetry band would be k = 33 SE wide.
    "large-n": [
        ("simulate", _cfg("simulate", p=0.75, n_particles=500, horizon=4.0, replicas=4)),
        ("simulate", _cfg("simulate", p=0.75, n_particles=4000, horizon=1.0, replicas=4)),
        ("bounds", _cfg("bounds", n_particles=20000, delta=0.05, k_steps=60)),
    ]
    + [(kind, SMOKE[kind]) for kind in KINDS if kind not in ("simulate", "bounds")],
    # The FFT grid scheme (converges at level 8: 1022 steps on 19293 cells)
    # and the killed-path kernel (50 000 paths x 1000 steps).
    "scheme-exit": [
        ("scheme", _cfg("scheme", t=1.0, n_max=8)),
        ("exit_stats", _cfg("exit_stats", n_paths=50000)),
    ]
    + [(kind, SMOKE[kind]) for kind in KINDS if kind not in ("scheme", "exit_stats")],
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its kind, full config, and nominal work."""

    label: str  # unique within the workload, e.g. "01_simulate"
    kind: str
    config: dict

    @property
    def command(self) -> str:
        return self.kind.split("_")[0]

    def events(self) -> float:
        """Nominal particle events: N * T per run (branch rate is N)."""
        c = self.config
        if self.kind == "simulate":
            return c["n_particles"] * c["horizon"] * (1 + c["replicas"])
        if self.kind == "speedscan":
            return sum(n * c["horizon"] * c["replicas"] for n in c["n_grid"])
        return 0.0

    def path_steps(self) -> float:
        """Nominal killed-path work of an exit stats run: paths x time steps."""
        if self.kind != "exit_stats":
            return 0.0
        c = self.config
        return nominal_path_steps(c["n_paths"], c["t"], c["h"])

    def cell_steps(self) -> float:
        """Nominal scheme work: grid cells x scheme steps over all levels."""
        if self.kind != "scheme":
            return 0.0
        c = self.config
        steps = 2 * (2 ** (c["n_max"] + 1) - 1)  # lower + upper, levels 0..n_max
        return wave_grid_cells(c["p"], c["t"], c["dx"]) * steps


def nominal_path_steps(n_paths: int, t: float, h: float) -> int:
    """Paths x time steps, the steps being ceil(t / h) as the program plans them."""
    return n_paths * max(1, math.ceil(t / h - 1e-12))


def wave_grid_cells(p: float, t: float, dx: float) -> int:
    """Cells of the grid holding the wave over time t, padded by 8 sqrt(t) + |c| t."""
    lam = math.log(p / (1.0 - p))
    c = math.sqrt(2.0 * lam * lam / (lam * lam + math.pi * math.pi))
    r0 = math.pi / math.sqrt(2.0 - c * c)
    pad = 8.0 * math.sqrt(t) + c * t
    return math.ceil((r0 + 2.0 * pad + 4.0 * dx) / dx) + 1


def load_cli(root: Path):
    """Import npbbm.cli from the checkout's src/, and from nowhere else."""
    src = root / "src"
    if not (src / "npbbm" / "cli.py").is_file():
        raise FileNotFoundError(f"no npbbm sources under {src}")
    sys.path.insert(0, str(src))
    import npbbm.cli

    if Path(npbbm.cli.__file__).resolve().parent != (src / "npbbm").resolve():
        raise ImportError(f"npbbm was imported from {npbbm.cli.__file__}, not {src}")
    return npbbm.cli


def build(workload: str) -> list[Invocation]:
    """The invocations of a workload, in the order they run."""
    return [
        Invocation(f"{i:02d}_{kind}", kind, config)
        for i, (kind, config) in enumerate(WORKLOADS[workload])
    ]
