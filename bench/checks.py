"""Output checks for one CLI invocation.

An invocation fails when its exit code is not 0, when an expected output is
missing or differs from the sha256 its manifest records, or when a property
the paper guarantees does not hold.  Reference values are computed here from
the config, never taken from the program's own outputs; standard errors are
the program's only where the reference value has none of its own.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from scipy.special import stdtrit

EXPECTED = {
    "simulate": ("trajectory.csv", "speed.json"),
    "bounds": (
        "bounds_lower.json",
        "bounds_upper.json",
        "bounds_final.csv",
        "bounds_summary.json",
    ),
    "scheme": ("widths.csv", "psi.csv", "scheme_summary.json"),
    "wave": ("wave_table.csv",),
    "exit_stats": ("exit_stats.json", "survivors.csv"),
    "exit_representation": ("representation.csv", "representation.json"),
    "exit_flux": ("flux.csv", "flux.json"),
    "speedscan": ("speedscan.csv",),
}

# Two-sided tail of a standard normal beyond 4: the false-alarm level that a
# "within 4 SE" check has for a normal estimate.
_ALPHA_4SE = math.erfc(4.0 / math.sqrt(2.0))


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def output_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every file the manifest lists, recomputed from disk."""
    manifest = _json(out_dir / "manifest.json")
    return {
        e["path"]: hashlib.sha256((out_dir / e["path"]).read_bytes()).hexdigest()
        for e in manifest["outputs"]
    }


def check_files(kind: str, out_dir: Path) -> list[str]:
    """Expected files present and matching the manifest checksums."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"]
    listed = {e["path"]: e["sha256"] for e in _json(manifest_path)["outputs"]}
    problems = [f"{name} not in manifest" for name in EXPECTED[kind] if name not in listed]
    for name, digest in listed.items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{name} sha256 differs from manifest")
    return problems


def _speed_problems(where: str, p: float, v: float, se: float, replicas: int) -> list[str]:
    if not (math.isfinite(v) and math.isfinite(se)):
        return [f"{where}: speed estimate not finite"]
    if p == 0.75 and not 0.0 < v < math.sqrt(2.0):
        return [f"{where}: v_hat={v} outside (0, sqrt 2) at p=0.75"]
    if p == 0.5:
        # v_hat / SE is Student t with replicas-1 degrees of freedom, so the
        # band uses the t quantile at the level "4 SE" has for a normal.
        k = float(stdtrit(replicas - 1, 1.0 - _ALPHA_4SE / 2.0))
        if abs(v) > k * se:
            return [f"{where}: |v_hat|={abs(v)} > {k:.3g} SE={se} at p=0.5"]
    return []


def _within(name: str, value: float, ref: float, se: float) -> list[str]:
    if not abs(value - ref) <= 4.0 * se:
        return [f"{name}={value} not within 4 SE ({se}) of {ref}"]
    return []


def check_properties(kind: str, config: dict, out_dir: Path) -> list[str]:
    """The paper's identities on one invocation's outputs."""
    if kind == "simulate":
        s = _json(out_dir / "speed.json")
        return _speed_problems(
            "speed.json", config["p"], s["v_hat"], s["std_error"], config["replicas"]
        )
    if kind == "speedscan":
        problems = []
        for row in _rows(out_dir / "speedscan.csv"):
            problems += _speed_problems(
                f"speedscan N={row['n_particles']:g}",
                config["p"],
                row["v_hat"],
                row["std_error"],
                config["replicas"],
            )
        return problems
    if kind == "bounds":
        if _json(out_dir / "bounds_summary.json")["dominated"] is not True:
            return ["bounds_summary.json: lower not dominated by upper"]
        return []
    if kind == "scheme":
        widths = [r["width"] for r in _rows(out_dir / "widths.csv")]
        summary = _json(out_dir / "scheme_summary.json")
        problems = []
        if not all(b < a for a, b in zip(widths, widths[1:])):
            problems.append("widths.csv: widths do not strictly decrease")
        if summary["width"] != widths[-1]:
            problems.append("scheme_summary.json: width is not the last level's")
        if summary["converged"] != (summary["width"] <= config["tol"]):
            problems.append("scheme_summary.json: converged disagrees with width <= tol")
        return problems
    if kind == "wave":
        problems = []
        for row in _rows(out_dir / "wave_table.csv"):
            if not row["residual"] <= 1e-4:
                problems.append(f"wave p={row['p']:g}: residual {row['residual']}")
            if not abs(row["mass"] - 1.0) <= 1e-12:
                problems.append(f"wave p={row['p']:g}: mass {row['mass']}")
        return problems
    if kind == "exit_stats":
        s = _json(out_dir / "exit_stats.json")
        p, n = config["p"], config["n_paths"]
        killed = -math.expm1(-config["t"])
        problems = []
        for name, ref in (
            ("exit_left_prob", p * killed),
            ("exit_right_prob", (1.0 - p) * killed),
            ("survive_prob", 1.0 - killed),
        ):
            problems += _within(name, s[name], ref, math.sqrt(ref * (1.0 - ref) / n))
        return problems
    if kind == "exit_flux":
        f = _json(out_dir / "flux.json")
        p = config["p"]
        return _within(
            "flux_left_limit", f["flux_left_limit"], p, f["flux_left_limit_se"]
        ) + _within(
            "flux_right_limit", f["flux_right_limit"], 1.0 - p, f["flux_right_limit_se"]
        )
    if kind == "exit_representation":
        width = _json(out_dir / "representation.json")["scheme_width"]
        problems = []
        for row in _rows(out_dir / "representation.csv"):
            gap = abs(row["mc"] - row["scheme"])
            if not gap <= 4.0 * row["se"] + width:
                problems.append(
                    f"representation x={row['x']}: gap {gap} > 4 SE + width {width}"
                )
        return problems
    raise ValueError(f"unknown invocation kind {kind}")


def check_invocation(kind: str, config: dict, out_dir: Path, rc: int) -> list[str]:
    """Every reason the invocation counts as failed; empty when it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return check_files(kind, out_dir) or check_properties(kind, config, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
