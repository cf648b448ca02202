"""Command-line layer: outputs, manifests, determinism, exit codes."""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from npbbm import GridTooSmallError, wave_speed
from npbbm.cli import main
from npbbm.density import load_density


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_wave_command_writes_certificate_table(tmp_path):
    out = tmp_path / "w"
    assert main(["wave", "--out", str(out)]) == 0
    rows = _read_csv(out / "wave_table.csv")
    assert rows[0] == ["p", "c", "R0", "omega", "amplitude", "residual", "mass"]
    assert len(rows) == 10  # nine p values
    by_p = {float(r[0]): r for r in rows[1:]}
    assert float(by_p[0.5][1]) == 0.0
    for r in rows[1:]:
        assert float(r[5]) <= 1e-4  # residual
        assert abs(float(r[6]) - 1.0) <= 1e-8  # mass
    # antisymmetry across the table
    assert float(by_p[0.3][1]) == pytest.approx(-float(by_p[0.7][1]), rel=1e-12)


def test_manifest_lists_outputs_with_checksums(tmp_path):
    out = tmp_path / "w"
    assert main(["wave", "--out", str(out), "--seed", "7"]) == 0
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["tool"] == "npbbm"
    assert manifest["command"] == "wave"
    assert manifest["master_seed"] == 7
    names = {e["path"] for e in manifest["outputs"]}
    assert "wave_table.csv" in names
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_simulate_outputs(tmp_path):
    cfg = _write_config(
        tmp_path,
        "sim.json",
        {"p": 0.75, "n_particles": 10, "horizon": 2.0, "n_samples": 4, "replicas": 3},
    )
    out = tmp_path / "s"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "trajectory.csv")
    assert rows[0] == ["time", "leftmost", "rightmost"]
    assert len(rows) == 5
    assert float(rows[-1][0]) == 2.0
    with open(out / "speed.json") as fh:
        speed = json.load(fh)
    assert speed["replicas"] == 3
    assert speed["burn_in"] == pytest.approx(0.4)  # default horizon / 5
    assert speed["std_error"] >= 0.0


def test_reruns_are_byte_identical(tmp_path):
    cfg = _write_config(
        tmp_path,
        "sim.json",
        {"p": 0.6, "n_particles": 8, "horizon": 1.0, "n_samples": 3, "replicas": 2},
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("trajectory.csv", "speed.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_flags_override_config(tmp_path):
    cfg = _write_config(
        tmp_path,
        "sim.json",
        {"seed": 111, "p": 0.6, "n_particles": 5, "horizon": 1.0, "n_samples": 2, "replicas": 2},
    )
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "222"]) == 0
    with open(out / "manifest.json") as fh:
        assert json.load(fh)["master_seed"] == 222


def test_bounds_outputs(tmp_path):
    cfg = _write_config(
        tmp_path, "b.json", {"p": 0.75, "n_particles": 100, "delta": 0.1, "k_steps": 3}
    )
    out = tmp_path / "b"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "bounds_final.csv")
    assert rows[0] == ["rank", "lower", "upper"]
    assert len(rows) == 101
    with open(out / "bounds_summary.json") as fh:
        summary = json.load(fh)
    assert summary["dominated"] is True  # tail excess inside the 99% KS band
    assert summary["tail_excess"] <= summary["ks_band_99"]
    assert summary["ks_distance"] >= 0.0
    with open(out / "bounds_lower.json") as fh:
        lower_meta = json.load(fh)
    assert len(lower_meta["steps"]) == 3
    assert lower_meta["side"] == "lower"


def test_scheme_outputs(tmp_path):
    cfg = _write_config(
        tmp_path, "s.json", {"p": 0.75, "t": 0.25, "n_max": 2, "tol": 1e-4, "dx": 2e-3}
    )
    out = tmp_path / "s"
    assert main(["scheme", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "widths.csv")
    assert rows[0] == ["level", "steps", "delta", "width"]
    assert len(rows) == 4  # levels 0..2
    widths = [float(r[3]) for r in rows[1:]]
    assert widths == sorted(widths, reverse=True)
    psi = load_density(out / "psi.csv")
    assert abs(psi.mass - 1.0) <= 1e-6
    with open(out / "scheme_summary.json") as fh:
        summary = json.load(fh)
    assert summary["converged"] is False  # tol deliberately unreachable
    assert summary["width"] == pytest.approx(widths[-1])


def test_exit_stats_mode(tmp_path):
    cfg = _write_config(tmp_path, "e.json", {"n_paths": 400, "h": 1e-2})
    out = tmp_path / "e"
    assert main(["exit", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "exit_stats.json") as fh:
        stats = json.load(fh)
    total = stats["exit_left_prob"] + stats["exit_right_prob"] + stats["survive_prob"]
    assert total == pytest.approx(1.0, abs=1e-12)
    survivors = _read_csv(out / "survivors.csv")
    assert survivors[0] == ["position"]
    assert len(survivors) - 1 == round(stats["survive_prob"] * 400)


def test_exit_representation_mode(tmp_path):
    cfg = _write_config(
        tmp_path,
        "e.json",
        {"mode": "representation", "n_paths": 300, "h": 1e-2, "n_x": 5, "n_max": 2},
    )
    out = tmp_path / "e"
    assert main(["exit", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "representation.csv")
    assert rows[0] == ["x", "mc", "scheme", "se"]
    assert len(rows) == 6
    with open(out / "representation.json") as fh:
        summary = json.load(fh)
    assert summary["scheme_width"] > 0.0
    assert summary["max_abs_gap"] >= 0.0


def test_exit_flux_mode(tmp_path):
    cfg = _write_config(
        tmp_path,
        "e.json",
        {"mode": "flux", "n_paths": 400, "deltas": [0.02, 0.01], "h": 1e-2},
    )
    out = tmp_path / "e"
    assert main(["exit", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "flux.csv")
    assert rows[0] == ["delta", "flux_left", "se_left", "flux_right", "se_right"]
    assert len(rows) == 3
    with open(out / "flux.json") as fh:
        summary = json.load(fh)
    assert "flux_left_limit" in summary and "flux_right_limit_se" in summary


def test_speedscan_outputs_and_thread_equivalence(tmp_path):
    cfg = _write_config(
        tmp_path,
        "scan.json",
        {"p": 0.75, "n_grid": [5, 10], "horizon": 2.0, "burn_in": 0.5, "replicas": 3},
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["speedscan", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["speedscan", "--config", cfg, "--out", str(out_b), "--threads", "2"]) == 0
    assert (out_a / "speedscan.csv").read_bytes() == (out_b / "speedscan.csv").read_bytes()
    rows = _read_csv(out_a / "speedscan.csv")
    assert rows[0] == ["n_particles", "v_hat", "std_error", "reference"]
    assert [int(float(r[0])) for r in rows[1:]] == [5, 10]
    for r in rows[1:]:
        assert float(r[3]) == pytest.approx(wave_speed(0.75), rel=1e-15)


def test_unknown_config_key_returns_2(tmp_path):
    cfg = _write_config(tmp_path, "bad.json", {"nonsense": 1})
    assert main(["wave", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_malformed_or_missing_config_returns_2(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["wave", "--config", str(broken)]) == 2
    assert main(["wave", "--config", str(tmp_path / "absent.json")]) == 2


def test_invalid_parameter_returns_2(tmp_path):
    cfg = _write_config(
        tmp_path,
        "sim.json",
        {"p": 1.5, "n_particles": 5, "horizon": 1.0, "n_samples": 2, "replicas": 2},
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_nan_horizon_returns_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "sim.json",
        {
            "p": 0.5,
            "n_particles": 5,
            "horizon": math.nan,
            "n_samples": 2,
            "replicas": 2,
        },
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "horizon" in capsys.readouterr().err


def test_numeric_failure_returns_3(tmp_path, monkeypatch):
    import npbbm.cli as cli

    def boom(config, out):
        raise GridTooSmallError("forced for the exit-code contract")

    monkeypatch.setitem(cli._RUNNERS, "wave", boom)
    assert main(["wave", "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("threads", ["2", 1.5, True, 0])
def test_bad_threads_in_config_returns_2(tmp_path, capsys, threads):
    cfg = _write_config(tmp_path, "w.json", {"threads": threads})
    assert main(["wave", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert f"threads must be an integer >= 1, got {threads!r}" in capsys.readouterr().err


def test_representation_horizon_beyond_exp_range_returns_2(
    tmp_path, capsys, monkeypatch
):
    # e^800 overflows a double; the check must come before any path is drawn.
    import npbbm.exits as exits

    def no_paths(*args, **kwargs):
        raise AssertionError("paths drawn before the horizon was checked")

    monkeypatch.setattr(exits, "_run_paths", no_paths)
    cfg = _write_config(
        tmp_path,
        "e.json",
        {"mode": "representation", "t": 800, "h": 1.0, "n_paths": 100, "n_max": 0},
    )
    assert main(["exit", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "t=800" in err and "709.78" in err


def test_arithmetic_error_returns_3(tmp_path, monkeypatch):
    import npbbm.cli as cli

    def overflow(config, out):
        raise OverflowError("math range error")

    monkeypatch.setitem(cli._RUNNERS, "wave", overflow)
    assert main(["wave", "--out", str(tmp_path / "x")]) == 3


def test_speedscan_rejects_overlapping_replica_streams(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "scan.json",
        {
            "p": 0.75,
            "n_grid": [5, 10],
            "horizon": 1.0,
            "burn_in": 0.5,
            "replicas": 65537,
        },
    )
    assert main(["speedscan", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "replicas=65537 exceeds 65536" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("command", ["scheme", "exit"])
@pytest.mark.parametrize("dx", [0, math.nan, 1e-9])
def test_bad_grid_step_returns_2(tmp_path, capsys, command, dx):
    # dx = 0 used to exit 3 (division by zero), NaN to exit 2 without naming
    # dx, and 1e-9 to exit 1 after failing to allocate a 1.4e10-cell grid
    cfg = _write_config(tmp_path, "g.json", {"dx": dx})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert f"dx={float(dx)!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["dx_mass", "dx_residual"])
@pytest.mark.parametrize("dx", [0, 1e-9])
def test_bad_wave_grid_step_returns_2(tmp_path, capsys, key, dx):
    cfg = _write_config(tmp_path, "w.json", {key: dx})
    assert main(["wave", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"{key}: " in err and f"dx={float(dx)!r}" in err


def test_memory_error_returns_3(tmp_path, monkeypatch):
    import npbbm.cli as cli

    def no_memory(config, out):
        raise MemoryError("forced for the exit-code contract")

    monkeypatch.setitem(cli._RUNNERS, "wave", no_memory)
    assert main(["wave", "--out", str(tmp_path / "x")]) == 3
