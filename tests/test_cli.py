"""Command-line layer: outputs, manifests, determinism, exit codes."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

import npbbm
from npbbm import (
    GridTooSmallError,
    PathParams,
    RandomSource,
    SchemeParams,
    exit_statistics,
    refine_limit,
    run_bounds,
    simulate,
    wave_barriers,
    wave_speed,
)
from npbbm.cli import COMMAND_IDS, _wave_fixture, main
from npbbm.density import MAX_GRID_CELLS
from npbbm.discrete import (
    MAX_BOUND_MOVES,
    MAX_BOUND_STEPS,
    MAX_POPULATION,
    bounds_verdict,
)
from npbbm.exits import MAX_PATHS
from npbbm.randomness import DRAW_LAYOUT


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
    with open(out / "scheme_summary.json") as fh:
        summary = json.load(fh)
    assert summary["converged"] is False  # tol deliberately unreachable
    assert summary["width"] == pytest.approx(widths[-1])


def test_scheme_with_disjoint_supports_at_the_first_levels_exits_0(tmp_path):
    # at levels 0 and 1 the two schemes' supports are disjoint, so both widths
    # are 2 up to rounding (1.9999999999999993, then 2.0000000000000004); the
    # strict-decrease check used to fail on the last bit with exit 3
    cfg = _write_config(tmp_path, "s.json", {"p": 0.5, "t": 2.0, "n_max": 2})
    out = tmp_path / "s"
    assert main(["scheme", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "widths.csv")
    assert len(rows) == 4  # the header, then levels 0..2
    widths = [float(r[3]) for r in rows[1:]]
    assert widths[0] == pytest.approx(2.0) and widths[1] == pytest.approx(2.0)
    assert widths[2] < 1.5
    with open(out / "scheme_summary.json") as fh:
        assert json.load(fh)["converged"] is False


@pytest.mark.parametrize(
    "entries, converged, width, wave_l1",
    [
        # 3.4 cells across the wave's support: the schemes agree with each
        # other, but psi is far from the exact limit, the wave moved by c t
        ({"dx": 0.7}, True, 0.0021702, 0.358518),
        ({}, False, 0.0130442, 0.0047178),  # the shipped config
    ],
    ids=["dx-0.7", "shipped"],
)
def test_scheme_summary_reports_the_l1_distance_to_the_wave(
    tmp_path, entries, converged, width, wave_l1
):
    cfg = _write_config(tmp_path, "s.json", entries)
    out = tmp_path / "s"
    assert main(["scheme", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "scheme_summary.json").read_text())
    assert list(summary)[-1] == "wave_l1"
    assert summary["converged"] is converged
    # the scheme draws nothing, so both are the same on every run
    assert summary["width"] == pytest.approx(width, rel=1e-4)
    assert summary["wave_l1"] == pytest.approx(wave_l1, rel=1e-4)


def test_scheme_psi_csv_reads_back_to_refine_limit(tmp_path):
    # psi.csv is a JSON header line, then the x,value rows of the refined
    # midpoint; 17 significant digits read every double back exactly
    cfg = _write_config(
        tmp_path, "s.json", {"p": 0.75, "t": 0.25, "n_max": 2, "tol": 1e-4, "dx": 2e-3}
    )
    out = tmp_path / "s"
    assert main(["scheme", "--config", cfg, "--out", str(out)]) == 0
    _, rho = _wave_fixture(0.75, 0.25, 2e-3)
    psi = refine_limit(rho, 0.75, 0.25, n_max=2, tol=1e-4).psi
    with open(out / "psi.csv", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        assert fh.readline() == "x,value\n"
        rows = np.array([[float(v) for v in line.split(",")] for line in fh])
    assert header == {"x0": psi.x0, "dx": psi.dx, "count": psi.n, "mass": psi.mass}
    assert abs(header["mass"] - 1.0) <= 1e-6
    assert rows.shape == (psi.n, 2)
    assert rows[:, 0].tobytes() == psi.centers().tobytes()
    assert rows[:, 1].tobytes() == psi.values.tobytes()


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
    assert "threads" not in json.loads((out_b / "manifest.json").read_text())["config"]
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


@pytest.mark.parametrize("prefix, suffix", [("", ""), ('{"p_grid": ', "}")])
def test_deeply_nested_config_returns_2(tmp_path, capsys, prefix, suffix):
    # json.load recurses once per level and used to end in a RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text(prefix + "[" * 200_000 + "]" * 200_000 + suffix)
    out = tmp_path / "x"
    assert main(["wave", "--config", str(deep), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: config file nests too deeply to parse\n"
    assert not out.exists()


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
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("threads", ["2", 1.5, True, 0, 1])
def test_bad_threads_in_config_returns_2(tmp_path, capsys, threads):
    # threads is a flag only: as a config key it is unknown, whatever its value
    cfg = _write_config(tmp_path, "w.json", {"threads": threads})
    assert main(["wave", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "unknown config keys: ['threads']" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1", "1.5", "two"])
def test_bad_threads_flag_exits_2(tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["wave", "--threads", threads, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("threads", ["abc", "1.5", "0"])
def test_bad_threads_flag_names_its_rule(tmp_path, capsys, threads):
    # the message used to name the private checker: "invalid _threads value"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--threads", threads, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.endswith(
        f"argument --threads: must be an integer of at least 1, got {threads!r}\n"
    )


@pytest.mark.parametrize(
    "command, entries, out, key",
    [
        # each of the three flux probes used to run paths first: [4.0, 2.0]
        # failed in the barrier with a message naming no key, and the other
        # two in the extrapolation, [0.02, 0.01, 0.004] after writing flux.csv
        ("exit", {"mode": "flux", "deltas": [4.0, 2.0]}, "x", "deltas="),
        ("exit", {"mode": "flux", "deltas": [0.02, 0.01, 0.004]}, "x", "deltas="),
        ("exit", {"mode": "flux", "deltas": [0.01]}, "x", "deltas="),
        # these three ended in a TypeError or OSError traceback with exit 1
        ("wave", {"out": 5}, None, "out="),
        ("wave", {}, "a_file", "out="),
        ("wave", {}, "a_file/x", "out="),
        # a negative seed used to exit 0 and write master_seed -1
        ("wave", {"seed": -1}, "x", "seed="),
        ("wave", {"seed": 2**64}, "x", "seed="),
    ],
)
def test_probes_exit_2_at_once_naming_the_key(
    tmp_path, capsys, command, entries, out, key
):
    cfg = _write_config(tmp_path, "c.json", entries)
    (tmp_path / "a_file").write_text("")
    files = {p for p in tmp_path.rglob("*") if p.is_file()}
    argv = [command, "--config", cfg]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert key in err and err.count("\n") == 1
    assert {p for p in tmp_path.rglob("*") if p.is_file()} == files


@pytest.mark.parametrize(
    "command, entries, plan",
    [
        # the first two used to run past a 10 s timeout
        (
            "scheme",
            {"n_max": 60, "tol": 1e-300},
            "n_max=60 plans 4.61169e+18 scheme steps, above the cap of 10000000",
        ),
        (
            "exit",
            {"mode": "representation", "n_max": 60, "tol": 1e-300, "n_paths": 10},
            "n_max=60 plans 4.61169e+18 scheme steps, above the cap of 10000000",
        ),
        # a coarse grid makes steps cheap in cells but not in time; the plan
        # counts every level up to n_max, though this one converges at level 5
        (
            "scheme",
            {"dx": 0.7, "n_max": 30},
            "n_max=30 plans 4.29497e+09 scheme steps, above the cap of 10000000",
        ),
        # ran past a 10 s timeout
        (
            "bounds",
            {"k_steps": 1_000_000_000},
            f"k_steps=1000000000 plans 1000000000 steps a side, "
            f"above the cap of {MAX_BOUND_STEPS}",
        ),
        (
            "bounds",
            {"n_particles": 4000, "k_steps": 1_000_000},
            "k_steps=1000000 with N=4000, delta=0.1 plans 4.42068e+09 particle "
            f"moves a side (k N e^delta), above the cap of {MAX_BOUND_MOVES:.6g}",
        ),
        # asked np.linspace for 7.45 GiB of sample times
        (
            "simulate",
            {"n_samples": 1_000_000_000},
            f"n_samples=1000000000 is above the cap of {MAX_GRID_CELLS}",
        ),
        # the next three ran past a 10 s timeout
        (
            "simulate",
            {"horizon": 1e9},
            "n_particles=50, horizon=1000000000.0 and replicas=20 plan 1.05e+12 "
            "events (N T a run, 21 runs of each N), above the cap of 1e+08",
        ),
        (
            "simulate",
            {"n_particles": 100_000_000},
            "n_particles=100000000, horizon=10.0 and replicas=20 plan 2.1e+10 "
            "events (N T a run, 21 runs of each N), above the cap of 1e+08",
        ),
        (
            "speedscan",
            {"horizon": 1e7},
            "n_grid=[10, 50, 200], horizon=10000000.0 and replicas=20 plan 5.2e+10 "
            "events (N T a run, 20 runs of each N), above the cap of 1e+08",
        ),
        # few events, but N normals each
        (
            "simulate",
            {"n_particles": 4000, "horizon": 100.0},
            "n_particles=4000, horizon=100.0 and replicas=20 plan 3.36e+10 "
            "normals (N^2 T a run, 21 runs of each N), above the cap of 2e+10",
        ),
    ],
)
def test_scheme_plan_above_its_cap_returns_2_at_once(
    tmp_path, capsys, command, entries, plan
):
    cfg = _write_config(tmp_path, "c.json", entries)
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"config error: {plan}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, entries",
    [
        # wrote an all-zero psi.csv, width 0, converged, and exited 0
        ("scheme", {"t": 40, "n_max": 1}),
        # exited 2 only at level 1, naming no t
        ("scheme", {"t": 30, "n_max": 1}),
        # overflowed e^t and exited 3 with "math range error"
        ("scheme", {"t": 710, "n_max": 1}),
        ("exit", {"mode": "representation", "t": 40, "n_max": 1, "n_paths": 10}),
    ],
)
def test_scheme_step_too_long_for_its_mass_check_returns_2_at_once(
    tmp_path, capsys, command, entries
):
    cfg = _write_config(tmp_path, "s.json", entries)
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    t = float(entries["t"])
    err = capsys.readouterr().err
    assert err.startswith(
        f"config error: t={t!r} plans a level-0 scheme step of {t!r}, "
        "above the limit of 13.7109: "
    )
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "entries, message",
    [
        # built an 800 MB start in 1.5 s before its plan was refused
        (
            {"n_particles": 10**8},
            f"n_particles=100000000 is above the cap of {MAX_POPULATION}",
        ),
        # failed to allocate its start and exited 3
        (
            {"n_particles": 10**9},
            f"n_particles=1000000000 is above the cap of {MAX_POPULATION}",
        ),
        # under the cap, but its steps grow N e^delta particles above it
        (
            {"n_particles": 4_000_000},
            "delta=0.1 with N=4000000 plans 4.42068e+06 particles (N e^delta), "
            f"above the cap of {MAX_POPULATION}",
        ),
    ],
)
def test_bounds_plan_is_refused_before_the_start_is_built(
    tmp_path, capsys, entries, message
):
    cfg = _write_config(tmp_path, "b.json", entries)
    out = tmp_path / "x"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        rc = main(["bounds", "--config", cfg, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert time.perf_counter() - start < 1.0
    assert peak < 2**20  # the start alone would take 32 MB or more
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["stats", "representation", "flux"])
@pytest.mark.parametrize("extra", [1, 10**12 - MAX_PATHS])
def test_exit_paths_above_the_cap_return_2_at_once(tmp_path, capsys, mode, extra):
    # 1e12 paths once failed to allocate 7.28 TiB and exited 3, and 1e8 ran
    # past 10 s; the count is checked before anything is allocated
    n_paths = MAX_PATHS + extra
    cfg = _write_config(tmp_path, "e.json", {"mode": mode, "n_paths": n_paths})
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main(["exit", "--config", cfg, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"config error: n_paths={n_paths} is above the cap of {MAX_PATHS}\n"
    assert not out.exists()


@pytest.mark.parametrize("horizon", [0, 0.0, -1.0, -5e-324])
def test_simulate_horizon_not_positive_returns_2_naming_it(tmp_path, capsys, horizon):
    # horizon 0 once failed in the sampler with "sample_times must be
    # strictly increasing", naming neither the key nor its limit
    cfg = _write_config(tmp_path, "s.json", {"horizon": horizon})
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"config error: horizon={float(horizon)!r} must be positive\n"
    assert not out.exists()


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


def test_bounds_population_plan_returns_2(tmp_path, capsys):
    # N e^delta = 2.6e22 particles: this config used to grow until the
    # process was killed for lack of memory
    cfg = _write_config(tmp_path, "b.json", {"n_particles": 5, "delta": 50})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "delta=50.0 with N=5 plans 2.59" in err and "cap of" in err


def test_manifest_records_version_and_draw_layout(tmp_path):
    # The manifest's layout, DRAW_LAYOUT, the package's minor version and
    # the newest "Layout k (package 0.k.0)" entry of the randomness
    # docstring agree, so a new layout cannot bump one and miss another.
    cfg = _write_config(tmp_path, "e.json", {"n_paths": 20, "h": 0.1})
    out = tmp_path / "x"
    assert main(["exit", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] == npbbm.__version__
    entries = re.findall(
        r"^\* Layout (\d+) \(package 0\.(\d+)\.", npbbm.randomness.__doc__, re.M
    )
    layouts = [int(k) for k, _ in entries]
    assert layouts == list(range(1, len(layouts) + 1))
    newest, package_minor = entries[-1]
    version_minor = int(npbbm.__version__.split(".")[1])
    assert manifest["draw_layout"] == DRAW_LAYOUT == int(newest)
    assert int(package_minor) == version_minor == DRAW_LAYOUT


@pytest.mark.parametrize("mode", ["stats", "representation", "flux"])
def test_exit_tiny_step_on_the_wave_strip_returns_0(tmp_path, mode):
    # h = 1e-12 once planned 1e12 steps and was refused.  With bridge
    # correction the wave strip's parallel barriers take the exact law's
    # steps, one per horizon, so h no longer sets the work: the run ends at
    # once and stays below the 8 MB of one time grid at the step cap.
    cfg = _write_config(
        tmp_path, "e.json", {"mode": mode, "h": 1e-12, "n_paths": 10, "n_max": 1}
    )
    started = time.perf_counter()
    tracemalloc.start()
    try:
        rc = main(["exit", "--config", cfg, "--out", str(tmp_path / "x")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert time.perf_counter() - started < 1.0
    assert peak < 8 * 2**20


def test_bounds_population_overshoot_returns_3(tmp_path, capsys, monkeypatch):
    import npbbm.discrete as discrete

    # a plan of e^2 = 7.4 particles passes a cap of 8; seed 9 reaches 9
    monkeypatch.setattr(discrete, "MAX_POPULATION", 8)
    cfg = _write_config(
        tmp_path, "b.json", {"n_particles": 1, "delta": 2.0, "k_steps": 1}
    )
    argv = ["bounds", "--config", cfg, "--seed", "9", "--out", str(tmp_path / "x")]
    assert main(argv) == 3
    assert "above the cap of 8" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [-1, 0, math.nan, math.inf])
def test_bad_scheme_tol_returns_2(tmp_path, capsys, tol):
    # tol <= 0 can never be met; it used to exit 0 unconverged
    cfg = _write_config(tmp_path, "s.json", {"tol": tol, "n_max": 1})
    assert main(["scheme", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert f"tol={float(tol)!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key", [("scheme", "dx"), ("exit", "dx"), ("wave", "dx_mass")]
)
def test_grid_step_coarser_than_the_wave_returns_2(tmp_path, capsys, command, key):
    # dx = 9 leaves no cell across the wave's [0, R0] = [0, 2.22]; scheme
    # used to exit 0 with a 7-cell psi.csv, converged: true and width 2.6e-10
    p = {"p_grid": [0.5]} if command == "wave" else {"p": 0.5, "n_max": 1}
    cfg = _write_config(tmp_path, "s.json", {**p, key: 9.0})
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and "dx=9.0 leaves fewer than three cells" in err
    assert "R0=2.22" in err
    assert not any(out.glob("*.csv"))


def test_scheme_mass_off_one_names_the_mass(tmp_path, capsys):
    # at p = 1e-300 the wave's cells of 9.0 hold a mass 3.2e-9 short of 1;
    # the step used to reject it without naming the mass
    cfg = _write_config(tmp_path, "s.json", {"p": 1e-300, "dx": 9.0, "n_max": 1})
    assert main(["scheme", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "(mass 1 within 1e-10), got mass 0.99999999" in err


def test_bad_representation_tol_returns_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "e.json", {"mode": "representation", "tol": -1, "n_paths": 10}
    )
    assert main(["exit", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "tol=-1.0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key", [("speedscan", "n_grid"), ("wave", "p_grid")]
)
def test_empty_grid_returns_2(tmp_path, capsys, command, key):
    # an empty grid used to exit 0 with a header-only CSV
    cfg = _write_config(tmp_path, "g.json", {key: []})
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"{key} must be a non-empty list" in capsys.readouterr().err
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize(
    "command, entries, shown",
    [
        # non-integral counts used to be truncated: N = 2, 2 samples, 300 paths
        ("simulate", {"n_particles": 2.5, "n_samples": 2.7}, "n_particles=2.5"),
        ("simulate", {"n_samples": 2.7}, "n_samples=2.7"),
        ("simulate", {"replicas": True}, "replicas=True"),
        ("simulate", {"horizon": "1"}, "horizon='1'"),
        ("simulate", {"burn_in": "0.5"}, "burn_in='0.5'"),
        ("simulate", {"seed": 7.5}, "seed=7.5"),
        ("bounds", {"k_steps": 1.9}, "k_steps=1.9"),
        ("bounds", {"delta": False}, "delta=False"),
        ("scheme", {"n_max": 2.0}, "n_max=2.0"),
        ("scheme", {"t": 10**400}, "t=1000"),
        ("wave", {"p_grid": [0.5, None]}, "p_grid=None"),
        ("exit", {"n_paths": 300.7}, "n_paths=300.7"),
        ("exit", {"h": math.inf}, "h=inf"),
        ("exit", {"mode": "representation", "n_x": 20.5}, "n_x=20.5"),
        ("exit", {"mode": "flux", "deltas": [0.02, "0.01"]}, "deltas='0.01'"),
        ("speedscan", {"n_grid": [10, 50.5]}, "n_grid=50.5"),
    ],
)
def test_mistyped_config_value_returns_2(tmp_path, capsys, command, entries, shown):
    cfg = _write_config(tmp_path, "c.json", entries)
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert shown in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_representation_without_points_returns_2(tmp_path, capsys, monkeypatch):
    # n_x = 0 used to draw every path and run the scheme, then fail on an
    # empty maximum
    import npbbm.exits as exits

    def no_paths(*args, **kwargs):
        raise AssertionError("paths drawn before n_x was checked")

    monkeypatch.setattr(exits, "_run_paths", no_paths)
    cfg = _write_config(tmp_path, "e.json", {"mode": "representation", "n_x": 0})
    assert main(["exit", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "n_x=0 must be at least 1" in capsys.readouterr().err


def test_representation_points_above_the_grid_cap_return_2(tmp_path, capsys):
    # n_x = 1e9 used to ask np.linspace for 7.45 GiB before anything failed
    cfg = _write_config(
        tmp_path, "e.json", {"mode": "representation", "n_x": 1_000_000_000}
    )
    out = tmp_path / "x"
    started = time.perf_counter()
    assert main(["exit", "--config", cfg, "--out", str(out)]) == 2
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"n_x=1000000000 is above the cap of {MAX_GRID_CELLS}" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["stats", "representation"])
def test_exit_horizon_below_the_default_step_returns_0(tmp_path, mode):
    # t = 5e-4 below the default h = 1e-3 used to exit 2, though with bridge
    # correction h changes nothing
    cfg = _write_config(tmp_path, "e.json", {"mode": mode, "t": 5e-4, "n_max": 1})
    out = tmp_path / "x"
    assert main(["exit", "--config", cfg, "--out", str(out)]) == 0
    if mode == "stats":
        stats = json.loads((out / "exit_stats.json").read_text())
        assert (stats["t"], stats["h"]) == (5e-4, 1e-3)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_exit_step_not_positive_and_finite_returns_2(tmp_path, capsys, bad):
    cfg = _write_config(tmp_path, "e.json", {"h": bad, "n_paths": 10})
    assert main(["exit", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert f"h={bad!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, entries",
    [
        # both used to exit 2 leaving the empty directory made for the run
        ("exit", {"h": 0}),
        ("simulate", {"burn_in": 20.0, "horizon": 10.0}),
    ],
)
def test_rejected_run_removes_the_directories_it_made(
    tmp_path, capsys, command, entries
):
    cfg = _write_config(tmp_path, "c.json", entries)
    out = tmp_path / "a" / "b"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "a").exists()


def test_rejected_run_keeps_a_directory_that_existed(tmp_path):
    cfg = _write_config(tmp_path, "e.json", {"h": 0})
    out = tmp_path / "x"
    out.mkdir()
    assert main(["exit", "--config", cfg, "--out", str(out)]) == 2
    assert out.is_dir() and not any(out.iterdir())


def test_failed_run_keeps_a_directory_with_files(tmp_path, monkeypatch):
    import npbbm.cli as cli

    def write_then_fail(config, out):
        out.write_json("partial.json", {})
        raise ArithmeticError("forced after the first file")

    monkeypatch.setitem(cli._RUNNERS, "wave", write_then_fail)
    out = tmp_path / "x"
    assert main(["wave", "--out", str(out)]) == 3
    assert [p.name for p in out.iterdir()] == ["partial.json"]


def test_trajectory_csv_reads_back_to_simulate_extremes(tmp_path):
    # 17 significant digits carry every double through the CSV exactly
    cfg = _write_config(
        tmp_path,
        "sim.json",
        {"p": 0.5, "n_particles": 4, "horizon": 1.0, "n_samples": 2, "replicas": 2},
    )
    out = tmp_path / "s"
    assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    rows = _read_csv(out / "trajectory.csv")
    assert rows[0] == ["time", "leftmost", "rightmost"]
    table = np.array([[float(v) for v in row] for row in rows[1:]])
    src = RandomSource(3, COMMAND_IDS["simulate"] << 32)
    rec = simulate(np.zeros(4), 0.5, 1.0, src, sample_times=[0.5, 1.0])
    expected = np.column_stack((rec.sample_times, rec.leftmost, rec.rightmost))
    assert table.tobytes() == expected.tobytes()


def test_bounds_metadata_json_records_the_run(tmp_path):
    cfg = _write_config(
        tmp_path, "b.json", {"p": 0.75, "n_particles": 100, "delta": 0.1, "k_steps": 3}
    )
    out = tmp_path / "b"
    assert main(["bounds", "--config", cfg, "--seed", "42", "--out", str(out)]) == 0
    params = SchemeParams(0.75, 0.1, "upper")
    src = RandomSource(42, COMMAND_IDS["bounds"] << 32)
    run = run_bounds(np.zeros(100), params, 3, src)
    with open(out / "bounds_upper.json") as fh:
        payload = json.load(fh)
    assert payload == {
        "N": 100,
        "p": 0.75,
        "delta": 0.1,
        "side": "upper",
        "steps": [
            {
                "removed": s.removed,
                "pre_truncation_size": s.pre_truncation_size,
                "padded": s.padded,
            }
            for s in run.steps
        ],
    }
    upper = [float(r[2]) for r in _read_csv(out / "bounds_final.csv")[1:]]
    assert np.array_equal(upper, run.config)


def test_bounds_summary_is_the_verdict_on_the_final_configs(tmp_path):
    out = tmp_path / "b"
    assert main(["bounds", "--seed", "42", "--out", str(out)]) == 0
    rows = _read_csv(out / "bounds_final.csv")[1:]
    table = np.array([[float(v) for v in row] for row in rows])
    summary = json.loads((out / "bounds_summary.json").read_text())
    verdict = bounds_verdict(table[:, 1], table[:, 2])
    assert list(summary)[4:] == list(verdict)
    assert {key: summary[key] for key in verdict} == verdict


def test_bounds_removal_count_names_its_numbers(tmp_path, capsys):
    # round(3 * 0.999999 * (1 - e^-5)) = 3 removes the whole lower system
    cfg = _write_config(
        tmp_path, "b.json", {"p": 0.999999, "delta": 5.0, "n_particles": 3}
    )
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "removal count reached N: round(N q (1 - e^-delta)) = 3 with N=3" in err
    assert "q=0.999999 (lower side), delta=5.0" in err


def test_exit_stats_json_matches_exit_statistics(tmp_path):
    config = {"p": 0.75, "t": 1.0, "h": 1e-2, "n_paths": 2000, "dx": 1e-3}
    cfg = _write_config(tmp_path, "e.json", config)
    out = tmp_path / "e"
    assert main(["exit", "--config", cfg, "--seed", "98", "--out", str(out)]) == 0
    w, rho = _wave_fixture(0.75, 1.0, 1e-3)
    left, right = wave_barriers(w, 1.0)
    src = RandomSource(98, COMMAND_IDS["exit"] << 32)
    params = PathParams(1.0, 1e-2, 2000)
    stats = exit_statistics(rho, left, right, params, src)
    with open(out / "exit_stats.json") as fh:
        payload = json.load(fh)
    assert payload == {
        "master_seed": 98,
        "stream_index": COMMAND_IDS["exit"] << 32,
        "t": 1.0,
        "h": 1e-2,
        "n_paths": 2000,
        "exit_left_prob": stats.exit_left_prob,
        "exit_right_prob": stats.exit_right_prob,
        "survive_prob": stats.survive_prob,
        "exit_left_se": stats.exit_left_se,
        "exit_right_se": stats.exit_right_se,
        "survive_se": stats.survive_se,
        "n_survivors": stats.survivor_positions.size,
    }
    survivors = [float(r[0]) for r in _read_csv(out / "survivors.csv")[1:]]
    assert np.array_equal(survivors, stats.survivor_positions)


@pytest.mark.parametrize("command", ["simulate", "speedscan"])
def test_single_replica_returns_2(tmp_path, capsys, command):
    # one replica has no spread; its standard error used to be written as 0
    cfg = _write_config(tmp_path, "r.json", {"replicas": 1})
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "replicas=1 must be at least 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, entries, shown, least",
    [
        # n_particles = 0 and an n_grid entry of 0 used to exit 2 with a
        # message that named no key
        ("simulate", {"n_particles": 0}, "n_particles=0", 1),
        ("simulate", {"n_samples": 0}, "n_samples=0", 1),
        ("simulate", {"replicas": 0}, "replicas=0", 2),
        ("bounds", {"n_particles": -3}, "n_particles=-3", 1),
        ("bounds", {"k_steps": -1}, "k_steps=-1", 0),
        ("scheme", {"n_max": -1}, "n_max=-1", 0),
        ("exit", {"n_paths": 0}, "n_paths=0", 1),
        ("exit", {"n_x": -2}, "n_x=-2", 1),
        ("exit", {"n_max": -1}, "n_max=-1", 0),
        ("speedscan", {"n_grid": [10, 0]}, "n_grid=0", 1),
        ("speedscan", {"replicas": -5}, "replicas=-5", 2),
    ],
)
def test_count_below_its_bound_returns_2(
    tmp_path, capsys, command, entries, shown, least
):
    cfg = _write_config(tmp_path, "c.json", entries)
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"{shown} must be at least {least}" in capsys.readouterr().err
    assert not out.exists()


def test_representation_counts_many_points_at_once(tmp_path):
    # each point used to recount the survivors and recompute the scheme's
    # tails, so 20 000 points took about 4 s
    config = {"mode": "representation", "n_x": 20_000, "n_paths": 1000, "n_max": 2}
    cfg = _write_config(tmp_path, "e.json", config)
    out = tmp_path / "e"
    start = time.perf_counter()
    assert main(["exit", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 2.0
    xs, mc, _, se = np.array(_read_csv(out / "representation.csv")[1:], dtype=float).T
    assert xs.size == 20_000
    # the survivors are those of exit_statistics on the same source
    w, rho = _wave_fixture(0.75, 1.0, 1e-3)
    left, right = wave_barriers(w, 1.0)
    src = RandomSource(5, COMMAND_IDS["exit"] << 32)
    survivors = exit_statistics(rho, left, right, PathParams(1.0, 1e-3, 1000), src)
    survivors = survivors.survivor_positions
    for j in range(0, xs.size, 997):
        frac = np.sum(survivors >= xs[j]) / 1000
        assert mc[j] == math.e * frac
        assert se[j] == math.e * math.sqrt(frac * (1.0 - frac) / 1000)


def test_bad_burn_in_returns_2_before_any_output(tmp_path, capsys):
    # the trajectory used to be written before estimate_speed refused burn_in
    cfg = _write_config(tmp_path, "s.json", {"burn_in": 20.0, "horizon": 10.0})
    out = tmp_path / "x"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "need horizon > burn_in >= 0, got horizon=10.0, burn_in=20.0" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, entries, shown",
    [
        # both used to fail in estimate_speed, naming its T and not horizon
        ("speedscan", {"horizon": 0}, "horizon=0.0, burn_in=10.0"),
        ("simulate", {"horizon": 1.0, "burn_in": 2.0}, "horizon=1.0, burn_in=2.0"),
    ],
)
def test_burn_in_outside_the_horizon_names_both_keys(
    tmp_path, capsys, monkeypatch, command, entries, shown
):
    import npbbm.cli as cli

    def no_runs(*args, **kwargs):
        raise AssertionError("particles simulated before burn_in was checked")

    monkeypatch.setattr(cli, "simulate", no_runs)
    monkeypatch.setattr(cli, "estimate_speed", no_runs)
    cfg = _write_config(tmp_path, "c.json", entries)
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: need horizon > burn_in >= 0, got {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "abc"],
        ["simulate", "--threads", "0"],
        ["frobnicate"],
        [],
    ],
)
def test_usage_errors_are_one_line(capsys, argv):
    # argparse used to print two usage lines before the error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("usage error: npbbm")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out
