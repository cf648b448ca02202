"""Benchmark of the npbbm CLI, driven from outside the package.

Runs one workload's CLI invocations in this process, back to back (a closed
loop with one client), repeating the whole workload while another pass
should end within --seconds, and checks every output.  Before each pass it
times one set-up in a fresh interpreter, so the set-up samples span the
same minute as the passes.  Prints as its last line one JSON object with
keys correct, attempted, failed and metrics:

* --trace 0: the end-to-end metrics, timed without tracing;
* --trace 1: the per-layer metrics, from passes traced through tracer.py,
  alternating with untraced passes that give the tracing overhead.

Usage, from the root of a checkout:

    python3 bench/run.py --workload large-n --seed 20260815 --seconds 55 --trace 0

Exits with 2, printing no result, when the checkout holds no npbbm sources.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Before numpy loads: the benchmark runs one process with one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 7  # at least; one per pass, then more if the passes were fewer


def time_setup(workload: str) -> float:
    """Seconds from a fresh interpreter to npbbm.cli imported and configs built.

    Waits without a timeout, since a wait with one polls in steps of up to
    50 ms; a timer kills a probe that hangs instead.
    """
    start = time.perf_counter()
    probe = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload], cwd=ROOT)
    killer = threading.Timer(120.0, probe.kill)
    killer.start()
    try:
        rc = probe.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise subprocess.CalledProcessError(rc, probe.args)
    return elapsed


def call_cli(cli, argv: list[str]) -> int:
    """cli.main(argv) as a process would end: its exit code, 1 on a traceback."""
    try:
        with contextlib.redirect_stdout(sys.stderr):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


@dataclass
class Pass:
    """One run of every invocation of the workload."""

    traced: bool
    wall: float = 0.0
    times: dict[str, float] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)


class Runner:
    """Runs and checks the passes of one workload in a work directory."""

    def __init__(self, cli, invocations, work: Path, seed: int) -> None:
        self.cli = cli
        self.invocations = invocations
        self.work = work
        self.seed = seed
        self.first_hashes: dict[str, dict[str, str]] = {}
        (work / "configs").mkdir(parents=True)
        for inv in invocations:
            with open(self.config_path(inv), "w", encoding="utf-8") as fh:
                json.dump(inv.config, fh)

    def config_path(self, inv) -> Path:
        return self.work / "configs" / f"{inv.label}.json"

    def out_dir(self, inv) -> Path:
        return self.work / "out" / inv.label

    def argv(self, inv) -> list[str]:
        return [
            inv.command,
            "--config", str(self.config_path(inv)),
            "--seed", str(self.seed),
            "--out", str(self.out_dir(inv)),
            "--threads", "1",
        ]

    def run_pass(self, trace: tracer.Tracer | None) -> Pass:
        shutil.rmtree(self.work / "out", ignore_errors=True)
        result = Pass(traced=trace is not None)
        codes = {}
        if trace is not None:
            trace.install()
        try:
            start = time.perf_counter()
            for inv in self.invocations:
                t0 = time.perf_counter()
                if trace is not None:
                    trace.request = inv.label
                    span = trace.open(f"cli.{inv.kind}")
                codes[inv.label] = call_cli(self.cli, self.argv(inv))
                if trace is not None:
                    trace.close(span)
                result.times[inv.label] = time.perf_counter() - t0
            result.wall = time.perf_counter() - start
        finally:
            if trace is not None:
                trace.remove()
        for inv in self.invocations:
            problems = self.verify(inv, codes[inv.label])
            if problems:
                result.failures[inv.label] = problems
        return result

    def verify(self, inv, rc: int) -> list[str]:
        """Why the invocation failed, if it did; outputs must also be
        byte-identical across passes, traced or not."""
        problems = checks.check_invocation(inv.kind, inv.config, self.out_dir(inv), rc)
        if problems:
            return problems
        hashes = checks.output_hashes(self.out_dir(inv))
        first = self.first_hashes.setdefault(inv.label, hashes)
        return [
            f"{name} differs from the first pass"
            for name in sorted(set(first) | set(hashes))
            if first.get(name) != hashes.get(name)
        ]

    def output_bytes(self) -> int:
        """Bytes of the outputs the last pass's manifests list."""
        return sum(
            (self.out_dir(inv) / name).stat().st_size
            for inv in self.invocations
            if (self.out_dir(inv) / "manifest.json").is_file()
            for name in checks.output_hashes(self.out_dir(inv))
        )

    def rate(self, passes, work) -> float:
        """Nominal work per second of the invocations that do that work,
        pooled over all passes: some of them take only a few tenths of a
        second, and a median of two or three such times is mostly noise."""
        doing = [inv for inv in self.invocations if work(inv) > 0]
        done = len(passes) * sum(work(inv) for inv in doing)
        return done / sum(p.times[inv.label] for p in passes for inv in doing)


def end_to_end(runner: Runner, passes, setup, attempted, failed) -> dict:
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
        "events_per_s": (runner.rate(passes, lambda inv: inv.events()), "1/s"),
        "path_steps_per_s": (runner.rate(passes, lambda inv: inv.path_steps()), "1/s"),
        "cell_steps_per_s": (runner.rate(passes, lambda inv: inv.cell_steps()), "1/s"),
    }


def per_layer(runner: Runner, passes, trace: tracer.Tracer) -> dict:
    traced = [p.wall for p in passes if p.traced]
    # Pass 0 also pays first-call costs (imports, FFT plans), so it is left out.
    plain = [p.wall for p in passes[1:] if not p.traced]
    out = tracer.layer_metrics(trace.spans, len(traced), workloads.KINDS)
    out["cli.output_bytes"] = (runner.output_bytes(), "bytes")
    out["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0,
        "ratio",
    )
    return out


def provenance() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            out = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    import numpy
    import scipy

    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "npbbm" / "cli.py").is_file():
        print(f"no npbbm sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    invocations = workloads.build(args.workload)
    cli = workloads.load_cli(ROOT)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(cli, invocations, work, args.seed)
    trace = tracer.Tracer() if args.trace else None
    passes: list[Pass] = []
    setup: list[float] = []
    start = time.perf_counter()
    # Start another set-up sample and pass only if they should end within
    # --seconds.  A traced run needs an untraced pass after pass 0 to compare
    # against.
    while len(passes) < 1 + 2 * args.trace or (
        time.perf_counter()
        - start
        + statistics.median(setup)
        + statistics.median(p.wall for p in passes)
        <= args.seconds
    ):
        setup.append(time_setup(args.workload))
        traced = trace is not None and len(passes) % 2 == 1
        passes.append(runner.run_pass(trace if traced else None))
    while len(setup) < SETUP_SAMPLES:
        setup.append(time_setup(args.workload))

    attempted = len(passes) * len(invocations)
    failed = sum(len(p.failures) for p in passes)
    for i, p in enumerate(passes):
        for label, problems in p.failures.items():
            print(f"FAILED pass {i} {label}: {'; '.join(problems)}", file=sys.stderr)
    if trace is None:
        metrics = end_to_end(runner, passes, setup, attempted, failed)
    else:
        metrics = per_layer(runner, passes, trace)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "result": result,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "setup_s": setup,
        "pass_wall_s": [p.wall for p in passes],
        "invocation_s": [p.times for p in passes],
        "provenance": provenance(),
    }
    with open(work / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    if trace is not None:
        with open(work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(trace.spans, fh)
    print(
        f"{args.workload}: {len(passes)} passes, median invocation times (s) "
        + json.dumps(
            {
                inv.label: round(statistics.median(p.times[inv.label] for p in passes), 4)
                for inv in invocations
            }
        )
    )
    print("provenance: " + json.dumps(report["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
