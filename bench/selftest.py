"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py

1. Every workload runs briefly with --trace 0 on the default and the holdout
   seed and with --trace 1 on the default seed.  Each result must pass every
   output check and carry exactly the metrics BENCHMARK.json names for its
   mode, each with its unit and a finite value.
2. Corrupted, missing and consistently rewritten outputs must each count as
   a failed invocation.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   run.py must exit non-zero without printing a result.

Takes about two minutes; exits 1 on the first failed expectation.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = run.WORK / "selftest"


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def run_bench(cwd: Path, workload: str, seed: int, trace: int):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return out.returncode, out.stdout, out.stderr


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, trace in (
            (workloads.DEFAULT_SEED, 0),
            (workloads.HOLDOUT_SEED, 0),
            (workloads.DEFAULT_SEED, 1),
        ):
            what = f"{workload} seed={seed} trace={trace}"
            rc, stdout, stderr = run_bench(ROOT, workload, seed, trace)
            expect(rc == 0, f"{what}: exit code 0" + ("" if rc == 0 else "\n" + stderr))
            result = json.loads(stdout.strip().splitlines()[-1])
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{what}: result keys",
            )
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{what}: all {result['attempted']} invocations pass their checks"
                + ("" if result["correct"] else "\n" + stderr),
            )
            named = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = result["metrics"]
            expect(set(got) == set(named), f"{what}: exactly the {len(named)} named metrics")
            expect(
                all(got[k]["unit"] == u and math.isfinite(got[k]["value"]) for k, u in named.items()),
                f"{what}: units match and values are finite",
            )


class MutatingCli:
    """The real CLI, followed by a change to the output it just wrote."""

    def __init__(self, cli, mutate) -> None:
        self.cli = cli
        self.mutate = mutate

    def main(self, argv):
        rc = self.cli.main(argv)
        self.mutate(argv[0], Path(argv[argv.index("--out") + 1]))
        return rc


def flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def rewrite_consistently(out: Path, name: str, payload: dict) -> None:
    """Replace an output and fix its manifest checksum, so only the property check sees it."""
    target = out / name
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for entry in manifest["outputs"]:
        if entry["path"] == name:
            entry["sha256"] = hashlib.sha256(target.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def undominate(command: str, out: Path) -> None:
    if command == "bounds":
        summary = json.loads((out / "bounds_summary.json").read_text(encoding="utf-8"))
        rewrite_consistently(out, "bounds_summary.json", dict(summary, dominated=False))


def check_failure_counting() -> None:
    cli = workloads.load_cli(ROOT)
    invocations = [
        workloads.Invocation("00_wave", "wave", workloads.SMOKE["wave"]),
        workloads.Invocation("01_bounds", "bounds", workloads.SMOKE["bounds"]),
    ]
    cases = {
        "clean outputs": (lambda command, out: None, set()),
        "a flipped byte in a copied output": (
            lambda command, out: flip_byte(out / ("wave_table.csv" if command == "wave" else "bounds_final.csv")),
            {"00_wave", "01_bounds"},
        ),
        "a missing output": (
            lambda command, out: (out / ("wave_table.csv" if command == "wave" else "bounds_final.csv")).unlink(),
            {"00_wave", "01_bounds"},
        ),
        "a consistent but wrong dominance verdict": (undominate, {"01_bounds"}),
    }
    for what, (mutate, failing) in cases.items():
        work = SCRATCH / "counting"
        shutil.rmtree(work, ignore_errors=True)
        runner = run.Runner(MutatingCli(cli, mutate), invocations, work, workloads.DEFAULT_SEED)
        failed = set(runner.run_pass(None).failures)
        expect(failed == failing, f"{what}: failed invocations {sorted(failed)}")


def check_bare_directory(spec: dict) -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    rc, stdout, _ = run_bench(bare, spec["workloads"][0]["name"], workloads.DEFAULT_SEED, 0)
    expect(rc != 0 and '"metrics"' not in stdout, f"without the program: exit code {rc}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_bare_directory(spec)
    check_failure_counting()
    check_metrics(spec)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
