"""Spans around npbbm's layers, recorded from outside the package.

`Tracer.install` replaces each public function of the library modules with
a wrapper at every module attribute that refers to it, which is where its
callers look it up (``from .density import refine_limit`` binds the name in
the importing module).  A wrapper records a span (name, start, end, parent,
request) plus counts read from the call's arguments and result, and calls
the original unchanged.  `Tracer.remove` puts the originals back.

Spans stay in memory; `layer_metrics` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
import time
from collections import defaultdict

from workloads import nominal_path_steps

LAYERS = ("randomness", "particles", "discrete", "density", "wave", "exits", "stats")

# Called once per particle event; a span per call would cost more than the work.
SKIP = {"particles.branch_select_step"}

# Output writers stay unwrapped, so their time counts in cli.self_s.
WRITER = re.compile(r"^(save|write)_|_to_(csv|json)$")


def _simulate(a, rec):
    return {"n": len(a["init"]), "events": rec.event_count}


def _run_bounds(a, run):
    return {
        "steps": len(run.steps),
        "particles": sum(s.pre_truncation_size for s in run.steps),
        "padded": sum(s.padded for s in run.steps),
    }


def _step(a, res):
    return {"cells": a["f"].n}


def _propagate(a, g):
    f = a["f"]
    return {"cells": f.n, "nonzero": int((f.values != 0.0).sum())}


def _refine(a, r):
    return {"levels": r.n_used + 1, "converged": int(r.converged)}


def _killed_paths(a, res):
    prm = a["params"]
    return {
        "path_steps": nominal_path_steps(prm.n_paths, prm.t, prm.h),
        "paths": prm.n_paths,
        "survivors": round(res.survive_prob * prm.n_paths),
    }


OBSERVE = {
    "particles.simulate": _simulate,
    "discrete.run_bounds": _run_bounds,
    "density.step": _step,
    "density.gaussian_propagate": _propagate,
    "density.refine_limit": _refine,
    "exits.exit_statistics": _killed_paths,
    "exits.representation_check": _killed_paths,
}


class Tracer:
    """In-memory span recorder with install/remove of the layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.request: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "request": self.request,
            }
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        observe = OBSERVE.get(name)
        sig = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                self.spans[idx].update(observe(sig.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public layer function wherever npbbm refers to it."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"npbbm.{layer}"]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                    and name not in SKIP
                    and not WRITER.search(attr)
                ):
                    wrappers[id(fn)] = (fn, self.wrap(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "npbbm" and not mod_name.startswith("npbbm."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        source = sys.modules["npbbm.randomness"].RandomSource
        self._patch(source, "generator", self.wrap("randomness.generator", source.generator))
        cli = sys.modules["npbbm.cli"]
        self._patch(cli, "_wave_fixture", self.wrap("wave.fixture", cli._wave_fixture))

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[dict], passes: int, kinds) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of `passes` traced workload passes.

    Totals are reported per pass; unit costs are ratios over all passes.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for s, t in zip(spans, own):
        by_name[s["name"]].append((s, t))

    def calls(name):
        return by_name.get(name, [])

    def total(name, key):
        return sum(s[key] for s, _ in calls(name))

    def dur(name):
        return sum(s["end"] - s["start"] for s, _ in calls(name))

    def own_time(name):
        return sum(t for _, t in calls(name))

    def ratio(num, den):
        return num / den if den else 0.0

    sims = calls("particles.simulate")
    per_n = defaultdict(lambda: [0.0, 0])
    for s, t in sims:
        per_n[s["n"]][0] += t
        per_n[s["n"]][1] += s["events"]

    ns = sorted(per_n) or [None]

    def us_per_event(n):
        return 1e6 * ratio(*per_n[n]) if n is not None else 0.0

    out = {
        "particles.us_per_event": (
            1e6 * ratio(own_time("particles.simulate"), total("particles.simulate", "events")),
            "us",
        ),
        "particles.us_per_event.min_n": (us_per_event(ns[0]), "us"),
        "particles.us_per_event.max_n": (us_per_event(ns[-1]), "us"),
        "particles.events": (total("particles.simulate", "events") / passes, "count"),
        "particles.simulate_calls": (len(sims) / passes, "count"),
        "randomness.generators": (len(calls("randomness.generator")) / passes, "count"),
        "randomness.us_per_generator": (
            1e6 * ratio(dur("randomness.generator"), len(calls("randomness.generator"))),
            "us",
        ),
        "discrete.ms_per_step": (
            1e3 * ratio(own_time("discrete.run_bounds"), total("discrete.run_bounds", "steps")),
            "ms",
        ),
        "discrete.particles_per_step": (
            ratio(total("discrete.run_bounds", "particles"), total("discrete.run_bounds", "steps")),
            "count",
        ),
        "discrete.padded_steps": (total("discrete.run_bounds", "padded") / passes, "count"),
        "density.ms_per_step": (
            1e3 * ratio(dur("density.step"), len(calls("density.step"))),
            "ms",
        ),
        "density.ms_per_propagate": (
            1e3 * ratio(dur("density.gaussian_propagate"), len(calls("density.gaussian_propagate"))),
            "ms",
        ),
        "density.scheme_steps": (len(calls("density.step")) / passes, "count"),
        "density.grid_cells": (
            ratio(total("density.step", "cells"), len(calls("density.step"))),
            "count",
        ),
        "density.refine_levels": (total("density.refine_limit", "levels") / passes, "count"),
        "density.refine_converged": (
            ratio(total("density.refine_limit", "converged"), len(calls("density.refine_limit"))),
            "ratio",
        ),
        "density.support_fraction": (
            ratio(
                total("density.gaussian_propagate", "nonzero"),
                total("density.gaussian_propagate", "cells"),
            ),
            "ratio",
        ),
    }
    path_names = ("exits.exit_statistics", "exits.representation_check")
    steps = sum(total(n, "path_steps") for n in path_names)
    out["exits.ns_per_path_step"] = (
        1e9 * ratio(sum(own_time(n) for n in path_names), steps),
        "ns",
    )
    out["exits.path_steps"] = (steps / passes, "count")
    out["exits.survive_fraction"] = (
        ratio(
            sum(total(n, "survivors") for n in path_names),
            sum(total(n, "paths") for n in path_names),
        ),
        "ratio",
    )
    out["wave.fixture_ms"] = (
        1e3 * ratio(dur("wave.fixture"), len(calls("wave.fixture"))),
        "ms",
    )
    stats_own = sum(t for name, c in by_name.items() if name.startswith("stats.") for _, t in c)
    out["stats.ms"] = (1e3 * stats_own / passes, "ms")
    for kind in kinds:
        out[f"cli.{kind}_s"] = (dur(f"cli.{kind}") / passes, "s")
    out["cli.self_s"] = (
        sum(own_time(f"cli.{kind}") for kind in kinds) / passes,
        "s",
    )
    return out
