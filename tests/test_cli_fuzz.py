"""Fuzzed configs through the command line: every input exits 0, 2 or 3.

Each example picks a command and gives every key of its `cli._KEYS` table a
value.  Valid values are capped so that a run plans at most about 10^4 grid
cells, 10^3 particles and 10^5 path-steps; an invalid value is of the wrong
type, a bool, a string, None, NaN, +-inf, zero or negative.  An invalid
`seed` may also be any negative integer or one of at least 2^64.  `out` is
never a fuzzed string: a valid one is the example's own temporary directory,
and an invalid one is a JSON value that is not a string.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from npbbm.cli import _KEYS, main

_p = st.floats(0.05, 0.95)
_dx = st.floats(0.01, 0.2)
_tol = st.floats(1e-6, 1.0)
# stands for the example's temporary output directory
_TMP_OUT = "<tmp>"
_COMMON = {"seed": st.integers(0, 2**64 - 1), "out": st.just(_TMP_OUT)}


VALID = {
    "simulate": {
        "p": _p,
        "n_particles": st.integers(1, 50),
        "horizon": st.floats(0.01, 2.0),
        "n_samples": st.integers(1, 20),
        "replicas": st.integers(2, 5),
        "burn_in": st.none() | st.floats(0.0, 1.0),
        **_COMMON,
    },
    "bounds": {
        "p": _p,
        "n_particles": st.integers(1, 100),
        "delta": st.floats(0.01, 2.0),
        "k_steps": st.integers(0, 10),
        **_COMMON,
    },
    "scheme": {
        "p": _p,
        "t": st.floats(0.01, 1.0),
        "n_max": st.integers(0, 3),
        "tol": _tol,
        "dx": _dx,
        **_COMMON,
    },
    "wave": {
        "p_grid": st.lists(_p, min_size=1, max_size=3),
        "dx_residual": _dx,
        "dx_mass": _dx,
        **_COMMON,
    },
    "exit": {
        "mode": st.sampled_from(["stats", "representation", "flux"]),
        "p": _p,
        "t": st.floats(0.05, 1.0),
        "h": st.floats(0.01, 0.1),
        "n_paths": st.integers(1, 100),
        "dx": _dx,
        "n_x": st.integers(1, 10),
        "n_max": st.integers(0, 2),
        "tol": _tol,
        "deltas": st.lists(
            st.floats(1e-3, 0.05), min_size=1, max_size=3, unique=True
        ).map(lambda v: sorted(v, reverse=True)),
        **_COMMON,
    },
    "speedscan": {
        "p": _p,
        "n_grid": st.lists(st.integers(1, 20), min_size=1, max_size=3),
        "horizon": st.floats(0.01, 2.0),
        "burn_in": st.floats(0.0, 1.0),
        "replicas": st.integers(2, 4),
        **_COMMON,
    },
}

_WRONG = st.sampled_from(
    [True, False, None, "1", "", [], {}, math.nan, math.inf, -math.inf, 0, 0.0, -0.0]
)
_BAD_NUMBER = _WRONG | st.integers(max_value=0) | st.floats(max_value=0.0)
_BAD_REAL = _BAD_NUMBER | st.just(10**400)
_BAD_LIST = _WRONG | st.lists(_BAD_REAL, min_size=1, max_size=2)
_BAD_MODE = _WRONG | st.text(max_size=3)
_BAD_SEED = _WRONG | st.integers(max_value=-1) | st.integers(min_value=2**64)
_BAD_OUT = st.sampled_from([True, False, None, [], {}, 0, 1.5, math.nan]) | st.integers()


def _invalid(key: str, default):
    if key == "mode":
        return _BAD_MODE
    if key == "seed":
        return _BAD_SEED
    if key == "out":
        return _BAD_OUT
    if isinstance(default, list):
        return _BAD_LIST
    if isinstance(default, int):
        return _BAD_NUMBER
    return _BAD_REAL


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(_KEYS)))
    keys = _KEYS[command]
    bad = draw(st.sets(st.sampled_from(sorted(keys)), max_size=2))
    config = {
        key: draw(_invalid(key, default) if key in bad else VALID[command][key])
        for key, (_, default) in keys.items()
    }
    return command, config


def test_fuzz_strategies_cover_the_key_tables():
    assert {c: set(v) for c, v in VALID.items()} == {
        c: set(v) for c, v in _KEYS.items()
    }


@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_fuzzed_config_exits_0_2_or_3(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if config["out"] == _TMP_OUT:
            config["out"] = str(out)
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path)])
        assert code in (0, 2, 3)
        if code:  # a failed run leaves no empty directory it made
            assert not out.exists() or any(out.iterdir())
