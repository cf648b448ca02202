"""The package's public names: every `__all__` entry resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import npbbm

MODULES = [npbbm] + [
    importlib.import_module(f"npbbm.{info.name}")
    for info in pkgutil.iter_modules(npbbm.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []
