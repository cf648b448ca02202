"""The package's public names: every `__all__` entry resolves, and every
keyword-only option of a public function is set somewhere that counts."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


def _keyword_calls() -> set[tuple[str, str]]:
    """(function name, keyword) of every call in the package and in the
    acceptance tests; a method call counts under its attribute name."""
    paths = [*Path(npbbm.__file__).parent.glob("*.py")]
    paths.append(Path(__file__).parent / "test_acceptance.py")
    calls = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.update((name, kw.arg) for kw in node.keywords)
    return calls


def test_every_keyword_only_option_is_used():
    # an option that only its own tests set is code no command needs
    calls = _keyword_calls()
    unused = sorted(
        f"{module.__name__}.{name}({param.name}=)"
        for module in MODULES
        for name in getattr(module, "__all__", [])
        if inspect.isfunction(fn := getattr(module, name))
        for param in inspect.signature(fn).parameters.values()
        if param.kind is param.KEYWORD_ONLY and (name, param.name) not in calls
    )
    assert unused == []
