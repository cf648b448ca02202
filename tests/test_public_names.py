"""The package's public names: every `__all__` entry resolves to its own
object, and every public function and each of its keyword-only options is
used somewhere that counts."""

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


def test_package_exports_every_module_name():
    # each module's __all__ is the one list of its public names; the package
    # re-exports them all, as the same objects, and `cli` none
    modules = [m for m in MODULES[1:] if m.__name__ != "npbbm.cli"]
    expected = ["__version__"] + [name for m in modules for name in m.__all__]
    assert npbbm.__all__ == expected
    for module in modules:
        for name in module.__all__:
            assert getattr(npbbm, name) is getattr(module, name), name


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_public_name_is_an_alias(module):
    # a second name for a class or function is a second entry point to the
    # same code; constants are left out, since equal small ints are one object
    names: dict[int, list[str]] = {}
    for name in getattr(module, "__all__", []):
        if callable(obj := getattr(module, name)):
            names.setdefault(id(obj), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []


TESTS = Path(__file__).parent


def _calls(*, helpers: bool):
    """(function name, call) of every call in the package and in the
    acceptance tests; a method call counts under its attribute name.  With
    ``helpers`` also the calls in the helpers the acceptance tests import:
    all of helpers.py, and of test_density.py the body of _lemma_suite."""
    paths = [*Path(npbbm.__file__).parent.glob("*.py"), TESTS / "test_acceptance.py"]
    if helpers:
        paths.append(TESTS / "helpers.py")
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    if helpers:
        module = ast.parse((TESTS / "test_density.py").read_text(encoding="utf-8"))
        trees += [
            node
            for node in module.body
            if isinstance(node, ast.FunctionDef) and node.name == "_lemma_suite"
        ]
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                yield name, node


def _public_functions():
    """(module, name, function) of every function in a module's __all__."""
    for module in MODULES:
        for name in getattr(module, "__all__", []):
            if inspect.isfunction(fn := getattr(module, name)):
                yield module, name, fn


def test_every_public_function_is_called():
    # a function that only its own tests call is code no command needs
    called = {name for name, _ in _calls(helpers=True)}
    uncalled = sorted(
        f"{module.__name__}.{name}"
        for module, name, _ in _public_functions()
        if name not in called
    )
    assert uncalled == []


def test_every_keyword_only_option_is_used():
    # an option that only its own tests set is code no command needs
    calls = {
        (name, kw.arg) for name, call in _calls(helpers=False) for kw in call.keywords
    }
    unused = sorted(
        f"{module.__name__}.{name}({param.name}=)"
        for module, name, fn in _public_functions()
        for param in inspect.signature(fn).parameters.values()
        if param.kind is param.KEYWORD_ONLY and (name, param.name) not in calls
    )
    assert unused == []


def test_every_private_function_and_class_is_used_in_the_package():
    # a private helper that only tests reach is code no command needs
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(npbbm.__file__).parent.glob("*.py")
    }
    unused = []
    for file, tree in trees.items():
        for node in tree.body:
            if not (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                continue
            # references outside the definition itself, in any module
            used = any(
                isinstance(ref, ast.Name) and ref.id == node.name
                or isinstance(ref, ast.Attribute) and ref.attr == node.name
                for other in trees.values()
                for top in other.body
                if top is not node
                for ref in ast.walk(top)
            )
            if not used:
                unused.append(f"{file}:{node.name}")
    assert unused == []


def _package_imports() -> dict[str, set[str]]:
    """Each module but `__init__`, mapped to the package modules it imports
    from; ``from . import name`` imports from `__init__`."""
    graph = {}
    for path in Path(npbbm.__file__).parent.glob("*.py"):
        if path.stem != "__init__":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            graph[path.stem] = {
                node.module or "__init__"
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
            }
    return graph


def test_modules_import_in_layers():
    # read from the source: the package __init__ imports every module, so
    # what is loaded shows nothing about who imports whom
    graph = _package_imports()
    assert graph["wave"] == {"density"}  # the closed form needs no simulator
    assert sorted(name for name, deps in graph.items() if "cli" in deps) == []
    # no cycle: peel off, round by round, the modules that import no module left
    left = dict(graph)
    while left:
        done = [name for name, deps in left.items() if not deps & left.keys()]
        assert done, f"import cycle among {sorted(left)}"
        for name in done:
            del left[name]
