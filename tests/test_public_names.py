"""Public names: every module's __all__ resolves and is used, the package
root exports README's quick-start names and no name README does not list,
and no module reaches into another module's private (_-prefixed) names."""
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ascoding

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = sorted(m.name for m in pkgutil.iter_modules(ascoding.__path__))
SOURCES = sorted(Path(ascoding.__file__).parent.glob("*.py"))


def quick_start_names() -> list[str]:
    block = README.split("## Library quick start", 1)[1].split("```python", 1)[1].split("```")[0]
    (names,) = re.findall(r"from ascoding import \(([^)]*)\)", block)
    return [n.strip() for n in names.split(",") if n.strip()]


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    namespace: dict = {}
    exec(f"from ascoding.{module} import *", namespace)
    exported = getattr(importlib.import_module(f"ascoding.{module}"), "__all__", ())
    assert all(name in namespace for name in exported)


def names_used_in_src() -> set[str]:
    """Every name read in src/ (a bare name or an attribute), except where a
    top-level function or class reads its own name."""
    used = set()
    for source in SOURCES:
        for stmt in ast.parse(source.read_text()).body:
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            used |= names - {getattr(stmt, "name", None)}
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_use(module):
    # no public helper exists only for its tests: each exported name is used
    # by the package itself or documented for users in README
    used = names_used_in_src()
    exported = getattr(importlib.import_module(f"ascoding.{module}"), "__all__", ())
    unused = [name for name in exported if name not in used and f"`{name}`" not in README]
    assert not unused, unused


def test_quick_start_names_import_from_package():
    names = quick_start_names()
    assert len(names) == 6
    namespace: dict = {}
    exec(f"from ascoding import {', '.join(names)}", namespace)
    assert all(name in namespace for name in names)


def test_package_all_resolves_and_is_documented():
    namespace: dict = {}
    exec("from ascoding import *", namespace)
    documented = set(quick_start_names())
    for name in ascoding.__all__:
        assert name in namespace, name
        assert name in documented or f"`{name}`" in README, f"README does not list {name}"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.stem)
def test_no_module_uses_another_modules_private_names(source):
    tree = ast.parse(source.read_text())
    siblings = set()  # local names of package modules, from `from . import m`
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "ascoding"):
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                if is_private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and is_private(node.attr)):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    assert not found, found
