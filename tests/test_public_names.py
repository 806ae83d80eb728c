"""Public names: every module's __all__ resolves, and the package root
exports README's quick-start names and no name README does not list."""
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ascoding

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = sorted(m.name for m in pkgutil.iter_modules(ascoding.__path__))


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
