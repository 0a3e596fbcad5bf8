"""The package's public names: every export resolves, and the package
namespace re-exports only names that some module lists as public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dirnormal

INIT = Path(dirnormal.__file__)
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(INIT.parent)]) if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"dirnormal.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"dirnormal.{name}.__all__ lists names it does not define: {missing}"


def test_package_imports_only_listed_names():
    stale = []
    for node in ast.walk(ast.parse(INIT.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = set(getattr(importlib.import_module(f"dirnormal.{node.module}"), "__all__", ()))
            stale += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in listed]
    assert not stale, f"dirnormal/__init__.py imports names no module lists in __all__: {stale}"
