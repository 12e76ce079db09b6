"""Every exported name resolves, so a deleted class left in an export list fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import flower_lab

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(flower_lab.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"flower_lab.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from flower_lab.{name} import *", {})


def test_package_reexports_resolve():
    tree = ast.parse(Path(flower_lab.__file__).read_text())
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"flower_lab.{module_name}")
        assert name in module.__all__, f"{module_name}.{name}"
        assert getattr(flower_lab, name) is getattr(module, name)
