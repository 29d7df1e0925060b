"""Public names: every module's __all__ resolves, and the package root
re-exports only names its modules declare public (a module without
__all__ exports its names without a leading underscore, as import * does)."""

import ast
import importlib
from pathlib import Path

import pytest

import fleetdyn

MODULES = ["analytics", "calibration", "cli", "dynamics", "errors", "infrastructure", "scenarios"]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"fleetdyn.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def public_names(module):
    return getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])


def test_package_imports_only_public_names():
    tree = ast.parse(Path(fleetdyn.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(MODULES) - {"cli"}
    for node in imports:
        module = importlib.import_module(f"fleetdyn.{node.module}")
        private = {alias.name for alias in node.names} - set(public_names(module))
        assert private == set(), node.module
