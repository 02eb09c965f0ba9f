"""Every name a module lists in ``__all__`` exists and is the object that
``irsbeam`` exports under that name, and each public name is listed by
exactly one module. Every name a module of the package imports is used in
that module."""

import ast
import pathlib
import types

import pytest

import irsbeam
from irsbeam import beamforming, config, experiments, metrics, oracle, system

MODULES = [system, beamforming, metrics, oracle, config, experiments]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_listed_name_exists_and_is_exported(module):
    for name in module.__all__:
        assert getattr(irsbeam, name) is getattr(module, name), name


def test_each_public_name_is_listed_once():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed))
    exported = {name for name, value in vars(irsbeam).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == set(listed)


SOURCES = sorted(pathlib.Path(irsbeam.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    # A star import binds no name of its own, and a __future__ import is a
    # compiler directive.
    tree = ast.parse(path.read_text(), str(path))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names if alias.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
