"""Export contract of the package's modules.

The span tracer in ``perfbench/tracing.py`` wraps a function listed in a
module's ``__all__`` only when that module defines it, so a name that moves
between modules must move in ``__all__`` too, or it silently loses its span.
A module imports no name that it neither uses nor exports.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

import relanom

MODULES = sorted(
    p.stem for p in pathlib.Path(relanom.__file__).parent.glob("*.py") if p.stem != "__init__"
)


@pytest.mark.parametrize("name", MODULES)
def test_exported_functions_and_classes_are_defined_in_their_module(name):
    module = importlib.import_module(f"relanom.{name}")
    for attr in module.__all__:
        value = getattr(module, attr)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, f"{name}.{attr}"


def test_package_imports_only_exported_names():
    tree = ast.parse(pathlib.Path(relanom.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package imports only its own modules"
        module = importlib.import_module(f"relanom.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used_or_exported(name):
    path = pathlib.Path(relanom.__file__).parent / f"{name}.py"
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(importlib.import_module(f"relanom.{name}").__all__)
    assert imported <= used | exported, f"{name} imports {sorted(imported - used - exported)}"
