import ast
import importlib
import inspect
import pkgutil

import pytest

import fusionlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(fusionlab.__path__) if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"fusionlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"fusionlab.{name}.__all__ names missing attributes: {missing}"


def test_package_exports_resolve():
    missing = [n for n in fusionlab.__all__ if not hasattr(fusionlab, n)]
    assert not missing, missing


def test_package_names_are_in_their_module_all():
    """Every name the package imports from a submodule is public there."""
    tree = ast.parse(inspect.getsource(fusionlab))
    missing = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name not in importlib.import_module(f"fusionlab.{node.module}").__all__
    ]
    assert not missing, missing
