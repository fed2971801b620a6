import importlib
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
