"""Package structure: every exported name resolves."""

import importlib
import pkgutil

import pytest

import droptrain

MODULES = ["droptrain"] + [
    f"droptrain.{info.name}" for info in pkgutil.iter_modules(droptrain.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    missing = [attr for attr in exports if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
