"""Every name a module exports in ``__all__`` must exist."""

import importlib
import pkgutil

import pytest

import brinkmann

MODULES = ["brinkmann"] + [f"brinkmann.{m.name}" for m in pkgutil.iter_modules(brinkmann.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
