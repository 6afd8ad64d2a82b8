"""Every public name a module exports still exists."""

import importlib
import pkgutil

import pytest

import orelearn

_MODULES = ["orelearn"] + [f"orelearn.{m.name}" for m in pkgutil.iter_modules(orelearn.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    stale = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert stale == [], f"{name}.__all__ names missing attributes: {stale}"
    exec(f"from {name} import *", {})
