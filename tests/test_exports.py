"""Every module's ``__all__`` names what the module defines."""

import importlib
import pkgutil

import pytest

import homogbc

MODULES = sorted(m.name for m in pkgutil.iter_modules(homogbc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_imports(name):
    mod = importlib.import_module(f"homogbc.{name}")
    exported = list(getattr(mod, "__all__", ()))
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []
    scope = {}
    exec(f"from homogbc.{name} import *", scope)  # noqa: S102
    assert set(exported) <= set(scope)
