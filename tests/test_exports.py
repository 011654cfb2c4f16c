"""Every exported name resolves, so no deletion leaves a stale export."""

import importlib
import pkgutil

import pytest

import epibvp

_MODULES = ["epibvp"] + [f"epibvp.{info.name}"
                         for info in pkgutil.iter_modules(epibvp.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_star_import_succeeds():
    namespace = {}
    exec("from epibvp import *", namespace)
    assert set(epibvp.__all__) <= set(namespace)
