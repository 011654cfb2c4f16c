"""The package re-exports every library module's ``__all__`` and nothing
stale: each exported name resolves to its module's own object, and the
command line stays out of ``import epibvp``."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import epibvp

_SUBMODULES = [info.name for info in pkgutil.iter_modules(epibvp.__path__)]
_MODULES = ["epibvp"] + [f"epibvp.{name}" for name in _SUBMODULES]
# every submodule but the command line and its ``python -m`` entry point
_LIBRARY = [importlib.import_module(f"epibvp.{name}")
            for name in sorted(_SUBMODULES) if name not in ("cli", "__main__")]


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


def test_package_all_is_the_library_modules_all():
    combined = [name for module in _LIBRARY for name in module.__all__]
    # a name published by two modules would let one star import shadow
    # the other without a word
    assert len(set(combined)) == len(combined)
    assert epibvp.__all__ == combined


@pytest.mark.parametrize("module", _LIBRARY, ids=lambda m: m.__name__)
def test_package_names_are_the_modules_objects(module):
    assert [name for name in module.__all__
            if getattr(epibvp, name) is not getattr(module, name)] == []


def test_import_does_not_load_the_command_line():
    env = dict(os.environ,
               PYTHONPATH=str(Path(epibvp.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, epibvp; sys.exit('epibvp.cli' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
