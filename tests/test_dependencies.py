"""The runtime package imports nothing beyond numpy and the standard library."""

import ast
import sys
from pathlib import Path

import epibvp

_ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _foreign_imports(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] not in _ALLOWED]
    return found


def test_guard_flags_third_party_imports():
    source = "import os\nimport scipy.linalg\nfrom sympy import Symbol\nfrom . import vim\n"
    assert _foreign_imports(source) == ["scipy.linalg", "sympy"]


def test_package_imports_only_numpy_and_the_standard_library():
    modules = sorted(Path(epibvp.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        assert _foreign_imports(path.read_text()) == [], path.name
