"""The package imports only the standard library, numpy and itself.

The test extra installs hypothesis, networkx and sympy as oracles, so an
import of one of them in src/partmorse would pass every other test and
fail only where the package is installed without it.  A relative import
is the package itself.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "partmorse"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "partmorse"}


def imported(path: Path) -> set[str]:
    """The top-level names of the absolute imports of a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_only_the_standard_library_and_numpy(path):
    assert not imported(path) - ALLOWED, f"{path.name} imports {sorted(imported(path) - ALLOWED)}"


def test_the_scan_finds_the_real_imports():
    # numpy and a standard module are found, so the scan reads the modules
    assert {"numpy", "__future__"} <= set().union(*map(imported, PACKAGE.glob("*.py")))
