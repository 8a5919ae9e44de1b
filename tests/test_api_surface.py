"""Every name that partmorse exports is reachable, and so is every public
member of an exported class, its own or inherited from a class of the
package: some module of the package reads it, the per-layer tracer of
perfbench/spans.py wraps it, or README.md documents it.

A module reads a name where it appears as an ast.Name or ast.Attribute,
so an import alone does not count.  The tracer's targets are read from
spans.py as test_span_targets reads them; a method target "Class.method"
reaches both names.  The README names a function in backticks, as
`build_main_matching(n)`, or imports it in a python block.
"""

import ast
import re
from pathlib import Path

import pytest

import partmorse
from test_span_targets import target_tables

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "partmorse"


def exports() -> list[str]:
    """The names that __init__.py imports from the package's modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def members() -> list[str]:
    """Class.member for every public member of an exported class."""
    out = set()
    for name in exports():
        cls = getattr(partmorse, name)
        if isinstance(cls, type):
            for owner in cls.__mro__:
                if owner.__module__.startswith("partmorse."):
                    out.update(f"{name}.{member}" for member in vars(owner) if not member.startswith("_"))
    return sorted(out)


def read_in_package() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def traced() -> set[str]:
    return {name for _, path in target_tables().values() for name in path.split(".")}


def documented() -> set[str]:
    readme = (ROOT / "README.md").read_text()
    names = {word for span in re.findall(r"`([^`\n]+)`", readme) for word in re.findall(r"[A-Za-z_]\w*", span)}
    for block in re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("partmorse"):
                names.update(alias.name for alias in node.names)
    return names


REACHED = read_in_package() | traced() | documented()


def test_the_package_exports_names():
    assert len(exports()) > 40


@pytest.mark.parametrize("name", exports())
def test_export_is_reachable(name):
    assert name in REACHED, f"{name} is exported, but no module reads it, the tracer wraps it or README names it"


@pytest.mark.parametrize("member", members())
def test_class_member_is_reachable(member):
    name = member.split(".")[1]
    assert name in REACHED, f"{member} is public, but no module reads it, the tracer wraps it or README names it"
