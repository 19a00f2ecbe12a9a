"""Every module under src/, tests/ and tools/ reads each name it imports.

A name counts as read when it appears anywhere in the module as a plain
name (``np`` of ``np.zeros``, ``Fraction`` in an annotation).  Package
``__init__.py`` files re-export what they import and are exempt, as are
``from __future__`` imports, which bind no name; the package's own
``__all__`` names exactly what it imports, sorted.
"""

import ast
from pathlib import Path

import pytest

import algebroids

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for top in ("src", "tests", "tools") for p in (ROOT / top).rglob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_scan_sees_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import gcd, lcm\n"
        "def f():\n    from json import dumps\n    return np.zeros(gcd(4, 6))\n"
    )
    assert unread_imports(source) == ["dumps", "lcm", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_the_public_names_are_the_imported_ones_sorted():
    tree = ast.parse((ROOT / "src" / "algebroids" / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert algebroids.__all__ == sorted(imported)
