"""Every name a module of the package imports at top level is used in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sublap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the top-level imports of source that nothing else in
    it reads; ``from __future__ import ...`` is exempt."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from typing import Optional, Tuple\nx: Optional[int] = j.dumps(0)\n")
    assert unused_imports(source) == ["os", "Tuple"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []
