"""Every name a module of the package imports at top level is used in it,
every private top-level helper of the package is named somewhere, and every
public top-level function is exported or called outside the tests."""

import ast
from pathlib import Path

import pytest

import sublap

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sublap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# every file that may call a private helper of the package
SOURCES = sorted(p for d in ("src", "tests", "scripts", "bench") for p in (ROOT / d).rglob("*.py"))
# every file that may call a public function of the package, tests aside
CALLERS = sorted(p for d in ("src", "scripts", "bench") for p in (ROOT / d).rglob("*.py"))


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


def private_definitions(source: str) -> list:
    """Private (single-underscore) top-level functions and classes of source."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def public_functions(source: str) -> list:
    """Public top-level functions of source."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def named(source: str) -> set:
    """Every name source refers to: identifiers, attributes, imported names,
    and string constants (getattr and monkeypatch targets)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_scan_finds_unnamed_helpers():
    source = ("def _used():\n    pass\n\n\nclass _Gone:\n    pass\n\n\n"
              "def __getattr__(name):\n    return _used()\n")
    assert private_definitions(source) == ["_used", "_Gone"]
    assert public_functions(source + "\n\nclass Kept:\n    pass\n\n\ndef shown():\n    pass\n") \
        == ["shown"]
    assert "_used" in named(source) and "_Gone" not in named(source)
    assert "_emit" in named("getattr(cli, '_emit')")


def test_private_helpers_are_named_somewhere():
    used = set().union(*(named(p.read_text()) for p in SOURCES))
    dead = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
            for name in private_definitions(path.read_text()) if name not in used]
    assert dead == []


def test_public_functions_are_exported_or_called():
    # a public function that only the tests reach is a test helper, and
    # test helpers live in tests/oracles.py
    used = set(sublap.__all__).union(*(named(p.read_text()) for p in CALLERS))
    dead = [(path.name, name) for path in MODULES
            for name in public_functions(path.read_text()) if name not in used]
    assert dead == []
