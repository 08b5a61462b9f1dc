"""Every name a module of the package imports is read in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wildram"


def unused_imports(source: str) -> list[str]:
    """The names the import statements of source bind and no expression of
    it reads (from __future__ imports aside), in import order."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_unused_imports_finds_the_names_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import gcd, lcm\n"
        "from .exactmath import vp\n"
        "def f(x: lcm) -> int:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["js", "gcd", "vp"]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
