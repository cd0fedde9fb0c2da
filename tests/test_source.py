"""Static checks of the package source, by the standard library alone."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "nilflow").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module imports (anywhere in it) and never reads.  A name
    counts as read when it appears as a bare name or as the root of an
    attribute chain, or in __all__; __future__ imports are exempt."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os, numpy as np\n"
              "from math import floor, pi\nimport scipy.spatial\n"
              "def f():\n    from itertools import chain\n    return np.pi + floor(scipy.e)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: pi", "line 6: chain"]
