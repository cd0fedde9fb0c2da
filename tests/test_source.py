"""Static checks of the package source, by the standard library alone."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "nilflow").glob("*.py"))


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


def names(tree: ast.AST) -> Counter:
    """How often a tree names each identifier: as a bare name that is read,
    an attribute, an imported name, or a string constant (getattr and the
    benchmark's span tables name functions by string)."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out[node.value] += 1
    return out


def definitions(tree: ast.Module):
    """(name, node) for each function, class, method and module constant
    that a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m) for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((e.id, node) for t in targets for e in ast.walk(t)
                        if isinstance(e, ast.Name))


def unnamed_definitions(source: str, elsewhere: Counter) -> list[str]:
    """The non-dunder definitions of a module that nothing names outside
    their own definition, in the module or in the names counted elsewhere."""
    tree = ast.parse(source)
    named = names(tree) + elsewhere
    return [f"line {node.lineno}: {name}" for name, node in definitions(tree)
            if not (name.startswith("__") and name.endswith("__"))
            and named[name] <= names(node)[name]]


@pytest.fixture(scope="module")
def traffic() -> dict:
    """The names of each Python file under src/, tests/ and perfbench/, and
    of the README's Python blocks, by path."""
    trees = {p: ast.parse(p.read_text())
             for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")}
    readme = ROOT / "README.md"
    trees[readme] = ast.parse("\n".join(re.findall(r"```python\n(.*?)```",
                                                    readme.read_text(), re.S)))
    return {p: names(tree) for p, tree in trees.items()}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_definition_is_named_elsewhere(path, traffic):
    elsewhere = sum((n for p, n in traffic.items() if p != path), Counter())
    assert unnamed_definitions(path.read_text(), elsewhere) == []


def test_check_finds_unnamed_definitions():
    source = ("X = 1\n_Y: int = 2\nclass A:\n    def used(self):\n        return X\n"
              "    def loop(self):\n        return self.loop()\n"
              "    def __repr__(self):\n        return 'A'\n"
              "def f():\n    return A().used()\ndef g():\n    pass\n")
    assert unnamed_definitions(source, Counter({"f": 1, "A": 1})) == [
        "line 2: _Y", "line 6: loop", "line 12: g"]
