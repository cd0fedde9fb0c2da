import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

from nilflow.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()


def leading_literal(comment: str):
    """(True, value) for the shortest whitespace-delimited prefix of the
    comment text that is a Python literal, else (False, None)."""
    text = comment.lstrip("#").strip()
    for end in [m.start() for m in re.finditer(r"\s", text)] + [len(text)]:
        try:
            return True, ast.literal_eval(text[:end])
        except (ValueError, SyntaxError):
            continue
    return False, None


def test_library_quick_tour_runs_as_written():
    # every expression line of the tour states its value in its comment
    section = README.split("## Library quick tour", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    comments = {tok.start[0]: tok.string
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    env: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        comment = comments.get(stmt.end_lineno)
        if isinstance(stmt, ast.Expr) and comment:
            ok, expected = leading_literal(comment)
            assert ok, f"line {stmt.lineno}: comment {comment!r} starts with no literal"
            got = eval(compile(ast.Expression(stmt.value), "README", "eval"), env)
            assert got == expected, f"line {stmt.lineno}: {got!r} != {expected!r}"
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), env)
    assert checked >= 5


def test_usage_line_lists_the_cli_options(capsys):
    # an option removed from the CLI must leave the docs too, and a new one enter them
    section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
    usage = re.search(r"```\n(nilflow .*)\n```", section).group(1)
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
    assert set(re.findall(r"--[a-z-]+", usage)) == options
