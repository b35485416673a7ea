"""The README's Python examples run, and print what their comments say.

Every ```python block of README.md runs, in order, in one namespace.  A
statement that is a bare expression followed by a comment that starts with
a Python literal (``expr  # True  (why)``, ``expr  # "Convergent"``) must
evaluate to that literal.
"""
import ast
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks() -> list:
    lines = README.read_text().splitlines()
    starts = [i for i, line in enumerate(lines) if line.strip() == "```python"]
    return ["\n".join(lines[i + 1:lines.index("```", i + 1)]) for i in starts]


def _leading_literal(comment: str):
    """(True, value) for the longest prefix of comment that is a literal."""
    for end in range(len(comment), 0, -1):
        try:
            return True, ast.literal_eval(comment[:end].strip())
        except (ValueError, SyntaxError):
            continue
    return False, None


def _claims(source: str) -> list:
    """(statement, expected) per statement; expected is None without a claim."""
    lines = source.splitlines()
    out = []
    for stmt in ast.parse(source).body:
        line = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        found, value = (False, None)
        if isinstance(stmt, ast.Expr) and line.startswith("#"):
            found, value = _leading_literal(line[1:])
        out.append((stmt, (value,) if found else None))
    return out


def test_readme_has_python_examples():
    assert _blocks()


def test_readme_examples_hold():
    namespace = {}
    checked = 0
    for source in _blocks():
        for stmt, expected in _claims(source):
            if expected is None:
                exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
                continue
            got = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
            assert got == expected[0], ast.unparse(stmt)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("comment, expected", [
    (' True  (1.5 + 1.5 > 2)', (True, True)),
    (' 1.0   (3 - 2)', (True, 1.0)),
    (' "Convergent"', (True, "Convergent")),
    (' (value, error)', (False, None)),
    (' a word', (False, None)),
])
def test_leading_literal(comment, expected):
    assert _leading_literal(comment) == expected
