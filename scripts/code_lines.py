#!/usr/bin/env python3
"""Count the code lines of the ``knotparity`` package.

A code line is a non-blank line that is neither comment-only nor inside the
docstring of a module, class or function.  Prints one line per file of
``src/knotparity`` (count, then path), then the total:

    python scripts/code_lines.py
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "knotparity"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers covered by the docstrings of the module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """Number of code lines in one Python source file."""
    text = Path(path).read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(
        1
        for lineno, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and lineno not in skip
    )


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:5d} {path.relative_to(ROOT)}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main()
