#!/usr/bin/env python3
"""Count the code lines of the package, as the project's size claims count them.

    python tools/code_lines.py

A code line is a line that holds part of a token other than a comment, a
line break or an indent.  Blank lines, comment-only lines and the lines of
module, class and function docstrings do not count; a string that is code
(not a docstring) counts on every line it spans.  Prints the count of each
``src/disambig/*.py`` and then the total.  Standard library only.

To count an older commit, run a copy of this file from ``tools/`` in a
checkout of that commit (``git archive``): it counts the tree it sits in.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_LAYOUT = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
})


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each module, class or function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted((ROOT / "src" / "disambig").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
