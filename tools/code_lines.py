"""Count the code lines of Python source files.

A code line holds at least one token other than a comment, a newline, an
indent or a dedent, and is not part of a docstring (the leading string of
a module, class or function body). A string that spans several lines
counts each line it covers.

    python3 tools/code_lines.py src/texcurve/texeval.py src/texcurve/analysis.py
    python3 tools/code_lines.py src/texcurve

prints each file's count, then the total. A directory stands for every
`*.py` file under it, in sorted order.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that alone do not make a line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set:
    """The line numbers that module, class and function docstrings cover."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def source_files(paths) -> list:
    """The files that `paths` name: a file as given, a directory as every
    `*.py` file under it, in sorted order."""
    files = []
    for path in paths:
        files.extend(sorted(Path(path).rglob("*.py")) if Path(path).is_dir() else [path])
    return files


def main(paths) -> int:
    total = 0
    for path in source_files(paths):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
