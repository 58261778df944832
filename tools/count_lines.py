"""Count lines of code in Python files: no blank lines, comments or docstrings.

A line counts when some token other than a comment starts on it or spans
it, and it is not part of a module, class or function docstring.  Beside
it goes each file's physical lines, docstrings, comments and blank lines
included: with no ``.pyc`` to reuse, an import compiles all of them.

Usage: ``python tools/count_lines.py [PATH ...]`` (default ``src/massfusion``).
Prints one line per module, code lines then physical lines, and the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers taken by the docstrings of the module, its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_file(path):
    """Code lines in one Python source file."""
    source = Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def physical_lines(path):
    """All lines of one file, as the compiler reads them."""
    return len(Path(path).read_bytes().splitlines())


def main(argv=None):
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])] or [Path("src/massfusion")]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = physical = 0
    print(f"{'code':>6}  {'lines':>6}")
    for f in files:
        n, p = count_file(f), physical_lines(f)
        total, physical = total + n, physical + p
        print(f"{n:6d}  {p:6d}  {f}")
    print(f"{total:6d}  {physical:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
