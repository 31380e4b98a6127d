"""Line counts of the package under ``src/``: the progress measure of the
project's design aim, fewer lines for the same behaviour.

For each module it prints the total lines and the code lines, then the
totals.  A code line holds at least one token that is not a comment; the
lines of a module, class or function docstring, found through ``ast``, are
not code.

    python tools/src_lines.py [directory]   # default: src/ of this checkout
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                rows.update(range(first.lineno, first.end_lineno + 1))
    return rows


def count(source):
    """(total lines, code lines) of Python ``source``."""
    rows = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in _NOT_CODE:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(rows - _docstring_lines(ast.parse(source)))


def main(argv):
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total = code = 0
    print(f"{'module':<40} {'lines':>6} {'code':>6}")
    for path in sorted(root.rglob("*.py")):
        lines, code_lines = count(path.read_text())
        total += lines
        code += code_lines
        print(f"{path.relative_to(root).as_posix():<40} {lines:>6} {code_lines:>6}")
    print(f"{'total':<40} {total:>6} {code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
