"""Print the total lines and code lines of every Python module under DIR.

Code lines are the lines that hold a token other than a comment, a
docstring or layout (blank lines, indentation, line ends).  A docstring is
the string that opens a module, class or function body.  The last line
gives the sums.

    python tools/count_lines.py src/qnet
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple, tuple]]:
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count_lines(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    spans = _docstring_spans(ast.parse(source))
    code = set()
    lines = iter(source.splitlines(keepends=True))
    for tok in tokenize.generate_tokens(lambda: next(lines, "")):
        if tok.type in LAYOUT or any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: count_lines.py DIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    total = code = 0
    print(f"{'lines':>6} {'code':>6}  module")
    for path in sorted(root.rglob("*.py")):
        n, k = count_lines(path.read_text())
        total, code = total + n, code + k
        print(f"{n:6d} {k:6d}  {path.relative_to(root)}")
    print(f"{total:6d} {code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
