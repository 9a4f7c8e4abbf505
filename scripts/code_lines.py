#!/usr/bin/env python3
"""Count the code lines of the package: lines of `src/qkdsim/*.py` that
hold a token other than a comment, leaving out blank lines and the
docstrings of modules, classes and functions.

Prints each module's count and the total.  Run from anywhere:

    python scripts/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qkdsim"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode("utf-8")).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:<16}{n:>6}")
    print(f"{'total':<16}{total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
