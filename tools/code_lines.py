"""Count the code lines of Python modules: lines that hold a token other than a comment
or a docstring.  Blank lines, comment lines and docstrings are left out; a line that
holds code and a trailing comment counts.

Usage: python3 tools/code_lines.py [DIR ...]   (default: src/droptrain)

Prints each module's count and the total.  Uses only the standard library.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers taken by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    total = 0
    for root in argv or ["src/droptrain"]:
        for path in sorted(Path(root).rglob("*.py")):
            n = code_lines(path)
            total += n
            print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
