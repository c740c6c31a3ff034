"""Print the line count and the code-line count of a Python package.

A code line is a physical line that holds part of a token that is neither a
comment nor a docstring (the string that opens a module, class or function
body, found with ast).  Blank lines, comment lines and docstring lines are
not code lines.

usage: python tools/count_lines.py [DIRECTORY]   (default: src/kquadric)
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED:
            continue
        if token.type == tokenize.STRING and token.start[0] in docstrings:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code)


def main(argv: list[str]) -> int:
    directory = Path(argv[0] if argv else "src/kquadric")
    lines = code = 0
    for path in sorted(directory.glob("*.py")):
        file_lines, file_code = count(path.read_text(encoding="utf-8"))
        print(f"{file_lines:6d} {file_code:6d}  {path}")
        lines += file_lines
        code += file_code
    print(f"{lines:6d} {code:6d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
