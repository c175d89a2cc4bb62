"""Code lines of each `src/rdplab` module, counted the way ROADMAP's Baseline counts them.

Not a test module (pytest does not collect it).  Run it as

    python3 tests/code_lines.py

A code line is a line that holds part of a Python token other than a comment,
and that is not part of a docstring (the string that opens a module, class or
function body).  Blank lines, comment lines and docstring lines do not count;
every line of any other multi-line string does.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rdplab"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:20s} {n:5d}")
    print(f"{'total':20s} {total:5d}")


if __name__ == "__main__":
    main()
