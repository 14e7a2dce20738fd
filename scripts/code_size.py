#!/usr/bin/env python3
"""Print the size of the qswindows package, per module and in total: all
lines, code lines, and ``Fraction(...)`` call sites.  A code line holds a
token other than a comment and lies outside every docstring (the first
string statement of a module, class or function, found with the AST);
blank and comment-only lines do not count.  A call site is a call, found
with the AST, of the name ``Fraction`` or of an attribute ``.Fraction``.
Run from anywhere: ``python scripts/code_size.py``."""
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qswindows"
# tokens that carry no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def fraction_calls(source: str) -> int:
    return sum(1 for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
               and (getattr(node.func, "id", None) == "Fraction"
                    or getattr(node.func, "attr", None) == "Fraction"))


def main() -> int:
    totals = [0, 0, 0]
    print(f"{'module':<16} {'lines':>6} {'code':>6} {'Fraction(':>9}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        row = len(source.splitlines()), code_lines(source), fraction_calls(source)
        totals = [t + n for t, n in zip(totals, row)]
        print(f"{path.name:<16} {row[0]:>6} {row[1]:>6} {row[2]:>9}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>6} {totals[2]:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
