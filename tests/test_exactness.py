"""No float enters the core: an AST scan of the library's modules.

Every module except ``svg`` (whose drawing coordinates are floats) must be
free of float and complex literals and ``float(...)`` calls.
"""
import ast
from pathlib import Path

import qswindows

FLOAT_MODULES = {"svg.py"}


def float_uses(source: str) -> list[int]:
    """Line numbers of float and complex literals and float(...) calls."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            lines.append(node.lineno)
    return sorted(lines)


def test_scanner_sees_floats():
    assert float_uses("x = 1.5\ny = float(2)\nz = 3j\n") == [1, 2, 3]
    assert float_uses("from fractions import Fraction\nx = Fraction(3, 2)\n") == []


def test_core_modules_are_float_free():
    src = Path(qswindows.__file__).parent
    modules = sorted(p for p in src.glob("*.py") if p.name not in FLOAT_MODULES)
    assert len(modules) > 10
    found = {p.name: float_uses(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
