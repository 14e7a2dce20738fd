"""The command-line scripts run to completion and print their summaries."""
import ast
import graphlib
import re
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_corpus_survey():
    out = run_script("corpus_survey.py", "--per-rank", "1")
    assert out.splitlines()[-1].startswith("exchange count histogram: {")


def test_mutation_orbit():
    """The default orbit is pinned whole, atoms and classes, byte for byte."""
    golden = ROOT / "tests" / "golden" / "mutation-orbit.out"
    assert run_script("mutation_orbit.py") == golden.read_text()


def test_code_size():
    script = runpy.run_path(str(SCRIPTS / "code_size.py"))
    assert script["code_lines"]('"""Module\ndocstring."""\n\n# a comment\nx = 1  # trailing\n\n\n'
                                'def f():\n    """Doc."""\n    return """a\nb"""\n') == 4
    assert script["fraction_calls"]('import fractions\nfrom fractions import Fraction\n'
                                    'x = Fraction(1, 2) + fractions.Fraction(3)  # Fraction(4)\n'
                                    'y = "Fraction(5)", Fraction, x.Fraction\n') == 2
    rows = [line.split() for line in run_script("code_size.py").splitlines()]
    assert rows[0] == ["module", "lines", "code", "Fraction("]
    name, lines, code, calls = rows[-1]
    assert name == "total" and 0 < int(code) < int(lines)
    assert int(calls) == sum(int(row[3]) for row in rows[1:-1]) > 0


def test_fraction_count():
    """One row per benchmark workload, each with whole counts of
    ``Fraction``s, eliminations and crossings and their means over the ops
    of one pass; no op fails but cli-oneshot's known-failure probe, at most
    once per round of 25 calls.  corpus-build and cli-oneshot build reps, so
    they eliminate.  groupoid-paths crosses each chamber pair once, so its
    few pairs take at most one crossing per op."""
    rows = [line.split() for line in run_script("fraction_count.py").splitlines()]
    assert rows[0] == ["workload", "ops", "failed", "Fractions", "per", "op", "eliminations",
                       "per", "op", "crossings", "per", "op"]
    assert [row[0] for row in rows[1:]] == [
        "corpus-build", "crossing-sweep", "groupoid-paths", "cli-oneshot"]
    for (_, ops, failed, made, per_op, eliminations, eliminations_per_op,
         crossings, crossings_per_op) in rows[1:]:
        assert int(ops) > 0 and int(made) >= 0
        assert float(per_op) == round(int(made) / int(ops), 2)
        assert float(eliminations_per_op) == round(int(eliminations) / int(ops), 2)
        assert float(crossings_per_op) == round(int(crossings) / int(ops), 2)
    assert int(rows[1][5]) > 0 and int(rows[4][5]) > 0
    assert int(rows[2][7]) > 0 and float(rows[3][8]) <= 1.0
    assert [row[2] for row in rows[1:4]] == ["0", "0", "0"]
    assert int(rows[4][2]) <= int(rows[4][1]) // 25


def test_every_src_definition_is_used_outside_the_tests():
    """Each function, class and method defined under src/qswindows is named
    somewhere in src/, scripts/ or benchmark/ outside its own definition.
    One that only tests call belongs in the tests.  Dunder methods are
    called by Python itself and are skipped."""
    sources = {path: path.read_text() for folder in ("src", "scripts", "benchmark")
               for path in sorted((ROOT / folder).rglob("*.py"))}
    unused = []
    for path, text in sources.items():
        if path.parent.name != "qswindows":
            continue
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or node.name.startswith("__") and node.name.endswith("__")):
                continue
            outside = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(outside if other == path else other_text)
                       for other, other_text in sources.items()):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


def test_every_src_field_is_read():
    """Each annotated field of each class under src/qswindows is read as
    an attribute, ``x.field``, somewhere in src/, scripts/ or benchmark/.
    A field only the tests read belongs in the tests."""
    read, fields = set(), []
    for folder in ("src", "scripts", "benchmark"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            read |= {n.attr for n in ast.walk(tree)
                     if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
            if path.parent.name == "qswindows":
                fields += [(f"{path.name}:{node.name}.{stmt.target.id}", stmt.target.id)
                           for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert fields
    assert [name for name, field in fields if field not in read] == []


UNREAD_PARAMETERS_ALLOWED = {
    "complexes.py:summand_sets(ctx)":
        "benchmark/workloads.py passes it positionally; it goes when those rows are restated",
    "mutation.py:module_of_window(rep)":
        "benchmark/workloads.py passes it positionally; it goes when those rows are restated",
}


def test_every_src_parameter_is_read():
    """Each parameter of each function and lambda under src/qswindows,
    ``self`` and ``cls`` aside, is read somewhere in its body."""
    unread = []
    for path in sorted((ROOT / "src" / "qswindows").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None and p.arg not in ("self", "cls")]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}:{name}({p})" for p in params if p not in read]
    assert sorted(unread) == sorted(UNREAD_PARAMETERS_ALLOWED)


def _called(call: ast.Call) -> str | None:
    """The name a call calls, bare or as an attribute."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_int_type_test(node) -> bool:
    """A comparison such as ``type(x) is int``."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return (any(isinstance(o, ast.Call) and _called(o) == "type" for o in operands)
            and any(isinstance(o, ast.Name) and o.id == "int" for o in operands))


def test_points_enter_numerators_through_one_check():
    """``linalg._numerators`` checks its own entries, so no call under
    src/qswindows wraps its argument in ``vec`` first, and no
    ``type(x) is int`` shortcut sits in front of it: such a test appears
    only in ``linalg._numerators`` and ``root_data._lattice_weight``."""
    nested, owners = [], {}
    for path in sorted((ROOT / "src" / "qswindows").glob("*.py")):
        tree = ast.parse(path.read_text())
        nested += [f"{path.name}:{call.lineno}" for call in ast.walk(tree)
                   if isinstance(call, ast.Call) and _called(call) == "_numerators"
                   for inner in ast.walk(call)
                   if inner is not call and isinstance(inner, ast.Call) and _called(inner) == "vec"]
        # ast.walk visits an outer function before the ones inside it, so
        # each test ends up named after its innermost function
        for scope in ast.walk(tree):
            if scope is tree or isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = path.stem + ("" if scope is tree else f".{scope.name}")
                owners.update({id(n): name for n in ast.walk(scope) if _is_int_type_test(n)})
    assert nested == []
    assert "root_data._lattice_weight" in owners.values()
    assert set(owners.values()) <= {"linalg._numerators", "root_data._lattice_weight"}


def test_package_imports_are_top_level_and_acyclic():
    """Every relative import under src/qswindows sits at its module's top
    level, not inside a function or class, and the modules' relative
    imports form no cycle, so no module has to defer one."""
    graph, nested = {}, []
    for path in sorted((ROOT / "src" / "qswindows").glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
        nested += [f"{path.name}:{n.lineno}" for n in imports if n not in tree.body]
        graph[path.stem] = {n.module or alias.name for n in imports for alias in n.names}
    assert nested == []
    assert set().union(*graph.values()) <= set(graph)
    graphlib.TopologicalSorter(graph).prepare()
