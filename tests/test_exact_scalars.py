"""Every division of exact scalars goes through ``linalg.div``, and no
routine turns a scalar into a float.

``/`` between two ints gives a float, and so does ``float(...)``: either one
in an exact routine would make a verdict depend on rounding.  This test reads
the source of every module of the package and fails on a ``/`` or ``/=``, on a
two-argument ``Fraction(a, b)`` (a division by another name) outside
``linalg.div``, and on any call to ``float``.
"""

import ast
import os

import tiltbench

PACKAGE = os.path.dirname(os.path.abspath(tiltbench.__file__))


def _violations(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    allowed = set()
    if os.path.basename(path) == "linalg.py":
        div = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "div")
        allowed = {id(n) for n in ast.walk(div)}
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float" or (node.func.id == "Fraction" and len(node.args) + len(node.keywords) > 1):
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_division_outside_linalg_div_and_no_float():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "linalg.py" in modules and "tilting.py" in modules
    found = {f: v for f in modules if (v := _violations(os.path.join(PACKAGE, f)))}
    assert found == {}


def test_the_guard_sees_each_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(a, b):\n    a /= b\n    return a / b, float(a), Fraction(a, b), Fraction(a), a // b\n")
    assert [line for line, _ in _violations(str(src))] == [2, 3, 3, 3]
