"""Every top-level function, class and method of the package has a caller.

A definition counts as used when its name is referenced, outside its own
body, from the package itself, the demos, the benchmark or the corpus
scripts; when it is exported in ``tiltbench.__all__``; or when the
benchmark's tracer wraps it by name.  Dunder methods are called by Python
itself and are not checked.  Helpers that only tests call are listed below
with the reason they stay.
"""

import ast
import os

import tiltbench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "tiltbench")
CALLER_DIRS = [SRC, os.path.join(ROOT, "demos"), os.path.join(ROOT, "bench"), os.path.join(ROOT, "corpus")]

TEST_ONLY = {
    "BasicAlgebra.check_associative": "tests check every corpus algebra's product table is associative",
    "BasicAlgebra.check_idempotents": "tests check every corpus algebra's vertex idempotents are orthogonal",
    "HomotopySpace.class_reps": "tests compose class representatives to check chain maps against realization",
    "corpus_algebras": "the named corpus algebras that tests iterate over",
}


def _python_files(directory):
    for dirpath, _, names in os.walk(directory):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _definitions():
    """(file, qualified name, node) of each top-level function and class and
    of each method of a top-level class in the package."""
    for path in _python_files(SRC):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path, f"{node.name}.{item.name}", item


def _references():
    """bare name -> set of the definitions a reference to it sits in, as
    tuples of enclosing (file, def line) pairs; () at module level."""
    refs = {}

    def visit(node, path, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing + ((path, node.lineno),)
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        if name is not None:
            refs.setdefault(name, set()).add(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, path, enclosing)

    for directory in CALLER_DIRS:
        for path in _python_files(directory):
            visit(_parse(path), path, ())
    return refs


def _traced_entry_points():
    """The attribute paths the benchmark's tracer wraps, read from its
    ENTRY_POINTS literal."""
    for node in _parse(os.path.join(ROOT, "bench", "tracing.py")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "ENTRY_POINTS" for t in node.targets):
            return {attr for _, attr, _, _ in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracing.py has no ENTRY_POINTS")


def test_every_definition_has_a_caller_outside_tests():
    exempt = set(tiltbench.__all__) | _traced_entry_points() | set(TEST_ONLY)
    refs = _references()
    unused = []
    for path, qualified, node in _definitions():
        name = node.name
        if (name.startswith("__") and name.endswith("__")) or qualified in exempt:
            continue
        own = (path, node.lineno)
        if not any(own not in enclosing for enclosing in refs.get(name, ())):
            unused.append(f"{os.path.relpath(path, ROOT)}: {qualified}")
    assert not unused, "definitions that nothing outside tests calls:\n" + "\n".join(unused)
