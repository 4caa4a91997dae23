"""Every top-level function, class and method of the package has a caller.

A definition counts as used when it is referenced, outside its own body,
from the package itself, the demos, the benchmark or the corpus scripts, or
when it is exported in ``tiltbench.__all__``.  Dunder methods are called by
Python itself and are not checked.  Helpers that only tests call are listed
in ``TEST_ONLY``, and entry points that only the benchmark's tracer names
(in strings, which are not references) in ``TRACER_ONLY``, each with the
reason it stays.

References are matched by name, except to a method whose name two or more
package classes define: ``Matrix.inverse`` must not count as a caller of
``ModuleMap.inverse``.  Such a method needs a reference resolved to it:
  - ``Class.method``, looked up in Class and then its package bases;
  - ``self.method`` (or ``cls.method``) in a method of class C: the method C
    finds, and every override of it in a package subclass of C;
  - ``super().method`` in a method of class C, looked up in C's bases.
A shared name that some method reaches only through values of unknown
class (``f.then(g)``) is listed in ``AMBIGUOUS`` with the reason, and is
matched by name again.
"""

import ast
import os

import tiltbench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "tiltbench")
CALLER_DIRS = [SRC, os.path.join(ROOT, "demos"), os.path.join(ROOT, "bench"), os.path.join(ROOT, "corpus")]

TEST_ONLY = {
    "HomotopySpace.class_reps": "tests compose class representatives to check chain maps against realization",
    "corpus_algebras": "the named corpus algebras that tests iterate over",
    "el_to_vector": "tests write elements as dense rows to compare them with Matrix-based references",
}

TRACER_ONLY = {
    "Matrix.rref": "the tracer counts its calls and cells as linalg.rref; the package eliminates by the sparse routines",
    "FiniteDimAlgebra.left_matrix": "the tracer counts its calls; the package forms no left-multiplication matrix",
    "map_coordinates": "the tracer times it; the package reads hom-space coordinates from a Basis",
}

AMBIGUOUS = {
    "direct_sum": "the demos and the benchmark sum modules, and construct_tpq sums complexes, held in local variables",
    "element": "decompose and complex_decomp read idempotents through an End algebra held in a local",
    "inverse": "indecomposable_iso and isomorphism_by_summands invert module and chain maps alike; "
    "ModuleMap.inverse inverts its vertex matrices",
    "is_identity": "the copy certificates test module maps and chain maps alike; ModuleMap tests its matrices",
    "is_zero": "the demos test module map certificates and complex_decomp tests chain idempotents in locals; "
    "ModuleMap tests its matrices, and ProjComplex and ChainMapC the entry maps they build or compose",
    "realize": "complex_decomp realizes a strict idempotent chain map held in a local",
    "scale": "ModuleMap, ChainMapC and EntryMap subtract through other.scale(-1); ModuleMap scales its vertex "
    "matrices, and ChainMapC and ProjComplex.shift their entry maps",
    "support": "group_copies names the failing block of a module or chain map certificate from its nonzero entries",
    "then": "group_copies and isomorphism_by_summands compose module and chain maps alike; ChainMapC, "
    "d_squared_is_zero and retract compose the entry maps of components and differentials",
    "to_dict": "the CLI serializes the report each command returns",
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


def _classes():
    """class name -> (package base names, {method name: (file, def line)})
    for each top-level class of the package."""
    found = {}
    for path in _python_files(SRC):
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef):
                assert node.name not in found, f"two package classes named {node.name}"
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                methods = {item.name: (path, item.lineno) for item in node.body if isinstance(item, ast.FunctionDef)}
                found[node.name] = (bases, methods)
    return {name: ([b for b in bases if b in found], methods) for name, (bases, methods) in found.items()}


def _lookup(classes, name, method):
    """The method that name.method finds, through the package bases, or None."""
    bases, methods = classes[name]
    if method in methods:
        return methods[method]
    for base in bases:
        found = _lookup(classes, base, method)
        if found is not None:
            return found
    return None


def _overrides(classes, name, method):
    """The definitions of method in the package subclasses of name."""
    for sub, (bases, methods) in classes.items():
        if name in bases:
            if method in methods:
                yield methods[method]
            yield from _overrides(classes, sub, method)


def _shared_names(classes):
    """Method names, dunders aside, that two or more package classes define."""
    count = {}
    for _, methods in classes.values():
        for name in methods:
            count[name] = count.get(name, 0) + 1
    return {name for name, n in count.items() if n > 1 and not (name.startswith("__") and name.endswith("__"))}


def _references(classes):
    """(by_name, resolved): bare name -> set of the definitions a reference to
    it sits in, as tuples of enclosing (file, def line) pairs, () at module
    level; and method (file, def line) -> the same for the references
    resolved to that method."""
    by_name, resolved = {}, {}

    def resolve(node, owner, self_name):
        """The method definitions an attribute reference resolves to."""
        value, attr = node.value, node.attr
        if isinstance(value, ast.Name) and value.id in classes and value.id != self_name:
            return [_lookup(classes, value.id, attr)]
        if owner is None:
            return []
        if isinstance(value, ast.Name) and value.id == self_name:
            return [_lookup(classes, owner, attr), *_overrides(classes, owner, attr)]
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "super" and not value.args:
            return [_lookup(classes, base, attr) for base in classes[owner][0]]
        return []

    def visit(node, path, enclosing, owner, self_name):
        if isinstance(node, ast.ClassDef):
            owner = node.name if path.startswith(SRC) and not enclosing else None
            self_name = None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is not None and self_name is None:
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            self_name = node.args.args[0].arg if node.args.args and not static else ""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing + ((path, node.lineno),)
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
            for target in resolve(node, owner, self_name):
                if target is not None:
                    resolved.setdefault(target, set()).add(enclosing)
        elif isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        if name is not None:
            by_name.setdefault(name, set()).add(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, path, enclosing, owner, self_name)

    for directory in CALLER_DIRS:
        for path in _python_files(directory):
            visit(_parse(path), path, (), None, None)
    return by_name, resolved


def _traced_entry_points():
    """The attribute paths the benchmark's tracer wraps, read from its
    ENTRY_POINTS literal."""
    for node in _parse(os.path.join(ROOT, "bench", "tracing.py")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "ENTRY_POINTS" for t in node.targets):
            return {attr for _, attr, _, _ in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracing.py has no ENTRY_POINTS")


def _checked_definitions():
    """(file, qualified name, node, own (file, def line)) of each definition
    that needs a caller."""
    exempt = set(tiltbench.__all__) | set(TRACER_ONLY) | set(TEST_ONLY)
    for path, qualified, node in _definitions():
        name = node.name
        if not ((name.startswith("__") and name.endswith("__")) or qualified in exempt):
            yield path, qualified, node, (path, node.lineno)


def _called(own, enclosings):
    return any(own not in enclosing for enclosing in enclosings)


def _has_caller():
    """The test has_caller(qualified name, node, own): whether that
    definition is referenced outside its own body by the package, demos,
    benchmark or corpus scripts."""
    classes = _classes()
    shared = _shared_names(classes) - set(AMBIGUOUS)
    by_name, resolved = _references(classes)

    def has_caller(qualified, node, own):
        method = "." in qualified
        return _called(own, resolved.get(own, ()) if method and node.name in shared else by_name.get(node.name, ()))

    return has_caller


def test_every_definition_has_a_caller_outside_tests():
    has_caller = _has_caller()
    unused = [
        f"{os.path.relpath(path, ROOT)}: {qualified}"
        for path, qualified, node, own in _checked_definitions()
        if not has_caller(qualified, node, own)
    ]
    assert not unused, "definitions that nothing outside tests calls:\n" + "\n".join(unused)


def test_test_only_lists_package_definitions_that_only_tests_call():
    has_caller = _has_caller()
    definitions = {qualified: (path, node) for path, qualified, node in _definitions()}
    stale = []
    for qualified in TEST_ONLY:
        if qualified not in definitions:
            stale.append(f"{qualified}: no such package definition")
        else:
            path, node = definitions[qualified]
            if has_caller(qualified, node, (path, node.lineno)):
                stale.append(f"{qualified}: called outside tests")
    assert not stale, "stale TEST_ONLY entries:\n" + "\n".join(stale)


def test_tracer_only_lists_exactly_the_traced_definitions_without_another_caller():
    """TRACER_ONLY names each definition that the benchmark's tracer wraps
    and nothing else keeps alive: not a caller, not an export."""
    has_caller = _has_caller()
    traced = _traced_entry_points() - set(tiltbench.__all__)
    uncalled = {
        qualified
        for path, qualified, node in _definitions()
        if qualified in traced and not has_caller(qualified, node, (path, node.lineno))
    }
    assert uncalled == set(TRACER_ONLY)


def test_ambiguous_lists_exactly_the_shared_names_without_a_resolved_caller():
    classes = _classes()
    shared = _shared_names(classes)
    _, resolved = _references(classes)
    need = {
        node.name
        for _, qualified, node, own in _checked_definitions()
        if "." in qualified and node.name in shared and not _called(own, resolved.get(own, ()))
    }
    assert set(AMBIGUOUS) == need


def _annotations(tree):
    """The annotation expressions of the functions and assignments in tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _unused_imports(path):
    """(line, name) of each name a module imports and never reads.  A name
    counts as read where it appears as a name, also inside a string
    annotation; the ``__future__`` imports are directives, not names."""
    tree = _parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_import_of_the_package_is_used():
    """No module of the package imports a name it does not use; the
    package's ``__init__`` re-exports its imports and is exempt."""
    unused = [
        f"{os.path.relpath(path, ROOT)}:{line}: {name}"
        for path in _python_files(SRC)
        if os.path.basename(path) != "__init__.py"
        for line, name in _unused_imports(path)
    ]
    assert not unused, "imports that nothing in their module uses:\n" + "\n".join(unused)
