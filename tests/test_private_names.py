"""Every module-level name of the package is live; a name nothing reads is
dead code.  A private name must be read somewhere in the package outside its
own definition.  A public name may also be read by the benchmark scripts in
``bench/``.  Every module-level import of the package and of the tests is
read in its own module."""

import ast
from pathlib import Path

import blcalc

PACKAGE = Path(blcalc.__file__).parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


def defined_names(tree: ast.Module):
    """(name, defining statement) for the module-level bindings, dunders
    excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node


def read_names(node: ast.AST) -> set:
    """Names a statement reads: loaded names, attributes, imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unread_names(public: bool, outside: set = frozenset()) -> list:
    """``module.name`` for the private (or public) module-level names that
    no other package statement reads and that are not in ``outside``."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    statements = [
        (node, read_names(node)) for tree in trees.values() for node in tree.body
    ]
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, definition in defined_names(tree)
        if name.startswith("_") != public
        and name not in outside
        and not any(
            node is not definition and name in reads for node, reads in statements
        )
    ]


def test_private_names_are_read():
    assert unread_names(public=False) == []


def test_public_names_are_read_by_the_package_or_the_benchmark():
    bench_reads = set()
    for path in BENCH.glob("*.py"):
        bench_reads |= read_names(ast.parse(path.read_text()))
    assert unread_names(public=True, outside=bench_reads) == []


def unread_imports(path: Path) -> list:
    """``file: name`` for each name bound by a module-level import of the
    file that the file never loads; ``from __future__`` imports are exempt.
    A module read only as ``module.attr`` is loaded by that read."""
    tree = ast.parse(path.read_text())
    loads = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        out += [f"{path.name}: {name}" for name in names if name not in loads]
    return out


def test_module_imports_are_read():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert [line for path in paths for line in unread_imports(path)] == []
