"""Every private module-level name of the package is read somewhere in the
package outside its own definition; a name nothing reads is dead code."""

import ast
from pathlib import Path

import blcalc

PACKAGE = Path(blcalc.__file__).parent


def defined_private_names(tree: ast.Module):
    """(name, defining statement) for the module-level ``_name`` bindings."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
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


def test_private_names_are_read():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    statements = [
        (node, read_names(node)) for tree in trees.values() for node in tree.body
    ]
    dead = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, definition in defined_private_names(tree)
        if not any(
            node is not definition and name in reads for node, reads in statements
        )
    ]
    assert dead == []
