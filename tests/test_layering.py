"""The package's module layers: a module imports, at its top level, only
modules of lower layers.  Imports inside functions are exempt; they serve
pretty-printing and the late bridges between layers."""

import ast
from pathlib import Path

import blcalc

# core; then the layers over core; then the layers that combine those; then
# the package entry points
LAYERS = (
    ("core",),
    ("decompose", "maps", "classes"),
    ("dsl", "amalgam", "classify", "formulas"),
    ("cli", "__init__"),
)
RANK = {name: i for i, layer in enumerate(LAYERS) for name in layer}
PACKAGE = Path(blcalc.__file__).parent


def top_level_imports(path: Path) -> set:
    """Sibling modules named by the top-level relative imports of a file."""
    out = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(RANK)


def test_modules_import_only_lower_layers():
    for path in sorted(PACKAGE.glob("*.py")):
        for dep in top_level_imports(path):
            assert RANK[dep] < RANK[path.stem], f"{path.stem} imports {dep}"



def test_structural_modules_import_no_element_names():
    """``maps`` and ``decompose`` work on component positions and tables,
    and ``formulas`` on the indices of ``core.RunForm``, naming a
    countermodel's values by ``core.element_at``; none of them imports the
    element model, at its top level or inside a function."""
    for stem in ("maps", "decompose", "formulas"):
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text())
        names = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not names & {"Element", "TOP", "element", "enumerate_elements"}, stem


def test_package_root_imports_nothing():
    """The package root holds only ``__version__``; every name is imported
    from its module, so no re-export counts as a read of a name that
    nothing else reads."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(tree))
