"""No leftovers in the package: an import that nothing reads, or a private
module-level name that nothing references, is code a change left behind.

The check reads the source of ``src/quasilines`` with ``ast`` and imports
nothing.  ``__init__.py`` is left out, because its imports are the public
re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quasilines"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}


def _imported(tree):
    """Names that the module's import statements bind, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def _referenced(tree):
    """Names read in the module: loaded names, attributes, and names that
    an import statement pulls from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _module_level_private(tree):
    """Private names (one leading underscore) bound at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert _imported(tree) - loaded == set()


def test_every_private_name_is_referenced_in_the_package():
    referenced = set().union(*map(_referenced, TREES.values()))
    unused = {(module, name) for module, tree in TREES.items()
              for name in _module_level_private(tree) - referenced}
    assert unused == set()
