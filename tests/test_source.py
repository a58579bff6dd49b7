"""Static checks on the package source, with the standard library's ``ast``.

Every name a module imports is used in that module (``__init__.py`` only
re-exports, and ``__future__`` imports switch features on), and every
private top-level function or class is referenced somewhere in the package
outside its own definition, so a change that leaves an import or a helper
behind fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dominia"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}


def _used(tree) -> set:
    """Names read in ``tree``, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported(tree):
    """Each name an import binds in ``tree``, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


@pytest.mark.parametrize("name", [name for name in TREES if name != "__init__.py"])
def test_every_import_is_used(name):
    tree = TREES[name]
    used = _used(tree)
    assert [(bound, line) for bound, line in _imported(tree) if bound not in used] == []


def test_every_private_top_level_definition_is_referenced():
    unused = []
    for name, tree in TREES.items():
        elsewhere = set().union(*(_used(t) for n, t in TREES.items() if n != name))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                # in its own module, only a reference outside its own body counts
                rest = set().union(*(_used(other) for other in tree.body if other is not node))
                if node.name not in elsewhere | rest:
                    unused.append(f"{name}:{node.lineno} {node.name}")
    assert unused == []
