"""Every module-level import of the package is read in its own module.

Checked on the syntax tree: a name bound by a module-level ``import`` or
``from ... import`` must appear as a name somewhere in the module.  The
names a module lists in ``__all__`` (the package's re-exports) and
``from __future__`` imports are exempt.
"""

import ast
import pathlib

import pytest

import swdual

MODULES = sorted(pathlib.Path(swdual.__file__).parent.glob("*.py"))


def unused_imports(source):
    """The module-level imported names of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read and name not in exported]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path as osp\nfrom . import indices as ix\n"
        "from .rings import Ring, clear_denominators\n"
        "__all__ = ['Ring']\n"
        "def f():\n    return ix.all_indices(2, 1), osp\n"
    )
    assert unused_imports(source) == ["os", "clear_denominators"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []
