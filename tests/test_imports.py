"""Every module-level import of the package is read in its own module,
and every definition of the package is read by the package, the
benchmark or the measurement tools.

Checked on the syntax tree: a name bound by a module-level ``import`` or
``from ... import`` must appear as a name somewhere in the module.  The
names a module lists in ``__all__`` (the package's re-exports) and
``from __future__`` imports are exempt.

A module-level function or class, or a method that is not a dunder, must
have its name read somewhere in ``src/swdual``, ``perfbench/`` or
``tools/`` outside its own definition: as a name, an attribute, an
imported name or a string (``perfbench/tracing.py`` names the traced
functions in strings).  Code that only tests call belongs under
``tests/``.  The check goes by name alone, so a name that something else
of the same name reads passes.
"""

import ast
import collections
import pathlib

import pytest

import swdual

MODULES = sorted(pathlib.Path(swdual.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
READERS = sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("tools/*.py"))

# public entry points that only users and tests call so far, each with its
# reason to stay
ENTRY_POINTS = {
    "extend_with_prescription": "an extension through prescribed block-row lines; "
                                "no subcommand reads it yet",
    "gibson_decompose": "coefficients in Gibson's basis; no subcommand reads it yet",
    "half_commutant_dimension": "the half algebra's commutant dimension, which "
                                "verify_half does not compute yet",
}


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


def _reads(node):
    """How often each name is read under ``node``."""
    names = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.split(".")[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names[sub.value] += 1
    return names


def _definitions(tree):
    """Module-level functions and classes, and the methods of the classes
    that are not dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def unread_definitions(package, readers=()):
    """(module, name) of every definition of ``package``, a dict from
    module names to sources, whose name neither ``package`` nor the
    ``readers`` sources read outside the definition itself."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    reads = sum((_reads(tree) for tree in trees.values()), collections.Counter())
    for source in readers:
        reads += _reads(ast.parse(source))
    return [(module, node.name) for module, tree in trees.items()
            for node in _definitions(tree)
            if reads[node.name] == _reads(node)[node.name]]


def test_the_check_finds_an_unread_definition():
    package = {
        "a": (
            "import b\n"
            "def used():\n    return b.helper() + b.Box().size()\n"
            "def recursive(k):\n    return recursive(k - 1) if k else 0\n"
            "class Box:\n    def size(self):\n        return 1\n"
            "    def spare(self):\n        return self.size()\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "b": "from a import Box\ndef helper():\n    return 1\ndef traced():\n    return 2\n",
    }
    traced = "TRACED = [('b', 'traced')]\nimport a\na.used()\n"
    assert unread_definitions(package, [traced]) == [("a", "recursive"), ("a", "spare")]
    assert ("b", "traced") in unread_definitions(package)


def test_every_definition_is_read_outside_the_tests():
    package = {path.stem: path.read_text() for path in MODULES}
    unread = unread_definitions(package, [path.read_text() for path in READERS])
    assert READERS
    assert [item for item in unread if item[1] not in ENTRY_POINTS] == []
    defined = {node.name for source in package.values() for node in _definitions(ast.parse(source))}
    assert set(ENTRY_POINTS) <= defined
