"""The package exposes only what it uses.

Every public function or method defined in ``src/gmalg`` must be referenced
by name somewhere in ``src/gmalg`` or ``perfbench`` other than inside its
own definition.  A reference is a name, an attribute, an imported name or a
string naming it (``perfbench/tracing.py`` names what it wraps in strings).
Dunders and the names of ``gmalg.__all__``, the documented library API, are
exempt.  A helper that only tests reach belongs in the tests.
"""

import ast
from pathlib import Path

import gmalg

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gmalg").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def _public_defs(tree):
    """The public module-level functions and methods of module-level classes."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for f in members:
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and not f.name.startswith("_"):
                yield f.name


def _is_dotted_name(value):
    return isinstance(value, str) and all(part.isidentifier() for part in value.split("."))


def _referenced_names(tree):
    """Every name the tree refers to, leaving out a function's references to
    itself inside its own body."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and _is_dotted_name(node.value):
            name = node.value.rsplit(".", 1)[-1]
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_public_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    referenced = set().union(*(_referenced_names(t) for t in trees.values()))
    unused = sorted(
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _public_defs(trees[path])
        if name not in referenced
        and name not in gmalg.__all__
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert unused == []


def test_the_scan_sees_a_definition_nobody_calls():
    tree = ast.parse(
        "class C:\n"
        "    def used(self):\n"
        "        return self.unused_by_others()\n"
        "    def unused_by_others(self):\n"
        "        return self.unused_by_others()\n"
        "def lonely():\n"
        "    return lonely()\n"
    )
    refs = _referenced_names(tree)
    assert sorted(name for name in _public_defs(tree) if name not in refs) == ["lonely", "used"]
