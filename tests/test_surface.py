"""The package exposes only what it uses.

Every public function or method defined in ``src/gmalg`` must be referenced
by name somewhere in ``src/gmalg`` or ``perfbench`` other than inside its
own definition.  A function is referenced by a name, an attribute, an
imported name or a string naming it (``perfbench/tracing.py`` names what it
wraps in strings); a method only by an attribute or a string, since a bare
name never reaches a method and a local variable of the same name would
hide an unused one.  Dunders and the names of ``gmalg.__all__``, the
documented library API, are exempt.  A helper that only tests reach belongs
in the tests.
"""

import ast
from pathlib import Path

import gmalg

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gmalg").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def _public_defs(tree):
    """(name, is a method) for the public module-level functions and the
    methods of module-level classes."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for f in members:
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and not f.name.startswith("_"):
                yield f.name, f is not node


def _is_dotted_name(value):
    return isinstance(value, str) and all(part.isidentifier() for part in value.split("."))


def _referenced_names(tree):
    """(bare, reached): the names the tree refers to as a name or an
    imported name, and those it refers to as an attribute or in a string,
    leaving out a function's references to itself inside its own body."""
    bare, reached = set(), set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        name, found = None, reached
        if isinstance(node, ast.Name):
            name, found = node.id, bare
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name, found = node.name.rsplit(".", 1)[-1], bare
        elif isinstance(node, ast.Constant) and _is_dotted_name(node.value):
            name = node.value.rsplit(".", 1)[-1]
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return bare, reached


def _unused(tree, bare, reached):
    """The public definitions of tree that no reference reaches."""
    return sorted(
        name
        for name, method in _public_defs(tree)
        if name not in reached and (method or name not in bare)
    )


def test_every_public_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    bare, reached = (set().union(*names) for names in zip(*map(_referenced_names, trees.values())))
    unused = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _unused(trees[path], bare, reached)
        if name not in gmalg.__all__ and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []


def test_the_scan_sees_a_definition_nobody_calls():
    """A method whose name only a local variable bears is unused; a
    function called by its bare name is used."""
    tree = ast.parse(
        "class C:\n"
        "    def used(self):\n"
        "        return self.unused_by_others()\n"
        "    def unused_by_others(self):\n"
        "        return self.unused_by_others()\n"
        "    def shadowed(self):\n"
        "        return helper()\n"
        "def lonely():\n"
        "    return lonely()\n"
        "def helper():\n"
        "    shadowed = 1\n"
        "    return shadowed\n"
    )
    assert _unused(tree, *_referenced_names(tree)) == ["lonely", "shadowed", "used"]
