"""Static checks on how the strokesurf modules use each other."""

import ast
from pathlib import Path

import pytest

import strokesurf

SOURCES = sorted(Path(strokesurf.__file__).parent.glob("*.py"))


def _mesher_names(tree):
    """(line, name) of every name a module takes from mesher: imported
    from it, or read as an attribute of a name bound to the module."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("mesher", "strokesurf.mesher"):
                yield from ((node.lineno, a.name) for a in node.names)
            elif node.module in (None, "strokesurf"):
                aliases |= {a.asname or a.name for a in node.names
                            if a.name == "mesher"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.name == "strokesurf.mesher" and a.asname}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield node.lineno, node.attr


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "mesher.py"],
                         ids=lambda p: p.name)
def test_edge_key_format_stays_in_mesher(path):
    """Edge keys are made only by mesher.edge_index: no other module
    takes edge_keys or a private name from mesher. Readers use the
    EdgeIndex that edge_index or SurfaceMesh.edges() returns."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    taken = [(line, name) for line, name in _mesher_names(tree)
             if name == "edge_keys" or name.startswith("_")]
    assert taken == []


def test_the_check_sees_mesher_imports():
    tree = ast.parse("from .mesher import edge_keys, split_runs\n"
                     "from . import mesher as m\n"
                     "m._private(1)\n")
    assert sorted(_mesher_names(tree)) == [
        (1, "edge_keys"), (1, "split_runs"), (3, "_private")]


def _add_triangle_uses(tree):
    """(line, where) of every add_triangle attribute in a module, where
    being the dotted name of the class and function around it, or
    "<module>" outside any."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from visit(child, where + [child.name])
                continue
            if (isinstance(child, ast.Attribute)
                    and child.attr == "add_triangle"):
                yield child.lineno, ".".join(where) or "<module>"
            yield from visit(child, where)
    yield from visit(tree, [])


def test_only_add_triangles_calls_add_triangle():
    """SurfaceMesh.add_triangles applies the insert rule (repeated
    corner, area floor, duplicate) and add_triangle only appends what it
    accepted, so no other code in the package may call add_triangle."""
    uses = {(path.name, where) for path in SOURCES
            for _, where in _add_triangle_uses(
                ast.parse(path.read_text(encoding="utf-8")))}
    assert uses == {("mesher.py", "SurfaceMesh.add_triangles")}


def test_the_check_sees_add_triangle_uses():
    tree = ast.parse("mesh.add_triangle(0, 1, 2)\n"
                     "class Mesh:\n"
                     "    def fill(self):\n"
                     "        insert = self.add_triangle\n"
                     "        return [insert(*t) for t in self.rows]\n"
                     "def emit(mesh):\n"
                     "    return mesh.add_triangles([(0, 1, 2)])\n")
    assert list(_add_triangle_uses(tree)) == [
        (1, "<module>"), (4, "Mesh.fill")]
