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


def _attribute_uses(tree, attr):
    """(line, where) of every attribute named attr in a module, where
    being the dotted name of the class and function around it, or
    "<module>" outside any."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from visit(child, where + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                yield child.lineno, ".".join(where) or "<module>"
            yield from visit(child, where)
    yield from visit(tree, [])


def test_only_add_triangles_calls_add_triangle():
    """SurfaceMesh.add_triangles applies the insert rule (repeated
    corner, area floor, duplicate) and add_triangle only appends what it
    accepted, so no other code in the package may call add_triangle."""
    uses = {(path.name, where) for path in SOURCES
            for _, where in _attribute_uses(
                ast.parse(path.read_text(encoding="utf-8")), "add_triangle")}
    assert uses == {("mesher.py", "SurfaceMesh.add_triangles")}


def test_the_check_sees_add_triangle_uses():
    tree = ast.parse("mesh.add_triangle(0, 1, 2)\n"
                     "class Mesh:\n"
                     "    def fill(self):\n"
                     "        insert = self.add_triangle\n"
                     "        return [insert(*t) for t in self.rows]\n"
                     "def emit(mesh):\n"
                     "    return mesh.add_triangles([(0, 1, 2)])\n")
    assert list(_attribute_uses(tree, "add_triangle")) == [
        (1, "<module>"), (4, "Mesh.fill")]


def _proof_uses(path):
    """(file, attr, where) of every prove and _proof attribute in a
    module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {(path.name, attr, where) for attr in ("prove", "_proof")
            for _, where in _attribute_uses(tree, attr)}


def test_only_audit_manifold_records_a_proof():
    """A SurfaceMesh's proof says what the last audit of its rows found
    and what changed since (mesher docstring), and every later audit
    trusts it. So mesh_ops.audit_manifold is the one caller of
    SurfaceMesh.prove, and only SurfaceMesh's own methods touch
    _proof."""
    uses = set().union(*map(_proof_uses, SOURCES))
    assert {u for u in uses if u[1] == "prove"} == {
        ("mesh_ops.py", "prove", "audit_manifold")}
    assert {(name, where.split(".")[0]) for name, attr, where in uses
            if attr == "_proof"} == {("mesher.py", "SurfaceMesh")}


def test_the_check_sees_proof_uses(tmp_path):
    path = tmp_path / "fake.py"
    path.write_text("class SurfaceMesh:\n"
                    "    def remove(self, tids):\n"
                    "        self._proof[2].append(tids)\n"
                    "def audit(mesh):\n"
                    "    mesh.prove([])\n"
                    "mesh._proof = None\n"
                    "record = mesh.prove\n")
    assert _proof_uses(path) == {
        ("fake.py", "_proof", "SurfaceMesh.remove"),
        ("fake.py", "prove", "audit"), ("fake.py", "_proof", "<module>"),
        ("fake.py", "prove", "<module>")}


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
         ast.DictComp, ast.GeneratorExp)


def _looped_inserts(tree):
    """(line, where) of every add_triangles call inside a loop or a
    comprehension of its function, where as in _attribute_uses."""
    def visit(node, where, looped):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                yield from visit(child, where + [name], False)
                continue
            if (looped and isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "add_triangles"):
                yield child.lineno, ".".join(where) or "<module>"
            yield from visit(child, where, looped or isinstance(child, LOOPS))
    yield from visit(tree, [], False)


def test_no_insert_in_a_loop():
    """add_triangles decides every row of a call at once, so each pass
    gathers its rows and inserts them with one call: no add_triangles
    call in the package sits inside a loop or a comprehension."""
    assert [(path.name, *use) for path in SOURCES
            for use in _looped_inserts(ast.parse(
                path.read_text(encoding="utf-8")))] == []


def test_the_check_sees_looped_inserts():
    tree = ast.parse("for fill in fills:\n"
                     "    mesh.add_triangles(fill)\n"
                     "def close(mesh, fills):\n"
                     "    while fills:\n"
                     "        mesh.add_triangles(fills.pop())\n"
                     "    return [mesh.add_triangles(f) for f in fills]\n"
                     "def fill(mesh, rows):\n"
                     "    for _ in rows:\n"
                     "        def insert():\n"
                     "            return mesh.add_triangles(rows)\n"
                     "    return mesh.add_triangles(rows)\n")
    assert list(_looped_inserts(tree)) == [
        (2, "<module>"), (5, "close"), (6, "close")]
