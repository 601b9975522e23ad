"""Static checks on how the strokesurf modules use each other."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import strokesurf
from strokesurf import mesh_ops
from strokesurf.pipeline import PipelineOptions, run_pipeline
from strokesurf.synth_eval import SyntheticSpec, generate

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


def _python_tables(mesh):
    """The names of a mesh's attributes that are dicts or sets."""
    return sorted(name for name, value in vars(mesh).items()
                  if isinstance(value, (dict, set)))


def test_the_mesh_keeps_no_python_table():
    """The triangle table lives in arrays only: after a surfacing with
    creases, hole filling and smoothing, and after an OBJ's arrays are
    wrapped, no attribute of the SurfaceMesh is a dict or a set, so no
    Python-side copy of the table comes back unnoticed."""
    drawing, _ = generate(SyntheticSpec(
        surface="cube", pattern="parallel", strokes=6, width=0.18,
        spacing=0.07, noise=0.25 * 0.18, normal_noise_deg=6.0, seed=115))
    mesh, _ = run_pipeline(drawing, PipelineOptions(
        preserve_creases=True, close_holes_max_sides=8, smooth_iterations=1))
    assert mesh.active_count() > 0
    assert _python_tables(mesh) == []
    wrapped = mesh_ops.mesh_from_arrays(mesh.positions,
                                        mesh.triangle_array()[1])
    assert wrapped.active_count() == mesh.active_count()
    assert _python_tables(wrapped) == []


def test_the_check_sees_python_tables():
    mesh = mesh_ops.mesh_from_arrays([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]],
                                     [[0, 1, 2]])
    mesh.keys, mesh.seen, mesh.rows = {(0, 1, 2): 0}, {0}, [0]
    assert _python_tables(mesh) == ["keys", "seen"]


def _import_time_modules(tree):
    """(line, module) of every import that runs when the module is
    imported: any import outside a function body, class bodies and
    module-level branches included."""
    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                yield from ((child.lineno, a.name) for a in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                yield child.lineno, child.module
            yield from visit(child)
    yield from visit(tree)


def test_no_module_imports_scipy_at_import_time():
    """Surfacing needs no scipy (geometry.pairs_within is its one pair
    search), and loading scipy.spatial costs more than a surfacing of a
    benchmark drawing. Only code that evaluates a mesh imports it, inside
    a function."""
    assert [(path.name, *use) for path in SOURCES
            for use in _import_time_modules(ast.parse(
                path.read_text(encoding="utf-8")))
            if use[1].split(".")[0] == "scipy"] == []


def test_the_check_sees_scipy_imports():
    tree = ast.parse("import scipy.spatial\n"
                     "from scipy import sparse\n"
                     "import scipyx, numpy as np\n"
                     "from . import geometry\n"
                     "try:\n"
                     "    import scipy as sp\n"
                     "except ImportError:\n"
                     "    sp = None\n"
                     "class Index:\n"
                     "    from scipy.spatial import cKDTree\n"
                     "    def tree(self, points):\n"
                     "        from scipy.spatial import cKDTree\n"
                     "        return cKDTree(points)\n")
    assert list(_import_time_modules(tree)) == [
        (1, "scipy.spatial"), (2, "scipy"), (3, "scipyx"), (3, "numpy"),
        (6, "scipy"), (10, "scipy.spatial")]


SURFACE_WITHOUT_SCIPY = """
import sys
import strokesurf
from strokesurf.cli import cli_main
drawing, _ = strokesurf.generate(strokesurf.SyntheticSpec(
    surface="cube", pattern="parallel", strokes=6, width=0.18,
    spacing=0.07, noise=0.25 * 0.18, normal_noise_deg=6.0, seed=115))
strokesurf.save_drawing(drawing, sys.argv[1] + "/drawing.json")
code = cli_main(["--input", sys.argv[1] + "/drawing.json",
                 "--output", sys.argv[1] + "/out.obj",
                 "--report", sys.argv[1] + "/report.json",
                 "--preserve-creases", "--close-holes", "8", "--smooth", "3"])
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_surfacing_loads_no_scipy(tmp_path):
    """In a fresh interpreter, importing the package, generating a
    drawing and surfacing it through the CLI with every optional stage
    (creases, hole filling, smoothing) loads no scipy module."""
    done = subprocess.run(
        [sys.executable, "-c", SURFACE_WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True, text=True, check=True,
        cwd=Path(strokesurf.__file__).parents[1])
    assert done.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out.obj").stat().st_size > 0
