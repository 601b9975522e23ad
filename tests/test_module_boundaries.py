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
