"""Mesh-level operations: audits, orientation, boundary loops, hole
filling, smoothing, and the OBJ round trip."""

import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest

from strokesurf import consolidate, mesh_ops, mesher
from strokesurf.mesh_ops import mesh_from_arrays

import oracles


def grid_mesh(nx=4, ny=4, jitter=None):
    """Flat triangulated grid in z=0, source normals +z."""
    xs, ys = np.meshgrid(np.arange(nx, dtype=float),
                         np.arange(ny, dtype=float))
    pos = np.stack([xs.ravel(), ys.ravel(), np.zeros(nx * ny)], axis=1)
    if jitter is not None:
        pos = pos + jitter
    faces = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            a = j * nx + i
            b = a + 1
            c = a + nx
            d = c + 1
            faces.append((a, b, d))
            faces.append((a, d, c))
    normals = np.tile([0.0, 0.0, 1.0], (nx * ny, 1))
    return mesh_from_arrays(pos, faces, normals)


def octahedron():
    pos = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0],
                    [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0]])
    faces = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
             (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]
    normals = pos / np.linalg.norm(pos, axis=1, keepdims=True)
    return mesh_from_arrays(pos, faces, normals)


def moebius_band(close=True):
    """Six-rung band, rails at radii 1.2 / 0.8; the closing quad swaps
    rails, which is the half twist. Returns (mesh, closing tids)."""
    rungs = 6
    pos = []
    for i in range(rungs):
        t = 2 * math.pi * i / rungs
        pos.append([1.2 * math.cos(t), 1.2 * math.sin(t), 0.0])
        pos.append([0.8 * math.cos(t), 0.8 * math.sin(t), 0.0])
    faces = []
    for i in range(rungs - 1):
        a0, b0, a1, b1 = 2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3
        faces.append((a0, b0, b1))
        faces.append((a0, b1, a1))
    mesh = mesh_from_arrays(np.asarray(pos), faces)
    closing = []
    if close:
        a5, b5, a0, b0 = 10, 11, 0, 1
        closing.append(mesh.add_triangle(a5, b5, a0))
        closing.append(mesh.add_triangle(a5, a0, b0))
    return mesh, closing


def face_normals(mesh):
    out = {}
    for t in mesh.active_ids():
        a, b, c = mesh.tri_verts[t]
        n = np.cross(mesh.positions[b] - mesh.positions[a],
                     mesh.positions[c] - mesh.positions[a])
        out[t] = n / np.linalg.norm(n)
    return out


# ---------------------------------------------------------------------------
# audits


def test_audit_clean_grid():
    mesh = grid_mesh()
    assert mesh_ops.audit_manifold(mesh) == ([], [])


def test_audit_overfull_edge():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, 1, 0],
                    [0.5, -1, 0], [0.5, 0.5, 1]])
    mesh = mesh_from_arrays(pos, [(0, 1, 2), (1, 0, 3), (0, 1, 4)])
    bad_edges, bad_vertices = mesh_ops.audit_manifold(mesh)
    assert bad_edges == [(0, 1)]
    # the three fans at 0 and 1 are edge-connected through (0, 1)
    assert bad_vertices == []


def test_audit_bowtie_vertex():
    pos = np.array([[0.0, 0, 0], [1.0, 1, 0], [1.0, -1, 0],
                    [-1.0, 1, 0], [-1.0, -1, 0]])
    mesh = mesh_from_arrays(pos, [(0, 1, 2), (0, 3, 4)])
    bad_edges, bad_vertices = mesh_ops.audit_manifold(mesh)
    assert bad_edges == []
    assert bad_vertices == [0]
    assert mesh_ops.vertex_fan_groups(mesh, 0) == [[0], [1]]


# ---------------------------------------------------------------------------
# orientation


def test_orient_all_repairs_flipped_triangle():
    mesh = grid_mesh()
    mesh.flip(3)
    assert mesh_ops.orient_all(mesh) == []
    for n in face_normals(mesh).values():
        assert n[2] > 0.99


def test_orient_all_aligns_with_source_normals():
    mesh = grid_mesh()
    for t in mesh.active_ids():
        mesh.flip(t)          # consistent but facing -z
    assert mesh_ops.orient_all(mesh) == []
    for n in face_normals(mesh).values():
        assert n[2] > 0.99


def test_moebius_band_is_nonorientable():
    mesh, _ = moebius_band()
    bad = mesh_ops.orient_all(mesh)
    assert len(bad) == 1
    assert sorted(bad[0]) == sorted(mesh.active_ids())


def test_break_nonorientable_removes_minimum():
    mesh, _ = moebius_band()
    removed = mesh_ops.break_nonorientable(mesh)
    assert len(removed) == 1
    assert mesh_ops.orient_all(mesh) == []


def test_break_nonorientable_with_frozen_still_repairs():
    # the conflict surfaces wherever the traversal fronts collide;
    # frozen only biases the pick at that edge, so repair must succeed
    # even when the preference cannot be honored
    mesh, closing = moebius_band()
    frozen = frozenset(t for t in mesh.active_ids() if t not in closing)
    removed = mesh_ops.break_nonorientable(mesh, frozen=frozen)
    assert len(removed) == 1
    assert mesh_ops.orient_all(mesh) == []


def test_resolve_moebius_cuts_inverted_side():
    mesh, closing = moebius_band()
    removed = mesh_ops.resolve_moebius(mesh, closing)
    # the closing strip touches rung 5 aligned and rung 0 inverted;
    # inverted loses the tie
    assert removed == [closing[1]]
    assert mesh.is_active(closing[0])
    assert mesh_ops.orient_all(mesh) == []


def test_resolve_moebius_keeps_flippable_strip():
    # a strip that is consistently inverted against the surface is left
    # for orient_all to flip, not cut
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, -1, 0]])
    mesh = mesh_from_arrays(pos, [(0, 1, 2)])
    t = mesh.add_triangle(0, 1, 3)   # same directed (0, 1)
    assert mesh_ops.resolve_moebius(mesh, [t]) == []
    assert mesh_ops.orient_all(mesh) == []


# ---------------------------------------------------------------------------
# boundary loops and chains


def test_boundary_loop_follows_winding():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]])
    mesh = mesh_from_arrays(pos, [(0, 1, 2), (0, 2, 3)])
    assert mesh_ops.boundary_loops(mesh) == [[0, 1, 2, 3]]


def test_boundary_loops_sorted_and_rotated():
    mesh = grid_mesh(5, 5)
    (loop,) = mesh_ops.boundary_loops(mesh)
    assert loop[0] == min(loop) == 0
    assert len(loop) == 16
    assert mesh_ops.boundary_loops(octahedron()) == []


def test_boundary_chain_set(config):
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]])
    mesh = mesh_from_arrays(
        pos, [(0, 1, 2), (0, 2, 3)],
        normals=np.tile([0.0, 0.0, 1.0], (4, 1)))
    cs = mesh_ops.boundary_chain_set(mesh, config, with_dmax=True)
    assert list(cs.offsets) == [0, 4]
    assert list(cs.cyclic) == [True]
    assert list(cs.component) == [0]
    assert list(cs.gid) == [0, 1, 2, 3]
    # mean length of the two non-structural edges: diagonal and (0, 3)
    np.testing.assert_allclose(cs.dmax, (1 + math.sqrt(2)) / 2)
    centroid = pos.mean(axis=0)
    for k in range(4):
        outward = cs.pos[k] - centroid
        assert float(np.dot(cs.bin[k], outward)) > 0
        assert abs(float(np.dot(cs.bin[k], cs.tan[k]))) < 1e-6


# ---------------------------------------------------------------------------
# hole filling


def test_close_small_holes_triangle():
    mesh = octahedron()
    mesh.remove(0)
    assert len(mesh_ops.boundary_loops(mesh)) == 1
    added = mesh_ops.close_small_holes(mesh, _cfg())
    assert added == 1
    assert mesh_ops.boundary_loops(mesh) == []
    assert mesh_ops.audit_manifold(mesh) == ([], [])


def test_close_small_holes_quad():
    mesh = octahedron()
    mesh.remove(0)
    mesh.remove(1)            # faces share edge (2, 4): 4-sided hole
    (loop,) = mesh_ops.boundary_loops(mesh)
    assert len(loop) == 4
    added = mesh_ops.close_small_holes(mesh, _cfg())
    assert added == 2
    assert mesh_ops.boundary_loops(mesh) == []
    assert mesh_ops.audit_manifold(mesh) == ([], [])


def test_quad_fill_splits_as_its_old_rule():
    """Hole closing splits quads by strip meshing's rule. Outside that
    rule's 1e-12 tie band it picks what hole closing's own exact sort
    picked, and on planar symmetric quads, whose two splits tie
    exactly, both fall to the smaller sorted diagonal. Every loop order
    of each quad is tried."""
    rng = np.random.default_rng(31)
    quads = [
        np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),  # square
        np.array([[0.0, 0, 0], [2, 0, 0], [2, 1, 0], [0, 1, 0]]),
        np.array([[0.0, 0, 0], [3, 0, 0], [2, 1, 0], [1, 1, 0]]),  # trapezoid
        np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 1], [0, 1, 1]]),  # tilted
    ]
    quads += list(rng.normal(size=(200, 4, 3)))
    planar = rng.normal(size=(100, 4, 3))
    planar[:, :, 2] = 0.0
    quads += list(planar)
    loops = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
    loops += [lp[::-1] for lp in loops]
    for pts in quads:
        fills = mesh_ops._small_fills(SimpleNamespace(positions=pts), loops,
                                      None)
        assert fills == [list(oracles.quad_fill(pts, loop))
                         for loop in loops]


def twin_rhombus_holes():
    """Two sheets that share only the vertices a = 0 and c = 1: each is
    an octagon, radius 4, with a rhombus hole (a, c at x = -1 and 1, the
    other corners 2 off the axis), one in the plane z = 0 and one in
    y = 0. Both holes split along their short diagonal (a, c)."""
    ang = np.radians(45.0 * np.arange(8))
    plane = np.concatenate([[[-1.0, 0], [1, 0], [0, 2], [0, -2]],
                            np.stack([4 * np.cos(ang), 4 * np.sin(ang)], 1)])
    zero = np.zeros((len(plane), 1))
    sheet_a = np.hstack([plane, zero])
    sheet_b = np.hstack([plane[:, :1], zero, plane[:, 1:]])
    pos = np.concatenate([sheet_a, sheet_b[2:]])
    faces = []
    for base in (0, 10):
        ring = [1, base + 2, 0, base + 3]           # c, top, a, bottom
        outer = [base + 4 + k for k in range(8)]
        for k in range(4):
            i, j = ring[k], ring[(k + 1) % 4]
            o0, o1, o2 = outer[2 * k], outer[2 * k + 1], outer[(2 * k + 2) % 8]
            faces += [(i, o0, o1), (i, o1, j), (j, o1, o2)]
    return mesh_from_arrays(pos, faces)


def test_close_small_holes_counts_fills_earlier_in_the_round():
    """Two 4-loops in one round share their split diagonal (a, c): the
    first fill puts two triangles on it, so the second loop must see
    them and stay open, or (a, c) would carry four."""
    mesh = twin_rhombus_holes()
    loops = [lp for lp in mesh_ops.boundary_loops(mesh) if len(lp) == 4]
    assert len(loops) == 2
    for fill in mesh_ops._small_fills(mesh, loops, None):
        assert all({0, 1} <= set(tri) for tri in fill)
    assert mesh_ops.audit_manifold(mesh)[0] == []
    assert mesh_ops.close_small_holes(mesh, _cfg()) == 2
    assert mesh_ops.audit_manifold(mesh)[0] == []
    assert len(mesh.edge_map()[(0, 1)]) == 2
    assert sum(len(lp) == 4 for lp in mesh_ops.boundary_loops(mesh)) == 1


def annulus(inner=5, outer=10):
    """A flat ring between a regular inner polygon, its hole, and an
    outer one with twice as many sides, wound consistently."""
    t_in = 2 * np.pi * np.arange(inner) / inner
    t_out = 2 * np.pi * np.arange(outer) / outer
    pos = np.concatenate([
        np.stack([np.cos(t_in), np.sin(t_in), np.zeros(inner)], 1),
        np.stack([2 * np.cos(t_out), 2 * np.sin(t_out), np.zeros(outer)], 1)])
    i = np.arange(inner)
    o = inner + np.arange(outer)
    faces = [(i[k // 2], o[k], o[(k + 1) % outer]) for k in range(outer)]
    faces += [(i[j], o[(2 * j + 2) % outer], i[(j + 1) % inner])
              for j in range(inner)]
    mesh = mesh_from_arrays(pos, faces)
    assert mesh_ops.orient_all(mesh, align=False) == []
    return mesh


def test_close_small_holes_fills_triangles_and_quads_only():
    """A pentagonal hole is left to hole filling."""
    mesh = annulus()
    assert sorted(map(len, mesh_ops.boundary_loops(mesh))) == [5, 10]
    assert mesh_ops.close_small_holes(mesh, _cfg()) == 0
    assert mesh.active_count() == 15
    assert mesh_ops.fill_all_holes(mesh, _cfg(), max_sides=5) == 3
    assert mesh_ops.audit_manifold(mesh) == ([], [])


def test_close_small_holes_pillow_guard():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]])
    mesh = mesh_from_arrays(pos, [(0, 1, 2), (0, 2, 3)])
    assert mesh_ops.close_small_holes(mesh, _cfg()) == 0
    assert mesh.active_count() == 2


def test_fill_hole_pentagon():
    mesh = octahedron()
    for t in (0, 1, 2):       # the hole walks over the apex
        mesh.remove(t)
    (loop,) = mesh_ops.boundary_loops(mesh)
    assert len(loop) == 5
    assert mesh_ops.fill_all_holes(mesh, _cfg(), max_sides=5) == 3
    assert mesh_ops.boundary_loops(mesh) == []
    assert mesh_ops.audit_manifold(mesh) == ([], [])
    (stats,) = mesh_ops.component_stats(mesh)
    assert stats["euler"] == 2 and stats["closed"]


def test_path_edge_fraction_equals_the_pairwise_reference():
    """All paths at once against one lookup per pair: ids off the
    vertex table (-1 and past the end), repeats, removed triangles'
    edges, and paths of zero or one id."""
    rng = np.random.default_rng(8)
    mesh = grid_mesh(5, 5)
    mesh.remove(rng.choice(len(mesh.tri_verts), size=10, replace=False))
    for _ in range(20):
        paths = [rng.integers(-1, 30, size=int(rng.integers(0, 12)))
                 for _ in range(int(rng.integers(0, 6)))]
        # 0 * 25 + 27 is the key of the edge (1, 2)
        paths += [[3, 3, 4], [7], [0, 27]]
        assert (mesh_ops.path_edge_fraction(mesh, paths)
                == oracles.path_edge_fraction(mesh, paths))
    assert mesh_ops.path_edge_fraction(mesh, []) == 0.0
    assert mesh_ops.path_edge_fraction(mesh, [[5], []]) == 0.0


def test_fill_all_holes_respects_max_sides():
    mesh = octahedron()
    for t in (0, 1, 2):
        mesh.remove(t)
    assert mesh_ops.fill_all_holes(mesh, _cfg(), max_sides=4) == 0
    assert mesh_ops.fill_all_holes(mesh, _cfg(), max_sides=10**6) == 3
    assert mesh_ops.boundary_loops(mesh) == []


def holed_manifolds(rng):
    """A jittered grid, an annulus and an octahedron with random faces
    removed, then passed through the repair net after which the pipeline
    fills holes: manifold meshes with holes of every size."""
    meshes = [grid_mesh(7, 6, jitter=rng.normal(scale=0.15, size=(42, 3))),
              annulus(), octahedron()]
    for mesh in meshes:
        t = len(mesh.tri_verts)
        mesh.remove(rng.choice(t, size=int(rng.integers(1, t // 3 + 1)),
                               replace=False))
        consolidate.repair_nonmanifold(mesh)
        assert mesh_ops.audit_manifold(mesh) == ([], [])
    return meshes


def _same_table(mesh, ref):
    return (np.array_equal(mesh.tri_verts, ref.tri_verts)
            and np.array_equal(mesh.tri_state, ref.tri_state)
            and mesh.duplicates_skipped == ref.duplicates_skipped)


@pytest.mark.parametrize("seed", range(10))
def test_one_pass_fillers_match_round_based_references(seed):
    """One pass and one insert leave the triangle table that filling one
    loop at a time, small holes in rounds, leaves on manifold meshes
    (module docstring): small holes then hole filling, and hole filling
    alone. The twin rhombus soup, whose two loops share two vertices,
    fills alike too."""
    rng = np.random.default_rng(seed)
    cfg = _cfg()
    for mesh in holed_manifolds(rng) + [twin_rhombus_holes()]:
        max_sides = int(rng.integers(3, 13))
        alone, ref = copy.deepcopy(mesh), copy.deepcopy(mesh)
        assert (mesh_ops.close_small_holes(mesh, cfg)
                == oracles.close_small_holes(ref, cfg))
        assert _same_table(mesh, ref)
        assert (mesh_ops.fill_all_holes(mesh, cfg, max_sides)
                == oracles.fill_all_holes(ref, cfg, max_sides))
        assert _same_table(mesh, ref)
        ref = copy.deepcopy(alone)
        assert (mesh_ops.fill_all_holes(alone, cfg, max_sides)
                == oracles.fill_all_holes(ref, cfg, max_sides))
        assert _same_table(alone, ref)


def test_holed_manifolds_have_holes_of_every_size():
    sizes = {len(loop) for seed in range(10)
             for mesh in holed_manifolds(np.random.default_rng(seed))
             for loop in mesh_ops.boundary_loops(mesh)}
    assert {3, 4} <= sizes and min(sizes - {3, 4}) <= 12


FILLERS = {
    "close_small_holes": lambda mesh: mesh_ops.close_small_holes(mesh,
                                                                 _cfg()),
    "fill_all_holes": lambda mesh: mesh_ops.fill_all_holes(mesh, _cfg(), 6),
}


@pytest.mark.parametrize("fill", FILLERS.values(), ids=FILLERS.keys())
def test_hole_filling_walks_once_and_inserts_once(fill, monkeypatch):
    """A call walks the boundary once, inserts with at most one
    add_triangles call and builds no edge index after its walk: no fill
    reads the mesh an earlier fill changed. Holes that round-based
    filling closed in two rounds, or one loop at a time: two triangle
    holes of an octahedron, the twin rhombus holes, a grid with a 4- and
    a 6-hole, and a pillow with nothing to fill."""
    events = []

    def traced(name, func):
        def call(*args, **kwargs):
            out = func(*args, **kwargs)
            events.append(name)
            return out
        return call

    monkeypatch.setattr(mesh_ops, "boundary_loops",
                        traced("walk", mesh_ops.boundary_loops))
    monkeypatch.setattr(mesher, "edge_index",
                        traced("index", mesher.edge_index))
    monkeypatch.setattr(mesher.SurfaceMesh, "add_triangles",
                        traced("insert", mesher.SurfaceMesh.add_triangles))
    octa = octahedron()
    octa.remove([0, 6])                 # two holes, no shared vertex
    grid = grid_mesh(7, 4)
    grid.remove([14, 15, 18, 19, 20, 21])
    pillow = mesh_from_arrays(np.eye(3), [(0, 1, 2)])
    for mesh in (octa, twin_rhombus_holes(), grid, pillow):
        events.clear()
        added = fill(mesh)
        assert events.count("walk") == 1
        assert events.count("insert") == (added > 0)
        assert "index" not in events[events.index("walk"):]
    assert added == 0 and mesh_ops.boundary_loops(octa) == []


# ---------------------------------------------------------------------------
# smoothing


def test_laplacian_smooth_moves_interior_only(config):
    rng = np.random.default_rng(3)
    jitter = np.zeros((25, 3))
    jitter[:, :2] = rng.uniform(-0.2, 0.2, (25, 2))
    mesh = grid_mesh(5, 5, jitter=jitter)
    before = mesh.positions.copy()
    (loop,) = mesh_ops.boundary_loops(mesh)
    moved = mesh_ops.laplacian_smooth(mesh, config, iterations=2)
    assert moved > 0
    for g in loop:
        assert np.allclose(mesh.positions[g], before[g])
    interior = sorted(set(range(25)) - set(loop))
    assert any(not np.allclose(mesh.positions[g], before[g])
               for g in interior)
    assert np.allclose(mesh.positions[:, 2], 0.0)


def test_laplacian_smooth_ignores_removed_triangles(config):
    # a removed triangle leaves its edges in the live edge map with
    # empty lists; they must not join the rings of the vertices it used
    rng = np.random.default_rng(3)
    jitter = np.zeros((25, 3))
    jitter[:, :2] = rng.uniform(-0.2, 0.2, (25, 2))
    clean = grid_mesh(5, 5, jitter=jitter)
    mesh = grid_mesh(5, 5, jitter=jitter)
    far = mesh.add_vertices([[2.0, 2.0, 5.0]], [[0.0, 0.0, 1.0]], [1.0],
                            [[0.0, 0.0, 0.0]], [[-1, 25]], 0)[0]
    mesh.remove(mesh.add_triangle(12, 13, far))
    assert mesh_ops.laplacian_smooth(mesh, config, iterations=2) == \
        mesh_ops.laplacian_smooth(clean, config, iterations=2)
    assert np.array_equal(mesh.positions[:25], clean.positions)
    assert np.array_equal(mesh.positions[far], [2.0, 2.0, 5.0])


def test_move_guard_blocks_flips_and_collapses():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, 0.4, 0]])

    def moves(target):
        # guard angle 45 degrees
        mesh = mesh_from_arrays(pos, [(0, 1, 2)])
        moved = mesh_ops._guarded_moves(mesh, np.array([2]),
                                        np.array([target]), _cfg())
        assert np.array_equal(mesh.positions[2], target if moved else pos[2])
        return moved == 1

    assert moves([0.6, 0.5, 0.0])
    # crossing the opposite edge flips the normal
    assert not moves([0.5, -0.4, 0.0])
    # collapsing onto the edge is degenerate
    assert not moves([0.5, 0.0, 0.0])
    # tilting past the guard angle
    assert not moves([0.5, 0.0, 0.4])


def test_smooth_boundary_relaxes_flat_patch(config):
    rng = np.random.default_rng(5)
    jitter = np.zeros((16, 3))
    jitter[:, :2] = rng.uniform(-0.15, 0.15, (16, 2))
    mesh = grid_mesh(4, 4, jitter=jitter)
    (loop,) = mesh_ops.boundary_loops(mesh)
    lengths_before = _loop_length(mesh, loop)
    assert mesh_ops.smooth_boundary(mesh, config, iterations=2) > 0
    assert _loop_length(mesh, loop) < lengths_before


def _loop_length(mesh, loop):
    p = mesh.positions[loop]
    return float(np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1).sum())


def _cfg():
    from strokesurf.stroke_model import Config
    return Config()


# ---------------------------------------------------------------------------
# stats


def test_component_stats():
    mesh = octahedron()
    (closed,) = mesh_ops.component_stats(mesh)
    assert closed == {"triangles": 8, "vertices": 6, "edges": 12,
                      "euler": 2, "boundary_loops": 0, "closed": True}
    patch = grid_mesh(3, 3)
    (open_sheet,) = mesh_ops.component_stats(patch)
    assert open_sheet["euler"] == 1
    assert open_sheet["boundary_loops"] == 1
    assert not open_sheet["closed"]


# ---------------------------------------------------------------------------
# OBJ


def test_export_obj_is_deterministic(tmp_path):
    mesh = octahedron()
    p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
    assert mesh_ops.export_obj(mesh, p1) == (6, 8)
    mesh_ops.export_obj(mesh, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.count("\nvn ") + text.startswith("vn ") == 6
    assert "g component_000" in text


def test_export_faces_lead_with_smallest_vertex(tmp_path):
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]])
    mesh = mesh_from_arrays(pos, [(2, 3, 0), (1, 2, 0)])
    path = tmp_path / "m.obj"
    mesh_ops.export_obj(mesh, path)
    faces = [ln for ln in path.read_text().splitlines()
             if ln.startswith("f ")]
    # canonical rotation puts vertex 0 first; faces sort within the group
    assert faces == ["f 1//1 2//2 3//3", "f 1//1 3//3 4//4"]


def bowtie(mesh, at=(0.0, 0.0, 0.0)):
    """Two triangles sharing only their first vertex, wound against
    each other, so that its area-weighted normal is exactly zero."""
    base = mesh.vertex_count()
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0],
                    [0, -1, 0]]) + at
    mesh.add_vertices(pos, np.tile([0.0, 0, 1], (5, 1)), np.ones(5),
                      np.zeros((5, 3)), np.zeros((5, 2), dtype=np.int64), 0)
    return [mesh.add_triangle(base, base + 1, base + 2),
            mesh.add_triangle(base, base + 4, base + 3)]


def random_export_mesh(seed):
    """A triangle soup of several components over rounded coordinates
    with -0.0 entries, some triangles removed and, on odd seeds, a
    bowtie whose shared vertex has a degenerate normal."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    pos = rng.normal(size=(n, 3)).round(int(rng.integers(0, 4)))
    pos[rng.random(pos.shape) < 0.2] = -0.0
    mesh = mesh_from_arrays(pos, rng.integers(0, n, size=(
        int(rng.integers(1, 3 * n)), 3)).tolist())
    if seed % 2:
        bowtie(mesh, at=rng.normal(size=3))
    active = mesh.active_ids()
    mesh.remove(rng.choice(active, size=len(active) // 4, replace=False))
    return mesh


@pytest.mark.parametrize("case", ["bowtie", "empty", "all_removed"]
                         + list(range(40)))
def test_export_obj_equals_the_line_by_line_reference(tmp_path, case):
    if case == "bowtie":
        mesh = octahedron()
        bowtie(mesh, at=(0.0, 3.0, -0.0))
    elif case == "empty":
        mesh = mesh_from_arrays(np.zeros((3, 3)), [])
    elif case == "all_removed":
        mesh = octahedron()
        mesh.remove(mesh.active_ids())
    else:
        mesh = random_export_mesh(case)
    got, want = tmp_path / "got.obj", tmp_path / "want.obj"
    assert mesh_ops.export_obj(mesh, got) == oracles.export_obj(mesh, want)
    assert got.read_bytes() == want.read_bytes()
    if case == "bowtie":
        text = want.read_text()
        assert "vn 0 0 1\n" in text and "g component_002\n" in text
        assert " -0 " not in text
    if case in ("empty", "all_removed"):
        assert want.read_text() == "\n"


@pytest.mark.parametrize("seed", range(6))
def test_mesh_from_arrays_equals_the_list_table(seed):
    """The OBJ reload behind `strokesurf eval` builds the table that the
    list reference builds from the faces one at a time: faces that
    repeat, repeat reversed or rotated, name a vertex twice or lie on
    one line are dropped alike, and the repeats count as duplicates."""
    rng = np.random.default_rng(seed)
    n = 12
    pos = rng.normal(size=(n, 3))
    pos[[0, 1, n - 1]] = [[0, 0, 0], [1, 0, 0], [2, 0, 0]]
    faces = rng.integers(0, n, size=(40, 3))
    faces = np.concatenate([
        faces, faces[:8], faces[8:16, ::-1], np.roll(faces[16:24], 1, axis=1),
        [[0, 1, n - 1], [n - 1, 1, 0], [3, 3, 5], [4, 6, 4]]])
    faces = faces[rng.permutation(len(faces))]
    mesh = mesh_from_arrays(pos, faces.tolist())
    ref = oracles.ListTriangleTable(pos)
    for face in faces.tolist():
        ref.add(*face)
    assert mesh.tri_verts.tolist() == [list(t) for t in ref.tri_verts]
    assert mesh.tri_state.tolist() == ref.tri_state
    assert mesh.duplicates_skipped == ref.duplicates_skipped > 0
    assert len(ref.tri_verts) < len(faces) - ref.duplicates_skipped


def test_obj_round_trip(tmp_path):
    mesh = octahedron()
    mesh.remove(5)
    path = tmp_path / "m.obj"
    mesh_ops.export_obj(mesh, path)
    pos, faces, normals = mesh_ops.load_obj(path)
    assert pos.shape == (6, 3)
    assert normals.shape == (6, 3)
    assert len(faces) == 7
    np.testing.assert_allclose(pos, mesh.positions[:6], atol=1e-8)
    original = {tuple(oracles._canonical_face(list(mesh.tri_verts[t])))
                for t in mesh.active_ids()}
    assert {tuple(oracles._canonical_face(list(f))) for f in faces} \
        == original


def test_load_obj_negative_indices_and_fans(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
                    "f -4 -3 -2 -1\n")
    pos, faces, normals = mesh_ops.load_obj(path)
    assert normals is None
    assert faces == [(0, 1, 2), (0, 2, 3)]
    rebuilt = mesh_from_arrays(pos, faces)
    assert mesh_ops.audit_manifold(rebuilt) == ([], [])


def test_load_obj_equals_the_per_token_reference(tmp_path):
    path = tmp_path / "mixed.obj"
    path.write_text("# comment\n\nv 0.1 -2e-3 7\nvn 0 0 1\n"
                    "v 1.7976931348623157e308 5e-324 -0\nvn 0 1 0\n"
                    "  v 3 4 5 0.5\nvn 1 0 0\no part\ng group\n"
                    "vt 0.5 0.5\nf 1/1/1 2//2 3\nv 0.30000000000000004 1 2\n"
                    "vn 0 0 -1\nf -4 -3 -2 -1\nf 1 2\nf\n#f 1 2 3\n")
    pos, faces, normals = mesh_ops.load_obj(path)
    want_pos, want_faces, want_normals = oracles.load_obj(path)
    assert pos.dtype == normals.dtype == np.float64
    assert pos.shape == want_pos.shape == (4, 3)
    assert np.array_equal(pos.view(np.int64), want_pos.view(np.int64))
    assert np.array_equal(normals.view(np.int64),
                          want_normals.view(np.int64))
    assert faces == want_faces == [(0, 1, 2), (0, 1, 2), (0, 2, 3)]
    assert all(type(f) is tuple and all(type(i) is int for i in f)
               for f in faces)


@pytest.mark.parametrize("vertex", ["v 0 x 0", "v 1 2", "v", "vn 0 1"])
def test_load_obj_rejects_a_bad_vertex_line(tmp_path, vertex):
    path = tmp_path / "bad.obj"
    path.write_text(f"{vertex}\n")
    with pytest.raises(ValueError):
        mesh_ops.load_obj(path)
    path.write_text(f"v 0 0 0\n{vertex}\nv 0 1 0\n")
    with pytest.raises(ValueError, match=None if "x" in vertex else ":2: "):
        mesh_ops.load_obj(path)


def test_load_obj_splits_at_the_whitespace_str_split_does():
    spaces = [c for c in range(0x110000) if chr(c).isspace()]
    assert np.flatnonzero(mesh_ops._SPACE).tolist() == spaces
    assert not mesh_ops._SPACE[-1]


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663"
                             "\u0664\u0665\u0666\u0667\u0668\u0669")


def random_obj(rng, bad):
    """OBJ text of random v, vn, vt, comment, group, blank and face
    lines, with leading, tab and non-ASCII whitespace, 3-5 corner faces
    whose tokens are i, i/j, i//k or i/j/k with i positive, signed or
    not, or negative, at times with an underscore or in Arabic-Indic
    digits, and with `bad`, one face index that names no vertex or is no
    integer."""
    lines, above = [], [0]     # above[k]: the v lines above line k
    gaps = [" ", "  ", "\t", " \t ", "\u3000", "\xa0"]

    def gap():
        return gaps[int(rng.integers(0, 4 if rng.random() < 0.9 else 6))]

    def number():
        x = float(rng.normal()) * 10.0 ** int(rng.integers(-3, 4))
        return rng.choice([repr(x), f"{x:.3e}", str(int(x)), "-0"])

    for _ in range(int(rng.integers(5, 60))):
        r = rng.random()
        nv = above[-1]
        if r < 0.3 or nv < 3:
            nums = [number() for _ in range(3 + (rng.random() < 0.2))]
            lines.append(gap()[:rng.random() < 0.3] + "v" + "".join(
                gap() + x for x in nums))
            nv += 1
        elif r < 0.4:
            lines.append("vn" + "".join(gap() + number() for _ in range(3)))
        elif r < 0.5:
            lines.append(rng.choice(["# f 1 2 3", "", "   ", "vt 0.5 0.5",
                                     "g part", "o thing", "s off"]))
        else:
            tokens = []
            for _ in range(int(rng.integers(3, 6))):
                i = int(rng.integers(1, nv + 1))
                i = i if rng.random() < 0.5 else i - nv - 1
                sign = "+" if i > 0 and rng.random() < 0.5 else ""
                digits, r = str(i), rng.random()
                if r < 0.05:        # int() reads digits of other scripts
                    digits = digits.translate(ARABIC_INDIC)
                elif r < 0.1 and abs(i) >= 10:
                    digits = digits[:-1] + "_" + digits[-1]
                tokens.append(sign + digits
                              + rng.choice(["", "/1", "//2", "/3/4"]))
            lines.append("f" + "".join(gap() + t for t in tokens))
        above.append(nv)
    if bad:
        k = int(rng.integers(3, len(lines) + 1))
        index = rng.choice([0, above[k] + 1, -above[k] - 1, 10 ** 20, "1x"])
        lines.insert(k, f"f 1 1 {index}//1")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("bad", [False, True])
def test_load_obj_equals_the_line_by_line_reference(tmp_path, bad):
    """Random OBJ files read by the array parser and by the reference,
    which splits and converts one line and one token at a time: equal
    faces and bitwise-equal coordinates, or the same error."""
    rng = np.random.default_rng(2301 + bad)
    path = tmp_path / "random.obj"
    errors = 0
    for trial in range(200):
        path.write_text(random_obj(rng, bad), encoding="utf-8",
                        newline="\r\n" if trial % 3 == 0 else None)
        try:
            want = oracles.load_obj(path)
        except ValueError as exc:
            assert bad
            with pytest.raises(ValueError) as got:
                mesh_ops.load_obj(path)
            assert str(got.value) == str(exc)
            errors += 1
            continue
        pos, faces, normals = mesh_ops.load_obj(path)
        assert faces == want[1]
        assert np.array_equal(pos.view(np.int64), want[0].view(np.int64))
        if want[2] is None:
            assert normals is None
        else:
            assert np.array_equal(normals.view(np.int64),
                                  want[2].view(np.int64))
    assert errors == 200 * bad


def test_mesh_from_arrays_defaults():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    mesh = mesh_from_arrays(pos, [(0, 1, 2)])
    assert mesh.active_count() == 1
    np.testing.assert_allclose(mesh.normals, [[0, 0, 1]] * 3)
