"""Triangle-strip emission and the SurfaceMesh container."""

import numpy as np
import pytest

from strokesurf import matcher, mesher, mesh_ops, stroke_model as sm
from strokesurf.scoring import Side

import oracles
from conftest import line_stroke


def chain_from(pts, gid_base, bno, cyclic=False, width=0.3):
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    tan = np.diff(pts, axis=0)
    tan = np.vstack([tan, tan[-1]])
    tan = tan / np.linalg.norm(tan, axis=1, keepdims=True)
    bno = np.asarray(bno, dtype=float)
    if bno.ndim == 1:
        bno = np.tile(bno, (n, 1))
    nrm = np.cross(bno, tan)
    return matcher.Chain(
        gids=np.arange(gid_base, gid_base + n, dtype=np.int64),
        positions=pts, tangents=tan, normals=nrm, binormals=bno,
        widths=np.full(n, width), colors=np.ones((n, 3)),
        ok=np.ones(n, dtype=bool), cyclic=cyclic)


def table_for(cs, side, pairs):
    table = matcher.MatchTable(cs)
    m = np.full(len(cs.chains[0]), -1, dtype=np.int64)
    for i, f in pairs:
        m[i] = f
    table.matches[(0, int(side))] = m
    return table


def active_gid_sets(mesh):
    return sorted(frozenset(mesh.tri_verts[t]) for t in mesh.active_ids())


# ---------------------------------------------------------------------------
# SurfaceMesh container


def triangle_mesh():
    mesh = mesher.SurfaceMesh()
    pos = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]])
    mesh.add_vertices(pos, np.tile([0, 0, 1.0], (4, 1)), np.full(4, 0.1),
                      np.ones((4, 3)), np.zeros((4, 2), dtype=np.int64),
                      mesher.KIND_STROKE)
    return mesh


def test_add_triangle_rejects_degenerate():
    mesh = triangle_mesh()
    assert mesh.add_triangle(0, 0, 1, "stroke") is None
    mesh.positions[3] = [2, 0, 0]       # collinear with 0 and 1
    assert mesh.add_triangle(0, 1, 3, "stroke") is None
    assert mesh.active_count() == 0


def test_duplicate_triangles_inserted_once():
    mesh = triangle_mesh()
    t0 = mesh.add_triangle(0, 1, 2, "stroke")
    assert t0 is not None
    assert mesh.add_triangle(2, 0, 1, "stroke") is None
    assert mesh.duplicates_skipped == 1
    mesh.remove(t0)
    t1 = mesh.add_triangle(0, 1, 2, "stroke")
    assert t1 is not None and t1 != t0
    assert mesh.active_count() == 1


def test_edge_map_tracks_removal():
    mesh = triangle_mesh()
    t0 = mesh.add_triangle(0, 1, 2, "stroke")
    t1 = mesh.add_triangle(1, 3, 2, "stroke")
    em = mesh.edge_map()
    assert em[(1, 2)] == [t0, t1]
    mesh.remove(t0)
    mesh.remove(t0)                     # second removal is a no-op
    assert em[(1, 2)] == [t1]
    assert em[(0, 1)] == []             # key lingers, list empties
    fresh = mesh.edge_map(mesh.active_ids())
    assert (0, 1) not in fresh


def test_components_split_and_flip():
    mesh = triangle_mesh()
    extra = mesh.add_vertices(
        np.array([[5, 0, 0], [6, 0, 0], [5, 1, 0.0]]),
        np.tile([0, 0, 1.0], (3, 1)), np.full(3, 0.1), np.ones((3, 3)),
        np.zeros((3, 2), dtype=np.int64), mesher.KIND_STROKE)
    t0 = mesh.add_triangle(0, 1, 2, "stroke")
    t1 = mesh.add_triangle(1, 3, 2, "stroke")
    t2 = mesh.add_triangle(*extra, "stroke")
    comp_of, comps = mesh.components()
    assert comps == [[t0, t1], [t2]]
    assert comp_of[t1] == 0 and comp_of[t2] == 1
    before = mesh.tri_verts[t2]
    mesh.flip(t2)
    assert mesh.tri_verts[t2] == (before[0], before[2], before[1])


def test_from_drawing_copies_vertex_table(flat_pair):
    mesh = mesher.SurfaceMesh.from_drawing(flat_pair)
    assert mesh.vertex_count() == 20
    assert np.allclose(mesh.positions[:10], flat_pair.strokes[0].points)
    assert list(mesh.origin[10]) == [1, 0]
    assert set(mesh.origin_kind) == {mesher.KIND_STROKE}


# ---------------------------------------------------------------------------
# strip emission


def test_flat_pair_strip(flat_pair, config):
    cs = matcher.stroke_chains(flat_pair)
    table = matcher.match_all(matcher.baseline_candidates(cs, config),
                              config)
    mesh = mesher.mesh_from_matches(table, config)
    assert mesh.active_count() == 18     # 9 quads, no rejects
    assert mesh.quads_rejected == 0
    bad_e, bad_v = mesh_ops.audit_manifold(mesh)
    assert bad_e == [] and bad_v == []
    prov = mesh.tri_prov[mesh.active_ids()[0]]
    assert prov.phase == "stroke" and prov.side in (-1, 1)


def test_same_target_collapses_to_triangle(config):
    cs = matcher.ChainSet([
        chain_from([[0, 0, 0], [1, 0, 0]], 0, (0, 1, 0)),
        chain_from([[0.5, 0.3, 0], [0.5, 0.9, 0]], 2, (0, -1, 0)),
    ])
    table = table_for(cs, Side.LEFT, [(0, 2), (1, 2)])
    mesh = mesher.mesh_from_matches(table, config)
    assert active_gid_sets(mesh) == [frozenset({0, 1, 2})]


def test_quad_splits_along_better_diagonal(config):
    # qa far left makes diagonal (p0, qb) the only non-skinny split
    cs = matcher.ChainSet([
        chain_from([[0, 0, 0], [1, 0, 0]], 0, (0, 1, 0)),
        chain_from([[-1, 1, 0], [1, 1, 0]], 2, (0, -1, 0)),
    ])
    table = table_for(cs, Side.LEFT, [(0, 2), (1, 3)])
    mesh = mesher.mesh_from_matches(table, config)
    assert active_gid_sets(mesh) == [frozenset({0, 1, 3}),
                                     frozenset({0, 2, 3})]


def test_quad_tie_breaks_on_vertex_ids(config):
    # mirror-symmetric trapezoid: both splits equal, ids decide
    cs = matcher.ChainSet([
        chain_from([[0, 0, 0], [1, 0, 0]], 0, (0, 1, 0)),
        chain_from([[-0.5, 1, 0], [1.5, 1, 0]], 2, (0, -1, 0)),
    ])
    table = table_for(cs, Side.LEFT, [(0, 2), (1, 3)])
    mesh = mesher.mesh_from_matches(table, config)
    assert active_gid_sets(mesh) == [frozenset({0, 1, 3}),
                                     frozenset({0, 2, 3})]


def test_folded_quad_rejected(config):
    # wedge fold between the two strip rows, far sharper than 45 degrees
    cs = matcher.ChainSet([
        chain_from([[0, 0, 0], [1, 0, 0]], 0, (0, 1, 0)),
        chain_from([[0, 0.05, 0.4], [1, 0.05, 0.4]], 2, (0, -1, 0)),
    ])
    cs.pos[2][2] = 0.0                   # twist one corner down hard
    cs.pos[2][1] = -0.4
    table = table_for(cs, Side.LEFT, [(0, 2), (1, 3)])
    mesh = mesher.mesh_from_matches(table, config)
    assert mesh.quads_rejected + mesh.active_count() > 0


def test_polygon_fans_skipped_section(config):
    src = chain_from([[0, 0, 0], [1, 0, 0]], 0, (0, 1, 0))
    tgt = chain_from([[x, 0.4, 0] for x in (-0.5, 0.0, 0.5, 1.0, 1.5)],
                     2, (0, -1, 0))
    cs = matcher.ChainSet([src, tgt])
    table = table_for(cs, Side.LEFT, [(0, cs.flat(1, 1)),
                                      (1, cs.flat(1, 3))])
    mesh = mesher.mesh_from_matches(table, config)
    sets = active_gid_sets(mesh)
    assert len(sets) == 3
    used = set().union(*sets)
    assert used <= {0, 1, 3, 4, 5}
    # target edges (1,2) and (2,3) both appear
    assert any({3, 4} <= s for s in sets)
    assert any({4, 5} <= s for s in sets)


def test_polygon_fan_split_matches_reference(config):
    # the fan probes of each target vertex must face the source edge,
    # whichever way the target's binormals point
    rng = np.random.default_rng(88)
    for _ in range(300):
        k = int(rng.integers(3, 6))
        pts = np.stack([np.sort(rng.uniform(-0.2, 1.2, size=k)),
                        0.4 + 0.15 * rng.normal(size=k), np.zeros(k)], 1)
        src = chain_from([[0, 0, 0], [1, 0, 0]], 0, (0, 1, 0))
        tgt = chain_from(pts, 2, (0, int(rng.choice([-1, 1])), 0),
                         width=float(rng.uniform(0.1, 0.4)))
        tgt.ok[1:-1] = rng.random(k - 2) > 0.2
        cs = matcher.ChainSet([src, tgt])
        table = table_for(cs, Side.LEFT, [(0, 2), (1, 1 + k)])
        mesh = mesher.mesh_from_matches(table, config)
        apex = 2 + oracles.fan_split(cs, config, 0, 1, np.arange(2, 2 + k))
        assert frozenset({0, 1, apex}) in active_gid_sets(mesh)


def test_polygon_vetoed_by_internal_match(config):
    src = chain_from([[0, 0, 0], [1, 0, 0]], 0, (0, 1, 0))
    tgt = chain_from([[x, 0.4, 0] for x in (-0.5, 0.0, 0.5, 1.0, 1.5)],
                     2, (0, -1, 0))
    cs = matcher.ChainSet([src, tgt])
    table = table_for(cs, Side.LEFT, [(0, cs.flat(1, 0)),
                                      (1, cs.flat(1, 4))])
    m = np.full(5, -1, dtype=np.int64)
    m[2] = cs.flat(1, 3)                 # section-interior match
    table.matches[(1, int(Side.LEFT))] = m
    mesh = mesher.mesh_from_matches(table, config)
    # the fan is vetoed; only the target chain's own pass emits anything
    for s in active_gid_sets(mesh):
        assert not {2, 6} <= s


def test_polygon_wraps_cyclic_chains(config):
    ang = np.linspace(0, 2 * np.pi, 7)[:-1]
    hexa = np.stack([np.cos(ang), np.sin(ang), np.zeros(6)], axis=1)
    tgt = chain_from(hexa, 2, hexa.copy(), cyclic=True)   # outward probes
    src = chain_from([[1.4, -0.2, 0], [1.4, 0.2, 0]], 0, (-1, 0, 0))
    cs = matcher.ChainSet([src, tgt])
    table = table_for(cs, Side.LEFT, [(0, cs.flat(1, 5)),
                                      (1, cs.flat(1, 1))])
    mesh = mesher.mesh_from_matches(table, config)
    sets = active_gid_sets(mesh)
    assert len(sets) == 3
    # the fan runs 5 -> 0 -> 1 across the seam, never the long way
    assert any({7, 2} <= s for s in sets)
    assert any({2, 3} <= s for s in sets)
    assert not any({5, 6} <= s for s in sets)


# ---------------------------------------------------------------------------
# crease-preserving variant


def perpendicular_pair(n=10):
    a = line_stroke(y=-0.11, z=0.0, n=n, normal=(0, 0, 1))
    b = line_stroke(y=0.0, z=0.11, n=n, normal=(0, 1, 0))
    return sm.Drawing(strokes=[a, b])


def test_crease_section_detected(config):
    cs = matcher.stroke_chains(perpendicular_pair())
    table = matcher.match_all(matcher.baseline_candidates(cs, config),
                              config)
    m = table.matches[(0, int(Side.RIGHT))]
    assert (m >= 0).sum() >= 8
    assert mesher._section_is_crease(cs, 0, m, 1, 8, config)

    flat = matcher.stroke_chains(
        sm.Drawing(strokes=[line_stroke(y=0.0), line_stroke(y=0.1)]))
    ftab = matcher.match_all(matcher.baseline_candidates(flat, config),
                             config)
    fm = ftab.matches[(0, int(Side.RIGHT))]
    assert not mesher._section_is_crease(flat, 0, fm, 1, 8, config)


def test_mesh_with_creases_offsets_fold_sections(config):
    cs = matcher.stroke_chains(perpendicular_pair())
    table = matcher.match_all(matcher.baseline_candidates(cs, config),
                              config)
    plain = mesher.mesh_from_matches(table, config)
    assert set(plain.origin_kind) == {mesher.KIND_STROKE}

    creased = mesher.mesh_with_creases(table, config)
    assert mesher.KIND_OFFSET in set(creased.origin_kind)
    assert creased.vertex_count() > plain.vertex_count()


def test_mesh_with_creases_matches_plain_on_flat_input(flat_pair, config):
    cs = matcher.stroke_chains(flat_pair)
    table = matcher.match_all(matcher.baseline_candidates(cs, config),
                              config)
    plain = mesher.mesh_from_matches(table, config)
    creased = mesher.mesh_with_creases(table, config)
    assert active_gid_sets(plain) == active_gid_sets(creased)
