"""Triangle-strip emission and the SurfaceMesh container."""

import copy
import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

from strokesurf import (consolidate, geometry, matcher, mesher, mesh_ops,
                        pipeline, scoring)
from strokesurf import stroke_model as sm
from strokesurf.pipeline import PipelineOptions, run_pipeline
from strokesurf.scoring import Side
from strokesurf.synth_eval import generate

import oracles
from conftest import (chain, chain_set, flat, line_stroke,
                      random_frame_rows)
from test_mesh_ops import grid_mesh
from test_pipeline import FLIP_SPECS


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
    return chain(
        gid=np.arange(gid_base, gid_base + n, dtype=np.int64), pos=pts,
        tan=tan, nrm=nrm, bin=bno, w=np.full(n, width), col=np.ones((n, 3)),
        ok=np.ones(n, dtype=bool), cyclic=cyclic)


def table_for(cs, side, pairs):
    """MatchTable whose one side matches chain 0's given (index, flat
    target) pairs and nothing else."""
    table = matcher.MatchTable(cs)
    m = np.full(len(cs), -1, dtype=np.int64)
    for i, f in pairs:
        m[i] = f
    table.matches[int(side)] = m
    return table


def active_gid_sets(mesh):
    return sorted(frozenset(tri)
                  for tri in mesh.triangle_array()[1].tolist())


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
    assert mesh.add_triangles([(0, 0, 1)]).tolist() == [-1]
    mesh.positions[3] = [2, 0, 0]       # collinear with 0 and 1
    assert mesh.add_triangles([(0, 1, 3)]).tolist() == [-1]
    assert mesh.active_count() == 0


def test_duplicate_triangles_inserted_once():
    mesh = triangle_mesh()
    [t0] = mesh.add_triangles([(0, 1, 2)]).tolist()
    assert t0 >= 0
    assert mesh.add_triangles([(2, 0, 1)]).tolist() == [-1]
    assert mesh.duplicates_skipped == 1
    mesh.remove(t0)
    [t1] = mesh.add_triangles([(0, 1, 2)]).tolist()
    assert t1 >= 0 and t1 != t0
    assert mesh.active_count() == 1


def test_edge_map_tracks_removal():
    """edge_map is derived from the active rows on each call: a map taken
    earlier is a snapshot, and a key whose last triangle went is gone."""
    mesh = triangle_mesh()
    t0 = mesh.add_triangle(0, 1, 2)
    t1 = mesh.add_triangle(1, 3, 2)
    before = mesh.edge_map()
    assert before[(1, 2)] == [t0, t1]
    mesh.remove(t0)
    mesh.remove(t0)                     # second removal is a no-op
    assert mesh.removed_count == 1
    assert before[(1, 2)] == [t0, t1]
    em = mesh.edge_map()
    assert em[(1, 2)] == [t1]
    assert (0, 1) not in em and (0, 2) not in em
    assert em == oracles.strip_edge_map(mesh, mesh.active_ids())
    mesh.remove(t1)
    assert mesh.edge_map() == {}


@pytest.mark.parametrize("options", [
    PipelineOptions(),
    PipelineOptions(preserve_creases=True, close_holes_max_sides=8,
                    smooth_iterations=3),
], ids=["default", "creases_fill_smooth"])
def test_surfacing_indexes_each_mesh_version_once(options, monkeypatch):
    """Every reader of the whole mesh's edges slices mesh.edges(): a
    surfacing calls mesher.edge_index on a mesh's active rows at most
    once per mesh version."""
    meshes, builds = [], []
    init, build = mesher.SurfaceMesh.__init__, mesher.edge_index

    def tracked_init(self):
        init(self)
        meshes.append(self)

    def counted(verts, n):
        builds.extend((id(mesh), mesh.version) for mesh in meshes
                      if np.array_equal(verts, mesh.triangle_array()[1]))
        return build(verts, n)

    monkeypatch.setattr(mesher.SurfaceMesh, "__init__", tracked_init)
    for name, module in list(sys.modules.items()):
        if (name.startswith("strokesurf")
                and getattr(module, "edge_index", None) is build):
            monkeypatch.setattr(module, "edge_index", counted)
    run_pipeline(generate(FLIP_SPECS["cube_parallel"])[0], options)
    assert len(builds) > 10
    assert len(builds) == len(set(builds))


@pytest.mark.parametrize("fn", [mesher.mesh_from_matches,
                                mesher.mesh_with_creases],
                         ids=["plain", "creases"])
def test_strip_meshing_scores_the_fans_of_a_flush_at_once(config, fn,
                                                          monkeypatch):
    """Fans are scored in one batch per flush: meshing a drawing with
    several fans calls scoring.vertex_scores_log_arrays at most once per
    _Emitter.flush."""
    cs = matcher.stroke_chains(generate(FLIP_SPECS["dome_spiral"])[0])
    table = matcher.match_all(matcher.baseline_candidates(cs, config),
                              config)
    calls = Counter()
    score, flush = scoring.vertex_scores_log_arrays, mesher._Emitter.flush

    def counted_score(*args):
        calls["score"] += 1
        return score(*args)

    def counted_flush(self):
        calls["flush"] += 1
        return flush(self)
    monkeypatch.setattr(scoring, "vertex_scores_log_arrays", counted_score)
    monkeypatch.setattr(mesher._Emitter, "flush", counted_flush)
    mesh = fn(table, config)
    assert mesh.fans > 10
    assert 0 < calls["score"] <= calls["flush"]


def test_remove_takes_arrays_with_duplicates_and_removed_tids():
    mesh = triangle_mesh()
    t0 = mesh.add_triangle(0, 1, 2)
    t1 = mesh.add_triangle(1, 3, 2)
    t2 = mesh.add_triangle(0, 1, 3)
    mesh.remove(np.array([], dtype=np.int64))
    assert mesh.removed_count == 0
    mesh.remove(t1)
    mesh.remove([t2, t1, t2])           # t1 gone already, t2 listed twice
    assert mesh.removed_count == 2
    assert mesh.active_ids() == [t0]
    assert mesh.tri_state.tolist() == [mesher.OUTPUT, mesher.REMOVED,
                                       mesher.REMOVED]
    mesh.remove(np.array([t0, t1, t2, t0]))
    assert mesh.removed_count == 3 == len(mesh.tri_verts)
    assert mesh.active_count() == 0 and mesh.edge_map() == {}


def test_components_split_and_flip():
    mesh = triangle_mesh()
    extra = mesh.add_vertices(
        np.array([[5, 0, 0], [6, 0, 0], [5, 1, 0.0]]),
        np.tile([0, 0, 1.0], (3, 1)), np.full(3, 0.1), np.ones((3, 3)),
        np.zeros((3, 2), dtype=np.int64), mesher.KIND_STROKE)
    t0 = mesh.add_triangle(0, 1, 2)
    t1 = mesh.add_triangle(1, 3, 2)
    t2 = mesh.add_triangle(*extra)
    comp_of, comps = mesh.components()
    assert comps == [[t0, t1], [t2]]
    assert comp_of[t1] == 0 and comp_of[t2] == 1
    before = mesh.tri_verts[t2].tolist()
    mesh.flip(t2)
    assert mesh.tri_verts[t2].tolist() == [before[0], before[2], before[1]]


def test_from_drawing_copies_vertex_table(flat_pair):
    mesh = mesher.SurfaceMesh.from_chains(matcher.stroke_chains(flat_pair))
    assert mesh.vertex_count() == 20
    assert np.allclose(mesh.positions[:10], flat_pair.strokes[0].points)
    assert list(mesh.origin[10]) == [1, 0]
    assert set(mesh.origin_kind) == {mesher.KIND_STROKE}


def assert_python_ints(value):
    """Every number in a nest of lists, tuples, sets and dicts (keys
    too) is a Python int, not a numpy scalar."""
    if isinstance(value, dict):
        assert_python_ints(list(value.items()))
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            assert_python_ints(item)
    else:
        assert type(value) is int, type(value)


def latest_tid_by_key(mesh):
    """Sorted corner tuple -> the last tid inserted on that vertex set,
    removed or not, read from tri_verts."""
    return {tuple(sorted(row)): tid
            for tid, row in enumerate(mesh.tri_verts.tolist())}


def assert_table_equals_reference(mesh, ref):
    assert np.array_equal(mesh.tri_verts,
                          np.array(ref.tri_verts, dtype=np.int64)
                          .reshape(-1, 3))
    assert mesh.tri_state.tolist() == ref.tri_state
    tids, verts = mesh.triangle_array()
    ref_tids, ref_verts = ref.triangle_array()
    assert np.array_equal(tids, ref_tids)
    assert np.array_equal(verts, ref_verts)
    assert mesh.active_ids() == ref.active_ids()
    assert mesh.active_count() == len(ref.active_ids())
    assert mesh.vertex_tris() == ref.vertex_tris()
    assert latest_tid_by_key(mesh) == ref.key_to_id
    # the reference keeps keys whose triangles all went, with [] lists
    assert mesh.edge_map() == {e: tids for e, tids in ref.edges.items()
                               if tids}
    for value in (mesh.active_ids(), mesh.vertex_tris(), mesh.edge_map()):
        assert_python_ints(value)
    assert_index_equals_reference(mesh, ref)


def assert_index_equals_reference(mesh, ref):
    """mesh.edges() against the reference's edge lists: the active rows,
    every edge that has a triangle in (lo, hi) order with its triangles
    ascending, each corner on its own edge, and counts looked up in
    either order, absent pairs reading 0."""
    tids, verts, index = mesh.edges()
    ref_tids, ref_verts = ref.triangle_array()
    assert np.array_equal(tids, ref_tids)
    assert np.array_equal(verts, ref_verts)
    edges = sorted((e, t) for e, t in ref.edges.items() if t)
    lo, hi = index.ends()
    assert list(zip(lo.tolist(), hi.tolist())) == [e for e, _ in edges]
    assert index.count.tolist() == [len(t) for _, t in edges]
    assert (mesher.split_by_label(tids[index.corner // 3],
                                  index.edge.ravel()[index.corner])
            == [t for _, t in edges])
    assert np.array_equal(index.edge.ravel()[index.corner],
                          np.repeat(np.arange(len(edges)), index.count))
    nxt = np.roll(verts, -1, axis=1)
    lo, hi = index.ends(index.edge)
    assert np.array_equal(lo, np.minimum(verts, nxt))
    assert np.array_equal(hi, np.maximum(verts, nxt))
    assert index.n == mesh.vertex_count()
    a, b = np.array([e for e, _ in edges], dtype=np.int64).reshape(-1, 2).T
    assert np.array_equal(index.counts(b, a), index.count)
    n = mesh.vertex_count()
    absent = [(0, 0), (-1, 0), (0, n), (n - 1, n)] + [
        (u, v) for u in range(4) for v in range(n) if u < v
        and (u, v) not in ref.edges]
    assert not index.counts(*np.array(absent).T).any()
    for a in (tids, verts, *index[:4]):
        assert not a.flags.writeable


def assert_write(mesh, write, changed):
    """Run write(): mesh.edges() is then a fresh index, under a new
    version, exactly when `changed`, and with no write in between it
    stays the same object."""
    before, version = mesh.edges(), mesh.version
    write()
    assert (mesh.edges() is not before) == changed
    assert (mesh.version != version) == changed
    assert mesh.edges() is mesh.edges()


def test_triangle_table_grows_like_a_list_reference():
    """Inserts one at a time and in batches, across several capacity
    doublings, interleaved with removals and flips of single triangles
    and of arrays of them. Provenance rows written as strip meshing
    writes them survive doublings; every other row, those past the end
    included, is the none row; a duplicate keeps its first emission's
    row, and a re-insert over a removed key gets a new one."""
    rng = np.random.default_rng(12)
    n = 30
    mesh = mesher.SurfaceMesh()
    mesh.add_vertices(rng.normal(size=(n, 3)), np.tile([0, 0, 1.0], (n, 1)),
                      np.full(n, 0.1), np.ones((n, 3)),
                      np.zeros((n, 2), dtype=np.int64), mesher.KIND_STROKE)
    ref = oracles.ListTriangleTable(mesh.positions)
    ref_prov = []
    capacities = set()
    # the first batch goes into a table that has no rows yet
    rows = np.random.default_rng(13).integers(0, n, size=(20, 3))
    rows = np.concatenate([rows, rows[:3]])
    assert mesh.add_triangles(rows).tolist() == [
        -1 if t is None else t for t in [ref.add(*row) for row in rows]]
    for step in range(14):
        before = mesh.edges()
        for row in rng.integers(0, n, size=(int(rng.integers(1, 40)), 3)):
            [tid] = mesh.add_triangles([row]).tolist()
            want = ref.add(*row)
            assert tid == (-1 if want is None else want)
            assert (mesh.edges() is not before) == (tid >= 0)
            before = mesh.edges()
        # batches repeat rows and hold degenerate ones
        rows = rng.integers(0, n, size=(int(rng.integers(1, 50)), 3))
        rows = np.concatenate([rows, rows[:5]])
        tids = mesh.add_triangles(rows)
        want = [ref.add(*row) for row in rows]
        assert tids.tolist() == [-1 if t is None else t for t in want]
        assert (mesh.edges() is not before) == (tids >= 0).any()
        assert_index_equals_reference(mesh, ref)
        # rows for every other new triangle, as a flush writes them
        new = np.arange(len(ref_prov), len(ref.tri_verts))
        ref_prov += [mesher.NO_PROV] * len(new)
        for t in new[::2].tolist():
            ref_prov[t] = tuple(rng.integers(0, n, size=5)) + (1,)
        mesh.tri_prov[new[::2]] = [ref_prov[t] for t in new[::2].tolist()]
        # a duplicate of a triangle with a row keeps that row
        if len(new):
            t = int(new[0])
            assert mesh.add_triangles([mesh.tri_verts[t][::-1]]).tolist() \
                == [-1]
            ref.add(*ref.tri_verts[t][::-1])
            # a re-insert over its removed key gets a new, none row
            mesh.remove(t)
            ref.remove(t)
            assert mesh.add_triangles([mesh.tri_verts[t]]).tolist() == [
                ref.add(*ref.tri_verts[t])]
            ref_prov.append(mesher.NO_PROV)
        active = mesh.active_ids()
        gone = rng.choice(active, size=min(len(active), 6),
                          replace=False).tolist()
        for t in gone + gone[:1]:           # removing twice is a no-op
            assert_write(mesh, lambda: mesh.remove(t),
                         t in ref.active_ids())
            ref.remove(t)
        # a batch re-inserts a removed vertex set with its corners
        # permuted, next to a duplicate of itself: the first row wins
        if gone:
            rows = mesh.tri_verts[gone[0]][[[1, 2, 0], [2, 1, 0]]]
            tids = mesh.add_triangles(rows).tolist()
            want = [ref.add(*row) for row in rows]
            assert tids == [-1 if t is None else t for t in want]
            assert tids[0] >= 0 and tids[1] == -1
            ref_prov.append(mesher.NO_PROV)
        assert_table_equals_reference(mesh, ref)
        for t in rng.choice(len(mesh.tri_verts), size=3).tolist():
            assert_write(mesh, lambda: mesh.flip(t), True)
            ref.flip(t)
        some = rng.choice(len(mesh.tri_verts), size=4, replace=False)
        assert_write(mesh, lambda: mesh.flip(some), True)
        for t in some.tolist():
            ref.flip(t)
        assert_write(mesh, lambda: mesh.flip([]), False)
        if step == 7:
            # vertices inside the bounding box, which keeps the area
            # floor: every key of an edge off vertex 0 moves
            before = mesh.edges()
            k = 5
            new = rng.uniform(mesh.positions.min(axis=0),
                              mesh.positions.max(axis=0), size=(k, 3))
            assert_write(mesh, lambda: mesh.add_vertices(
                new, np.tile([0, 0, 1.0], (k, 1)), np.full(k, 0.1),
                np.ones((k, 3)), np.zeros((k, 2), dtype=np.int64),
                mesher.KIND_STROKE), True)
            ref.pos += new.tolist()
            n += k
            after = mesh.edges()[2]
            assert after.n == before[2].n + k
            assert np.array_equal(after.ends()[0], before[2].ends()[0])
            assert np.array_equal(after.key != before[2].key,
                                  before[2].ends()[0] > 0)
        assert_table_equals_reference(mesh, ref)
        assert np.array_equal(mesh.tri_prov,
                              np.array(ref_prov, dtype=np.int64))
        assert (mesh._prov[len(ref_prov):] == mesher.NO_PROV).all()
        capacities.add(len(mesh._state))
    assert len(mesh.tri_verts) > 256
    assert len(capacities) >= 4


def test_inserts_outside_strip_meshing_keep_the_none_row(config):
    """Reloading, small-hole closing, hole filling and ribbons add
    triangles with the none row and leave the rows already written."""
    # 6 x 3 quads without quad 1 (a 4-hole) and quads 3, 4 (a 6-hole)
    # of the middle row
    mesh = grid_mesh(7, 4)
    assert (mesh.tri_prov == mesher.NO_PROV).all()
    for quad in (7, 9, 10):
        mesh.remove(2 * quad)
        mesh.remove(2 * quad + 1)
    written = np.arange(6 * len(mesh.tri_verts)).reshape(-1, 6)
    mesh.tri_prov[:] = written
    assert mesh_ops.close_small_holes(mesh, config) == 2
    assert mesh_ops.fill_all_holes(mesh, config, max_sides=6) == 4
    assert len(mesh.tri_verts) == len(written) + 6
    assert np.array_equal(mesh.tri_prov[:len(written)], written)
    assert (mesh.tri_prov[len(written):] == mesher.NO_PROV).all()

    drawing = sm.Drawing(strokes=[line_stroke(n=6)])
    cs = matcher.stroke_chains(drawing)
    mesh = mesher.SurfaceMesh.from_chains(cs)
    pipeline._emit_ribbons(mesh, drawing, cs)
    assert len(mesh.tri_verts) > 0
    assert (mesh.tri_prov == mesher.NO_PROV).all()


def test_topology_results_hold_python_ints():
    """Tids and vertex ids that the topology passes return are Python
    ints, as the pipeline's dicts, loops and reports need."""
    from test_topology import random_soup

    found = np.zeros(5, dtype=int)
    for seed in range(20):
        mesh, frozen = random_soup(seed)
        results = [
            mesh_ops.boundary_loops(mesh),
            mesh_ops.orient_all(copy.deepcopy(mesh)),
            mesh_ops.break_nonorientable(copy.deepcopy(mesh), frozen),
            mesh_ops.resolve_moebius(copy.deepcopy(mesh), sorted(frozen)),
            consolidate.repair_nonmanifold(copy.deepcopy(mesh), frozen)]
        assert_python_ints(results)
        found += [len(r) > 0 for r in results]
    assert found.all()


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
    assert mesh.tri_prov[mesh.active_ids()[0], 5] in (-1, 1)


def test_same_target_collapses_to_triangle(config):
    cs = chain_set([
        chain_from([[0, 0, 0], [1, 0, 0]], 0, (0, 1, 0)),
        chain_from([[0.5, 0.3, 0], [0.5, 0.9, 0]], 2, (0, -1, 0)),
    ])
    table = table_for(cs, Side.LEFT, [(0, 2), (1, 2)])
    mesh = mesher.mesh_from_matches(table, config)
    assert active_gid_sets(mesh) == [frozenset({0, 1, 2})]


def test_quad_splits_along_better_diagonal(config):
    # qa far left makes diagonal (p0, qb) the only non-skinny split
    cs = chain_set([
        chain_from([[0, 0, 0], [1, 0, 0]], 0, (0, 1, 0)),
        chain_from([[-1, 1, 0], [1, 1, 0]], 2, (0, -1, 0)),
    ])
    table = table_for(cs, Side.LEFT, [(0, 2), (1, 3)])
    mesh = mesher.mesh_from_matches(table, config)
    assert active_gid_sets(mesh) == [frozenset({0, 1, 3}),
                                     frozenset({0, 2, 3})]


def test_quad_tie_breaks_on_vertex_ids(config):
    # mirror-symmetric trapezoid: both splits equal, ids decide
    cs = chain_set([
        chain_from([[0, 0, 0], [1, 0, 0]], 0, (0, 1, 0)),
        chain_from([[-0.5, 1, 0], [1.5, 1, 0]], 2, (0, -1, 0)),
    ])
    table = table_for(cs, Side.LEFT, [(0, 2), (1, 3)])
    mesh = mesher.mesh_from_matches(table, config)
    assert active_gid_sets(mesh) == [frozenset({0, 1, 3}),
                                     frozenset({0, 2, 3})]


def test_folded_quad_rejected(config):
    # wedge fold between the two strip rows, far sharper than 45 degrees
    cs = chain_set([
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
    cs = chain_set([src, tgt])
    table = table_for(cs, Side.LEFT, [(0, flat(cs, 1, 1)),
                                      (1, flat(cs, 1, 3))])
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
        tgt["ok"][1:-1] = rng.random(k - 2) > 0.2
        cs = chain_set([src, tgt])
        table = table_for(cs, Side.LEFT, [(0, 2), (1, 1 + k)])
        mesh = mesher.mesh_from_matches(table, config)
        apex = 2 + oracles.fan_split(cs, config, 0, 1, np.arange(2, 2 + k))
        assert frozenset({0, 1, apex}) in active_gid_sets(mesh)


def test_polygon_vetoed_by_internal_match(config):
    src = chain_from([[0, 0, 0], [1, 0, 0]], 0, (0, 1, 0))
    tgt = chain_from([[x, 0.4, 0] for x in (-0.5, 0.0, 0.5, 1.0, 1.5)],
                     2, (0, -1, 0))
    cs = chain_set([src, tgt])
    table = table_for(cs, Side.LEFT, [(0, flat(cs, 1, 0)),
                                      (1, flat(cs, 1, 4))])
    # section-interior match
    table.matches[int(Side.LEFT)][flat(cs, 1, 2)] = flat(cs, 1, 3)
    mesh = mesher.mesh_from_matches(table, config)
    # the fan is vetoed; only the target chain's own pass emits anything
    for s in active_gid_sets(mesh):
        assert not {2, 6} <= s


def test_polygon_wraps_cyclic_chains(config):
    ang = np.linspace(0, 2 * np.pi, 7)[:-1]
    hexa = np.stack([np.cos(ang), np.sin(ang), np.zeros(6)], axis=1)
    tgt = chain_from(hexa, 2, hexa.copy(), cyclic=True)   # outward probes
    src = chain_from([[1.4, -0.2, 0], [1.4, 0.2, 0]], 0, (-1, 0, 0))
    cs = chain_set([src, tgt])
    table = table_for(cs, Side.LEFT, [(0, flat(cs, 1, 5)),
                                      (1, flat(cs, 1, 1))])
    mesh = mesher.mesh_from_matches(table, config)
    sets = active_gid_sets(mesh)
    assert len(sets) == 3
    # the fan runs 5 -> 0 -> 1 across the seam, never the long way
    assert any({7, 2} <= s for s in sets)
    assert any({2, 3} <= s for s in sets)
    assert not any({5, 6} <= s for s in sets)


@pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
def test_fans_over_long_sections_are_capped(config, scale):
    """A fan is emitted across a target section of arc length just under
    FAN_SIGMAS sigma_for radii of its source edge and dropped across one
    just over, at any uniform scale of the drawing."""
    width = 0.3 * scale
    bound = mesher.FAN_SIGMAS * scoring.sigma_for(width, width, config)
    under, over = bound * (1 - 1e-6), bound * (1 + 1e-6)
    xs = np.concatenate([np.linspace(0, under, 4),
                         under + np.linspace(0, over, 4)[1:]])
    src = chain_from([[0, 0, 0], [under, 0, 0], [under + over, 0, 0]], 0,
                     (0, 1, 0), width=width)
    tgt = chain_from([[x, 0.4 * scale, 0] for x in xs], 3, (0, -1, 0),
                     width=0.2 * scale)
    cs = chain_set([src, tgt])
    table = table_for(cs, Side.LEFT, [(0, flat(cs, 1, 0)),
                                      (1, flat(cs, 1, 3)),
                                      (2, flat(cs, 1, 6))])
    mesh = assert_meshing_equals_reference(mesher.mesh_from_matches, table,
                                           config)
    assert (mesh.fans, mesh.fans_capped, mesh.fans_vetoed) == (1, 1, 0)
    # the first fan's three section triangles and its source triangle
    assert mesh.emissions == 4
    sets = active_gid_sets(mesh)
    assert len(sets) == 4
    assert all(s <= {0, 1, 3, 4, 5, 6} for s in sets)


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
    m = table.matches[int(Side.RIGHT)][:cs.offsets[1]]
    assert (m >= 0).sum() >= 8
    assert mesher._section_is_crease(cs, 0, m, 1, 8, config)

    level = matcher.stroke_chains(
        sm.Drawing(strokes=[line_stroke(y=0.0), line_stroke(y=0.1)]))
    ftab = matcher.match_all(matcher.baseline_candidates(level, config),
                             config)
    fm = ftab.matches[int(Side.RIGHT)][:level.offsets[1]]
    assert not mesher._section_is_crease(level, 0, fm, 1, 8, config)


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


# ---------------------------------------------------------------------------
# the queued emitter against the one-triangle-at-a-time reference


def mesh_state(mesh):
    """Everything meshing can change, in comparable form."""
    return {
        "tri_verts": mesh.tri_verts.tolist(),
        "tri_state": mesh.tri_state.tolist(),
        "tri_prov": mesh.tri_prov.tolist(),
        "duplicates_skipped": mesh.duplicates_skipped,
        "quads_rejected": mesh.quads_rejected,
        "fans": mesh.fans,
        "fans_capped": mesh.fans_capped,
        "fans_vetoed": mesh.fans_vetoed,
        "removed_count": mesh.removed_count,
        "keys": latest_tid_by_key(mesh),
        "edges": {k: list(v) for k, v in mesh.edge_map().items()},
        "vertices": [getattr(mesh, name).tobytes() for name in (
            "positions", "normals", "widths", "colors", "origin",
            "origin_kind")],
    }


def assert_meshing_equals_reference(fn, table, config, mesh=None,
                                    stats=None):
    """Run fn (mesh_from_matches or mesh_with_creases) on table and mesh,
    and the scalar reference on copies taken before; both must leave the
    same mesh. stats, a Counter, collects the reference's case counts
    (oracles.scalar_emitter). Returns the mesh fn filled."""
    ref_table, ref_mesh = copy.deepcopy((table, mesh))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesher, "_Emitter", oracles.scalar_emitter(stats))
        want = fn(ref_table, config, mesh=ref_mesh)
    got = fn(table, config, mesh=mesh)
    assert mesh_state(got) == mesh_state(want)
    cs, ref_cs = table.chainset, ref_table.chainset
    assert cs.offsets.tolist() == ref_cs.offsets.tolist()
    assert cs.gid.tolist() == ref_cs.gid.tolist()
    assert cs.pos.tobytes() == ref_cs.pos.tobytes()
    return got


def rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def make_chain(pts, gid_base, rng, cyclic=False):
    """A chain over pts with random frames, width and ok flags."""
    pts = np.asarray(pts, dtype=np.float64)
    n = len(pts)
    tan, nrm, bno = random_frame_rows(rng, n)
    return chain(
        gid=np.arange(gid_base, gid_base + n, dtype=np.int64), pos=pts,
        tan=tan, nrm=nrm, bin=bno, w=np.full(n, rng.uniform(0.1, 0.4)),
        col=np.ones((n, 3)), ok=rng.random(n) > 0.1, cyclic=cyclic)


def special_quads(rng):
    """Two-vertex chain pairs (p, q) matched p0 -> q0, p1 -> q1, placed
    by a random rigid motion and scale: mirror-symmetric trapezoids
    (the minimum angles tie, then the dihedrals, and the diagonal key
    decides), the same lifted out of plane by a hair (the minimum angles
    still tie; the dihedrals, or failing them the key, decide),
    zero-length rungs and edges, and collinear quads."""
    pairs = []
    for kind in range(6):
        s, h = rng.uniform(-0.4, 0.4), rng.uniform(0.05, 0.5)
        p = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        q = np.array([[-s, h, 0], [1.0 + s, h, 0]])
        if kind == 1:
            q[0, 2] = 10.0 ** rng.uniform(-13, -7)
        elif kind == 2:
            p[1] = p[0]
        elif kind == 3:
            q[1] = q[0]
        elif kind == 4:
            q[:, 1] = 0.0
        elif kind == 5:
            q = p.copy()
        motion = rotation(rng) * rng.uniform(0.1, 10.0)
        shift = rng.normal(size=3)
        pairs.append((p @ motion.T + shift, q @ motion.T + shift))
    return pairs


def random_strip_table(rng):
    """A chain set with its match table: random chains (some cyclic,
    some with coincident or collinear vertices) whose matches step
    along other chains by 0 (a == b, one triangle), 1 (a quad), 2-3 (a
    fan, or a capped one where the section outruns the bound on narrow
    chains), or jump to another chain, a few inside vertices matched to
    their neighbour on their own chain, plus the special quads."""
    chains, gid = [], 0
    for c in range(int(rng.integers(2, 6))):
        n = int(rng.integers(2, 9))
        cyclic = n > 2 and rng.random() < 0.3
        if cyclic:
            ang = np.sort(rng.uniform(0, 2 * np.pi, n))
            pts = np.stack([np.cos(ang), np.sin(ang),
                            np.full(n, 0.2 * c)], axis=1)
        else:
            pts = np.stack([np.sort(rng.uniform(0, 2, n)),
                            np.full(n, 0.3 * c), np.zeros(n)], axis=1)
            pts += 0.05 * rng.normal(size=(n, 3))
        if n > 3 and rng.random() < 0.3:
            pts[2] = pts[1]                       # zero-length edge
        if n > 3 and rng.random() < 0.3:
            pts[3] = 2 * pts[2] - pts[1]          # collinear run
        chains.append(make_chain(pts, gid, rng, cyclic))
        gid += n
    special = special_quads(rng)
    for p, q in special:
        for pts in (p, q):
            chains.append(make_chain(pts, gid, rng))
            gid += 2
    cs = chain_set(chains)
    table = matcher.MatchTable(cs)
    table.matches = {side: np.full(len(cs), -1, dtype=np.int64)
                     for side in (1, -1)}
    n_random = len(chains) - 2 * len(special)
    lengths = cs.lengths.tolist()
    for ci in range(n_random):
        for side in (1, -1):
            if rng.random() < 0.3:
                continue
            n = lengths[ci]
            match = table.matches[side][cs.offsets[ci]:cs.offsets[ci + 1]]
            tci = int(rng.choice([c for c in range(n_random) if c != ci]))
            j = int(rng.integers(lengths[tci]))
            for i in range(n):
                r = rng.random()
                if r < 0.08:
                    tci = int(rng.integers(n_random))
                    j = int(rng.integers(lengths[tci]))
                elif r < 0.15:
                    continue
                else:
                    j += int(rng.choice([0, 1, 1, 1, -1, 2, 3]))
                nt = lengths[tci]
                if cs.cyclic[tci]:
                    j %= nt
                elif not 0 <= j < nt:
                    j = int(np.clip(j, 0, nt - 1))
                    continue
                match[i] = flat(cs, tci, j)
    # inside vertices matched along their own chain: a fan across them
    # is vetoed
    for _ in range(int(rng.integers(0, 3))):
        tci = int(rng.integers(n_random))
        if lengths[tci] > 2:
            j = int(rng.integers(1, lengths[tci] - 1))
            table.matches[int(rng.choice([1, -1]))][flat(cs, tci, j)] = \
                flat(cs, tci, j + 1)
    for k in range(len(special)):
        ci = n_random + 2 * k
        side = int(rng.choice([1, -1]))
        table.matches[side][flat(cs, ci, 0):flat(cs, ci, 2)] = [
            flat(cs, ci + 1, 0), flat(cs, ci + 1, 1)]
    return table


def stroke_mesh(cs):
    mesh = mesher.SurfaceMesh()
    mesh.add_vertices(cs.pos, cs.nrm, cs.w, cs.col,
                      np.stack([cs.chain_id, cs.index], axis=1),
                      mesher.KIND_STROKE)
    return mesh


@pytest.mark.parametrize("fn", [mesher.mesh_from_matches,
                                mesher.mesh_with_creases],
                         ids=["plain", "creases"])
def test_strip_meshing_equals_the_scalar_reference(config, fn):
    rng = np.random.default_rng(2024)
    totals = np.zeros(4, dtype=np.int64)
    stats = Counter()
    for _ in range(120):
        mesh = assert_meshing_equals_reference(fn, random_strip_table(rng),
                                               config, stats=stats)
        totals += (mesh.active_count(), mesh.duplicates_skipped,
                   mesh.quads_rejected, mesh.fans)
    # inserts, duplicates, rejected quads and fans all occur
    assert (totals > 0).all()
    # and so do the fan and step cases; a fan's inside vertex lies past
    # a side's match array only on offset chains, appended after matching
    cases = ["fans_capped", "fans_vetoed", "cyclic_ties", "seam_steps"]
    if fn is mesher.mesh_with_creases:
        cases.append("inside_past_match")
    assert all(stats[case] > 0 for case in cases), stats


def test_strip_meshing_over_a_used_mesh_equals_the_scalar_reference(config):
    """Meshing into a mesh that already holds some of the strip
    triangles, some of them removed: active ones count as duplicates and
    removed ones are inserted again, as add_triangles does."""
    rng = np.random.default_rng(77)
    reinserted = 0
    for _ in range(60):
        table = random_strip_table(rng)
        strips = mesher.mesh_from_matches(copy.deepcopy(table), config)
        mesh = stroke_mesh(table.chainset)
        for tri in strips.tri_verts.tolist():
            if rng.random() < 0.4:
                # -1 on slivers whose area, taken from another corner,
                # rounds below the floor
                [tid] = mesh.add_triangles([tri[::-1]]).tolist()
                if tid >= 0 and rng.random() < 0.5:
                    mesh.remove(tid)
        removed = {tuple(mesh.tri_verts[t].tolist())
                   for t in range(len(mesh.tri_verts))
                   if not mesh.is_active(t)}
        got = assert_meshing_equals_reference(
            mesher.mesh_from_matches, table, config, mesh)
        reinserted += sum(tuple(got.tri_verts[t].tolist()[::-1]) in removed
                          for t in range(len(mesh.tri_verts)))
    assert reinserted > 0


def test_quads_at_the_dihedral_threshold_are_kept(config):
    """A quad whose split folds exactly at dihedral_min_deg stays; one ulp
    higher a threshold rejects it."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        p = rng.normal(size=(2, 3))
        q = p + rng.normal(size=(2, 3))
        cs = chain_set([make_chain(p, 0, rng), make_chain(q, 2, rng)])
        table = table_for(cs, Side.LEFT, [(0, 2), (1, 3)])
        probe = dataclasses.replace(config, dihedral_min_deg=1e-9)
        used = mesher.mesh_from_matches(copy.deepcopy(table), probe)
        # the fold of the split it chose, (p0, q1) or (p1, q0)
        p0, p1, q0, q1 = cs.pos[[0, 1, 2, 3]]
        if all({0, 3} <= set(t) for t in used.tri_verts.tolist()):
            fold = oracles.dihedral_deg(p0, q1, p1, q0)
        else:
            fold = oracles.dihedral_deg(p1, q0, p0, q1)
        if not 0.0 < fold < 180.0:
            continue
        for limit, rejected in ((fold, 0), (np.nextafter(fold, 180.0), 1)):
            at = dataclasses.replace(config, dihedral_min_deg=float(limit))
            mesh = assert_meshing_equals_reference(
                mesher.mesh_from_matches, copy.deepcopy(table), at)
            assert mesh.quads_rejected == rejected


@pytest.mark.parametrize("options", [
    PipelineOptions(), PipelineOptions(preserve_creases=True)],
    ids=["plain", "creases"])
@pytest.mark.parametrize("name", ["dome_spiral", "cube_parallel"])
def test_pipeline_meshing_equals_the_scalar_reference(name, options,
                                                      monkeypatch):
    """Every meshing call of a run (strips, boundary extension and gap
    spanning, the last two into a mesh holding removed triangles)
    leaves the mesh the reference leaves."""
    from test_pipeline import FLIP_SPECS

    calls = []
    for fname in ("mesh_from_matches", "mesh_with_creases"):
        fn = getattr(mesher, fname)

        def checked(table, config, mesh=None, fn=fn, fname=fname):
            calls.append((fname, mesh.removed_count))
            return assert_meshing_equals_reference(fn, table, config, mesh)
        monkeypatch.setattr(mesher, fname, checked)
    run_pipeline(generate(FLIP_SPECS[name])[0], options)
    strips = ("mesh_with_creases" if options.preserve_creases
              else "mesh_from_matches")
    assert [c[0] for c in calls] == [strips, "mesh_from_matches",
                                     "mesh_from_matches"]
    assert calls[2][1] > 0


def test_crease_rows_meet_the_floor_of_their_vertex_table(config):
    """A tiny crease section beside a wide one whose ribbon reaches half
    a million times farther keeps all 4 of its triangles whichever is
    meshed first: the area floor is fixed by the chain vertices, the
    mesh's first vertex block, and the offsets added later leave it."""
    tiny = [([[0, 0, 0], [1e-7, 0, 0]], (0, 1, 0), 1e-7),
            ([[0, 1e-7, 1e-7], [1e-7, 1e-7, 1e-7]], (0, 0, 1), 1e-7)]
    wide = [([[1, 0, 0], [1.1, 0, 0]], (0, 1, 0), 1e6),
            ([[1, 0.1, 0.1], [1.1, 0.1, 0.1]], (0, 0, 1), 0.3)]
    for chains in (tiny + wide, wide + tiny):
        cs = chain_set([chain_from(pts, 2 * i, bno, width=width)
                        for i, (pts, bno, width) in enumerate(chains)])
        table = matcher.MatchTable(cs)
        table.matches[1] = np.full(len(cs), -1, dtype=np.int64)
        for ci in (0, 2):
            table.matches[1][[flat(cs, ci, 0), flat(cs, ci, 1)]] = (
                flat(cs, ci + 1, 0), flat(cs, ci + 1, 1))
        chain_pos = cs.pos.copy()
        mesh = assert_meshing_equals_reference(mesher.mesh_with_creases,
                                               table, config)
        assert np.abs(mesh.positions).max() > 1e5      # the wide offsets
        assert mesh.scale() == geometry.bbox_diagonal(chain_pos)
        small = [t for t in mesh.active_ids()
                 if np.abs(mesh.positions[mesh.tri_verts[t]]).max() < 1e-6]
        assert len(small) == 4


def _count_calls(monkeypatch, cls, *names):
    """A Counter of the calls of the named methods of cls, by name."""
    calls = Counter()
    for name in names:
        def counted(*args, fn=getattr(cls, name), name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    return calls


def test_crease_meshing_inserts_once_per_call(monkeypatch):
    """mesh_with_creases adds offset vertices for several crease sections
    and still inserts every row with one add_triangles call."""
    calls = _count_calls(monkeypatch, mesher.SurfaceMesh, "add_triangles")
    seen = []
    fn = mesher.mesh_with_creases

    def spied(table, config, mesh=None):
        chains, before = len(table.chainset.lengths), Counter(calls)
        out = fn(table, config, mesh=mesh)
        seen.append((len(table.chainset.lengths) - chains,
                     calls["add_triangles"] - before["add_triangles"]))
        return out
    monkeypatch.setattr(mesher, "mesh_with_creases", spied)
    run_pipeline(generate(FLIP_SPECS["cube_parallel"])[0],
                 PipelineOptions(preserve_creases=True))
    [(offset_chains, inserts)] = seen
    assert offset_chains > 1
    assert inserts == 1


def test_ribbons_insert_once_as_stroke_by_stroke(monkeypatch):
    """_emit_ribbons adds every ribbon stroke with one add_vertices and
    one add_triangles call, and leaves the mesh that adding them one
    stroke at a time with the loop reference of ribbon_geometry leaves."""
    strokes = [line_stroke(y=5.0 * i, n=4 + i) for i in range(4)]
    strokes[2].normals[1] = strokes[2].points[2] - strokes[2].points[0]
    drawing = sm.Drawing(strokes=strokes)
    assert not strokes[2].frames_ok[1]
    cs = matcher.stroke_chains(drawing)
    want = mesher.SurfaceMesh.from_chains(cs)
    for si, stroke in enumerate(drawing.strokes):
        corners, tris, vertex = oracles.ribbon_geometry(stroke)
        gids = want.add_vertices(
            corners, stroke.normals[vertex], stroke.widths[vertex],
            np.tile(stroke.color, (len(vertex), 1)),
            np.stack([np.full(len(vertex), si), vertex], axis=1),
            mesher.KIND_RIBBON)
        want.add_triangles(gids[tris])
    got = mesher.SurfaceMesh.from_chains(cs)
    calls = _count_calls(monkeypatch, mesher.SurfaceMesh, "add_triangles",
                         "add_vertices")
    added = pipeline._emit_ribbons(got, drawing, cs)
    assert calls == {"add_triangles": 1, "add_vertices": 1}
    assert added == want.active_count() == 2 * (3 + 4 + 5 + 6) - 4
    assert mesh_state(got) == mesh_state(want)
