"""Mesh-topology queries against the scalar references in oracles.py:
components, the manifold audit and vertex fans, orientation with
break_nonorientable and resolve_moebius, the repair net, and undecided
components. Every comparison is exact, including the winding of every
triangle after the call. The labelling helper they share is compared
with scipy.sparse.csgraph.connected_components."""

import copy
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strokesurf import consolidate, mesh_ops, pipeline
from strokesurf.mesh_ops import mesh_from_arrays
from strokesurf.mesher import join_equal_keys
from strokesurf.pipeline import PipelineOptions, run_pipeline
from strokesurf.synth_eval import SyntheticSpec, generate
from test_pipeline import CUBE_SPIRAL, FLIP_SPECS


def _grid(rng, base):
    nx, ny = rng.integers(2, 5, size=2)
    pos, faces = [], []
    for j in range(ny):
        for i in range(nx):
            pos.append([i, j, 0.3 * rng.normal()])
    for j in range(ny - 1):
        for i in range(nx - 1):
            a = base + j * nx + i
            b, c, d = a + 1, a + nx, a + nx + 1
            if rng.random() < 0.5:
                faces += [(a, b, d), (a, d, c)]
            else:
                faces += [(a, b, c), (b, d, c)]
    return pos, faces


def _band(rng, base):
    """A strip of rungs closed into a Moebius band or a plain annulus."""
    rungs = int(rng.integers(4, 8))
    pos, faces = [], []
    for i in range(rungs):
        t = 2 * math.pi * i / rungs
        pos.append([1.2 * math.cos(t), 1.2 * math.sin(t), 0.1 * i])
        pos.append([0.8 * math.cos(t), 0.8 * math.sin(t), 0.1 * i + 0.05])
    for i in range(rungs):
        a0, b0 = base + 2 * i, base + 2 * i + 1
        a1 = base + 2 * ((i + 1) % rungs)
        b1 = a1 + 1
        if i == rungs - 1 and rng.random() < 0.7:
            a1, b1 = b1, a1          # the half twist
        faces += [(a0, b0, b1), (a0, b1, a1)]
    return pos, faces


def _clutter(rng, base):
    """Random triangles over a few vertices: overfull edges, pinches."""
    k = int(rng.integers(4, 8))
    pos = rng.normal(size=(k, 3)).tolist()
    faces = [tuple(base + rng.choice(k, 3, replace=False))
             for _ in range(int(rng.integers(3, 14)))]
    return pos, faces


def random_soup(seed):
    """Several pieces (grids, bands, clutter) added in shuffled face
    order, glued by a few random triangles, then partly pre-flipped and
    partly removed. Returns (mesh, frozen tid set)."""
    rng = np.random.default_rng(seed)
    pos, faces = [], []
    for _ in range(int(rng.integers(1, 5))):
        make = (_grid, _band, _clutter)[rng.integers(3)]
        p, f = make(rng, len(pos))
        pos += [list(x) for x in p]
        faces += f
    for _ in range(int(rng.integers(0, 4))):
        faces.append(tuple(rng.choice(len(pos), 3, replace=False)))
    order = rng.permutation(len(faces))
    faces = [faces[i][::-1] if rng.random() < 0.3 else faces[i]
             for i in order]
    mesh = mesh_from_arrays(np.asarray(pos, dtype=float) +
                            1e-3 * rng.normal(size=(len(pos), 3)), faces)
    for t in mesh.active_ids():
        if rng.random() < 0.15:
            mesh.remove(t)
        elif rng.random() < 0.2:
            mesh.flip(t)
    frozen = {t for t in mesh.active_ids() if rng.random() < 0.3}
    return mesh, frozen


def _mesh(pos, faces):
    return mesh_from_arrays(np.asarray(pos, dtype=float), faces)


def _components_of(mesh, tids):
    """SurfaceMesh.components of a copy of mesh in which only the active
    triangles tids stay active: the components of tids joined through
    their own edges."""
    sub = copy.deepcopy(mesh)
    sub.remove(np.setdiff1d(sub.active_ids(), list(tids)))
    return sub.components()[1]


def named_cases():
    """Hand-made meshes covering the cases random soups may miss."""
    fan_pos = [[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0],
               [0.5, 0.5, 1], [0.5, -0.5, -1]]
    cases = {
        "empty": _mesh(np.zeros((3, 3)), []),
        "one_triangle": _mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                              [(0, 1, 2)]),
        "edge_of_three": _mesh(fan_pos[:5], [(0, 1, 2), (1, 0, 3),
                                             (0, 1, 4)]),
        "edge_of_four": _mesh(fan_pos, [(0, 1, 2), (1, 0, 3), (0, 1, 4),
                                        (0, 5, 1)]),
        "bowtie": _mesh([[0, 0, 0], [1, 1, 0], [1, -1, 0], [-1, 1, 0],
                         [-1, -1, 0]], [(0, 1, 2), (0, 3, 4)]),
        # two closed fans meeting at the apex 0
        "double_cone": _mesh(
            [[0, 0, 0], [1, 0, 1], [-0.5, 0.8, 1], [-0.5, -0.8, 1],
             [1, 0, -1], [-0.5, 0.8, -1], [-0.5, -0.8, -1]],
            [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2),
             (0, 5, 4), (0, 6, 5), (0, 4, 6), (4, 5, 6)]),
        # the component holding vertex 0 gets the highest tids
        "lowest_tids_out_of_order": _mesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 0, 0], [6, 0, 0],
             [5, 1, 0], [9, 0, 0], [9, 1, 0], [10, 0, 0]],
            [(6, 7, 8), (3, 4, 5), (0, 1, 2), (4, 3, 6)]),
    }
    rng = np.random.default_rng(5)
    pos, faces = _band(np.random.default_rng(0), 0)
    cases["moebius"] = _mesh(pos, faces)
    mesh = _mesh(*_grid(rng, 0))
    mesh.flip(1)
    mesh.remove(2)
    cases["grid_flipped_and_removed"] = mesh
    return cases


CASES = named_cases()
SEEDS = range(60)


def _all_cases():
    return [pytest.param(lambda m=m: (copy.deepcopy(m),
                                      set(m.active_ids()[::2])), id=name)
            for name, m in CASES.items()] + [
        pytest.param(lambda s=s: random_soup(s), id=f"soup{s}")
        for s in SEEDS]


@pytest.mark.parametrize("make", _all_cases())
def test_components_audit_and_fans_match_reference(make):
    mesh, _ = make()
    assert mesh.components() == oracles.components(mesh)
    assert mesh_ops.audit_manifold(mesh) == oracles.audit_manifold(mesh)
    vmap = mesh.vertex_tris()
    for v in range(mesh.vertex_count()):
        assert (mesh_ops.vertex_fan_groups(mesh, v)
                == oracles.vertex_fan_groups(mesh, v))
        assert (mesh_ops.vertex_fan_groups(mesh, v, vmap.get(v, []))
                == oracles.vertex_fan_groups(mesh, v, vmap.get(v, [])))
    some = list(range(0, mesh.vertex_count(), 2))
    assert mesh.vertex_tris(some) == {v: vmap[v] for v in some if v in vmap}
    assert mesh_ops.boundary_loops(mesh) == oracles.boundary_loops(mesh)


@pytest.mark.parametrize("align", [False, True])
@pytest.mark.parametrize("make", _all_cases())
def test_orient_all_matches_reference(make, align):
    mesh, _ = make()
    ref = copy.deepcopy(mesh)
    assert mesh_ops.orient_all(mesh, align) == oracles.orient_all(ref, align)
    assert np.array_equal(mesh.tri_verts, ref.tri_verts)


def _assert_cuts_match_reference(mesh, frozen,
                                 cut=mesh_ops.break_nonorientable):
    """break_nonorientable removes the reference's triangles in its order
    and leaves every triangle wound and removed as the reference does."""
    ref = copy.deepcopy(mesh)
    removed = cut(mesh, frozen=frozen)
    assert removed == oracles.break_nonorientable(ref, frozen=frozen)
    assert np.array_equal(mesh.tri_verts, ref.tri_verts)
    assert np.array_equal(mesh.tri_state, ref.tri_state)
    return removed


@pytest.mark.parametrize("make", _all_cases())
def test_break_nonorientable_matches_reference(make):
    _assert_cuts_match_reference(*make())


def _assert_walk_matches_reference(mesh, tids,
                                   walk=mesh_ops.orient_parts):
    """orient_parts on tids gives the parts, conflicts and windings of one
    queue walk per part over that part's own edges."""
    ref = copy.deepcopy(mesh)
    parts, conflicts = walk(mesh, tids)
    assert parts == oracles.moebius_strips(ref, tids)
    for part, conflict in zip(parts, conflicts):
        assert conflict == oracles.orient_component(
            ref, part, oracles.strip_edge_map(ref, part))
    assert np.array_equal(mesh.tri_verts, ref.tri_verts)
    return parts, conflicts


@pytest.mark.parametrize("make", _all_cases())
def test_second_walk_of_a_broken_component_repeats_the_first(make):
    """orient_parts winds every component as a queue walk from the
    untouched state does and records the conflict that walk meets;
    walking its winding again flips nothing and meets the same
    conflicts."""
    mesh, _ = make()
    parts, conflicts = _assert_walk_matches_reference(mesh,
                                                      mesh.active_ids())
    assert parts == oracles.components(mesh)[1]
    wound = mesh.tri_verts.copy()
    assert (mesh_ops.orient_parts(mesh, mesh.active_ids())
            == (parts, conflicts))
    assert np.array_equal(mesh.tri_verts, wound)


@pytest.mark.parametrize("make", _all_cases())
def test_orient_component_skips_triangles_outside_the_strip(make):
    """Strips of the frozen draw, as resolve_moebius orients them: the
    live edge lists also carry triangles outside the strip."""
    mesh, subset = make()
    _assert_walk_matches_reference(mesh, subset)


def _checked_local_audits(monkeypatch):
    """Make every audit_manifold assert that it finds what the
    reference's whole audit finds; returns the list of the results of
    those that ran on a mesh with a proof, and so read only the vertices
    it does not cover."""
    audit, local = mesh_ops.audit_manifold, []

    def checked(mesh):
        proved = mesh.unproved() is not None
        found = audit(mesh)
        assert found == oracles.audit_manifold(mesh)
        if proved:
            local.append(found)
        return found

    monkeypatch.setattr(mesh_ops, "audit_manifold", checked)
    return local


@pytest.mark.parametrize("make", _all_cases())
def test_repair_net_matches_reference(make, monkeypatch):
    """The repair net removes as the reference does, and each of its
    audits, those after the first reading only what the net cut since,
    finds all that a whole audit finds."""
    _checked_local_audits(monkeypatch)
    mesh, frozen = make()
    ref = copy.deepcopy(mesh)
    removed = consolidate.repair_nonmanifold(mesh, frozen=frozen)
    assert removed == oracles.repair_nonmanifold(ref, frozen=frozen)
    assert np.array_equal(mesh.tri_state, ref.tri_state)
    assert mesh_ops.audit_manifold(mesh) == ([], [])
    assert mesh.active_count() == len(mesh.active_ids())


# the ops of _audit_through: "add" inserts triangles over its ints,
# "revive" inserts again the rows of the tids they name (a removed row
# comes back), "remove" and "flip" act on those tids, "vertices" adds one
# vertex more than it has ints; "audit" and "repair" ignore their ints
AUDIT_OPS = ("add", "revive", "remove", "flip", "vertices", "audit",
             "repair")


def _audit_through(mesh, ops):
    """Apply ops, (name, ints) pairs, to mesh, ints taken modulo the
    vertex or row count, and audit at every "audit" op and at the end.
    Every audit finds what the reference's whole audit finds, whatever
    the proof it reads. Returns how many audits read nothing."""
    idle = 0
    for name, ints in ops + [("audit", [])]:
        ints = np.asarray(ints, dtype=np.int64)
        count, n = len(mesh.tri_verts), mesh.vertex_count()
        if name == "audit":
            at = mesh.unproved()
            idle += at is not None and not len(at)
            assert mesh_ops.audit_manifold(mesh) == oracles.audit_manifold(
                mesh)
        elif name == "repair":
            consolidate.repair_nonmanifold(mesh)
        elif name == "add":
            mesh.add_triangles(ints[:len(ints) // 3 * 3] % n)
        elif name == "vertices":
            k = len(ints) + 1
            pos = np.random.default_rng(int(ints.sum())).normal(size=(k, 3))
            mesh.add_vertices(pos, pos, np.ones(k), np.ones((k, 3)),
                              np.zeros((k, 2), np.int64), 0)
        elif count and name == "revive":
            mesh.add_triangles(mesh.tri_verts[ints % count].copy())
        elif count:
            getattr(mesh, name)(ints % count)
    return idle


def _random_ops(rng, count=30):
    """count ops for _audit_through, each of up to nine ints."""
    return [(AUDIT_OPS[rng.integers(len(AUDIT_OPS))],
             rng.integers(0, 64, size=rng.integers(0, 10)).tolist())
            for _ in range(count)]


@pytest.mark.parametrize("seed", SEEDS)
def test_audits_on_a_proof_match_reference(seed):
    """A mesh audited, then changed by inserts, removals, flips and new
    vertices between audits, is audited as a whole audit would find it
    each time, though every audit after the first reads only what its
    proof does not cover."""
    mesh, _ = random_soup(seed)
    _audit_through(mesh, _random_ops(np.random.default_rng(seed)))


@pytest.mark.parametrize("make", _all_cases())
def test_groupings_match_reference(make):
    mesh, subset = make()
    # the frozen draw doubles as an undecided set and as new triangles;
    # a few removed tids ride along as resolve_moebius may be given them
    removed = [t for t in range(len(mesh.tri_verts))
               if not mesh.is_active(t)][:3]
    assert (consolidate.undecided_components(mesh, subset)
            == oracles.undecided_components(mesh, subset))
    new = sorted(subset) + removed
    strips = oracles.moebius_strips(mesh, new)
    active_new = [t for t in new if mesh.is_active(t)]
    assert _components_of(mesh, active_new) == strips
    assert mesh_ops.orient_parts(copy.deepcopy(mesh), active_new)[0] == strips
    ref = copy.deepcopy(mesh)
    assert (mesh_ops.resolve_moebius(mesh, new)
            == oracles.resolve_moebius(ref, new))
    assert np.array_equal(mesh.tri_verts, ref.tri_verts)
    assert np.array_equal(mesh.tri_state, ref.tri_state)


def test_deep_band_orients_like_the_queue_walk():
    """A band whose 480 triangles follow one another edge to edge, so
    the walk goes 480 levels deep; the one triangle flipped near its far
    end is turned back. Closed with a half twist, the band is a ring
    walked from tid 0 both ways, and the two fronts meet in conflict
    about 240 levels out."""
    rungs = 241
    pos, faces = _finned_strip(0, rungs, [], 0)
    mesh = _mesh(pos, faces)
    wound = mesh.tri_verts.copy()
    mesh.flip(len(faces) - 3)
    parts, conflicts = _assert_walk_matches_reference(mesh,
                                                      mesh.active_ids())
    assert parts == [list(range(len(faces)))] and conflicts == [None]
    assert np.array_equal(mesh.tri_verts, wound)
    p, q = 2 * rungs - 2, 2 * rungs - 1
    twisted = _mesh(pos, faces + [(q, p, 1), (1, 0, q)])
    _, (conflict,) = _assert_walk_matches_reference(twisted,
                                                    twisted.active_ids())
    assert conflict is not None and min(conflict) > 200


def many_parts(seed, count=150):
    """count disjoint grids, bands and clutter pieces with shuffled,
    partly reversed faces: a soup of many small parts."""
    rng = np.random.default_rng(seed)
    pos, faces = [], []
    for _ in range(count):
        make = (_grid, _band, _clutter)[rng.integers(3)]
        p, f = make(rng, len(pos))
        pos += [list(x) for x in p]
        faces += f
    faces = [faces[i][::-1] if rng.random() < 0.3 else faces[i]
             for i in rng.permutation(len(faces))]
    return _mesh(pos, faces)


@pytest.mark.parametrize("seed", range(3))
def test_many_small_parts_orient_like_the_queue_walk(seed):
    mesh = many_parts(seed)
    parts, conflicts = _assert_walk_matches_reference(
        copy.deepcopy(mesh), mesh.active_ids())
    assert len(parts) > 150
    assert any(c is None for c in conflicts)
    assert any(c is not None for c in conflicts)
    ref = copy.deepcopy(mesh)
    assert (mesh_ops.break_nonorientable(mesh)
            == oracles.break_nonorientable(ref))
    assert np.array_equal(mesh.tri_verts, ref.tri_verts)


CREASE_OPTIONS = PipelineOptions(preserve_creases=True,
                                 close_holes_max_sides=8, smooth_iterations=3)
RUN_OPTIONS = pytest.mark.parametrize(
    "options", [PipelineOptions(), CREASE_OPTIONS],
    ids=["default", "creases_fill_smooth"])


WALK_SPECS = dict(FLIP_SPECS, cube_spiral=CUBE_SPIRAL)


@RUN_OPTIONS
@pytest.mark.parametrize("name", sorted(WALK_SPECS))
def test_pipeline_walks_match_the_queue_walk(name, options, monkeypatch):
    """Every walk of a run equals one queue walk per part: those of
    orient_all and resolve_moebius through orient_parts, and every call
    of break_nonorientable, whose walk resumes at each cut, removes and
    winds as the reference does."""
    walk, cut = mesh_ops.orient_parts, mesh_ops.break_nonorientable
    callers, conflicts = set(), 0

    def checked(mesh, tids):
        nonlocal conflicts
        callers.add(sys._getframe(1).f_code.co_name)
        parts, found = _assert_walk_matches_reference(mesh, tids, walk)
        conflicts += sum(c is not None for c in found)
        return parts, found

    def checked_cut(mesh, frozen=frozenset()):
        nonlocal conflicts
        callers.add("break_nonorientable")
        removed = _assert_cuts_match_reference(mesh, frozen, cut)
        conflicts += len(removed)
        return removed

    monkeypatch.setattr(mesh_ops, "orient_parts", checked)
    monkeypatch.setattr(mesh_ops, "break_nonorientable", checked_cut)
    run_pipeline(generate(WALK_SPECS[name])[0], options)
    assert callers == {"orient_all", "break_nonorientable",
                       "resolve_moebius"}
    assert (conflicts > 0) == (name == "cube_spiral")


@RUN_OPTIONS
@pytest.mark.parametrize("name", sorted(FLIP_SPECS))
def test_pipeline_audits_the_whole_mesh_once(name, options, monkeypatch):
    """A run audits its mesh without a proof once, in its first repair
    net; every later audit reads only what changed since the one before,
    and each finds what the reference's whole audit finds."""
    audit, whole, proved = mesh_ops.audit_manifold, [], []

    def checked(mesh):
        (proved if mesh.unproved() is not None else whole).append(mesh)
        found = audit(mesh)
        assert found == oracles.audit_manifold(mesh)
        return found

    monkeypatch.setattr(mesh_ops, "audit_manifold", checked)
    mesh, _ = run_pipeline(generate(FLIP_SPECS[name])[0], options)
    assert whole == [mesh] and len(proved) > 5


@RUN_OPTIONS
def test_pipeline_fills_holes_as_the_round_based_references(options,
                                                            monkeypatch):
    """Every hole-filling call of a run leaves the triangle table that
    filling one loop at a time, small holes in rounds, leaves: the run
    fills holes only right after a repair net, on a manifold mesh
    (mesh_ops docstring). CUBE_SPIRAL leaves holes of every size."""
    added = []

    def checked(fill, reference):
        def call(mesh, *args, **kwargs):
            ref = copy.deepcopy(mesh)
            added.append(fill(mesh, *args, **kwargs))
            assert added[-1] == reference(ref, *args, **kwargs)
            assert np.array_equal(mesh.tri_verts, ref.tri_verts)
            assert np.array_equal(mesh.tri_state, ref.tri_state)
            return added[-1]
        return call

    for fill in ("close_small_holes", "fill_all_holes"):
        monkeypatch.setattr(mesh_ops, fill, checked(getattr(mesh_ops, fill),
                                                    getattr(oracles, fill)))
    run_pipeline(generate(CUBE_SPIRAL)[0], options)
    assert len(added) == 2 + (options.close_holes_max_sides > 0)
    assert all(added)


def _finned_strip(base, rungs, fins, y):
    """A strip of triangles following one another edge to edge from its
    end at x = 0, rung i joining vertices base + 2 i and base + 2 i + 1,
    then a fin on rung i for each interior rung i of fins: three
    triangles on that edge. Returns (positions, faces)."""
    pos = [[i, y + j, 0.01 * i * j] for i in range(rungs) for j in (0, 1)]
    faces = []
    for i in range(rungs - 1):
        a, b, c, d = (base + 2 * i + k for k in range(4))
        faces += [(a, c, b), (b, c, d)]
    for i in fins:
        pos.append([i + 0.5, y + 0.5, 1.0])
        faces.append((base + 2 * i, base + 2 * i + 1, base + len(pos) - 1))
    return pos, faces


def resume_case():
    """Three parts to cut. A long strip with twelve fins, the newest
    triangles, from near its first triangle to near its far end: it
    loses one fin a round. A short strip with one frozen fin: the pair
    on the fin's edge is the fin and the strip triangle beyond it, so
    that triangle goes and the strip splits in two. A triangle whose
    edge two frozen triangles share: it is its part's root, and the cut
    falls on a frozen one. Returns (mesh, frozen tids, root tid)."""
    pos, faces = _finned_strip(0, 40, range(2, 38, 3), 0)
    p, f = _finned_strip(len(pos), 12, [6], 5)
    pos, faces = pos + p, faces + f
    fin = len(faces) - 1
    root = len(faces)
    n = len(pos)
    pos += [[0, 10, 0], [1, 10, 0], [0.5, 11, 0], [0.5, 9, 0.5],
            [0.5, 9, -0.5]]
    faces += [(n, n + 1, n + 2), (n, n + 1, n + 3), (n, n + 1, n + 4)]
    return _mesh(pos, faces), {fin, root + 1, root + 2}, root


def test_resumed_walk_cuts_like_the_reference(monkeypatch):
    """break_nonorientable's walk, resumed at every cut, removes and
    winds as a fresh walk per round does, over rounds that cut deep and
    shallow, cuts that split their part and rounds that cut several
    parts. A walk never clashes at its root, whose neighbours it reaches
    first through their shared edges, so not even a frozen partner can
    force a cut there."""
    cut, rounds = mesh_ops._Walk.cut, []

    def spied(walk, dead):
        depth = walk.depth[dead].copy()
        rows = cut(walk, dead)
        rounds.append((depth, len(np.unique(walk.root[rows]))))
        return rows

    monkeypatch.setattr(mesh_ops._Walk, "cut", spied)
    mesh, frozen, root = resume_case()
    removed = _assert_cuts_match_reference(mesh, frozen)
    depths = np.concatenate([depth for depth, _ in rounds])
    assert len(removed) == len(depths) and len(rounds) >= 10
    assert depths.min() <= 5 and depths.max() >= 60
    assert any(len(depth) > 1 for depth, _ in rounds)
    # a split leaves a cut part as more parts than it lost rows
    assert any(parts > len(depth) for depth, parts in rounds)
    assert root + 2 in removed and mesh.is_active(root)
    assert 0 not in depths


SPIRAL_NOISY = SyntheticSpec(
    surface="dome", pattern="spiral", strokes=12, width=0.15, spacing=0.06,
    noise=0.25 * 0.15, normal_noise_deg=6.0, flip_probability=1 / 3,
    seed=112)


def test_noisy_spiral_cuts_like_the_reference(monkeypatch):
    """The benchmark's noisy spiral cuts 15 triangles over 16 walks in
    extension consolidation; every call removes and winds as the
    reference does, and the report, walk_rows included, stays JSON."""
    cut, calls = mesh_ops.break_nonorientable, []

    def checked_cut(mesh, frozen=frozenset()):
        removed = _assert_cuts_match_reference(mesh, frozen, cut)
        calls.append(len(removed))
        return removed

    monkeypatch.setattr(mesh_ops, "break_nonorientable", checked_cut)
    _, report = run_pipeline(generate(SPIRAL_NOISY)[0])
    stage = {s["name"]: s for s in report["stage_stats"]}
    assert calls[1] == stage["extension_consolidation"][
        "nonorientable_removed"] == 15
    assert json.loads(json.dumps(report)) == report


# stages after which the pipeline once oriented again, or could have
WOUND_STAGES = {"strip_consolidation", "extension_consolidation",
                "small_holes", "boundary_smoothing", "orientation",
                "ribbons", "hole_filling", "smoothing"}


@RUN_OPTIONS
@pytest.mark.parametrize("name", sorted(FLIP_SPECS))
def test_stages_leave_every_component_wound(name, options, monkeypatch):
    """From strip_consolidation on, every stage but the strip stages of
    extension and gap closing leaves each component wound from its
    lowest tid: orienting a copy flips nothing. So the run orients only
    once more, at its end."""
    checked = []

    def dump_mesh(tracker, stage):
        if stage in WOUND_STAGES:
            mesh = copy.deepcopy(tracker.mesh)
            mesh_ops.orient_all(mesh, align=False)
            assert np.array_equal(mesh.tri_verts, tracker.mesh.tri_verts)
            checked.append(stage)

    monkeypatch.setattr(pipeline._Tracker, "dump_mesh", dump_mesh)
    run_pipeline(generate(FLIP_SPECS[name])[0], options)
    assert len(checked) == (8 if options is CREASE_OPTIONS else 6)


def draw_soup(n, data):
    """Random triangles over n random points, some removed, some
    flipped; returns (mesh, frozen tid set)."""
    rng = np.random.default_rng(n)
    pos = rng.normal(size=(n, 3))
    tri = st.lists(st.integers(0, n - 1), min_size=3, max_size=3,
                   unique=True).map(tuple)
    faces = data.draw(st.lists(tri, max_size=14))
    mesh = mesh_from_arrays(pos, faces)
    count = len(mesh.tri_verts)
    if not count:
        return mesh, set()
    tid = st.lists(st.integers(0, count - 1), max_size=4)
    for t in data.draw(tid):
        mesh.remove(t)
    for t in data.draw(tid):
        mesh.flip(t)
    return mesh, set(data.draw(tid))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 9), data=st.data())
def test_hypothesis_soups_match_reference(n, data):
    mesh, frozen = draw_soup(n, data)
    assert mesh.components() == oracles.components(mesh)
    assert mesh_ops.audit_manifold(mesh) == oracles.audit_manifold(mesh)
    assert (consolidate.undecided_components(mesh, set(mesh.active_ids()))
            == oracles.undecided_components(mesh, set(mesh.active_ids())))
    for align in (False, True):
        a, b = copy.deepcopy(mesh), copy.deepcopy(mesh)
        assert mesh_ops.orient_all(a, align) == oracles.orient_all(b, align)
        assert np.array_equal(a.tri_verts, b.tri_verts)
    a, b = copy.deepcopy(mesh), copy.deepcopy(mesh)
    assert (consolidate.repair_nonmanifold(a, frozen=frozen)
            == oracles.repair_nonmanifold(b, frozen=frozen))
    assert np.array_equal(a.tri_state, b.tri_state)
    _assert_cuts_match_reference(copy.deepcopy(mesh), frozen)
    assert mesh_ops.boundary_loops(mesh) == oracles.boundary_loops(mesh)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 9), data=st.data())
def test_hypothesis_audits_on_a_proof_match_reference(n, data):
    mesh, _ = draw_soup(n, data)
    op = st.tuples(st.sampled_from(AUDIT_OPS),
                   st.lists(st.integers(0, 63), max_size=9))
    _audit_through(mesh, data.draw(st.lists(op, max_size=20)))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 9), data=st.data())
def test_orient_all_records_the_conflict_a_second_walk_meets(n, data):
    """The conflict orient_parts records for each component is the one a
    queue walk from the untouched state meets, and a second walk over
    the winding meets it again: break_nonorientable cuts at it without
    walking twice."""
    mesh, _ = draw_soup(n, data)
    ref = copy.deepcopy(mesh)
    parts, conflicts = mesh_ops.orient_parts(mesh, mesh.active_ids())
    assert ([tids for tids, c in zip(parts, conflicts) if c is not None]
            == oracles.orient_all(copy.deepcopy(ref), align=False))
    for tids, recorded in zip(parts, conflicts):
        assert recorded == oracles.orient_component(ref, tids)
    assert np.array_equal(mesh.tri_verts, ref.tri_verts)
    assert mesh_ops.orient_parts(mesh, mesh.active_ids())[1] == conflicts


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 9), data=st.data())
def test_orientation_holds_through_the_repair_net(n, data):
    """Once break_nonorientable returns, every component is wound
    consistently from its lowest tid, and the repair net's removals
    keep that: orienting again finds nothing broken and flips
    nothing."""
    mesh, frozen = draw_soup(n, data)
    mesh_ops.break_nonorientable(mesh, frozen=frozen)
    consolidate.repair_nonmanifold(mesh, frozen=frozen)
    wound = mesh.tri_verts.copy()
    assert mesh_ops.orient_all(mesh, align=False) == []
    assert np.array_equal(mesh.tri_verts, wound)


def _conflicts(mesh, frozen):
    """The conflicts break_nonorientable cuts at, over every round."""
    out = []
    while bad := oracles.orient_all(mesh, align=False):
        for tids in bad:
            conflict = oracles.orient_component(mesh, tids)
            out.append(conflict)
            mesh.remove(max([t for t in conflict if t not in frozen]
                            or conflict))
    return out


def test_soups_cover_the_hard_cases(monkeypatch):
    """The random soups contain what the references are compared on:
    overfull edges of three and four triangles, pinched vertices,
    non-orientable components, removed and pre-flipped triangles,
    orientation conflicts between two frozen triangles and on an
    overfull edge, frozen strips whose edges also carry triangles
    outside the strip, repair nets that audit again on a mesh with a
    proof, and audits with a proof that covers every vertex."""
    local = _checked_local_audits(monkeypatch)
    overfull, pinched, nonorientable, removed = set(), 0, 0, 0
    both_frozen = on_overfull = shared_strips = net_local = idle = 0
    for seed in SEEDS:
        mesh, frozen = random_soup(seed)
        em = mesh.edge_map()
        for tids in em.values():
            overfull.add(len(tids))
        bad_e, bad_v = oracles.audit_manifold(mesh)
        pinched += len(bad_v)
        nonorientable += len(oracles.orient_all(copy.deepcopy(mesh)))
        removed += mesh.removed_count
        audits = len(local)
        consolidate.repair_nonmanifold(copy.deepcopy(mesh), frozen)
        net_local += len(local) - audits
        idle += _audit_through(copy.deepcopy(mesh),
                               _random_ops(np.random.default_rng(seed)))
        for t, other in _conflicts(copy.deepcopy(mesh), frozen):
            both_frozen += t in frozen and other in frozen
            edge = (set(mesh.tri_verts[t].tolist())
                    & set(mesh.tri_verts[other].tolist()))
            on_overfull += len(em[tuple(sorted(edge))]) > 2
        for strip in _components_of(mesh, frozen):
            inside = set(strip)
            shared_strips += any(not inside.issuperset(em[key])
                                 for key in oracles.strip_edge_map(
                                     mesh, strip))
    assert {3, 4} <= overfull
    assert pinched and nonorientable and removed
    assert both_frozen and on_overfull and shared_strips
    assert net_local and idle


@pytest.mark.parametrize("seed", range(40))
def test_join_equal_keys_labels_like_csgraph(seed):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 300))
    k = int(rng.integers(1, 4))
    # few distinct keys make long chains, many make isolated rows
    keys = rng.integers(0, max(1, int(n * rng.uniform(0.2, 3.0))),
                        size=(n, k))
    labels = join_equal_keys(keys)
    # reference graph: every entry linked to the first entry of its key
    rows = np.repeat(np.arange(n), k)
    _, first, group = np.unique(keys.ravel(), return_index=True,
                                return_inverse=True)
    graph = coo_matrix((np.ones(n * k), (rows, rows[first][group])),
                       shape=(n, n))
    _, ref = connected_components(graph, directed=False)
    # the same partition, numbered by lowest row
    number = {}
    assert labels.tolist() == [number.setdefault(r, len(number))
                               for r in ref.tolist()]
