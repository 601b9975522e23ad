"""Mesh-topology queries against the scalar references in oracles.py:
components, the manifold audit and vertex fans, orientation with
break_nonorientable and resolve_moebius, the repair net, and undecided
components. Every comparison is exact, including the winding of every
triangle after the call. The labelling helper they share is compared
with scipy.sparse.csgraph.connected_components."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strokesurf import consolidate, mesh_ops
from strokesurf.mesh_ops import mesh_from_arrays
from strokesurf.mesher import join_equal_keys


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


@pytest.mark.parametrize("align", [False, True])
@pytest.mark.parametrize("make", _all_cases())
def test_orient_all_matches_reference(make, align):
    mesh, _ = make()
    ref = copy.deepcopy(mesh)
    assert mesh_ops.orient_all(mesh, align) == oracles.orient_all(ref, align)
    assert np.array_equal(mesh.tri_verts, ref.tri_verts)


@pytest.mark.parametrize("make", _all_cases())
def test_break_nonorientable_matches_reference(make):
    mesh, frozen = make()
    ref = copy.deepcopy(mesh)
    removed = mesh_ops.break_nonorientable(mesh, frozen=frozen)
    assert removed == oracles.break_nonorientable(ref, frozen=frozen)
    assert np.array_equal(mesh.tri_verts, ref.tri_verts)
    assert np.array_equal(mesh.tri_state, ref.tri_state)


@pytest.mark.parametrize("make", _all_cases())
def test_second_walk_of_a_broken_component_repeats_the_first(make):
    """orient_all winds a broken component with orient_component; walking
    it again flips nothing and meets the first walk's conflict."""
    mesh, _ = make()
    untouched = copy.deepcopy(mesh)
    for tids in mesh_ops.orient_all(mesh, align=False):
        first = mesh_ops.orient_component(untouched, tids)
        wound = mesh.tri_verts.copy()
        assert first is not None
        assert mesh_ops.orient_component(mesh, tids) == first
        assert np.array_equal(mesh.tri_verts, wound)


@pytest.mark.parametrize("make", _all_cases())
def test_orient_component_skips_triangles_outside_the_strip(make):
    """Strips of the frozen draw, as resolve_moebius orients them: the
    live edge lists also carry triangles outside the strip."""
    mesh, subset = make()
    ref = copy.deepcopy(mesh)
    for strip in mesh.components(subset)[1]:
        assert (mesh_ops.orient_component(mesh, strip)
                == oracles.orient_component(
                    ref, strip, oracles.strip_edge_map(ref, strip)))
        assert np.array_equal(mesh.tri_verts, ref.tri_verts)


@pytest.mark.parametrize("make", _all_cases())
def test_repair_net_matches_reference(make):
    mesh, frozen = make()
    ref = copy.deepcopy(mesh)
    assert (consolidate.repair_nonmanifold(mesh, frozen=frozen)
            == oracles.repair_nonmanifold(ref, frozen=frozen))
    assert np.array_equal(mesh.tri_state, ref.tri_state)
    assert mesh_ops.audit_manifold(mesh) == ([], [])
    assert mesh.active_count() == len(mesh.active_ids())


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
    assert (mesh.components({t for t in new if mesh.is_active(t)})[1]
            == oracles.moebius_strips(mesh, new))
    ref = copy.deepcopy(mesh)
    assert (mesh_ops.resolve_moebius(mesh, new)
            == oracles.resolve_moebius(ref, new))
    assert np.array_equal(mesh.tri_verts, ref.tri_verts)
    assert np.array_equal(mesh.tri_state, ref.tri_state)


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
    a, b = copy.deepcopy(mesh), copy.deepcopy(mesh)
    assert (mesh_ops.break_nonorientable(a, frozen=frozen)
            == oracles.break_nonorientable(b, frozen=frozen))
    assert np.array_equal(a.tri_verts, b.tri_verts)
    assert np.array_equal(a.tri_state, b.tri_state)


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


def test_soups_cover_the_hard_cases():
    """The random soups contain what the references are compared on:
    overfull edges of three and four triangles, pinched vertices,
    non-orientable components, removed and pre-flipped triangles,
    orientation conflicts between two frozen triangles and on an
    overfull edge, and frozen strips whose edges also carry triangles
    outside the strip."""
    overfull, pinched, nonorientable, removed = set(), 0, 0, 0
    both_frozen = on_overfull = shared_strips = 0
    for seed in SEEDS:
        mesh, frozen = random_soup(seed)
        em = mesh.edge_map()
        for tids in em.values():
            overfull.add(len(tids))
        bad_e, bad_v = oracles.audit_manifold(mesh)
        pinched += len(bad_v)
        nonorientable += len(oracles.orient_all(copy.deepcopy(mesh)))
        removed += mesh.removed_count
        for t, other in _conflicts(copy.deepcopy(mesh), frozen):
            both_frozen += t in frozen and other in frozen
            edge = (set(mesh.tri_verts[t].tolist())
                    & set(mesh.tri_verts[other].tolist()))
            on_overfull += len(em[tuple(sorted(edge))]) > 2
        for strip in mesh.components(frozen)[1]:
            inside = set(strip)
            shared_strips += any(not inside.issuperset(em[key])
                                 for key in oracles.strip_edge_map(
                                     mesh, strip))
    assert {3, 4} <= overfull
    assert pinched and nonorientable and removed
    assert both_frozen and on_overfull and shared_strips


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
