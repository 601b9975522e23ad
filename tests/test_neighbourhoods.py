"""Per-vertex and per-component passes over the triangle array against
the scalar references in oracles.py: both smoothers with their move
guard, boundary chain frames, component stats and undecided
classification. Every comparison is bitwise: positions, frames, states
and counts must equal what the vertex-at-a-time references give, on
every call of pipeline runs and on random soups with removed triangles
and pinched vertices."""

import copy
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strokesurf import consolidate, mesh_ops
from strokesurf.matcher import ChainSet
from strokesurf.mesh_ops import mesh_from_arrays
from strokesurf.pipeline import PipelineOptions, run_pipeline
from strokesurf.stroke_model import Config
from strokesurf.synth_eval import generate
from test_pipeline import FLIP_SPECS
from test_topology import CASES, draw_soup, random_soup

CONFIG = Config()


def assert_same_bits(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


def assert_same_chains(got, want):
    if want is None:
        assert got is None
        return
    for name in [f.name for f in dataclasses.fields(ChainSet)] + [
            "lengths", "chain_id", "index"]:
        assert_same_bits(getattr(got, name), getattr(want, name))


def assert_same_mesh(got, want):
    assert got.positions.tobytes() == want.positions.tobytes()
    assert np.array_equal(got.tri_verts, want.tri_verts)
    assert np.array_equal(got.tri_state, want.tri_state)


# pass -> (module, its scalar reference, how results compare)
PASSES = {
    "smooth_boundary": (mesh_ops, oracles.smooth_boundary, assert_same_bits),
    "laplacian_smooth": (mesh_ops, oracles.laplacian_smooth,
                         assert_same_bits),
    "boundary_chain_set": (mesh_ops, oracles.boundary_chain_set,
                           assert_same_chains),
    "component_stats": (mesh_ops, oracles.component_stats, assert_same_bits),
    "classify_undecided": (consolidate, oracles.classify_undecided,
                           assert_same_bits),
}


# the passes themselves, kept from tests that patch the modules
PASS_FUNCTIONS = {name: getattr(module, name)
                  for name, (module, _, _) in PASSES.items()}


def check_against_reference(name, mesh, *args, **kwargs):
    """Run a pass and its reference on a copy; both must return the same
    and leave the same mesh. Returns the pass's result."""
    _, reference, same = PASSES[name]
    ref_mesh = copy.deepcopy(mesh)
    want = reference(ref_mesh, *args, **kwargs)
    got = PASS_FUNCTIONS[name](mesh, *args, **kwargs)
    same(got, want)
    assert_same_mesh(mesh, ref_mesh)
    return got


CUBE_CREASE = PipelineOptions(preserve_creases=True, close_holes_max_sides=8,
                              smooth_iterations=3)


@pytest.mark.parametrize("name, options", [
    ("dome_spiral", PipelineOptions()),
    ("cube_parallel", PipelineOptions()),
    ("cube_parallel", CUBE_CREASE),
], ids=["dome_spiral", "cube_parallel", "cube_parallel_crease_flags"])
def test_pipeline_passes_equal_the_scalar_references(name, options,
                                                     monkeypatch):
    calls = []
    for pass_name, (module, _, _) in PASSES.items():
        def checked(mesh, *args, pass_name=pass_name, **kwargs):
            calls.append(pass_name)
            return check_against_reference(pass_name, mesh, *args, **kwargs)
        monkeypatch.setattr(module, pass_name, checked)
    run_pipeline(generate(FLIP_SPECS[name])[0], options)
    assert calls.count("boundary_chain_set") == 2
    assert calls.count("classify_undecided") == 3
    assert calls.count("smooth_boundary") == 1
    assert calls.count("component_stats") == 1
    assert calls.count("laplacian_smooth") == (options is CUBE_CREASE)


def incompatible_like_pairs(mesh, pick):
    """Pairs of active triangles sharing an edge or only a vertex, in the
    (P, 4) table find_incompatible_pairs returns, kept where pick(i)
    holds."""
    pairs = []
    tids = mesh.active_ids()
    for t1, t2 in itertools.combinations(tids, 2):
        corners1, corners2 = mesh.tri_verts[[t1, t2]].tolist()
        shared = sorted(set(corners1) & set(corners2))
        if shared:
            pairs.append([t1, t2, *(shared + [-1])[:2]])
    return np.array([p for i, p in enumerate(pairs) if pick(i)],
                    dtype=np.int64).reshape(-1, 4)


def check_loop_components(mesh):
    """The component lookup of the hole fillers against vertex sets: a
    loop belongs to the component of the lowest active triangle at its
    first vertex, and spans it when it holds all of its vertices."""
    lookup = mesh_ops._ComponentLookup(mesh)
    comp_of, comps = oracles.components(mesh)
    vmap = mesh.vertex_tris()
    for loop in mesh_ops.boundary_loops(mesh):
        comp = comp_of[vmap[loop[0]][0]]
        verts = set(mesh.tri_verts[comps[comp]].ravel().tolist())
        assert lookup.of_loop(loop) == comp
        assert lookup.loop_spans_component(loop) == (set(loop) >= verts)


def check_all_passes(mesh, frozen):
    """Every pass on a copy of mesh against its reference."""
    check_loop_components(mesh)
    for with_dmax in (False, True):
        check_against_reference("boundary_chain_set", copy.deepcopy(mesh),
                                CONFIG, with_dmax=with_dmax)
    check_against_reference("component_stats", copy.deepcopy(mesh))
    check_against_reference("classify_undecided", copy.deepcopy(mesh),
                            incompatible_like_pairs(mesh, lambda i: i % 3),
                            frozen)
    for name in ("smooth_boundary", "laplacian_smooth"):
        check_against_reference(name, copy.deepcopy(mesh), CONFIG,
                                iterations=2)


def pinch_visited_twice():
    """Two wings at vertex 4 whose one boundary loop, 0 4 1 2 4 5, runs
    through the pinch twice: smooth_boundary proposes two moves for it,
    and the later one wins."""
    pos = [[0, 0, 0], [2, 1, 0], [2, -1, 0.2], [9, 9, 9], [1, 0, 0],
           [0, -1, 0.1]]
    return mesh_from_arrays(np.asarray(pos, dtype=float),
                            [(0, 4, 5), (4, 1, 2)])


def test_a_loop_through_a_pinch_proposes_it_twice():
    mesh = pinch_visited_twice()
    assert mesh_ops.boundary_loops(mesh) == [[0, 4, 1, 2, 4, 5]]
    check_all_passes(mesh, set())
    moved = copy.deepcopy(mesh)
    assert check_against_reference("smooth_boundary", moved, CONFIG) == 6
    # the second proposal for 4, from the wing (1, 2), wins
    pos = mesh.positions
    assert np.array_equal(moved.positions[4],
                          pos[4] + 0.5 * (0.5 * (pos[2] + pos[5]) - pos[4]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_cases_equal_the_scalar_references(name):
    mesh = copy.deepcopy(CASES[name])
    check_all_passes(mesh, set(mesh.active_ids()[::2]))


@pytest.mark.parametrize("seed", range(0, 60, 3))
def test_soups_equal_the_scalar_references(seed):
    check_all_passes(*random_soup(seed))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 9), data=st.data())
def test_hypothesis_soups_equal_the_scalar_references(n, data):
    check_all_passes(*draw_soup(n, data))


def test_soups_cover_pinches_and_duplicate_proposals():
    """The soups hold what the comparisons need: removed triangles,
    pinched vertices, and boundary loops that visit a vertex twice or
    share one with another loop."""
    removed = pinched = repeated = 0
    for seed in range(0, 60, 3):
        mesh, _ = random_soup(seed)
        removed += mesh.removed_count
        pinched += len(mesh_ops.audit_manifold(mesh)[1])
        loops = mesh_ops.boundary_loops(mesh)
        on_loops = [g for lp in loops for g in lp]
        repeated += len(on_loops) - len(set(on_loops))
    assert removed and pinched and repeated
