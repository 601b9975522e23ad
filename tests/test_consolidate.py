"""Conflict detection, correlation clustering, and the repair net."""

import copy
import dataclasses
import heapq
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from strokesurf import consolidate, matcher, mesher, mesh_ops
from strokesurf.consolidate import OUT_NODE
from strokesurf.pipeline import PipelineOptions, run_pipeline
from strokesurf.synth_eval import generate

import oracles
from conftest import chain, chain_set
from test_mesher import chain_from
from test_pipeline import CUBE_SPIRAL, FLIP_SPECS


def strip_fixture(config, apexes, bn=(0, -1, 0)):
    """One 3-vertex stroke chain plus an apex chain, with an emitter
    whose tri_on_edge(ci, ia, ib, apex_flat, side) meshes a strip whose
    edge (ia, ib) of chain ci matches the apex at both ends, inserting
    that one triangle at once, and returns its tid."""
    chain0 = chain_from([[-1, 0, 0], [0, 0, 0], [1, 0, 0]], 0, (0, 1, 0))
    chain1 = chain_from(apexes, 3, bn)
    cs = chain_set([chain0, chain1])
    mesh = mesher.SurfaceMesh.from_chains(cs)
    emitter = mesher._Emitter(mesh, matcher.MatchTable(cs), config)

    def tri_on_edge(ci, ia, ib, apex_flat, side):
        match = np.full(int(cs.lengths[ci]), -1, dtype=np.int64)
        match[[ia, ib]] = apex_flat
        emitter.strips([(ci, side, match)])
        return int(emitter.flush()[0])
    return cs, mesh, SimpleNamespace(tri_on_edge=tri_on_edge)


# ---------------------------------------------------------------------------
# pairwise incompatibility criteria


def test_same_edge_same_side_conflicts(config):
    cs, mesh, em = strip_fixture(config, [[0.4, 0.5, 0], [0.6, 0.8, 0]])
    t1 = em.tri_on_edge(0, 1, 2, 3, 1)
    t2 = em.tri_on_edge(0, 1, 2, 4, 1)
    flag, shared = consolidate.incompatible(mesh, cs, config, t1, t2)
    assert flag and shared == (1, 2)


def test_same_edge_opposite_sides_coexist(config):
    cs, mesh, em = strip_fixture(config, [[0.4, 0.5, 0], [0.6, -0.8, 0]])
    t1 = em.tri_on_edge(0, 1, 2, 3, 1)
    t2 = em.tri_on_edge(0, 1, 2, 4, -1)
    flag, shared = consolidate.incompatible(mesh, cs, config, t1, t2)
    assert not flag and shared is None


def test_same_edge_apexes_without_a_side_coexist(config):
    # both apexes lie in the ribbon plane (zero offset along the
    # binormal), so criterion 1 cannot put them on one side, and the
    # flat fold keeps criterion 3 quiet
    cs, mesh, em = strip_fixture(config, [[0.5, 0, 0.5], [0.4, 0, -0.5]])
    t1 = em.tri_on_edge(0, 1, 2, 3, 1)
    t2 = em.tri_on_edge(0, 1, 2, 4, 1)
    assert consolidate.incompatible(mesh, cs, config, t1, t2) == (False,
                                                                  None)
    pairs = consolidate.find_incompatible_pairs(mesh, cs, config)
    assert pairs.shape == (0, 4) and pairs.dtype == np.int64


def test_sharp_fold_conflicts_even_across_sides(config):
    # apexes nearly straight up with tiny opposite leans: the side test
    # splits them but the fold is far sharper than dihedral_min_deg
    cs, mesh, em = strip_fixture(config, [[0.5, 0.05, 1], [0.5, -0.05, 1]])
    t1 = em.tri_on_edge(0, 1, 2, 3, 1)
    t2 = em.tri_on_edge(0, 1, 2, 4, -1)
    flag, shared = consolidate.incompatible(mesh, cs, config, t1, t2)
    assert flag and shared == (1, 2)


def test_fold_at_the_dihedral_threshold_is_compatible(config):
    # no provenance, so criterion 3 alone can flag the pair
    cs, mesh, _ = strip_fixture(config, [[0.4, 0.3, 0.5], [0.6, -0.2, 0.6]])
    t1 = mesh.add_triangle(1, 2, 3)
    t2 = mesh.add_triangle(1, 2, 4)
    fold = oracles.dihedral_deg(*mesh.positions[[1, 2, 3, 4]])
    for limit, want in ((fold, []),
                        (np.nextafter(fold, 180.0), [[t1, t2, 1, 2]])):
        at = dataclasses.replace(config, dihedral_min_deg=float(limit))
        stats = consolidate.ConsolidationStats()
        pairs = consolidate.find_incompatible_pairs(mesh, cs, at, stats=stats)
        assert (pairs.tolist() == want
                == oracles.find_incompatible_pairs(mesh, cs, at))
        assert stats.pairs_by_criterion == [0, 0, len(want)]
        assert consolidate.incompatible(mesh, cs, at, t1, t2)[0] == bool(want)


def test_overlapping_fans_conflict(config):
    # neighboring stroke edges, apex B's spoke stabs through triangle A
    cs, mesh, em = strip_fixture(config, [[0.5, 1, 0], [0.5, 0.5, 0]])
    t1 = em.tri_on_edge(0, 1, 2, 3, 1)
    t2 = em.tri_on_edge(0, 0, 1, 4, 1)
    assert set(mesh.tri_verts[t1]) & set(mesh.tri_verts[t2]) == {1}
    flag, shared = consolidate.incompatible(mesh, cs, config, t1, t2)
    assert flag and shared == (1, -1)
    # the sides come from the shared vertex's stroke frame, so a vertex
    # its chain marks not ok takes part in no criterion-2 conflict
    cs.ok[consolidate._gid_flat_index(cs, mesh.vertex_count())[1]] = False
    assert consolidate.incompatible(mesh, cs, config, t1, t2) == (False,
                                                                  None)
    assert (consolidate.find_incompatible_pairs(mesh, cs, config).tolist()
            == oracles.find_incompatible_pairs(mesh, cs, config) == [])


def test_separate_fans_coexist(config):
    cs, mesh, em = strip_fixture(config, [[0.5, 1, 0], [-0.6, 0.9, 0]])
    t1 = em.tri_on_edge(0, 1, 2, 3, 1)
    t2 = em.tri_on_edge(0, 0, 1, 4, 1)
    flag, _ = consolidate.incompatible(mesh, cs, config, t1, t2)
    assert not flag


def test_fans_on_opposite_sides_coexist(config):
    cs, mesh, em = strip_fixture(config, [[0.5, 1, 0], [0.5, -0.5, 0]])
    t1 = em.tri_on_edge(0, 1, 2, 3, 1)
    t2 = em.tri_on_edge(0, 0, 1, 4, -1)
    flag, _ = consolidate.incompatible(mesh, cs, config, t1, t2)
    assert not flag


def test_gid_flat_index_keeps_the_last_flat_index_of_a_gid():
    """Crease offset chains repeat gids: a gid maps to its last flat id,
    as a dict built in flat order keeps it, and a gid on no chain to
    -1."""
    rng = np.random.default_rng(72)
    for _ in range(50):
        lengths = rng.integers(1, 8, size=int(rng.integers(2, 5)))
        gids = rng.integers(0, 15, size=lengths.sum())
        gids[-1] = gids[0]
        cs = chain_set([chain(
            gid=g, pos=np.zeros((len(g), 3)), tan=np.zeros((len(g), 3)),
            nrm=np.zeros((len(g), 3)), bin=np.zeros((len(g), 3)),
            w=np.ones(len(g)), col=np.ones((len(g), 3)),
            ok=np.ones(len(g), dtype=bool))
            for g in np.split(gids, np.cumsum(lengths)[:-1])])
        last = {int(g): i for i, g in enumerate(cs.gid)}
        index = consolidate._gid_flat_index(cs, 20)
        assert index[gids[0]] == len(cs) - 1
        assert index.tolist() == [last.get(g, -1) for g in range(20)]


def test_find_pairs_skips_frozen_frozen(config):
    cs, mesh, em = strip_fixture(config, [[0.4, 0.5, 0], [0.6, 0.8, 0]])
    t1 = em.tri_on_edge(0, 1, 2, 3, 1)
    t2 = em.tri_on_edge(0, 1, 2, 4, 1)
    assert len(consolidate.find_incompatible_pairs(mesh, cs, config)) == 1
    assert t1 < t2
    pairs = consolidate.find_incompatible_pairs(mesh, cs, config,
                                                frozen=t2 + 1)
    assert len(pairs) == 0
    pairs = consolidate.find_incompatible_pairs(mesh, cs, config,
                                                frozen=t2)
    assert len(pairs) == 1


def test_classify_undecided_is_local(config):
    cs, mesh, em = strip_fixture(config, [[0.4, 0.5, 0], [0.6, 0.8, 0]])
    t1 = em.tri_on_edge(0, 1, 2, 3, 1)
    t2 = em.tri_on_edge(0, 1, 2, 4, 1)
    # a bystander touching the conflict edge's vertex, and a distant one
    far = mesh.add_vertices(np.array([[5, 0, 0], [6, 0, 0], [5, 1, 0.0],
                                      [1, -2, 0]]),
                            np.tile([0, 0, 1.0], (4, 1)), np.full(4, 0.3),
                            np.ones((4, 3)), np.zeros((4, 2), np.int64),
                            mesher.KIND_STROKE)
    toucher = mesh.add_triangle(2, far[3], far[0])
    distant = mesh.add_triangle(far[0], far[1], far[2])

    pairs = consolidate.find_incompatible_pairs(mesh, cs, config)
    undecided = consolidate.classify_undecided(mesh, pairs)
    assert undecided.tolist() == sorted([t1, t2, toucher])
    assert distant not in undecided

    comps = consolidate.undecided_components(mesh, undecided)
    assert comps == [sorted([t1, t2, toucher])]


def test_pair_search_on_a_crowded_edge_matches_scalar_reference(config):
    """Six triangles on the stroke edge (1, 2), one of them removed: the
    shared-edge pairs of the five active ones, listed by edge and tids,
    equal the scalar reference's whatever tid the phase begins at, the
    removed one included."""
    cs, mesh, em = strip_fixture(config, [[0.4, 0.5, 0], [0.6, 0.8, 0],
                                          [0.5, 0.3, 0.1], [0.3, -0.6, 0],
                                          [0.7, -0.4, 0.1], [0.5, 1.2, 0]])
    tids = [em.tri_on_edge(0, 1, 2, 3 + k, 1 if k in (0, 1, 2, 5) else -1)
            for k in range(6)]
    mesh.remove(tids[2])
    assert len(mesh.edge_map()[(1, 2)]) == 5
    for frozen in range(len(mesh.tri_verts) + 1):
        pairs = consolidate.find_incompatible_pairs(mesh, cs, config, frozen)
        assert pairs.tolist() == oracles.find_incompatible_pairs(
            mesh, cs, config, oracles.frozen_tids(mesh, frozen))
        if not frozen:
            assert len(pairs) == 4
            assert tids[2] not in pairs[:, :2]


@pytest.mark.parametrize("name", sorted(FLIP_SPECS))
def test_pair_search_matches_scalar_reference(name, monkeypatch):
    """At every consolidation pass of a noisy run, the batched search
    returns the scalar reference's pair rows, in the same order, under
    the pass's own frozen triangles and under others."""
    search = consolidate.find_incompatible_pairs
    kinds = set()
    frozen_sizes = []

    def checked(mesh, cs, config, frozen=0, stats=None):
        pairs = search(mesh, cs, config, frozen, stats)
        assert pairs.dtype == np.int64 and pairs.shape[1] == 4
        assert pairs.tolist() == oracles.find_incompatible_pairs(
            mesh, cs, config, oracles.frozen_tids(mesh, frozen))
        # unfrozen passes are checked with the older half of the rows
        # frozen, frozen ones without freezing
        other = 0 if frozen else len(mesh.tri_verts) // 2
        assert (search(mesh, cs, config, other).tolist()
                == oracles.find_incompatible_pairs(
                    mesh, cs, config, oracles.frozen_tids(mesh, other)))
        kinds.update("vertex" if b < 0 else "edge"
                     for b in pairs[:, 3].tolist())
        frozen_sizes.append(len(oracles.frozen_tids(mesh, frozen)))
        return pairs

    monkeypatch.setattr(consolidate, "find_incompatible_pairs", checked)
    drawing, _ = generate(FLIP_SPECS[name])
    run_pipeline(drawing)
    assert len(frozen_sizes) == 3 and frozen_sizes[0] == 0
    assert min(frozen_sizes[1:]) > 0
    assert kinds == {"edge", "vertex"}


def fan_pairs_reference(verts, usable, frozen):
    """Every (t1, t2, q) of triangles t1 < t2 sharing exactly the vertex
    q, with both corners on q marked in the (T, 3) mask `usable`, not
    both frozen, in (q, t1, t2) order."""
    at = {}
    for t, k in zip(*np.nonzero(usable)):
        at.setdefault(int(verts[t, k]), []).append(int(t))
    return [(t1, t2, q) for q in sorted(at)
            for i, t1 in enumerate(at[q]) for t2 in at[q][i + 1:]
            if not (frozen[t1] and frozen[t2])
            and len(set(verts[t1].tolist()) & set(verts[t2].tolist())) == 1]


@pytest.mark.parametrize("chunk", [7, 1000, consolidate.PAIR_CHUNK])
def test_fan_pairs_cut_batches_at_pair_chunk(chunk, monkeypatch):
    """Criterion-2 batches hold at most PAIR_CHUNK pairs, so a fan of 120
    triangles (7,140 pairs) spans batches, and together the batches
    list every shared-vertex pair of usable corners in order."""
    from test_topology import random_soup

    rng = np.random.default_rng(chunk)
    angles = np.linspace(0, 2 * np.pi, 121)[:, None]
    ring = np.hstack([np.cos(angles), np.sin(angles),
                      0.1 * rng.normal(size=(121, 1))])
    fan = mesh_ops.mesh_from_arrays(
        np.vstack([[0, 0, 0], ring]), [(0, i, i + 1) for i in range(1, 121)])
    monkeypatch.setattr(consolidate, "PAIR_CHUNK", chunk)
    counts = []
    for mesh in (fan, random_soup(chunk)[0]):
        verts = mesh.tri_verts
        # a fifth of the corners pruned, none on the fan's hub
        usable = ((mesh.tri_state != mesher.REMOVED)[:, None]
                  & ((rng.random(verts.shape) < 0.8) | (verts == 0)))
        frozen = int(rng.integers(0, len(verts) + 1))
        batches = list(consolidate._fan_pairs(verts, usable, frozen))
        assert all(len(c1) <= chunk for c1, _ in batches)
        got = [(c1 // 3, c2 // 3, int(verts.flat[c1]))
               for b1, b2 in batches
               for c1, c2 in zip(b1.tolist(), b2.tolist())]
        assert got == fan_pairs_reference(verts, usable,
                                          np.arange(len(verts)) < frozen)
        counts.append(len(batches))
    assert counts[0] >= 7140 // chunk + 1


def test_crit2_batch_temporaries_stay_small(monkeypatch):
    """Criterion 2 computes each triangle's frame and each corner's side
    once per search, so a batch only allocates row temporaries: about
    0.4-0.6 KB per pair (the spiral-noisy benchmark's largest 4,096-pair
    batch peaks at 2.3 MB over its entry, where recomputing the frame
    per row took 9.7 MB, 2.4 KB per pair). Bounded at 600 bytes per
    pair, 35% over the 446 measured here, far under the old figure."""
    crit2 = consolidate._crit2_overlapping_fans
    peaks = []

    def measured(mesh, fans, c1, c2):
        tracemalloc.start()
        try:
            out = crit2(mesh, fans, c1, c2)
            peaks.append((tracemalloc.get_traced_memory()[1], len(c1)))
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(consolidate, "_crit2_overlapping_fans", measured)
    for spec in FLIP_SPECS.values():
        run_pipeline(generate(spec)[0])
    big = [(peak, n) for peak, n in peaks if n >= 500]
    assert len(big) >= 2
    assert all(peak <= 600 * n for peak, n in big), big


# ---------------------------------------------------------------------------
# clustering


def solved(g):
    """Clusters of the oracles.ConflictGraph `g` by solve_clustering, as
    node -> cluster id, and their objective."""
    graph = g.record()
    labels = consolidate.solve_clustering(graph)
    return g.clusters(labels), consolidate.clustering_objective(graph,
                                                                labels)


def test_clustering_worked_example(config):
    g = oracles.ConflictGraph(nodes=[10, 20])
    g.add_arc(10, 20, config.incompatible_weight, hard=True)
    g.add_arc(OUT_NODE, 10, 5.0)
    g.add_arc(OUT_NODE, 20, 2.0)
    assign, objective = solved(g)
    assert assign[10] == assign[OUT_NODE]
    assert assign[20] != assign[OUT_NODE]
    assert objective == pytest.approx(5.0)


def test_clustering_all_positive_single_cluster(config):
    g = oracles.ConflictGraph(nodes=[1, 2, 3])
    g.add_arc(OUT_NODE, 1, 1.0)
    g.add_arc(1, 2, 2.0)
    g.add_arc(2, 3, 1.0)
    assign, objective = solved(g)
    assert len({assign[n] for n in [OUT_NODE, 1, 2, 3]}) == 1
    assert objective == pytest.approx(4.0)


def test_clustering_chain_keeps_nearer_node(config):
    g = oracles.ConflictGraph(nodes=[1, 2])
    g.add_arc(OUT_NODE, 1, 3.0)
    g.add_arc(1, 2, 3.0)
    g.add_arc(1, 2, config.incompatible_weight, hard=True)
    assign, objective = solved(g)
    assert assign[1] == assign[OUT_NODE]
    assert assign[2] != assign[OUT_NODE]
    assert objective == pytest.approx(3.0)


def test_arc_weights_accumulate():
    g = oracles.ConflictGraph(nodes=[1, 2])
    g.add_arc(1, 2, 2.0)
    g.add_arc(2, 1, 0.5)
    assert g.arcs == {(1, 2): 2.5}
    assert not g.hard
    g.add_arc(1, 2, -30.0, hard=True)
    g.add_arc(2, OUT_NODE, 1.5)
    assert g.arcs == {(1, 2): -27.5, (OUT_NODE, 2): 1.5}
    assert g.hard == {(1, 2)}
    graph = g.record()
    assert graph.nodes.tolist() == [1, 2]
    assert (graph.u.tolist(), graph.v.tolist()) == ([1, OUT_NODE], [2, 2])
    assert graph.w.tolist() == [-27.5, 1.5]
    assert graph.hard.tolist() == [True, False]
    assert [x.tolist() for x in graph.ends()] == [[1, 0], [2, 2]]
    assert oracles.ConflictGraph.of(graph) == g


def random_conflict_graph(rng):
    """Random graphs with the arc structure build_conflict_graph emits:
    hard incompatibility arcs, +1 compatible-edge arcs, and an output
    arc of M(t) + C per node, occasionally hard-blocked."""
    n = int(rng.integers(2, 13))
    g = oracles.ConflictGraph(nodes=list(range(n)))
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.random()
            if r < 0.25:
                g.add_arc(i, j, -30.0, hard=True)
            elif r < 0.5:
                g.add_arc(i, j, 1.0)
    for i in range(n):
        m_t = float(rng.uniform(0.0, 2.0))
        g.add_arc(OUT_NODE, i, m_t + int(rng.integers(0, 3)))
        if rng.random() < 0.1:      # conflicts with a kept triangle
            g.add_arc(OUT_NODE, i, -30.0, hard=True)
    return g


def test_clustering_against_exact_optimum():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        g = random_conflict_graph(rng)
        assign, got = solved(g)
        for (u, v) in g.hard:
            assert assign[u] != assign[v]
        assert got == oracles.clustering_objective(g, assign)
        best = oracles.partition_optimum([OUT_NODE] + g.nodes,
                                         g.arcs, g.hard)
        assert got <= best + 1e-9
        assert got >= 0.95 * best - 1e-9


def test_greedy_clustering_against_exact_optimum(monkeypatch):
    # every random graph has at most 12 nodes, so lower the limit to
    # send all of them down the greedy path
    monkeypatch.setattr(consolidate, "EXACT_NODE_LIMIT", 1)
    greedy = consolidate._solve_greedy
    graphs = []
    monkeypatch.setattr(consolidate, "_solve_greedy",
                        lambda graph: graphs.append(graph) or greedy(graph))
    worst = np.inf
    for seed in (2024, 505):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            g = random_conflict_graph(rng)
            assign, got = solved(g)
            for (u, v) in g.hard:
                assert assign[u] != assign[v]
            best = oracles.partition_optimum([OUT_NODE] + g.nodes,
                                             g.arcs, g.hard)
            assert got <= best + 1e-9
            if best > 0:
                worst = min(worst, got / best)
    assert len(graphs) == 600
    # greedy contraction plus single-node moves is not near-optimal:
    # the worst ratio on these graphs is 0.538
    assert worst >= 0.5


def large_conflict_graph(rng):
    """Random graphs of 13-400 nodes with the arcs build_conflict_graph
    emits, in its order. Nodes lie along a few strips, with sparse ids
    as tids have. Hard -30 arcs join nearby nodes and the output node to
    a few nodes (a conflict with a kept triangle, once or twice), then
    +1 compatible arcs join nearby nodes of one strip that are not hard,
    then every node gets an output arc of M(t) + C, which lands on the
    hard output keys as well. On weak strips M(t) + C stays below 1, so
    a strip contracts over its +1 arcs before its output arcs, and its
    summed output arcs can outweigh a hard one."""
    n = int(rng.integers(13, 401))
    nodes = np.sort(rng.choice(4 * n, size=n, replace=False)).tolist()
    strip = np.searchsorted(
        np.sort(rng.choice(n, size=int(rng.integers(0, 5)))), np.arange(n),
        side="right")
    weak = rng.random(strip[-1] + 1) < 0.5
    g = oracles.ConflictGraph(nodes=nodes)
    reach = int(rng.integers(2, 9))
    near = [(i, j) for i in range(n)
            for j in range(i + 1, min(n, i + reach + 1))]
    # hard arcs sparse on half of the graphs, up to dense on the rest
    is_hard = rng.random(len(near)) < rng.choice([0.05, 0.5]) * rng.random()
    hard = [(nodes[i], nodes[j]) for (i, j), h in zip(near, is_hard) if h]
    for i in rng.choice(n, size=int(rng.integers(1, 4)), replace=False):
        hard += [(OUT_NODE, nodes[i])] * int(rng.integers(1, 3))
    for k in rng.permutation(len(hard)):
        g.add_arc(*hard[k], -30.0, hard=True)
    p_soft = rng.uniform(0.3, 1.0)
    for (i, j), h in zip(near, is_hard):
        if not h and strip[i] == strip[j] and rng.random() < p_soft:
            g.add_arc(nodes[i], nodes[j], 1.0)
    for i, t in enumerate(nodes):
        out = (float(rng.uniform(0.0, 0.9)) if weak[strip[i]] else
               float(rng.uniform(0.0, 2.0)) + int(rng.integers(0, 4)))
        g.add_arc(OUT_NODE, t, out)
    return g


class _HeapLog:
    """heapq as the solvers use it, logging every arc entry pushed as
    (-w, (u, v)) in node ids. The array solver's entries (-w, a, b) name
    node indices, which `ids`, [OUT_NODE] + nodes, maps back."""

    def __init__(self):
        self.arcs = []
        self.ids = None

    def _log(self, item):
        if isinstance(item, tuple):
            if len(item) == 3:
                item = (item[0], (self.ids[item[1]], self.ids[item[2]]))
            self.arcs.append(item)

    def heapify(self, heap):
        for item in heap:
            self._log(item)
        heapq.heapify(heap)

    def heappush(self, heap, item):
        self._log(item)
        heapq.heappush(heap, item)

    heappop = staticmethod(heapq.heappop)


def test_greedy_solver_matches_reference(monkeypatch):
    """The soft-arc contraction and the dirty-node sweeps give the
    reference's clusters exactly. Every entry the solver's heap holds is
    one the reference's holds. The reference's heap also holds cluster
    pairs whose summed weight is positive although a hard arc runs
    across them, which the solver leaves out; some graph must have one,
    or the comparison would not test that argument."""
    ref_log, new_log = _HeapLog(), _HeapLog()
    monkeypatch.setattr(oracles, "heapq", ref_log)
    monkeypatch.setattr(consolidate, "heapq", new_log)
    rng = np.random.default_rng(1208)
    left_out = 0
    for _ in range(300):
        g = large_conflict_graph(rng)
        # hard output keys, each with its output arc on it
        assert any(key[0] == OUT_NODE for key in g.hard)
        ref_log.arcs.clear()
        new_log.arcs.clear()
        new_log.ids = [OUT_NODE] + sorted(g.nodes)
        labels = consolidate._solve_greedy(g.record())
        assert g.clusters(labels) == oracles.solve_greedy(g)
        assert not Counter(new_log.arcs) - Counter(ref_log.arcs)
        left_out += bool(Counter(ref_log.arcs) - Counter(new_log.arcs))
    assert left_out > 0


def tied_conflict_graph(rng, repulsive):
    """Random graphs of 13-300 nodes on which ties decide: sparse,
    non-contiguous ids, soft inner arcs of exactly +1, or -1 on a
    `repulsive` share of them, output arcs drawn from a few repeated
    weights, some negative, hard -30 arcs between nearby nodes and on a
    few output keys, all added in a random order."""
    n = int(rng.integers(13, 301))
    nodes = np.sort(rng.choice(10 * n, size=n, replace=False)).tolist()
    arcs = []
    for i in range(n):
        for j in range(i + 1, min(n, i + 6)):
            r = rng.random()
            if r < 0.2:
                arcs.append((nodes[i], nodes[j], -30.0, True))
            elif r < 0.8:
                w = -1.0 if rng.random() < repulsive else 1.0
                arcs.append((nodes[i], nodes[j], w, False))
    outs = rng.choice([-1.0, 0.0, 0.1, 0.7, 1.0, 1.3, 2.0], size=3)
    arcs += [(OUT_NODE, t, float(rng.choice(outs)), False) for t in nodes]
    arcs += [(OUT_NODE, nodes[i], -30.0, True)
             for i in rng.choice(n, size=int(rng.integers(0, 4)))]
    g = oracles.ConflictGraph(nodes=nodes)
    for k in rng.permutation(len(arcs)):
        g.add_arc(*arcs[k])
    return g


@pytest.mark.parametrize("repulsive", [0.0, 0.3])
def test_greedy_solver_matches_reference_on_ties(monkeypatch, repulsive):
    """With +1 soft arcs and repeated output weights most heap pops and
    moves are decided by the smallest-id tie rules, on ids whose gaps
    would expose an index taken for an id. The solver's clusters equal
    the reference's, and its objective and bound are bit-identical to
    the dict sums. Some graphs must move nodes after the contraction,
    and with -1 arcs some node must leave for a fresh cluster."""
    contract = consolidate._contract
    contracted = []
    monkeypatch.setattr(consolidate, "_contract", lambda *args: (
        contracted.append(contract(*args)) or contracted[-1]))
    move = oracles._move_node
    fresh = []
    monkeypatch.setattr(oracles, "_move_node", lambda cluster, members, n,
                        tgt: fresh.append(tgt not in members)
                        or move(cluster, members, n, tgt))
    rng = np.random.default_rng(23)
    moved = 0
    for _ in range(150):
        g = tied_conflict_graph(rng, repulsive)
        graph = g.record()
        labels = consolidate._solve_greedy(graph)
        assign = g.clusters(labels)
        assert assign == oracles.solve_greedy(g)
        got = consolidate.clustering_objective(graph, labels)
        want = oracles.clustering_objective(g, assign)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        got = consolidate.clustering_bound(graph)
        want = oracles.clustering_bound(g)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        moved += labels.tolist() != contracted[-1]
    assert moved > 0
    assert any(fresh) == (repulsive > 0)


def test_greedy_solver_matches_reference_on_a_noisy_run(monkeypatch):
    """Every greedy solve of a noisy cube spiral, against the
    reference."""
    greedy = consolidate._solve_greedy
    sizes = []

    def checked(graph):
        labels = greedy(graph)
        g = oracles.ConflictGraph.of(graph)
        assert len(g.arcs) == len(graph.w)
        assert g.clusters(labels) == oracles.solve_greedy(g)
        sizes.append(len(graph.nodes))
        return labels

    monkeypatch.setattr(consolidate, "_solve_greedy", checked)
    drawing, _ = generate(CUBE_SPIRAL)
    run_pipeline(drawing)
    assert max(sizes) > 100


# ---------------------------------------------------------------------------
# end to end and the repair net


def test_consolidate_mesh_resolves_conflict(config):
    # apex at flat(1, 0) sits in the acceptance sweet spot, the other far
    cs, mesh, em = strip_fixture(config, [[0.5, 0.45, 0], [0.55, 1.4, 0]])
    t1 = em.tri_on_edge(0, 1, 2, 3, 1)
    t2 = em.tri_on_edge(0, 1, 2, 4, 1)
    m1, m2 = consolidate._emission_scores(mesh, cs, config, [t1, t2])
    assert m1 > m2
    removed, undecided = consolidate.consolidate_mesh(mesh, cs, config)
    assert (removed, undecided) == (1, 2)
    assert mesh.is_active(t1) and not mesh.is_active(t2)
    bad_e, bad_v = mesh_ops.audit_manifold(mesh)
    assert not bad_e and not bad_v


def test_consolidate_mesh_raises_when_a_conflict_survives(config,
                                                         monkeypatch):
    """A solver that put every node with the output node would keep both
    triangles of an incompatible pair; the pass raises instead of
    returning a mesh that holds the conflict."""
    cs, mesh, em = strip_fixture(config, [[0.4, 0.5, 0], [0.6, 0.8, 0]])
    t1 = em.tri_on_edge(0, 1, 2, 3, 1)
    t2 = em.tri_on_edge(0, 1, 2, 4, 1)
    monkeypatch.setattr(
        consolidate, "solve_clustering",
        lambda graph: np.zeros(len(graph.nodes) + 1, dtype=np.int64))
    with pytest.raises(consolidate.InvariantError,
                       match=rf"\({t1}, {t2}\) survived"):
        consolidate.consolidate_mesh(mesh, cs, config)


@pytest.mark.parametrize("found", [([], []), ([], [7])],
                         ids=["clean", "pinched"])
def test_consolidate_mesh_raises_when_its_final_audit_finds_a_bad_vertex(
        config, monkeypatch, found):
    """The pass ends with one audit of the mesh the repair net left, and
    raises when that audit finds a bad vertex."""
    cs, mesh, _ = strip_fixture(config, [[0.4, 0.5, 0], [0.6, 0.8, 0]])
    audits = []

    def audit(m):
        audits.append(m)
        return found

    monkeypatch.setattr(mesh_ops, "audit_manifold", audit)
    monkeypatch.setattr(consolidate, "repair_nonmanifold",
                        lambda m, frozen=0: [])
    if found[1]:
        with pytest.raises(consolidate.InvariantError,
                           match="0 edges, 1 vertices"):
            consolidate.consolidate_mesh(mesh, cs, config)
    else:
        consolidate.consolidate_mesh(mesh, cs, config)
    assert audits == [mesh]


@pytest.mark.parametrize("name", sorted(FLIP_SPECS))
def test_conflict_graphs_equal_the_dict_built_reference(name, monkeypatch):
    """Every component graph of every consolidation pass, sliced from
    the arrays the pass builds before solving any component, equals the
    reference built arc by arc when the component is solved, after the
    earlier components were applied: equal nodes, arc keys and hard
    sets, and bitwise-equal weights. The runs must reach every kind of
    arc: inner hard, hard output, compatible."""
    consolidate_mesh = consolidate.consolidate_mesh
    classify = consolidate.classify_undecided
    build = consolidate.build_conflict_graph
    passes = []
    arcs = Counter()

    def traced_pass(mesh, cs, config, frozen=0, stats=None):
        passes.append(dict(mesh=mesh, cs=cs, config=config, graphs=0))
        return consolidate_mesh(mesh, cs, config, frozen, stats)

    def traced_classify(mesh, pairs, frozen=0):
        undecided = classify(mesh, pairs, frozen)
        passes[-1].update(pairs=pairs, incidence=mesh.edge_map(),
                          undecided=undecided)
        return undecided

    def checked(component, *comp_arcs):
        record = build(component, *comp_arcs)
        graph = oracles.ConflictGraph.of(record)
        p = passes[-1]
        want = oracles.build_conflict_graph(
            p["mesh"], p["cs"], p["config"], component, p["pairs"],
            p["incidence"], p["undecided"])
        assert graph.nodes == want.nodes
        # one arc per key, in key order
        assert list(graph.arcs) == sorted(want.arcs) == sorted(graph.arcs)
        assert len(graph.arcs) == len(record.w)
        assert graph.hard == want.hard
        keys = list(want.arcs)
        assert (np.array([graph.arcs[k] for k in keys]).tobytes()
                == np.array([want.arcs[k] for k in keys]).tobytes())
        p["graphs"] += 1
        for u, v in keys:
            arcs[("hard " if (u, v) in graph.hard else "")
                 + ("output" if u == OUT_NODE else "inner")] += 1
        return record

    monkeypatch.setattr(consolidate, "consolidate_mesh", traced_pass)
    monkeypatch.setattr(consolidate, "classify_undecided", traced_classify)
    monkeypatch.setattr(consolidate, "build_conflict_graph", checked)
    run_pipeline(generate(FLIP_SPECS[name])[0])
    assert len(passes) == 3 and passes[0]["graphs"] > 0
    assert min(arcs[k] for k in ("hard output", "hard inner", "inner",
                                 "output")) > 0


@pytest.mark.parametrize("spec", FLIP_SPECS.values(), ids=FLIP_SPECS.keys())
def test_emission_scores_equal_the_per_triangle_reference(config, spec):
    cs = matcher.stroke_chains(generate(spec)[0])
    table = matcher.match_all(matcher.baseline_candidates(cs, config),
                              config)
    mesh = mesher.mesh_from_matches(table, config)
    # degenerate frames drop their rows from M(t)
    cs.ok &= np.random.default_rng(3).random(len(cs)) > 0.15
    tids = mesh.active_ids()
    got = consolidate._emission_scores(mesh, cs, config, tids)
    want = [oracles.emission_score(mesh, cs, config, t) for t in tids]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec", FLIP_SPECS.values(), ids=FLIP_SPECS.keys())
def test_scored_triangles_name_their_own_gids_by_flat_id(spec, monkeypatch):
    """Every triangle consolidation scores is active and undecided in
    its pass, and the flat ids of its provenance row name, in the chain
    set of the pass, its edge's gids and its three corners."""
    scores = consolidate._emission_scores
    classify = consolidate.classify_undecided
    chainsets, undecided = [], []

    def traced_classify(mesh, pairs, frozen=0):
        undecided.append(classify(mesh, pairs, frozen))
        return undecided[-1]

    def checked(mesh, cs, config, tids):
        tids = np.asarray(tids, dtype=np.int64)
        assert mesh.is_active(tids).all()
        assert np.isin(tids, undecided[-1]).all()
        prov = mesh.tri_prov[tids]
        assert (prov[:, 2:5] >= 0).all()
        assert np.array_equal(cs.gid[prov[:, 2:4]], prov[:, :2])
        assert np.array_equal(np.sort(cs.gid[prov[:, 2:5]], axis=1),
                              np.sort(mesh.tri_verts[tids], axis=1))
        if not any(c is cs for c in chainsets):
            chainsets.append(cs)
        return scores(mesh, cs, config, tids)

    monkeypatch.setattr(consolidate, "classify_undecided", traced_classify)
    monkeypatch.setattr(consolidate, "_emission_scores", checked)
    drawing, _ = generate(spec)
    run_pipeline(drawing, PipelineOptions(preserve_creases=True))
    assert len(chainsets) >= 2


def test_consolidate_mesh_leaves_clean_strips_alone(config, flat_pair):
    cs = matcher.stroke_chains(flat_pair)
    table = matcher.match_all(matcher.baseline_candidates(cs, config),
                              config)
    mesh = mesher.mesh_from_matches(table, config)
    removed, undecided = consolidate.consolidate_mesh(mesh, cs, config)
    assert (removed, undecided) == (0, 0)
    assert mesh.active_count() == 18


def soup_mesh(n_extra=0):
    mesh = mesher.SurfaceMesh()
    pos = [[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0],
           [0.5, 0.5, 1], [-1, 0.5, 0], [-1, -0.5, 0]]
    pos += [[3 + i, 0, 0] for i in range(n_extra)]
    pos = np.asarray(pos, dtype=float)
    n = len(pos)
    mesh.add_vertices(pos, np.tile([0, 0, 1.0], (n, 1)), np.full(n, 0.2),
                      np.ones((n, 3)), np.zeros((n, 2), np.int64),
                      mesher.KIND_STROKE)
    return mesh


def test_repair_removes_newest_at_overfull_edge():
    mesh = soup_mesh()
    t0 = mesh.add_triangle(0, 1, 2)
    t1 = mesh.add_triangle(0, 1, 3)
    t2 = mesh.add_triangle(0, 1, 4)
    removed = consolidate.repair_nonmanifold(mesh)
    assert removed == [t2]
    assert mesh.is_active(t0) and mesh.is_active(t1)
    bad_e, bad_v = mesh_ops.audit_manifold(mesh)
    assert not bad_e and not bad_v


def test_repair_overfull_edge_respects_frozen():
    """Three triangles on one edge: wherever the phase begins, the
    newest goes, so the phase's own before any frozen one, as the
    reference, given the frozen set, removes."""
    for frozen in range(4):
        mesh = soup_mesh()
        t0 = mesh.add_triangle(0, 1, 2)
        t1 = mesh.add_triangle(0, 1, 3)
        t2 = mesh.add_triangle(0, 1, 4)
        ref = copy.deepcopy(mesh)
        removed = consolidate.repair_nonmanifold(mesh, frozen=frozen)
        assert removed == [t2] == oracles.repair_nonmanifold(
            ref, frozen=oracles.frozen_tids(ref, frozen))
        assert mesh.is_active(t0) and mesh.is_active(t1)


def test_repair_separates_bowtie_fans():
    mesh = soup_mesh()
    t0 = mesh.add_triangle(0, 1, 2)     # fan A at vertex 0
    t1 = mesh.add_triangle(0, 2, 5)
    t2 = mesh.add_triangle(0, 3, 6)     # fan B, vertex only
    removed = consolidate.repair_nonmanifold(mesh)
    assert removed == [t2]                        # smaller fan goes whole
    assert mesh_ops.audit_manifold(mesh) == ([], [])


def test_repair_reads_each_overfull_edge_from_live_rows():
    """Clearing (0, 1) removes t2, which (1, 4) lists too; (1, 4) then
    holds two active triangles and loses none, though three were on it
    when the repair began."""
    mesh = soup_mesh()
    t0 = mesh.add_triangle(0, 1, 2)
    t1 = mesh.add_triangle(0, 1, 3)
    t2 = mesh.add_triangle(0, 1, 4)
    t3 = mesh.add_triangle(1, 4, 2)
    t4 = mesh.add_triangle(1, 4, 3)
    assert mesh_ops.audit_manifold(mesh)[0] == [(0, 1), (1, 4)]
    ref = copy.deepcopy(mesh)
    removed = consolidate.repair_nonmanifold(mesh)
    assert removed == [t2] == oracles.repair_nonmanifold(ref)
    assert mesh.active_ids() == [t0, t1, t3, t4]
    assert mesh_ops.audit_manifold(mesh) == ([], [])


def test_repair_bowtie_prefers_frozen_fan():
    mesh = soup_mesh()
    t0 = mesh.add_triangle(0, 3, 6)     # fan B, of an earlier phase
    t1 = mesh.add_triangle(0, 1, 2)     # fan A, larger
    t2 = mesh.add_triangle(0, 2, 5)
    ref = copy.deepcopy(mesh)
    removed = consolidate.repair_nonmanifold(mesh, frozen=t1)
    assert sorted(removed) == [t1, t2]            # frozen fan survives
    assert removed == oracles.repair_nonmanifold(ref, frozen={t0})
    assert mesh.is_active(t0)
    bad_e, bad_v = mesh_ops.audit_manifold(mesh)
    assert not bad_e and not bad_v
