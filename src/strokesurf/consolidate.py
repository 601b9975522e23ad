"""Consolidating overlapping strips into a manifold surface layer.

Meshing happily emits strips from both participants of a symmetric
match, around T-junctions, and across self-adjacent folds. This module
finds pairs of triangles that cannot coexist on a manifold surface,
declares everything near such conflicts undecided, and solves one
correlation-clustering problem per conflicted region: triangles
clustered together with the designated output node stay, the rest go.
Incompatible pairs may never share a cluster, which is what makes the
retained set manifold-safe. A final deterministic sweep clears any
residual non-manifold configuration the pairwise criteria cannot
express (three wide-angle sheets on one edge, pinched vertex fans).

The incompatible pairs are one (P, 4) int64 table of rows (t1, t2, a,
b), t1 < t2, naming the shared edge (a, b), a < b, or the shared vertex
a with b = -1. Shared-edge pairs come from the triangle table's edge
keys and are tested with numpy, criterion 1 then criterion 3. Pairs
sharing only a vertex are many on noisy input, so criterion 2 tests the
pairs of every vertex fan in batches of PAIR_CHUNK, which bounds memory.

Criterion 2 does once what does not depend on the pair. Per triangle,
once per search: the crossing test's plane frame, 2D corners and
inward edge normals (geometry.triangle_frames). Per corner (a triangle
on a vertex), once per search: the side of the vertex's stroke that the
triangle's centroid lies on; corners that cannot pass (no provenance
edge, a vertex on no chain or not ok, a side of 0) are dropped before
any pair is formed. Per pair: the two sides and provenance edges are
compared. Per spoke, of the pairs left: the spoke's far end is
projected into the other triangle's frame, where the shared vertex is
a corner, and clipped (geometry.segments_cross_frames). Every value is
computed by the same operations, in the same order, as when each row
recomputed its triangle, and corners are dropped only where a pair of
them would fail anyway, so the pair table is unchanged.

A pass builds the arcs of all its conflict graphs in one array pass
before solving any component. Two invariants make that exact:
- a pair's partner outside a component is frozen and active, since a
  pair's unfrozen triangles are undecided and undecided triangles
  sharing a vertex share a component;
- the triangles already kept on a node's edges are the active ones
  there that are not undecided, since undecided edge neighbours share
  a component and a solve decides only its own triangles.
A ConsolidationStats passed to consolidate_mesh collects what a pass
found and did, for the run report.

The clustering solvers work on node indices, 0 for OUT_NODE and k for
the component's k-th triangle: components are ascending tids and
OUT_NODE is -1, so index order is id order and every smallest-id tie
rule keeps its meaning. Float sums (the moves' gains, greedy_objective,
greedy_bound) add in arc order one term at a time, as Python's sum over
tolist() does; np.sum's pairwise summation could change the last bits.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geometry, mesh_ops, scoring
from .matcher import pair_sigmas
from .mesher import (REMOVED, apex_sides, join_equal_keys, run_pairs,
                     split_by_label)

OUT_NODE = -1

# largest conflict component solved exactly; bigger ones get the
# greedy contraction solver
EXACT_NODE_LIMIT = 12

# vertex-fan triangle pairs per criterion-2 batch
PAIR_CHUNK = 4096


class InvariantError(RuntimeError):
    """An internal guarantee was violated; indicates a pipeline bug."""


@dataclass
class ConsolidationStats:
    """Counts from consolidation passes; passes given the same instance
    add to it. `pairs_by_criterion[k - 1]` counts the incompatible pairs
    criterion k flagged. `greedy_objective` sums the clustering_objective
    of the greedy solves and `greedy_bound` the clustering_bound of their
    graphs, an upper bound on it. `component_histogram[k]`
    counts the undecided components of 2**k to 2**(k + 1) - 1
    triangles. `edge_pairs_tested` counts the shared-edge pairs that
    criteria 1 and 3 scored, and `vertex_pairs_tested` the shared-vertex
    pairs that reached criterion 2's crossing test."""

    pairs_by_criterion: list = field(default_factory=lambda: [0, 0, 0])
    undecided: int = 0
    components: int = 0
    largest_component: int = 0
    component_histogram: list = field(default_factory=list)
    exact_solves: int = 0
    greedy_solves: int = 0
    greedy_objective: float = 0.0
    greedy_bound: float = 0.0
    repair_removed: int = 0
    edge_pairs_tested: int = 0
    vertex_pairs_tested: int = 0


def _gid_flat_index(cs, n_vertices):
    """Array gid -> flat index in the current chain set, -1 for gids on
    no chain. A gid listed twice maps to its last flat index."""
    index = np.full(n_vertices, -1, dtype=np.int64)
    np.maximum.at(index, cs.gid, np.arange(len(cs)))
    return index


def _edge_criteria(mesh, cs, config, gid2flat, prov_edges, t1, t2, edges):
    """Per pair of triangles (t1[i], t2[i]) sharing edges[i] = (a, b):
    the criterion that makes them incompatible, 1 or 3, else 0.
    Criterion 1: both hang on one stroke edge of the current chains,
    with their apexes on one side of it. Criterion 3: they fold sharper
    than the dihedral threshold. Each criterion scores all its pairs at
    once; `prov_edges` is _provenance_edges(mesh)."""
    verts = mesh.tri_verts
    crit = np.zeros(len(t1), dtype=np.int64)
    pos = mesh.positions

    e = prov_edges[t1]
    f = gid2flat[e]
    rows = np.flatnonzero((e[:, 0] >= 0) & (e == prov_edges[t2]).all(axis=1)
                          & (f >= 0).all(axis=1))
    e, f = e[rows], f[rows]
    apexes = np.stack([mesh_ops.third_vertices(verts[t1[rows]], e),
                       mesh_ops.third_vertices(verts[t2[rows]], e)], axis=1)
    sides = apex_sides(cs, np.repeat(f[:, 0], 2), np.repeat(f[:, 1], 2),
                       pos[apexes.ravel()],
                       np.repeat(mesh.widths[e[:, 0]], 2)).reshape(-1, 2)
    crit[rows[(sides[:, 0] != 0) & (sides[:, 0] == sides[:, 1])]] = 1

    rest = np.flatnonzero(crit == 0)
    ab = edges[rest]
    c = mesh_ops.third_vertices(verts[t1[rest]], ab)
    d = mesh_ops.third_vertices(verts[t2[rest]], ab)
    di = geometry.dihedral_deg_rows(
        *(pos.take(x, axis=0) for x in (ab[:, 0], ab[:, 1], c, d)))
    crit[rest[di < config.dihedral_min_deg]] = 3
    return crit


def _provenance_edges(mesh):
    """The provenance edge of every triangle as sorted gids, (T, 2), -1
    where it has none."""
    return np.sort(mesh.tri_prov[:, :2], axis=1)


def _spoke_ends(verts, c):
    """The gids at the other two corners of the triangles of corners c,
    flat ids 3 t + k naming corner k of triangle t of the (T, 3) table
    `verts`: the far ends of the corners' two spokes."""
    k = c % 3
    flat = verts.ravel()
    return flat.take(c - k + (k + 1) % 3), flat.take(c - k + (k + 2) % 3)


class _FanCorners(NamedTuple):
    """What criterion 2 reads about the triangles it tests, computed
    once per search. Corner c = 3 t + k is corner k of triangle t."""

    # (3T,) int8: the side of the corner vertex's stroke that the
    # triangle's centroid lies on, 0 for a corner no pair can pass on
    side: np.ndarray
    # (T,) int64: a key of each triangle's provenance edge
    edge: np.ndarray
    # geometry.triangle_frames of the triangles with a nonzero side,
    # column slot[t] for triangle t
    frames: np.ndarray
    ok: np.ndarray
    slot: np.ndarray


def _corner_sides(mesh, cs, gid2flat, edges, tids):
    """(T, 3) int8: for each corner of the triangles `tids` that can
    pass criterion 2, the side of its vertex's stroke (the sign of the
    offset along the vertex's binormal) that the triangle's centroid
    lies on; 0 for the other corners, and for a centroid within 1e-9 of
    the stroke width of that plane. A corner can pass only if its
    triangle has a provenance edge and its vertex is on a chain and ok
    there."""
    verts = mesh.tri_verts
    side = np.zeros(verts.shape, dtype=np.int8)
    tids = tids[edges[tids, 0] >= 0]
    corners = verts[tids]
    fq = gid2flat[corners]
    on = fq >= 0
    on[on] = cs.ok[fq[on]]
    t, k = np.nonzero(on)
    fq = fq[t, k]
    # one coordinate at a time, in the order of a dot product
    for j in range(3):
        pos = mesh.positions[:, j]
        c = (pos[corners[:, 0]] + pos[corners[:, 1]]
             + pos[corners[:, 2]]) / 3.0
        term = (c[t] - cs.pos[fq, j]) * cs.bin[fq, j]
        off = term if j == 0 else off + term
    eps = 1e-9 * np.maximum(1.0, cs.w[fq])
    side[tids[t], k] = np.where(np.abs(off) < eps, 0,
                                np.where(off > 0, 1, -1))
    return side


def _fan_corners(mesh, cs, gid2flat, edges, tids):
    """_FanCorners of the triangles `tids`."""
    verts = mesh.tri_verts
    side = _corner_sides(mesh, cs, gid2flat, edges, tids)
    used = np.flatnonzero(side.any(axis=1))
    slot = np.full(len(verts), -1)
    slot[used] = np.arange(len(used))
    corners = mesh.positions[verts[used]]
    frames, ok = geometry.triangle_frames(corners[:, 0], corners[:, 1],
                                          corners[:, 2])
    edge = edges[:, 0] * mesh.vertex_count() + edges[:, 1]
    return _FanCorners(side.ravel(), edge, frames, ok, slot)


def _crit2_overlapping_fans(mesh, fans, c1, c2):
    """Criterion 2 over arrays of triangle pairs sharing exactly one
    vertex, given as the corners c1[i], c2[i] on it, both with a
    nonzero side in the _FanCorners `fans`: the triangles hang on
    different stroke edges, their centroids lie on the same side of the
    vertex's stroke, and a spoke of one from the vertex, projected onto
    the other, crosses its interior. Returns a bool array and the
    number of pairs that reached the crossing test."""
    t1, t2 = c1 // 3, c2 // 3
    hit = np.zeros(len(c1), dtype=bool)
    rows = np.flatnonzero((fans.side[c1] == fans.side[c2])
                          & (fans.edge[t1] != fans.edge[t2]))

    # both spokes of each triangle from the shared vertex, against the
    # other triangle, in whose frame that vertex is a corner
    spoked = np.concatenate([c1[rows], c2[rows]])
    other = np.concatenate([c2[rows], c1[rows]])
    tri = fans.slot.take(other // 3)
    # take is far faster than fancy indexing on these small tables
    at = (geometry.FRAME_CORNERS + 2 * (other % 3)) * len(fans.ok) + tri
    frames = fans.frames
    q0 = frames.take(at), frames.take(at + len(fans.ok))
    q1 = geometry.frame_coordinates(frames, tri, mesh.positions.take(
        _spoke_ends(mesh.tri_verts, spoked), axis=0))
    crosses = geometry.segments_cross_frames(frames, fans.ok, tri, q0, q1)
    hit[rows] = crosses.any(axis=0).reshape(2, -1).any(axis=0)
    return hit, len(rows)


def _edge_pairs(mesh, skip):
    """(t1, t2, edges) of every pair of active triangles t1 < t2 on one
    edge, (R, 2) with a < b, that the bool mask `skip` does not mark
    both, ordered by edge, then t1, then t2."""
    tids, _, index = mesh.edges()
    c1, c2 = index.corner_pairs()
    t1, t2 = tids[c1 // 3], tids[c2 // 3]
    keep = ~(skip[t1] & skip[t2])
    return t1[keep], t2[keep], np.stack(
        index.ends(index.edge.ravel()[c1[keep]]), axis=1)


def _fan_pairs(verts, usable, frozen):
    """Batches (c1, c2) of every pair of corners, marked in the (T, 3)
    bool mask `usable`, on one vertex q of triangles t1 < t2 that share
    only q and are not both frozen, in (q, t1, t2) order. Corners are
    flat ids 3 t + k, corner k of triangle t. Each batch takes the next
    PAIR_CHUNK pairs of usable corners on one vertex, counted before the
    other filters, so a large fan's pairs may span batches."""
    corner = np.flatnonzero(usable)
    gid = verts.ravel()[corner]
    # corners come in tid order, so a stable sort gives (gid, tid)
    order = np.argsort(gid, kind="stable")
    corner, gid = corner[order], gid[order]
    bounds = np.r_[np.flatnonzero(np.r_[True, gid[1:] != gid[:-1]]),
                   len(gid)]
    sizes = np.diff(bounds)
    npairs = sizes * (sizes - 1) // 2
    ends = np.cumsum(npairs)
    for p0 in range(0, int(npairs.sum()), PAIR_CHUNK):
        # the fans overlapping the batch, from the one holding row p0
        f0 = int(np.searchsorted(ends, p0, side="right"))
        f1 = int(np.searchsorted(ends - npairs, p0 + PAIR_CHUNK))
        lo, hi = bounds[f0], bounds[f1]
        skip = p0 - int(ends[f0] - npairs[f0])
        first, second = (x[skip:skip + PAIR_CHUNK]
                         for x in run_pairs(sizes[f0:f1]))
        c1, c2 = corner[lo:hi][first], corner[lo:hi][second]
        keep = ~(frozen[c1 // 3] & frozen[c2 // 3])
        c1, c2 = c1[keep], c2[keep]
        # two triangles on q share more when any of their spokes meet
        (a1, b1), (a2, b2) = _spoke_ends(verts, c1), _spoke_ends(verts, c2)
        keep = ~((a1 == a2) | (a1 == b2) | (b1 == a2) | (b1 == b2))
        yield c1[keep], c2[keep]


def incompatible(mesh, cs, config, t1, t2):
    """Pairwise incompatibility test, the one-pair form of
    find_incompatible_pairs. Returns (flag, shared): shared is the pair
    table's (a, b) of an incompatible pair, (a, -1) for a shared vertex,
    and None for a compatible one."""
    gid2flat = _gid_flat_index(cs, mesh.vertex_count())
    edges = _provenance_edges(mesh)
    pair = np.array([t1, t2])
    corners = mesh.tri_verts[pair]
    shared = np.intersect1d(corners[0], corners[1]).tolist()
    flag = False
    if len(shared) == 2:
        flag = _edge_criteria(mesh, cs, config, gid2flat, edges, pair[:1],
                              pair[1:], np.array([shared]))[0] > 0
    elif len(shared) == 1:
        fans = _fan_corners(mesh, cs, gid2flat, edges, pair)
        c = 3 * pair + np.argmax(corners == shared[0], axis=1)
        flag = (fans.side[c].all() and _crit2_overlapping_fans(
            mesh, fans, c[:1], c[1:])[0][0])
    return bool(flag), (tuple(shared + [-1])[:2] if flag else None)


def find_incompatible_pairs(mesh, cs, config, frozen=frozenset(),
                            stats=None):
    """All incompatible pairs among active triangles, skipping pairs
    fully inside the frozen (prior-phase) set, as the module docstring's
    (P, 4) pair table: shared-edge rows by edge (a, b) and then tids,
    then shared-vertex rows (t1, t2, g, -1) by (g, t1, t2). The order is
    part of the result: a triangle's hard output arc sums its conflicts
    with frozen triangles in it. With a ConsolidationStats as `stats`,
    pairs are counted per criterion, and so are the pairs tested."""
    if stats is None:
        stats = ConsolidationStats()
    gid2flat = _gid_flat_index(cs, mesh.vertex_count())
    edges = _provenance_edges(mesh)
    frozen_mask = np.zeros(len(edges), dtype=bool)
    frozen_mask[list(frozen)] = True

    t1, t2, ab = _edge_pairs(mesh, frozen_mask)
    crit = _edge_criteria(mesh, cs, config, gid2flat, edges, t1, t2, ab)
    hit = np.flatnonzero(crit)
    rows = [np.column_stack([t1[hit], t2[hit], ab[hit]])]
    for c, count in enumerate(np.bincount(crit[hit], minlength=4)[1:]):
        stats.pairs_by_criterion[c] += int(count)
    stats.edge_pairs_tested += len(t1)
    # free the edge-pair arrays before the fan batches take their memory
    del t1, t2, ab

    fans = _fan_corners(mesh, cs, gid2flat, edges,
                        np.flatnonzero(mesh.tri_state != REMOVED))
    verts = mesh.tri_verts
    for c1, c2 in _fan_pairs(verts, fans.side.reshape(-1, 3) != 0,
                             frozen_mask):
        hit, tested = _crit2_overlapping_fans(mesh, fans, c1, c2)
        c1 = c1[hit]
        rows.append(np.column_stack([c1 // 3, c2[hit] // 3,
                                     verts.ravel()[c1],
                                     np.full(len(c1), -1)]))
        stats.pairs_by_criterion[1] += len(c1)
        stats.vertex_pairs_tested += tested
    return np.concatenate(rows)


def classify_undecided(mesh, pairs, frozen=frozenset()):
    """The undecided triangles, as an ascending tid array: the unfrozen
    conflict participants and everything touching a conflict's shared
    edge/vertex; the rest is kept. The pairs are a
    find_incompatible_pairs table, whose triangles hold the vertices of
    its columns 2-3, so the participants are among the triangles
    touching those."""
    tids, verts, _ = mesh.edges()
    hot = pairs[:, 2:4]
    touched = (np.isin(verts, hot[hot >= 0]).any(axis=1)
               & ~np.isin(tids, list(frozen)))
    return tids[touched]


def undecided_components(mesh, undecided):
    """Group undecided triangles connected through any shared vertex;
    groups are ordered by their lowest tid, tids ascending."""
    tids, verts = mesh.triangle_array(undecided)
    return split_by_label(tids, join_equal_keys(verts))


def _emission_scores(mesh, cs, config, tids):
    """M(t) per triangle of tids: vertex scores of the two edge endpoints
    against the apex, on the triangle's recorded side, in linear domain;
    0 without provenance or with a degenerate apex frame, and an endpoint
    with a degenerate frame adds nothing. Every (endpoint, apex) row is
    scored in one kernel call. The provenance flat ids index cs: the
    triangles scored are undecided ones, meshed from cs itself (see the
    mesher module docstring)."""
    prov = mesh.tri_prov[np.asarray(tids, dtype=np.int64)]
    ends, q = prov[:, 2:4], prov[:, 4]
    use = (q >= 0)[:, None] & cs.ok[q][:, None] & cs.ok[ends]
    # rows by node, edge start before edge end; np.add.at adds them to
    # 0.0 in that order
    node, k = np.nonzero(use)
    p, q = ends[node, k], q[node]
    logs = scoring.vertex_scores_log_arrays(
        cs.pos[p], cs.tan[p], cs.bin[p], cs.w[p], prov[node, 5],
        cs.pos[q], cs.tan[q], cs.bin[q], cs.w[q],
        pair_sigmas(cs, p, q, config))
    out = np.zeros(len(prov))
    np.add.at(out, node, np.exp(logs))
    return out


def _conflict_arcs(mesh, cs, config, pairs, components):
    """Per component, the arcs of its conflict graph (build_conflict_graph
    gives their weights) as arrays (u, v, w, hard) in key order, from
    the pair table and one listing of the edge pairs with an undecided
    triangle."""
    n = len(mesh.tri_state)
    nodes = np.concatenate(components)
    comp_of = np.full(n, -1)
    comp_of[nodes] = np.repeat(np.arange(len(components)),
                               list(map(len, components)))
    und = comp_of >= 0
    t1, t2 = pairs[:, 0], pairs[:, 1]
    inner = und[t1] & und[t2]
    # the undecided triangle of each pair with a frozen one
    blocked = np.where(und[t1], t1, t2)[~inner]
    out_w = np.zeros(n)
    np.add.at(out_w, blocked, config.incompatible_weight)
    e1, e2, _ = _edge_pairs(mesh, ~und)
    both = und[e1] & und[e2]
    soft = both & ~np.isin(e1 * n + e2, t1[inner] * n + t2[inner])
    kept = np.bincount(np.where(und[e1], e1, e2)[~both], minlength=n)
    out_w[nodes] += _emission_scores(mesh, cs, config, nodes) + kept[nodes]

    u = np.r_[t1[inner], np.full(len(nodes), OUT_NODE), e1[soft]]
    v = np.r_[t2[inner], nodes, e2[soft]]
    w = np.r_[np.full(inner.sum(), config.incompatible_weight), out_w[nodes],
              np.full(soft.sum(), config.compatible_weight)]
    hard = np.r_[np.ones(inner.sum(), dtype=bool), np.isin(nodes, blocked),
                 np.zeros(soft.sum(), dtype=bool)]
    comp = comp_of[v]
    order = np.lexsort((v, u, comp))
    cuts = np.searchsorted(comp[order], np.arange(1, len(components)))
    return [(u[k], v[k], w[k], hard[k]) for k in np.split(order, cuts)]


class ConflictGraph(NamedTuple):
    """The conflict graph of one component: its nodes, ascending tids,
    and its arcs, one per key (u[i], v[i]), u < v, where u is OUT_NODE
    on output arcs, in key order: weight w[i], and hard[i] where the
    ends must end up in different clusters."""

    nodes: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    hard: np.ndarray

    def ends(self):
        """u and v as indices into [OUT_NODE] + nodes."""
        ids = np.r_[OUT_NODE, self.nodes]
        return np.searchsorted(ids, self.u), np.searchsorted(ids, self.v)


def build_conflict_graph(component, u, v, w, hard):
    """The ConflictGraph of one component from its _conflict_arcs slice.
    An incompatible pair inside the component is a hard arc of
    incompatible_weight, a compatible pair sharing an edge a soft arc of
    compatible_weight. Each node's output arc weighs M(t) plus its count
    of edge neighbours already kept, and each conflict with a frozen
    triangle adds incompatible_weight to it, in pair order, and makes it
    hard. The slices of a pass are cut before any component is solved;
    the module docstring's invariants make them the graphs each
    component has when it is solved."""
    return ConflictGraph(np.asarray(component, dtype=np.int64), u, v, w, hard)


def clustering_objective(graph, labels):
    """Sum of the weights of the arcs whose ends share a cluster, in arc
    order, for a solve_clustering label array."""
    a, b = graph.ends()
    return sum(graph.w[labels[a] == labels[b]].tolist(), 0.0)


def clustering_bound(graph):
    """Sum of the positive soft arc weights, in arc order: an upper bound
    on clustering_objective."""
    return sum(graph.w[(graph.w > 0) & ~graph.hard].tolist(), 0.0)


def solve_clustering(graph):
    """Partition the ConflictGraph `graph`, maximizing the total weight
    of arcs kept inside clusters while never merging across a hard arc.
    Returns an int array aligned with [OUT_NODE] + graph.nodes: each
    node's label is the index there of its cluster's smallest member, so
    the triangles labelled 0 stay with the output node.

    Small graphs are solved to optimality by branch and bound; larger
    ones by greedy additive edge contraction followed by single-node
    moves accepted only when they increase the objective, repeated to a
    fixed point. Both paths are deterministic, with ties falling to the
    smallest node id. The greedy path contracts over soft arcs alone and
    re-sweeps only nodes whose neighbourhood changed; _contract and
    _solve_greedy say why that yields the clusters of contracting over
    every arc and sweeping every node."""
    if len(graph.nodes) <= EXACT_NODE_LIMIT:
        return _solve_exact(graph)
    return _solve_greedy(graph)


def _solve_exact(graph):
    """Depth-first branch and bound over set partitions.

    Entities are the output node followed by graph nodes in ascending
    id. Each node in turn joins an existing cluster or opens a new one;
    the bound credits every arc still touching an unassigned node at
    its positive part. The first optimum found is kept, so ties resolve
    toward earlier branches, i.e. smaller ids grouped with the output
    node."""
    n = len(graph.nodes)
    w = [[0.0] * (n + 1) for _ in range(n + 1)]
    hard = [0] * (n + 1)
    for a, b, arc_w, h in zip(*(x.tolist() for x in graph.ends()),
                              graph.w.tolist(), graph.hard.tolist()):
        w[a][b] += arc_w
        w[b][a] += arc_w
        if h:
            hard[a] |= 1 << b
            hard[b] |= 1 << a

    # optimistic remainder: arcs whose later endpoint is still open,
    # counted at their positive part
    suffix = [0.0] * (n + 2)
    for v in range(n, 0, -1):
        suffix[v] = suffix[v + 1] + sum(
            max(w[u][v], 0.0) for u in range(v))

    masks = [1]
    sums = [w[0][:]]
    assign = [0] * (n + 1)
    best_obj = -np.inf
    best = None

    def dfs(k, cur):
        nonlocal best_obj, best
        if cur + suffix[k] <= best_obj:
            return
        if k > n:
            best_obj = cur
            best = assign.copy()
            return
        bit = 1 << k
        row_k = w[k]
        for ci in range(len(masks)):
            if hard[k] & masks[ci]:
                continue
            assign[k] = ci
            masks[ci] |= bit
            row = sums[ci]
            gain = row[k]
            for v in range(k + 1, n + 1):
                row[v] += row_k[v]
            dfs(k + 1, cur + gain)
            for v in range(k + 1, n + 1):
                row[v] -= row_k[v]
            masks[ci] &= ~bit
        assign[k] = len(masks)
        masks.append(bit)
        sums.append([0.0] * (k + 1) + row_k[k + 1:])
        dfs(k + 1, cur)
        masks.pop()
        sums.pop()

    dfs(1, 0.0)
    first = {}
    return np.array([first.setdefault(ci, i) for i, ci in enumerate(best)])


def _arc_lists(size, a, b, w=None):
    """Per index 0..size-1, the other end of each arc (a[i], b[i]) on it,
    paired with the arc's weight w[i] when weights are given, in arc
    order."""
    end = np.r_[a, b]
    order = np.lexsort((np.tile(np.arange(len(a)), 2), end))
    arcs = np.r_[b, a][order].tolist()
    if w is not None:
        arcs = list(zip(arcs, np.r_[w, w][order].tolist()))
    stops = np.cumsum(np.bincount(end, minlength=size)).tolist()
    return [arcs[i:j] for i, j in zip([0] + stops[:-1], stops)]


def _solve_greedy(graph):
    """Greedy additive edge contraction (_contract), then single-node
    moves.

    Moves sweep the nodes in ascending id to a fixed point (at most 100
    sweeps): a node joins the neighbouring cluster, or a fresh one, that
    raises the objective most, if any does, and never a cluster holding
    a hard partner. Targets of equal gain fall to the one whose smallest
    member is smallest, a fresh cluster first. Hard partners never share
    a cluster, so a hard arc only ever weighs on a blocked target and the
    moves read soft arcs alone.

    Each sweep after the first visits only dirty nodes, in ascending id:
    the soft and hard neighbours of the nodes that moved. A node's gains
    depend only on which clusters its neighbours are in; cluster labels
    only order targets of equal gain, which matters only to a node that
    moves. A node that stayed, and none of whose neighbours moved since,
    would stay again; a node that moved has no better target left, since
    its gains are unchanged and its move took the best. A node dirtied
    by an earlier node of the same sweep is visited later in that sweep,
    as a full sweep would, so the moves are those of full Gauss-Seidel
    sweeps.

    Clusters keep the id they were made with; `low` holds each one's
    smallest member, which is all their order needs, so a move costs a
    min() over the cluster it leaves only when that member leaves."""
    size = len(graph.nodes) + 1
    a, b = graph.ends()
    hard, soft = graph.hard, ~graph.hard
    arcs_of = _arc_lists(size, a[soft], b[soft], graph.w[soft])
    hard_of = _arc_lists(size, a[hard], b[hard])
    pos = soft & (graph.w > 0)
    cid = _contract(arcs_of, hard_of, list(zip(
        (-graph.w[pos]).tolist(), a[pos].tolist(), b[pos].tolist())))
    low = list(range(size))
    members = [set() for _ in range(size)]
    for k, c in enumerate(cid):
        members[c].add(k)

    dirty = set(range(1, size))
    for _ in range(100):
        if not dirty:
            break
        todo = sorted(dirty)
        queued = set(todo)
        dirty = set()
        while todo:
            n = heapq.heappop(todo)
            cur = cid[n]
            gain_cur = sum(w for (m, w) in arcs_of[n] if cid[m] == cur)
            options = {}
            for (m, w) in arcs_of[n]:
                tgt = cid[m]
                if tgt == cur:
                    continue
                options[tgt] = options.get(tgt, 0.0) + w
            best_tgt, best_delta = None, 1e-12
            if 0.0 - gain_cur > best_delta:     # a fresh cluster
                best_tgt, best_delta = len(low), 0.0 - gain_cur
            better = [tgt for tgt, x in options.items()
                      if x - gain_cur > best_delta]
            if better:
                blocked = {cid[h] for h in hard_of[n]}
                for tgt in sorted(better, key=low.__getitem__):
                    delta = options[tgt] - gain_cur
                    if tgt not in blocked and delta > best_delta:
                        best_tgt, best_delta = tgt, delta
            if best_tgt is None:
                continue
            rest = members[cur]
            rest.discard(n)
            if rest and low[cur] == n:
                low[cur] = min(rest)
            if best_tgt == len(low):
                low.append(n)
                members.append(set())
            members[best_tgt].add(n)
            low[best_tgt] = min(low[best_tgt], n)
            cid[n] = best_tgt
            for m in hard_of[n] + [m for m, _ in arcs_of[n]]:
                if m == 0:              # the output node never moves
                    continue
                if m < n:
                    dirty.add(m)
                elif m not in queued:
                    queued.add(m)
                    heapq.heappush(todo, m)
    return np.array([low[c] for c in cid])


def _contract(arcs_of, hard_of, heap):
    """Greedy additive edge contraction over node indices, given per
    index its soft arcs as (other end, weight) and its hard partners
    (_arc_lists), and the heap entries (-w, a, b), a < b, of the soft
    arcs of positive weight w: merge the two clusters joined by the
    largest positive summed weight, smallest key first on ties, unless a
    hard arc runs between them, until no pair can merge. Returns each
    index's cluster as the index of its smallest member.

    A hard arc enters the summed weights as -inf, which every sum it
    joins keeps: a cluster pair with a hard arc across it is never
    pushed, and its earlier entries are skipped as stale. Every pair
    that can merge sums exactly the soft arcs across it, in the same
    merge order, so the merge sequence is the one contraction over all
    arcs gives. Keys holding a hard part and an output weight are hard
    as a whole. A merge names the cluster by the pair's smaller index."""
    weight = [dict(arcs) for arcs in arcs_of]  # neighbour -> summed weight
    for row, partners in zip(weight, hard_of):
        row.update(dict.fromkeys(partners, -math.inf))
    heapq.heapify(heap)
    parent = list(range(len(arcs_of)))
    while heap:
        negw, i, j = heapq.heappop(heap)
        if parent[i] != i or parent[j] != j or weight[i].get(j) != -negw:
            continue
        parent[j] = i
        row = weight[i]
        for c, w_jc in weight[j].items():
            del weight[c][j]
            if c == i:
                continue
            w_ic = row[c] = weight[c][i] = row.get(c, 0.0) + w_jc
            if w_ic > 0:
                heapq.heappush(heap, (-w_ic, i, c) if i < c else
                               (-w_ic, c, i))
    # a merge names the smaller cluster, so parents come first
    for k, p in enumerate(parent):
        parent[k] = parent[p]
    return parent


def apply_consolidation(mesh, labels, component):
    """Remove the undecided triangles of the tid array `component` that a
    solve_clustering label array does not put with the output node.
    Returns the kept tids."""
    keep = labels[1:] == labels[0]
    mesh.remove(component[~keep])
    return component[keep]


def repair_nonmanifold(mesh, frozen=frozenset()):
    """Deterministically remove the newest triangles at any residual
    non-manifold edge or pinched vertex. The pairwise criteria cover the
    overwhelming majority of conflicts; this net guarantees the audit,
    after consolidation and after the pipeline's orientation-driven
    removals. Returns the removed tids, in removal order.

    Overfull edges are cleared once, in sorted order, of their newest
    active triangles, unfrozen before frozen: removals only lower edge
    counts, so no edge can become overfull later. Pinched vertices are
    then split until the audit finds none."""
    removed = []
    if mesh_ops.audit_manifold(mesh)[0]:
        tids, _, index = mesh.edges()
        stop = np.cumsum(index.count)
        for e in np.flatnonzero(index.count > 2).tolist():
            on = tids[index.corner[stop[e] - index.count[e]:stop[e]] // 3]
            on = sorted(on[mesh.is_active(on)].tolist(),
                        key=lambda t: (t not in frozen, t), reverse=True)
            mesh.remove(on[:-2])
            removed += on[:-2]
    for _ in range(64):
        nm_vertices = mesh_ops.audit_manifold(mesh)[1]
        if not nm_vertices:
            break
        vmap = mesh.vertex_tris(nm_vertices)
        for v in nm_vertices:
            # removals at earlier vertices leave removed tids in vmap;
            # vertex_fan_groups skips them
            groups = mesh_ops.vertex_fan_groups(mesh, v, vmap[v])
            # keep a fan with a frozen triangle, then the largest, then
            # the lowest; the others go whole, frozen or not: the audit
            # guarantee outranks keeping prior triangles
            keep = min(groups, default=None, key=lambda g: (
                frozen.isdisjoint(g), -len(g), g[0]))
            for g in groups:
                if g is not keep:
                    mesh.remove(g)
                    removed += g
    return removed


def consolidate_mesh(mesh, cs, config, frozen=frozenset(), stats=None):
    """Full consolidation pass. Returns (removed_count, undecided_count);
    with a ConsolidationStats as `stats`, adds this pass's counts to it."""
    if stats is None:
        stats = ConsolidationStats()
    pairs = find_incompatible_pairs(mesh, cs, config, frozen, stats)
    undecided = classify_undecided(mesh, pairs, frozen)
    components = undecided_components(mesh, undecided)
    stats.undecided += len(undecided)
    stats.components += len(components)
    stats.largest_component = max([stats.largest_component,
                                   *map(len, components)])
    hist = stats.component_histogram
    for k in (len(c).bit_length() - 1 for c in components):
        hist += [0] * (k + 1 - len(hist))
        hist[k] += 1
    arcs = (_conflict_arcs(mesh, cs, config, pairs, components)
            if components else [])
    removed = 0
    for component, comp_arcs in zip(components, arcs):
        graph = build_conflict_graph(component, *comp_arcs)
        labels = solve_clustering(graph)
        if len(component) <= EXACT_NODE_LIMIT:
            stats.exact_solves += 1
        else:
            stats.greedy_solves += 1
            stats.greedy_objective += clustering_objective(graph, labels)
            stats.greedy_bound += clustering_bound(graph)
        kept = apply_consolidation(mesh, labels, graph.nodes)
        removed += len(component) - len(kept)

    # retained conflicts would be a solver bug
    alive = (mesh.tri_state[pairs[:, :2]] != REMOVED).all(axis=1)
    if alive.any():
        t1, t2 = pairs[alive.argmax(), :2].tolist()
        raise InvariantError(
            f"incompatible pair ({t1}, {t2}) survived consolidation")

    repaired = len(repair_nonmanifold(mesh, frozen))
    stats.repair_removed += repaired
    removed += repaired
    nm_edges, nm_vertices = mesh_ops.audit_manifold(mesh)
    if nm_edges or nm_vertices:
        raise InvariantError(
            f"non-manifold after consolidation: {len(nm_edges)} edges, "
            f"{len(nm_vertices)} vertices")
    return removed, len(undecided)
