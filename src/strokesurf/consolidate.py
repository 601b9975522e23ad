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

Pairs sharing an edge are gathered in one list and tested with numpy,
criterion 1 then criterion 3 (one dihedral row-kernel call). Pairs
sharing only a vertex are many on noisy input, so criterion 2
enumerates every pair of each vertex fan with numpy and tests them in
batches of about PAIR_CHUNK pairs, which bounds memory.
A ConsolidationStats passed to consolidate_mesh collects what a pass
found and did, for the run report.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from . import geometry, mesh_ops, scoring
from .matcher import pair_sigmas
from .mesher import (OUTPUT, REMOVED, UNDECIDED, apex_sides,
                     join_equal_keys, split_by_label)

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
    criterion k flagged."""

    pairs_by_criterion: list = field(default_factory=lambda: [0, 0, 0])
    undecided: int = 0
    components: int = 0
    largest_component: int = 0
    exact_solves: int = 0
    greedy_solves: int = 0
    repair_removed: int = 0


def _gid_flat_index(cs, n_vertices):
    """Array gid -> flat index in the current chain set, -1 for gids on
    no chain. A gid listed twice maps to its last flat index."""
    last = {int(g): i for i, g in enumerate(cs.gid)}
    index = np.full(n_vertices, -1, dtype=np.int64)
    index[list(last)] = list(last.values())
    return index


def _edge_criteria(mesh, cs, config, gid2flat, prov_edges, t1, t2, edges):
    """Per pair of triangles (t1[i], t2[i]) sharing edges[i] = (a, b):
    the criterion that makes them incompatible, 1 or 3, else 0.
    Criterion 1: both hang on one stroke edge of the current chains,
    with their apexes on one side of it. Criterion 3: they fold sharper
    than the dihedral threshold. Each criterion scores all its pairs at
    once; `prov_edges` is _provenance_edges(mesh)."""
    verts = mesh.tri_verts
    t1 = np.asarray(t1, dtype=np.int64)
    t2 = np.asarray(t2, dtype=np.int64)
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
    ab = np.asarray(edges, dtype=np.int64).reshape(-1, 2)[rest]
    c = mesh_ops.third_vertices(verts[t1[rest]], ab)
    d = mesh_ops.third_vertices(verts[t2[rest]], ab)
    di = geometry.dihedral_deg_rows(pos[ab[:, 0]], pos[ab[:, 1]], pos[c],
                                    pos[d])
    crit[rest[di < config.dihedral_min_deg]] = 3
    return crit


def _provenance_edges(mesh):
    """The sorted provenance edge of every triangle, (T, 2), with -1
    where it has none."""
    edges = np.array([(-1, -1) if p is None else p.edge
                      for p in mesh.tri_prov], dtype=np.int64)
    return np.sort(edges.reshape(-1, 2), axis=1)


def _crit2_overlapping_fans(mesh, cs, gid2flat, edges, t1, t2, q):
    """Criterion 2 over arrays of triangle pairs (t1[i], t2[i]) sharing
    exactly the vertex q[i]: the triangles hang on different stroke
    edges, their centroids lie on the same side of q's stroke, and a
    spoke of one from q, projected onto the other, crosses its interior.
    Returns a bool array."""
    verts = mesh.tri_verts
    hit = np.zeros(len(t1), dtype=bool)
    keep = ((edges[t1, 0] >= 0) & (edges[t2, 0] >= 0)
            & ~(edges[t1] == edges[t2]).all(axis=1))
    fq = gid2flat[q]
    keep &= fq >= 0
    keep[keep] = cs.ok[fq[keep]]
    rows = np.flatnonzero(keep)
    t1, t2, q, fq = t1[rows], t2[rows], q[rows], fq[rows]

    pos = mesh.positions
    qpos = cs.pos[fq]
    b = cs.bin[fq]
    eps = 1e-9 * np.maximum(1.0, cs.w[fq])

    def side_of(t):
        corners = pos[verts[t]]
        c = (corners[:, 0] + corners[:, 1] + corners[:, 2]) / 3.0
        off = ((c[:, 0] - qpos[:, 0]) * b[:, 0]
               + (c[:, 1] - qpos[:, 1]) * b[:, 1]
               + (c[:, 2] - qpos[:, 2]) * b[:, 2])
        return np.where(np.abs(off) < eps, 0, np.where(off > 0, 1, -1))

    s1 = side_of(t1)
    same = (s1 != 0) & (s1 == side_of(t2))
    rows = rows[same]
    t1, t2, q = t1[same], t2[same], q[same]

    # the two spokes of each triangle against the other one
    ends, tris = [], []
    for ta, tb in ((t1, t2), (t2, t1)):
        va = verts[ta]
        spokes = va[va != q[:, None]].reshape(-1, 2)
        for k in range(2):
            ends.append(spokes[:, k])
            tris.append(verts[tb])
    tris = pos[np.concatenate(tris)]
    crossed = geometry.segments_cross_triangles_interior(
        pos[np.tile(q, 4)], pos[np.concatenate(ends)],
        tris[:, 0], tris[:, 1], tris[:, 2])
    hit[rows] = crossed.reshape(4, -1).any(axis=0)
    return hit


def _fan_pairs(verts, active, frozen):
    """Batches (t1, t2, q) of every pair of active triangles t1 < t2 that
    share exactly the vertex q and are not both frozen, in (q, t1, t2)
    order. A batch holds whole fans, about PAIR_CHUNK pairs of them."""
    tids = np.flatnonzero(active)
    gid = verts[tids].ravel()
    tid = np.repeat(tids, 3)
    order = np.lexsort((tid, gid))
    gid, tid = gid[order], tid[order]
    bounds = np.r_[np.flatnonzero(np.r_[True, gid[1:] != gid[:-1]]),
                   len(gid)]
    sizes = np.diff(bounds)
    npairs = sizes * (sizes - 1) // 2
    # a fan goes to batch (pairs in the fans before it) // PAIR_CHUNK
    batch = (np.cumsum(npairs) - npairs) // PAIR_CHUNK
    cuts = np.r_[np.flatnonzero(np.r_[True, batch[1:] != batch[:-1]]),
                 len(sizes)]
    for f0, f1 in zip(cuts[:-1], cuts[1:]):
        lo, hi = bounds[f0], bounds[f1]
        fan_sizes = sizes[f0:f1]
        # each incidence pairs with the ones after it in its fan
        rank = np.arange(hi - lo) - np.repeat(bounds[f0:f1] - lo, fan_sizes)
        later = np.repeat(fan_sizes, fan_sizes) - 1 - rank
        first = np.repeat(np.arange(hi - lo), later)
        second = (first + 1 + np.arange(len(first))
                  - np.repeat(np.cumsum(later) - later, later))
        t1, t2 = tid[lo:hi][first], tid[lo:hi][second]
        q = gid[lo:hi][first]
        keep = ~(frozen[t1] & frozen[t2])
        keep &= (verts[t1][:, :, None] == verts[t2][:, None, :]).sum(
            axis=(1, 2)) == 1
        yield t1[keep], t2[keep], q[keep]


def incompatible(mesh, cs, config, t1, t2):
    """Pairwise incompatibility test, the one-pair form of
    find_incompatible_pairs. Returns (flag, entity) where entity is
    ("edge", (a, b)) or ("vertex", g) naming the shared item."""
    gid2flat = _gid_flat_index(cs, mesh.vertex_count())
    edges = _provenance_edges(mesh)
    corners1, corners2 = mesh.tri_verts[[t1, t2]].tolist()
    shared = sorted(set(corners1) & set(corners2))
    if len(shared) == 2:
        edge = (shared[0], shared[1])
        if _edge_criteria(mesh, cs, config, gid2flat, edges, [t1], [t2],
                          [edge])[0]:
            return True, ("edge", edge)
    elif len(shared) == 1:
        if _crit2_overlapping_fans(mesh, cs, gid2flat, edges, np.array([t1]),
                                   np.array([t2]), np.array(shared))[0]:
            return True, ("vertex", shared[0])
    return False, None


def find_incompatible_pairs(mesh, cs, config, frozen=frozenset(),
                            stats=None):
    """All incompatible pairs (t1, t2, entity), t1 < t2, among active
    triangles, skipping pairs fully inside the frozen (prior-phase) set.

    Shared-edge pairs come first, by sorted edge and then tids, with
    entity ("edge", (a, b)); then shared-vertex pairs by (gid, t1, t2),
    with entity ("vertex", gid). The order is part of the result:
    build_conflict_graph sums arc weights in it. With a
    ConsolidationStats as `stats`, pairs are counted per criterion."""
    if stats is None:
        stats = ConsolidationStats()
    gid2flat = _gid_flat_index(cs, mesh.vertex_count())
    edges = _provenance_edges(mesh)
    shared = [(edge, t1, t2)
              for edge, tids in sorted(mesh.edge_map().items())
              for i, t1 in enumerate(tids) for t2 in tids[i + 1:]
              if not (t1 in frozen and t2 in frozen)]
    pairs = []
    if shared:
        shared_edges, t1, t2 = zip(*shared)
        crit = _edge_criteria(mesh, cs, config, gid2flat, edges, t1, t2,
                              shared_edges)
        for (edge, a, b), c in zip(shared, crit.tolist()):
            if c:
                pairs.append((a, b, ("edge", edge)))
                stats.pairs_by_criterion[c - 1] += 1

    frozen_mask = np.zeros(len(edges), dtype=bool)
    frozen_mask[list(frozen)] = True
    for t1, t2, q in _fan_pairs(mesh.tri_verts, mesh.tri_state != REMOVED,
                                frozen_mask):
        hit = _crit2_overlapping_fans(mesh, cs, gid2flat, edges, t1, t2, q)
        pairs.extend((a, b, ("vertex", g)) for a, b, g in zip(
            t1[hit].tolist(), t2[hit].tolist(), q[hit].tolist()))
        stats.pairs_by_criterion[1] += int(hit.sum())
    return pairs


def classify_undecided(mesh, pairs, frozen=frozenset()):
    """Mark conflict participants and everything touching a conflict's
    shared edge/vertex as undecided; the rest stays output. The pairs
    are between active triangles that hold their shared entity, as
    find_incompatible_pairs gives them, so the participants are among
    the triangles touching it."""
    tids, verts = mesh.triangle_array()
    hot = np.array([v for _, _, (kind, at) in pairs
                    for v in (at if kind == "edge" else (at,))],
                   dtype=np.int64)
    touched = np.isin(verts, hot).any(axis=1) & ~np.isin(tids, list(frozen))
    mesh.tri_state[tids] = np.where(touched, UNDECIDED, OUTPUT)
    return set(tids[touched].tolist())


def undecided_components(mesh, undecided):
    """Group undecided triangles connected through any shared vertex;
    groups are ordered by their lowest tid, tids ascending."""
    tids, verts = mesh.triangle_array(undecided)
    return split_by_label(tids, join_equal_keys(verts))


@dataclass
class ConflictGraph:
    """Weighted arcs over undecided triangles plus the output node.
    Arcs in `hard` must end up in different clusters."""

    nodes: list
    arcs: dict = field(default_factory=dict)
    hard: set = field(default_factory=set)

    def add_arc(self, u, v, w, hard=False):
        key = (u, v) if u < v else (v, u)
        self.arcs[key] = self.arcs.get(key, 0.0) + w
        if hard:
            self.hard.add(key)


def _emission_scores(mesh, cs, config, tids):
    """M(t) per triangle of tids: vertex scores of the two edge endpoints
    against the apex, on the triangle's recorded side, in linear domain.
    Every (endpoint, apex) row is scored in one kernel call."""
    rows = []
    for n, tid in enumerate(tids):
        prov = mesh.tri_prov[tid]
        if prov is None:
            continue
        (ci, ia), (cj, ib) = prov.edge_ref
        aref = prov.apex_ref
        fq = cs.flat(aref.chain, aref.index)
        if not cs.ok[fq]:
            continue
        for fp in (cs.flat(ci, ia), cs.flat(cj, ib)):
            if cs.ok[fp]:
                rows.append((n, fp, fq, prov.side))
    out = [0.0] * len(tids)
    if rows:
        node, p, q, side = np.array(rows, dtype=np.int64).T
        logs = scoring.vertex_scores_log_arrays(
            cs.pos[p], cs.tan[p], cs.bin[p], cs.w[p], side,
            cs.pos[q], cs.tan[q], cs.bin[q], cs.w[q],
            pair_sigmas(cs, p, q, config))
        for n, score in zip(node.tolist(), np.exp(logs).tolist()):
            out[n] += score
    return out


def build_conflict_graph(mesh, cs, config, component, pairs, undecided):
    """Arc weights: incompatible pairs get incompatible_weight (hard),
    compatible shared-edge pairs get compatible_weight, and every node
    gets an output arc of M(t) plus its count of edges shared with
    already-output triangles."""
    comp = set(component)
    graph = ConflictGraph(nodes=sorted(comp))

    for t1, t2, _ in pairs:
        in1, in2 = t1 in comp, t2 in comp
        if in1 and in2:
            graph.add_arc(t1, t2, config.incompatible_weight, hard=True)
        elif in1 or in2:
            t_in = t1 if in1 else t2
            t_out = t2 if in1 else t1
            if mesh.is_active(t_out) and t_out not in comp:
                # conflicting with a kept triangle: may not join output
                graph.add_arc(OUT_NODE, t_in, config.incompatible_weight,
                              hard=True)

    em = mesh.edge_map()
    incompat_keys = {(min(a, b), max(a, b)) for a, b, _ in pairs}
    corners = mesh.tri_verts[graph.nodes].tolist()
    seen_edges = set()
    for a, b, c in corners:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            if key in seen_edges:
                continue
            seen_edges.add(key)
            tids = em.get(key, ())
            for i in range(len(tids)):
                for j in range(i + 1, len(tids)):
                    t1, t2 = sorted((tids[i], tids[j]))
                    if (t1 in comp and t2 in comp
                            and (t1, t2) not in incompat_keys):
                        graph.add_arc(t1, t2, config.compatible_weight)

    m_scores = _emission_scores(mesh, cs, config, graph.nodes)
    state = mesh.tri_state
    for t, m_t, (a, b, c) in zip(graph.nodes, m_scores, corners):
        c_count = 0
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            for other in em.get(key, ()):
                if other != t and state[other] == OUTPUT:
                    c_count += 1
        graph.add_arc(OUT_NODE, t, m_t + c_count)
    return graph


def clustering_objective(graph, assign):
    """Sum of arc weights whose endpoints share a cluster."""
    total = 0.0
    for (u, v), w in graph.arcs.items():
        if assign[u] == assign[v]:
            total += w
    return total


def solve_clustering(graph):
    """Partition the conflict graph, maximizing the total weight of arcs
    kept inside clusters while never merging across a hard arc.

    Small graphs are solved to optimality by branch and bound; larger
    ones by greedy additive edge contraction followed by single-node
    moves accepted only when they increase the objective, repeated to a
    fixed point. Both paths are deterministic, with ties falling to the
    smallest node id. Returns node -> cluster id; cluster ids are the
    minimum node id of each cluster."""
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
    nodes = sorted(graph.nodes)
    n = len(nodes)
    ids = [OUT_NODE] + nodes
    idx = {v: i for i, v in enumerate(ids)}
    w = [[0.0] * (n + 1) for _ in range(n + 1)]
    hard = [0] * (n + 1)
    for (u, v), arc_w in graph.arcs.items():
        a, b = idx[u], idx[v]
        w[a][b] += arc_w
        w[b][a] += arc_w
    for (u, v) in graph.hard:
        a, b = idx[u], idx[v]
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

    groups = {}
    for i, ci in enumerate(best):
        groups.setdefault(ci, []).append(ids[i])
    cluster = {}
    for mem in groups.values():
        target = min(mem)
        for node in mem:
            cluster[node] = target
    return cluster


def _solve_greedy(graph):
    nodes = [OUT_NODE] + list(graph.nodes)
    cluster = {n: n for n in nodes}
    members = {n: {n} for n in nodes}
    weight = dict(graph.arcs)
    adj = {n: set() for n in nodes}
    for (u, v) in weight:
        adj[u].add(v)
        adj[v].add(u)
    forbidden = {n: set() for n in nodes}
    for (u, v) in graph.hard:
        forbidden[u].add(v)
        forbidden[v].add(u)

    heap = [(-w, k) for k, w in weight.items() if w > 0]
    heapq.heapify(heap)
    while heap:
        negw, (a, b) = heapq.heappop(heap)
        if a not in members or b not in members:
            continue
        if weight.get((a, b)) != -negw or -negw <= 0:
            continue
        if b in forbidden[a]:
            continue
        # merge b into a (a < b by arc key construction)
        joined = members.pop(b)
        members[a] |= joined
        for n in joined:
            cluster[n] = a
        # hard sets are symmetric, so only b's own partners name b
        hard_b = forbidden.pop(b)
        forbidden[a] |= hard_b
        for c in hard_b:
            forbidden[c].discard(b)
            forbidden[c].add(a)
        for c in list(adj[b]):
            adj[c].discard(b)
            if c == a:
                continue
            wkey_b = (min(b, c), max(b, c))
            w_bc = weight.pop(wkey_b, 0.0)
            wkey_a = (min(a, c), max(a, c))
            weight[wkey_a] = weight.get(wkey_a, 0.0) + w_bc
            adj[a].add(c)
            adj[c].add(a)
            if weight[wkey_a] > 0:
                heapq.heappush(heap, (-weight[wkey_a], wkey_a))
        adj.pop(b, None)

    # local moves on the original graph until stable
    arcs_of = {n: [] for n in nodes}
    for (u, v), w in graph.arcs.items():
        arcs_of[u].append((v, w))
        arcs_of[v].append((u, w))
    hard_of = {n: set() for n in nodes}
    for (u, v) in graph.hard:
        hard_of[u].add(v)
        hard_of[v].add(u)

    for _ in range(100):
        moved = False
        for n in sorted(graph.nodes):
            cur = cluster[n]
            gain_cur = sum(w for (m, w) in arcs_of[n]
                           if cluster[m] == cur and m != n)
            options = {}
            for (m, w) in arcs_of[n]:
                tgt = cluster[m]
                if tgt == cur:
                    continue
                options[tgt] = options.get(tgt, 0.0) + w
            fresh = -10 - n  # label no renormalized cluster can carry
            options.setdefault(fresh, 0.0)
            best_tgt, best_delta = None, 1e-12
            for tgt in sorted(options):
                if tgt != fresh and any(cluster[h] == tgt
                                        for h in hard_of[n]):
                    continue
                delta = options[tgt] - gain_cur
                if delta > best_delta:
                    best_tgt, best_delta = tgt, delta
            if best_tgt is not None:
                _move_node(cluster, members, n, best_tgt)
                moved = True
        if not moved:
            break
    return cluster


def _move_node(cluster, members, n, tgt):
    """Move node n into cluster tgt, a new cluster if no node carries
    that id, re-labelling the two clusters involved so that every
    cluster id stays the minimum member id."""
    rest = members.pop(cluster[n])
    rest.discard(n)
    group = members.pop(tgt, set())
    group.add(n)
    for mem in (rest, group):
        if mem:
            cid = min(mem)
            members[cid] = mem
            for node in mem:
                cluster[node] = cid


def apply_consolidation(mesh, cluster, component):
    """Keep undecided triangles clustered with the output node, remove
    the rest of the component."""
    out_cluster = cluster[OUT_NODE]
    kept = [t for t in component if cluster[t] == out_cluster]
    mesh.tri_state[kept] = OUTPUT
    for t in component:
        if cluster[t] != out_cluster:
            mesh.remove(t)
    return kept


def repair_nonmanifold(mesh, frozen=frozenset()):
    """Deterministically remove the newest triangles at any residual
    non-manifold edge or pinched vertex. The pairwise criteria cover the
    overwhelming majority of conflicts; this net guarantees the audit,
    after consolidation and after the pipeline's orientation-driven
    removals.

    Overfull edges are cleared once, in sorted order: removals only
    lower edge counts, so no edge can become overfull later. Pinched
    vertices are then split until the audit finds none."""
    removed = []
    em = mesh.edge_map()
    for edge in mesh_ops.nonmanifold_edges(mesh):
        tids = list(em[edge])
        while len(tids) > 2:
            pick = max(t for t in tids if t not in frozen) \
                if any(t not in frozen for t in tids) else max(tids)
            mesh.remove(pick)
            removed.append(pick)
            tids.remove(pick)
    for _ in range(64):
        changed = False
        _, nm_vertices = mesh_ops.audit_manifold(mesh)
        vmap = mesh.vertex_tris() if nm_vertices else {}
        for v in nm_vertices:
            # removals at earlier vertices leave removed tids in vmap;
            # vertex_fan_groups skips them
            groups = mesh_ops.vertex_fan_groups(mesh, v, vmap[v])
            if len(groups) <= 1:
                continue

            def group_key(g):
                has_frozen = any(t in frozen for t in g)
                return (not has_frozen, -len(g), min(g))
            keep = sorted(groups, key=group_key)[0]
            for g in groups:
                if g is keep:
                    continue
                # losing groups go entirely, frozen or not: the audit
                # guarantee outranks keeping prior triangles
                for t in sorted(g):
                    mesh.remove(t)
                    removed.append(t)
                    changed = True
        if not changed:
            break
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
    removed = 0
    for component in components:
        stats.largest_component = max(stats.largest_component,
                                      len(component))
        if len(component) <= EXACT_NODE_LIMIT:
            stats.exact_solves += 1
        else:
            stats.greedy_solves += 1
        graph = build_conflict_graph(mesh, cs, config, component, pairs,
                                     undecided)
        cluster = solve_clustering(graph)
        kept = apply_consolidation(mesh, cluster, component)
        removed += len(component) - len(kept)

    # retained conflicts would be a solver bug
    for t1, t2, _ in pairs:
        if mesh.is_active(t1) and mesh.is_active(t2):
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
