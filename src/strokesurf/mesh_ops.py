"""Mesh-level operations: audits, orientation, boundary processing,
hole filling, smoothing, and OBJ round-tripping.

Everything here works on the active triangles of a SurfaceMesh and is
deterministic: iteration orders are sorted, ties broken by ids.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from . import geometry
from .matcher import Chain, ChainSet
from .mesher import edge_keys, join_equal_keys, split_by_label


# ---------------------------------------------------------------------------
# audits


def nonmanifold_edges(mesh):
    """Sorted edges (a, b), a < b, with more than two incident active
    triangles."""
    _, verts = mesh.triangle_array()
    return _overfull_edges(verts, mesh.vertex_count())


def _overfull_edges(verts, n):
    keys, counts = np.unique(edge_keys(verts, n), return_counts=True)
    bad = keys[counts > 2]
    return list(zip((bad // n).tolist(), (bad % n).tolist()))


def audit_manifold(mesh):
    """Return (bad_edges, bad_vertices), both sorted: edges with more
    than two incident triangles and vertices whose incident triangles
    split into multiple edge-connected fans.

    Fans come from one labelling of every triangle corner: the corners
    of two triangles at v are joined when the triangles also share an
    opposite vertex u, that is the edge (v, u). A vertex is bad when its
    corners carry more than one label."""
    _, verts = mesh.triangle_array()
    n = mesh.vertex_count()
    at = verts.ravel()
    # the corner at v keys the edges to the next and the previous corner
    # of its triangle, directed away from v
    labels = join_equal_keys(np.stack(
        [at * n + np.roll(verts, -1, axis=1).ravel(),
         at * n + np.roll(verts, 1, axis=1).ravel()], axis=1))
    # each label lies at one vertex: count labels per vertex
    _, first = np.unique(labels, return_index=True)
    fans = np.bincount(at[first], minlength=n)
    return _overfull_edges(verts, n), np.flatnonzero(fans > 1).tolist()


def vertex_fan_groups(mesh, v, tids=None):
    """Incident active triangles of v grouped by shared-edge adjacency at
    v; groups are ordered by their lowest tid, tids ascending."""
    if tids is None:
        tids = np.flatnonzero((mesh.tri_verts == v).any(axis=1))
    tids = np.asarray(tids, dtype=np.int64)
    tids, verts = mesh.triangle_array(tids[mesh.is_active(tids)])
    # two triangles at v share an edge when they share an opposite vertex
    labels = join_equal_keys(verts[verts != v].reshape(-1, 2))
    return split_by_label(tids, labels)


# ---------------------------------------------------------------------------
# orientation


def _directed_edge_in(verts, edge):
    a, b, c = verts
    return edge in ((a, b), (b, c), (c, a))


def orient_component(mesh, tids):
    """Flip triangles breadth-first from the lowest tid so shared edges
    run in opposite directions. Returns the first conflicting pair
    (t, other) the walk meets, or None when the component is orientable.

    The walk reads the live edge map and skips triangles outside tids;
    its edge lists are in ascending tid order. It reads the corners of
    tids once and writes its flips back in one column swap."""
    em = mesh.edge_map()
    corners = dict(zip(tids, mesh.tri_verts[tids].tolist()))
    seed = min(tids)
    visited = {seed}
    queue = deque([seed])
    conflict = None
    flipped = []
    while queue:
        t = queue.popleft()
        a, b, c = corners[t]
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            for other in em.get(key, ()):
                if other == t or other not in corners:
                    continue
                same = _directed_edge_in(corners[other], (u, v))
                if other in visited:
                    if same and conflict is None:
                        conflict = (t, other)
                else:
                    if same:
                        corners[other][1:] = corners[other][:0:-1]
                        flipped.append(other)
                    visited.add(other)
                    queue.append(other)
    mesh.flip(flipped)
    return conflict


def _align_with_source_normals(mesh, tids):
    """Flip a consistently oriented component so its area-weighted face
    normals agree with the source vertex normals."""
    tv = mesh.tri_verts[tids]
    n = geometry.triangle_normals(mesh.positions, tv)
    ref = (mesh.normals[tv[:, 0]] + mesh.normals[tv[:, 1]]
           + mesh.normals[tv[:, 2]])
    if float(np.einsum("ij,ij->", n, ref)) < 0:
        mesh.flip(tids)


def orient_all(mesh, align=True):
    """Orient every component; returns the list of non-orientable
    components (as sorted tid lists), ordered by their lowest tid.

    Each component takes the winding of its lowest triangle id. The
    windings come from one labelling of the double cover of the active
    triangles: node (t, s) is triangle t kept (s = 0) or flipped
    (s = 1), and where t1 and t2 share an edge, (t1, s) is joined to
    (t2, s ^ same), with same = 1 when both run the edge in one
    direction. A component is orientable iff no edge of it carries more
    than two triangles and no (t, 0), (t, 1) share a label; it is then
    wound by flipping the triangles whose (t, 1) carries the label of
    (lowest tid, 0), which is the one consistent winding that keeps the
    lowest triangle as it is. A broken component is wound by
    orient_component from its untouched state instead; a second walk
    over that winding flips nothing and meets the same conflicts, which
    is how break_nonorientable finds its cuts.

    With align (the default) an orientable component is then flipped to
    face its source vertex normals. The pipeline orients without
    alignment until its last step: the winding steers boundary walks,
    the traversal order of orient_component and strip judgements in
    resolve_moebius, and none of these may read the signs of the
    artist's normals."""
    tids, verts = mesh.triangle_array()
    keys = edge_keys(verts, mesh.vertex_count())
    runs_up = verts < np.roll(verts, -1, axis=1)
    _, first, edge, count = np.unique(keys, return_index=True,
                                      return_inverse=True,
                                      return_counts=True)
    head = np.zeros(keys.size, dtype=bool)
    head[first] = True
    overfull = (count[edge] > 2).reshape(keys.shape).any(axis=1)

    # node (t, s), row 2 t + s, keys each edge of t by the direction t
    # runs it after s, reversed for every triangle but the edge's first:
    # equal keys then join windings that run a two-triangle edge in
    # opposite directions
    kept_keys = 2 * keys + (runs_up ^ ~head.reshape(keys.shape))
    labels = join_equal_keys(
        np.stack([kept_keys, kept_keys ^ 1], axis=1).reshape(-1, 3))
    kept, flipped = labels[0::2], labels[1::2]

    # every triangle of an edge-connected component reaches the sheet of
    # (lowest tid, 0), which has the lowest label of the component
    _, seed, comp = np.unique(np.minimum(kept, flipped), return_index=True,
                              return_inverse=True)
    broken = np.zeros(len(seed), dtype=bool)
    broken[comp[kept == flipped]] = True
    broken[comp[overfull]] = True
    mesh.flip(tids[(flipped == kept[seed][comp]) & ~broken[comp]])

    bad = []
    for c, ctids in enumerate(split_by_label(tids, comp)):
        if broken[c]:
            orient_component(mesh, ctids)
            bad.append(ctids)
        elif align:
            _align_with_source_normals(mesh, ctids)
    return bad


def break_nonorientable(mesh, frozen=frozenset()):
    """Remove triangles until every component orients. Each round, every
    component orient_all leaves broken is walked again by
    orient_component, which flips nothing there, and the newer removable
    triangle of the first conflicting pair it meets goes (the newer of
    both when both are frozen). Surviving components keep the winding of
    their lowest triangle id; align them with orient_all afterwards if
    they should face the source normals."""
    removed = []
    for _ in range(len(mesh.tri_verts)):
        bad = orient_all(mesh, align=False)
        if not bad:
            break
        for tids in bad:
            # every broken component meets a conflict: it has no
            # consistent winding, or an edge that two of its triangles
            # run the same way
            conflict = orient_component(mesh, tids)
            victim = max([t for t in conflict if t not in frozen] or conflict)
            mesh.remove(victim)
            removed.append(victim)
    return removed


def resolve_moebius(mesh, new_tids):
    """Detach strip triangles whose orientation fights the surface they
    border. Each edge-connected strip of new triangles is oriented on
    its own, then compared against prior triangles along shared edges;
    the strip triangles on the minority (inverted loses ties) are cut."""
    new_set = {t for t in new_tids if mesh.is_active(t)}
    if not new_set:
        return []
    em_all = mesh.edge_map()
    _, strips = mesh.components(new_set)
    verts = mesh.tri_verts

    removed = []
    for strip in strips:
        orient_component(mesh, strip)
        aligned, inverted = [], []
        for t, (a, b, c) in zip(strip, verts[strip].tolist()):
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                for other in em_all.get(key, ()):
                    if other in new_set or not mesh.is_active(other):
                        continue
                    if _directed_edge_in(verts[other].tolist(), (u, v)):
                        inverted.append(t)
                    else:
                        aligned.append(t)
        if not aligned and not inverted:
            continue
        minority = inverted if len(inverted) <= len(aligned) else aligned
        for t in sorted(set(minority)):
            if mesh.is_active(t):
                mesh.remove(t)
                removed.append(t)
    return removed


# ---------------------------------------------------------------------------
# boundary loops and boundary chains


def boundary_loops(mesh):
    """Closed vertex loops along the surface boundary, following the
    orientation of the incident triangles. Each loop is rotated to start
    at its smallest vertex id; loops are sorted by that id."""
    em = mesh.edge_map()
    border = [(key, tids[0]) for key, tids in em.items() if len(tids) == 1]
    corners = mesh.tri_verts[[t for _, t in border]].tolist()
    outgoing = {}
    for (key, _), (a, b, c) in zip(border, corners):
        for u, v in ((a, b), (b, c), (c, a)):
            if (min(u, v), max(u, v)) == key:
                outgoing.setdefault(u, []).append(v)
                break
    for v in outgoing:
        outgoing[v].sort()

    loops = []
    used = set()
    for start in sorted(outgoing):
        for first in outgoing[start]:
            if (start, first) in used:
                continue
            loop = [start]
            used.add((start, first))
            cur = first
            broken = False
            for _ in range(len(used) + len(em) + 2):
                if cur == start:
                    break
                loop.append(cur)
                nxt = [w for w in outgoing.get(cur, ())
                       if (cur, w) not in used]
                if not nxt:
                    broken = True
                    break
                used.add((cur, nxt[0]))
                cur = nxt[0]
            if broken or len(loop) < 3:
                continue
            k = loop.index(min(loop))
            loops.append(loop[k:] + loop[:k])
    loops.sort(key=lambda lp: lp[0])
    return loops


class _ComponentLookup:
    """One mesh.components() labelling, read per triangle and per vertex.
    tids and verts are the active triangles as triangle_array() gives
    them and labels their components; of_vertex holds the component of
    the lowest active triangle at each vertex (-1 at none), and
    incidences every (component c, vertex v) pair as c * n + v for n
    vertices, ascending, so that each component's vertices form one
    run."""

    def __init__(self, mesh):
        comp_of, self.comps = mesh.components()
        self.tids, self.verts = mesh.triangle_array()
        # comp_of lists the active tids ascending, as triangle_array does
        self.labels = np.fromiter(comp_of.values(), dtype=np.int64,
                                  count=len(comp_of))
        at, at_label = self.verts.ravel(), np.repeat(self.labels, 3)
        self.n = mesh.vertex_count()
        self.of_vertex = np.full(self.n, -1, dtype=np.int64)
        v, first = np.unique(at, return_index=True)
        self.of_vertex[v] = at_label[first]
        self.incidences = np.unique(at_label * self.n + at)

    def of_loop(self, loop):
        return int(self.of_vertex[loop[0]])

    def loop_spans_component(self, loop):
        """Whether every vertex of the loop's component lies on the loop,
        which makes it the whole boundary of a sheet-like component."""
        base = self.of_loop(loop) * self.n
        lo, hi = np.searchsorted(self.incidences, [base, base + self.n])
        return bool(hi - lo <= len(loop) and np.isin(
            self.incidences[lo:hi] - base, loop).all())


def _loop_neighbours(loops):
    """The previous and the next vertex of every loop vertex, with the
    loops concatenated."""
    return (np.concatenate([np.roll(lp, s) for lp in loops]) for s in (1, -1))


def _vertex_sums(verts, rows, n):
    """Per-vertex sums, (n, 3), of one row per triangle of verts; each
    vertex adds the rows of its triangles in row order."""
    out = np.zeros((n, 3))
    np.add.at(out, verts.ravel(), np.repeat(rows, 3, axis=0))
    return out


def _interpolation_dmax(mesh, lookup):
    """Per-component acceptance radius for gap matching: the mean length
    of interpolation edges (edges not following a source polyline), each
    component's lengths taken in edge-map order."""
    u, v, t = np.array([(u, v, tids[0]) for (u, v), tids
                        in mesh.edge_map().items() if tids],
                       dtype=np.int64).reshape(-1, 3).T
    ou, ov = mesh.origin[u], mesh.origin[v]
    interp = ~((ou[:, 0] == ov[:, 0])
               & (mesh.origin_kind[u] == mesh.origin_kind[v])
               & (np.abs(ou[:, 1] - ov[:, 1]) == 1))
    diff = mesh.positions[u[interp]] - mesh.positions[v[interp]]
    # np.linalg.norm's dot, row by row
    lengths = np.sqrt(np.fromiter(map(np.dot, diff, diff),
                                  dtype=np.float64, count=len(diff)))
    comp = lookup.labels[np.searchsorted(lookup.tids, t[interp])]
    order = np.argsort(comp, kind="stable")
    comps, starts = np.unique(comp[order], return_index=True)
    return {c: float(np.mean(ls)) for c, ls in zip(
        comps.tolist(), np.split(lengths[order], starts[1:]))}


def boundary_chain_set(mesh, config, with_dmax=False):
    """Build cyclic chains over the boundary loops, framed for matching.

    Tangents follow the loop; normals average the incident oriented face
    normals by area; binormals point away from the surface so the LEFT
    probe lands in the open gap. With with_dmax the per-component
    interpolation-edge mean becomes the acceptance radius, falling back
    to the width rule where a component has no interpolation edges.
    Every loop vertex is framed in one row pass.
    """
    loops = boundary_loops(mesh)
    if not loops:
        return None
    lookup = _ComponentLookup(mesh)
    dmax_comp = _interpolation_dmax(mesh, lookup) if with_dmax else {}
    pos, verts, n = mesh.positions, lookup.verts, mesh.vertex_count()
    face_sum = _vertex_sums(verts, geometry.triangle_normals(pos, verts), n)
    centroid_sum = _vertex_sums(verts, (pos[verts[:, 0]] + pos[verts[:, 1]]
                                        + pos[verts[:, 2]]) / 3.0, n)
    count = np.bincount(verts.ravel(), minlength=n)

    g = np.concatenate(loops)
    prev, nxt = _loop_neighbours(loops)
    tan, t_ok = geometry.unit_rows_pow(pos[nxt] - pos[prev])
    nrm, n_ok = geometry.unit_rows_pow(face_sum[g])
    source, s_ok = geometry.unit_rows_pow(mesh.normals[g])
    nrm = np.where(n_ok[:, None], nrm, source)
    n_ok |= s_ok
    binorm, b_ok = geometry.unit_rows_pow(np.cross(tan, nrm))
    # turn binormals away from the mean centroid of their triangles
    rows = np.flatnonzero(b_ok & (count[g] > 0))
    inward = centroid_sum[g[rows]] / count[g[rows], None] - pos[g[rows]]
    facing = np.fromiter(map(np.dot, binorm[rows], inward),
                         dtype=np.float64, count=len(rows))
    flip = rows[facing > 0]
    binorm[flip] = -binorm[flip]
    ok = t_ok & n_ok & b_ok

    chains = []
    cuts = np.cumsum([len(lp) for lp in loops])[:-1]
    for loop, gids, t, nv, bv, okv in zip(
            loops, *(np.split(x, cuts) for x in (g, tan, nrm, binorm, ok))):
        comp = lookup.of_loop(loop)
        dmax = None
        if with_dmax:
            fallback = config.width_factor * float(
                np.mean(mesh.widths[gids]))
            dmax = np.full(len(loop), dmax_comp.get(comp, fallback))
        chains.append(Chain(
            gids=gids, positions=pos[gids], tangents=t, normals=nv,
            binormals=bv, widths=mesh.widths[gids].copy(),
            colors=mesh.colors[gids].copy(), ok=okv, cyclic=True,
            component=comp, dmax=dmax))
    return ChainSet(chains)


# ---------------------------------------------------------------------------
# hole filling


def _quad_fill(mesh, loop):
    """Split a reversed 4-loop by the diagonal giving the larger minimum
    interior angle; ties prefer the more planar split, then the lower
    diagonal ids."""
    d, c, b, a = loop[::-1][0], loop[::-1][1], loop[::-1][2], loop[::-1][3]
    # candidate diagonals of quad (d, c, b, a)
    p = {g: mesh.positions[g] for g in loop}
    splits = []
    for diag, tris in (((d, b), ((d, c, b), (d, b, a))),
                       ((c, a), ((c, b, a), (c, a, d)))):
        angles = [geometry.min_interior_angle_deg(p[t[0]], p[t[1]], p[t[2]])
                  for t in tris]
        c, d = third_vertices(tris, [diag, diag]).tolist()
        dihed = geometry.dihedral_deg(p[diag[0]], p[diag[1]], p[c], p[d])
        low_pair = tuple(-x for x in sorted(diag))
        splits.append((min(angles), -abs(180.0 - dihed), low_pair, tris))
    splits.sort(reverse=True)
    return splits[0][3]


def third_vertices(verts, edges):
    """The first corner of each triangle row of verts, (n, 3), that is
    not on its edge edges[i]; every row holds its edge."""
    verts = np.asarray(verts, dtype=np.int64).reshape(-1, 3)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    off = (verts != edges[:, :1]) & (verts != edges[:, 1:])
    return verts[np.arange(len(verts)), np.argmax(off, axis=1)]


def close_small_holes(mesh, config):
    """Fill boundary loops of up to small_hole_max_sides vertices,
    skipping loops that are the entire boundary of a sheet-like
    component (closing those would glue a pillow shut)."""
    added = 0
    for _ in range(len(mesh.tri_verts) + 1):
        loops = [lp for lp in boundary_loops(mesh)
                 if len(lp) <= config.small_hole_max_sides]
        if not loops:
            break
        lookup = _ComponentLookup(mesh)
        em = mesh.edge_map()
        added_now = 0
        for loop in loops:
            if lookup.loop_spans_component(loop):
                continue
            if len(loop) == 3:
                tris = [tuple(loop[::-1])]
            else:
                tris = _quad_fill(mesh, loop)
            # every edge may end up with at most two incident triangles
            gain = {}
            for tri in tris:
                for u, v in ((tri[0], tri[1]), (tri[1], tri[2]),
                             (tri[2], tri[0])):
                    key = (u, v) if u < v else (v, u)
                    gain[key] = gain.get(key, 0) + 1
            if any(len(em.get(key, ())) + extra > 2
                   for key, extra in gain.items()):
                continue
            added_now += sum(mesh.add_triangle(*tri) is not None
                             for tri in tris)
        if not added_now:
            break
        added += added_now
    return added


def fill_hole(mesh, loop):
    """Minimum-area triangulation of one boundary loop (classic interval
    DP). Triangles are wound against the loop so they join the surface
    coherently. Chords that would overload an existing mesh edge are
    infeasible; an unfillable loop is left open."""
    n = len(loop)
    if n < 3:
        return 0
    em = mesh.edge_map()
    inf = float("inf")

    def chord_ok(i, j):
        # loop edges gain one triangle, interior chords gain two
        adjacent = (j - i == 1) or (i == 0 and j == n - 1)
        key = (min(loop[i], loop[j]), max(loop[i], loop[j]))
        return len(em.get(key, ())) <= (1 if adjacent else 0)

    pts = [mesh.positions[g] for g in loop]
    cost = [[0.0] * n for _ in range(n)]
    pick = [[-1] * n for _ in range(n)]
    for span in range(2, n):
        for i in range(0, n - span):
            j = i + span
            best, best_k = inf, -1
            if chord_ok(i, j):
                for k in range(i + 1, j):
                    c = (cost[i][k] + cost[k][j]
                         + geometry.triangle_area(pts[i], pts[k], pts[j]))
                    if c < best - 1e-15:
                        best, best_k = c, k
            cost[i][j] = best
            pick[i][j] = best_k
    if not np.isfinite(cost[0][n - 1]):
        return 0
    added = 0
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        k = pick[i][j]
        if mesh.add_triangle(loop[j], loop[k], loop[i]) is not None:
            added += 1
        stack.append((i, k))
        stack.append((k, j))
    return added


def fill_all_holes(mesh, config, max_sides=None):
    """Triangulate remaining boundary loops (optionally only those with
    at most max_sides vertices), skipping pillow cases."""
    added = 0
    loops = boundary_loops(mesh)
    lookup = _ComponentLookup(mesh)
    for loop in loops:
        if max_sides is not None and len(loop) > max_sides:
            continue
        if lookup.loop_spans_component(loop):
            continue
        added += fill_hole(mesh, loop)
    return added


# ---------------------------------------------------------------------------
# smoothing


def _guarded_moves(mesh, g, prop, config):
    """Move each vertex g[i] to prop[i] unless that collapses one of its
    active triangles or turns one's unit normal past the smoothing
    guard angle. Every proposal is judged against the positions before
    any move, and a later proposal for a vertex wins over an earlier
    one. Returns the number of proposals that passed."""
    cos_guard = float(np.cos(np.radians(config.smoothing_normal_guard_deg)))
    _, verts = mesh.triangle_array()
    pos, n = mesh.positions, mesh.vertex_count()
    # one row per (proposal, active corner at its vertex)
    at = verts.ravel()
    order = np.argsort(at, kind="stable")
    count = np.bincount(at, minlength=n)[g]
    owner = np.repeat(np.arange(len(g)), count)
    corner = order[np.repeat(np.searchsorted(at, g, sorter=order)
                             - np.cumsum(count) + count, count)
                   + np.arange(len(owner))]
    before = verts[corner // 3]
    # the proposals follow the vertices as extra positions
    after = before.copy()
    after[np.arange(len(after)), corner % 3] = n + owner
    nb, ok_b = geometry.unit_rows_pow(geometry.triangle_normals(pos, before))
    na, ok_a = geometry.unit_rows_pow(
        geometry.triangle_normals(np.concatenate([pos, prop]), after))
    rows = np.flatnonzero(ok_a & ok_b)
    # np.dot row by row, not einsum: the guard angle is judged on BLAS
    # ddot's rounding, as in mesher.apex_sides
    dots = np.fromiter(map(np.dot, nb[rows], na[rows]), dtype=np.float64,
                       count=len(rows))
    blocked = np.zeros(len(g), dtype=bool)
    blocked[owner[~ok_a]] = True
    blocked[owner[rows[dots < cos_guard]]] = True
    passed = np.flatnonzero(~blocked)
    _, last = np.unique(g[passed][::-1], return_index=True)
    last = passed[len(passed) - 1 - last]
    pos[g[last]] = prop[last]
    return len(passed)


def smooth_boundary(mesh, config, iterations=1, lam=0.5):
    """Laplacian relaxation along boundary loops with a normal guard:
    each loop vertex proposes a move toward the midpoint of its loop
    neighbours."""
    moved = 0
    for _ in range(iterations):
        loops = boundary_loops(mesh)
        if not loops:
            continue
        g = np.concatenate(loops)
        prev, nxt = _loop_neighbours(loops)
        pos = mesh.positions
        target = 0.5 * (pos[prev] + pos[nxt])
        moved += _guarded_moves(mesh, g, pos[g] + lam * (target - pos[g]),
                                config)
    return moved


def laplacian_smooth(mesh, config, iterations=1, lam=0.5):
    """Interior-vertex Laplacian smoothing; boundary vertices stay put.
    Each interior vertex proposes a move toward the mean of its one-ring,
    summed in ascending neighbour order, with a normal guard."""
    moved = 0
    for _ in range(iterations):
        _, verts = mesh.triangle_array()
        n = mesh.vertex_count()
        keys, count = np.unique(edge_keys(verts, n), return_counts=True)
        boundary = np.zeros(n, dtype=bool)
        boundary[keys[count == 1] // n] = True
        boundary[keys[count == 1] % n] = True
        # both directions of every edge, by vertex, then by neighbour
        own = np.concatenate([keys // n, keys % n])
        ring = np.concatenate([keys % n, keys // n])
        order = np.lexsort((ring, own))
        own, ring = own[order], ring[order]
        own, ring = own[~boundary[own]], ring[~boundary[own]]
        pos = mesh.positions
        ring_sum = np.zeros((n, 3))
        np.add.at(ring_sum, own, pos[ring])
        size = np.bincount(own, minlength=n)
        g = np.flatnonzero(size)
        target = ring_sum[g] / size[g, None]
        moved += _guarded_moves(mesh, g, pos[g] + lam * (target - pos[g]),
                                config)
    return moved


# ---------------------------------------------------------------------------
# stats


def component_stats(mesh):
    """Per-component counts plus Euler characteristic and boundary loop
    tally, ordered like mesh.components()."""
    lookup = _ComponentLookup(mesh)
    k = len(lookup.comps)
    _, first = np.unique(edge_keys(lookup.verts, mesh.vertex_count()),
                         return_index=True)
    edges = np.bincount(lookup.labels[first // 3], minlength=k).tolist()
    vertices = np.bincount(lookup.incidences // lookup.n,
                           minlength=k).tolist()
    loops = np.bincount(np.array([lookup.of_loop(lp)
                                  for lp in boundary_loops(mesh)],
                                 dtype=np.int64), minlength=k).tolist()
    return [{
        "triangles": len(tids),
        "vertices": vertices[i],
        "edges": edges[i],
        "euler": vertices[i] - edges[i] + len(tids),
        "boundary_loops": loops[i],
        "closed": loops[i] == 0,
    } for i, tids in enumerate(lookup.comps)]


def path_edge_fraction(mesh, paths):
    """Share of the consecutive vertex-id pairs along paths that are
    distinct and present as active mesh edges; 0.0 without pairs. An id
    that names no vertex, such as -1, is on no edge."""
    em = mesh.edge_map()
    total = present = 0
    for ids in paths:
        ids = np.asarray(ids, dtype=np.int64).tolist()
        total += max(len(ids) - 1, 0)
        present += sum(1 for u, v in zip(ids, ids[1:])
                       if u != v and em.get((u, v) if u < v else (v, u)))
    return present / total if total else 0.0


# ---------------------------------------------------------------------------
# OBJ


def _fmt(x):
    x = float(x)
    if x == 0.0:
        x = 0.0
    return format(x, ".9g")


def _canonical_face(verts):
    """Rotate so the smallest vertex leads, preserving winding."""
    k = verts.index(min(verts))
    return verts[k:] + verts[:k]


def export_obj(mesh, path):
    """Write active triangles as a deterministic OBJ: vertices in
    ascending id order, one group per connected component, faces rotated
    to lead with their smallest vertex."""
    _, verts = mesh.triangle_array()
    _, comps = mesh.components()
    used = np.unique(verts)
    remap = dict(zip(used.tolist(), range(1, len(used) + 1)))

    # area-weighted vertex normals over the oriented surface
    pos = mesh.positions
    norms, ok = geometry.unit_rows_pow(_vertex_sums(
        verts, geometry.triangle_normals(pos, verts), len(pos))[used])
    norms[~ok] = (0.0, 0.0, 1.0)

    comp_faces = sorted((sorted(map(_canonical_face,
                                    mesh.tri_verts[tids].tolist()))
                         for tids in comps), key=lambda fs: fs[0])

    lines = []
    for p in pos[used]:
        lines.append(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}")
    for n in norms:
        lines.append(f"vn {_fmt(n[0])} {_fmt(n[1])} {_fmt(n[2])}")
    for ci, faces in enumerate(comp_faces):
        lines.append(f"g component_{ci:03d}")
        for f in faces:
            ids = [remap[g] for g in f]
            lines.append("f " + " ".join(f"{i}//{i}" for i in ids))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(used), sum(len(fs) for fs in comp_faces)


def load_obj(path):
    """Read positions, faces, and optional normals from an OBJ file.
    Faces with more than three vertices are fanned from the first. A
    face index must name a vertex listed above it: 1 is the first, -1
    the last so far; any other index raises ValueError."""
    positions = []
    normals = []
    faces = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.strip().split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                positions.append([float(x) for x in parts[1:4]])
            elif parts[0] == "vn":
                normals.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                idx = []
                for tok in parts[1:]:
                    i = int(tok.split("/")[0])
                    g = i - 1 if i > 0 else len(positions) + i
                    if not 0 <= g < len(positions):
                        raise ValueError(f"{path}:{lineno}: face index {i} "
                                         "names no vertex")
                    idx.append(g)
                for k in range(1, len(idx) - 1):
                    faces.append((idx[0], idx[k], idx[k + 1]))
    pos = np.asarray(positions, dtype=np.float64)
    nrm = np.asarray(normals, dtype=np.float64) if normals else None
    return pos, faces, nrm


def mesh_from_arrays(positions, faces, normals=None):
    """Wrap raw geometry in a SurfaceMesh (for evaluating OBJ files)."""
    from .mesher import KIND_STROKE, SurfaceMesh

    mesh = SurfaceMesh()
    n = len(positions)
    if normals is None or len(normals) != n:
        normals = np.tile(np.array([0.0, 0.0, 1.0]), (n, 1))
    origin = np.stack([np.full(n, -1, dtype=np.int64),
                       np.arange(n, dtype=np.int64)], axis=1)
    mesh.add_vertices(np.asarray(positions, dtype=np.float64), normals,
                      np.ones(n), np.zeros((n, 3)), origin, KIND_STROKE)
    for f in faces:
        mesh.add_triangle(f[0], f[1], f[2])
    return mesh
