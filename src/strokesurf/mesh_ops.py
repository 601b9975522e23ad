"""Mesh-level operations: audits, orientation, boundary processing,
hole filling, smoothing, and OBJ round-tripping.

Everything here works on the active triangles of a SurfaceMesh and is
deterministic: iteration orders are sorted, ties broken by ids. Every
whole-mesh reader slices `mesh.edges()`, the mesh's active rows and
their one edge index per version (see mesher), but orient_parts on a
subset indexes its rows. OBJ export and import work on whole arrays:
export formats each block of lines with one str.format call.

Every orientation (orient_all, break_nonorientable, resolve_moebius)
is one breadth-first walk, orient_parts, over a set of triangle rows.
Each edge-connected part starts at its lowest tid, and the walk
expands all parts one level at a time in numpy. The next level is
ordered by the parent's rank, then the position of the shared edge in
the parent's current winding, then the child's tid; a winding (a, b, c)
runs (a, b), (b, c), (c, a), so a flipped row visits its original
slots in the order 2, 1, 0. The first discovery of a row wins, and a
child is flipped exactly when it runs the shared edge the way its
parent now runs it. After the walk, a part is broken exactly when two
of its neighbours run their shared edge the same way (an edge with
three or more triangles always has such a pair). Its first conflict is
the pair (t, other), t ranked earlier, with the smallest key (rank of
t, position of the edge in t's winding, tid of other): the pair a
queue-driven walk in that order meets first.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import geometry
from .matcher import ChainSet
from .mesher import (KIND_STROKE, SurfaceMesh, edge_index, join_equal_keys,
                     join_links, spans, split_by_label, split_quads)
from .scoring import sigma_for

# share of the way a smoothing step moves a vertex toward its target
SMOOTH_STEP = 0.5


# ---------------------------------------------------------------------------
# audits


def audit_manifold(mesh):
    """Return (bad_edges, bad_vertices), both sorted: edges with more
    than two incident triangles and vertices whose incident triangles
    split into multiple edge-connected fans.

    Fans come from one labelling of every triangle corner: the corners
    of two triangles at v are joined when the triangles also share an
    opposite vertex u, that is the edge (v, u). A vertex is bad when its
    corners carry more than one label."""
    _, verts, index = mesh.edges()
    at = verts.ravel()
    # two rows on an edge join their corners at each of its ends: corner
    # c's edge runs from c to the next corner of its row
    c1, c2 = index.corner_pairs()
    n1, n2 = (c + 1 - 3 * (c % 3 == 2) for c in (c1, c2))
    same = at[c1] == at[c2]
    labels = join_links(len(at), np.r_[c1, n1], np.r_[
        np.where(same, c2, n2), np.where(same, n2, c2)])
    # each label lies at one vertex: count labels per vertex
    _, first = np.unique(labels, return_index=True)
    fans = np.bincount(at[first], minlength=mesh.vertex_count())
    lo, hi = index.ends(index.count > 2)
    return (list(zip(lo.tolist(), hi.tolist())),
            np.flatnonzero(fans > 1).tolist())


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


def orient_parts(mesh, tids):
    """Wind the active triangles tids so that neighbours run their shared
    edge in opposite directions, with the walk of the module docstring,
    and write the flips to the mesh at once. Returns (parts, conflicts):
    the edge-connected parts of tids (joined through edges of tids only)
    as ascending tid lists ordered by their lowest tid, and for each the
    first conflicting pair (t, other) of its walk, or None when the part
    is orientable. All the active triangles read the mesh's edge index,
    a subset indexes its own rows."""
    tids, verts = mesh.triangle_array(tids)
    r = len(tids)
    if not r:
        return [], []
    whole = (r == mesh.active_count()
             and np.array_equal(tids, mesh.edges()[0]))
    index = (mesh.edges()[2] if whole
             else edge_index(verts, mesh.vertex_count()))
    up = (verts < np.roll(verts, -1, axis=1)).ravel()
    # every ordered pair (src, dst) of corners, 3 row + slot, on one edge;
    # the lower corner of each pair comes first as dst, so that a stable
    # sort by src leaves each corner's others ascending
    first, second = index.corner_pairs()
    labels = join_links(r, first // 3, second // 3)
    src = np.concatenate([second, first])
    dst = np.concatenate([first, second])
    by_src = np.argsort(src, kind="stable")
    src, dst = src[by_src], dst[by_src]
    same = up[src] == up[dst]
    parent, child = src // 3, dst // 3
    # a row's pairs in the order its winding runs them: kept, slots 0, 1,
    # 2 (walk[:p]); flipped, 2, 1, 0 (walk[p:])
    p = len(src)
    walk = np.concatenate([np.arange(p), np.argsort(src + 2 - 2 * (src % 3),
                                                    kind="stable")])
    count = np.bincount(parent, minlength=r)
    start = np.cumsum(count) - count

    # level by level from the lowest row of every part. Each pair of a
    # level offers its child the next rank; a row keeps its lowest offer,
    # its first discovery, and a visited row holds a lower rank already.
    # Ranks leave gaps but keep the walk's order.
    flip = np.zeros(r, dtype=bool)
    rank = np.full(r, np.iinfo(np.int64).max)
    level = np.unique(labels, return_index=True)[1]
    rank[level] = np.arange(len(level))
    done = len(level)
    while len(level):
        lo, n = start[level] + p * flip[level], count[level]
        at = walk[spans(lo, n)]
        kid = child[at]
        offer = np.arange(done, done + len(kid))
        np.minimum.at(rank, kid, offer)
        won = rank[kid] == offer
        at, level = at[won], kid[won]
        flip[level] = same[at] ^ flip[parent[at]]
        done += len(kid)
    mesh.flip(tids[flip])

    # the earliest pair of the walk, in each part, that runs its edge one
    # way: (rank of t, position of the edge in t's winding, other's row)
    clash = np.flatnonzero((same ^ flip[parent] ^ flip[child])
                           & (rank[parent] < rank[child]))
    pos = np.where(flip[parent[clash]], 2 - src[clash] % 3, src[clash] % 3)
    clash = clash[np.argsort((3 * rank[parent[clash]] + pos) * r
                             + child[clash])]
    part, once = np.unique(labels[parent[clash]], return_index=True)
    parts = split_by_label(tids, labels)
    conflicts = [None] * len(parts)
    for c, t, other in zip(part.tolist(), *(
            tids[x[clash[once]]].tolist() for x in (parent, child))):
        conflicts[c] = (t, other)
    return parts, conflicts


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
    """Wind every component of the active triangles with orient_parts;
    returns the non-orientable ones, as ascending tid lists ordered by
    their lowest tid. Each component keeps the winding of its lowest
    tid, and an orientable one then has the only consistent winding
    that does.

    With align (the default) an orientable component is then flipped to
    face its source vertex normals. The pipeline aligns only here, in
    its last step: the winding steers boundary walks, the walk's own
    order and strip judgements in resolve_moebius, and none of these
    may read the signs of the artist's normals."""
    parts, conflicts = orient_parts(mesh, mesh.active_ids())
    bad = []
    for tids, conflict in zip(parts, conflicts):
        if conflict is not None:
            bad.append(tids)
        elif align:
            _align_with_source_normals(mesh, tids)
    return bad


def break_nonorientable(mesh, frozen=frozenset()):
    """Remove triangles until every component orients. Each round walks
    the components the round before cut (at first every active
    triangle) with orient_parts; the newer removable triangle of each
    part's first conflicting pair goes (the newer of both when both are
    frozen). A cut changes only its own part's edges, so the other
    conflicts of the round still hold, and a part without conflict is
    wound for good. Surviving components keep the winding of their
    lowest triangle id; align them with orient_all afterwards if they
    should face the source normals."""
    removed = []
    tids = mesh.active_ids()
    while True:
        parts, conflicts = orient_parts(mesh, tids)
        cut = [(part, conflict) for part, conflict in zip(parts, conflicts)
               if conflict is not None]
        if not cut:
            return removed
        victims = [max([t for t in conflict if t not in frozen] or conflict)
                   for _, conflict in cut]
        mesh.remove(victims)
        removed += victims
        tids = np.concatenate([part for part, _ in cut])
        tids = tids[mesh.is_active(tids)]


def resolve_moebius(mesh, new_tids):
    """Detach strip triangles whose orientation fights the surface they
    border. Each edge-connected strip of new triangles is oriented on
    its own, then compared against prior triangles along shared edges:
    every (strip corner, prior corner) pair on one edge votes inverted
    when both run the edge one way, aligned otherwise, and the strip
    triangles with a vote on the minority side (inverted loses ties)
    are cut."""
    new = np.unique(np.asarray(new_tids, dtype=np.int64))
    new = new[mesh.is_active(new)]
    if not len(new):
        return []
    strips, _ = orient_parts(mesh, new)
    strip_of = np.repeat(np.arange(len(strips)), [len(s) for s in strips])
    strip_of = strip_of[np.argsort(np.concatenate(strips))]

    tids, verts, index = mesh.edges()
    up = (verts < np.roll(verts, -1, axis=1)).ravel()
    is_new = np.isin(tids, new)
    # each corner of the strips against the prior corners on its edge
    c1, c2 = index.corner_pairs()
    first_new = is_new[c1 // 3]
    mixed = first_new != is_new[c2 // 3]
    corner = np.where(first_new, c1, c2)[mixed]
    inverted = up[corner] == up[np.where(first_new, c2, c1)[mixed]]
    tid = tids[corner // 3]
    strip = strip_of[np.searchsorted(new, tid)]
    votes = np.bincount(strip, minlength=len(strips))
    n_inverted = np.bincount(strip[inverted], minlength=len(strips))
    losing = n_inverted <= votes - n_inverted
    cut = np.unique(tid[inverted == losing[strip]])
    cut = cut[np.argsort(strip_of[np.searchsorted(new, cut)],
                         kind="stable")].tolist()
    mesh.remove(cut)
    return cut


# ---------------------------------------------------------------------------
# boundary loops and boundary chains


def boundary_loops(mesh):
    """Closed vertex loops along the surface boundary, following the
    orientation of the incident triangles. Each loop is rotated to start
    at its smallest vertex id; loops are sorted by that id."""
    _, verts, index = mesh.edges()
    # border edges, as their one triangle runs them
    border = index.count[index.edge] == 1
    u, v = verts[border], np.roll(verts, -1, axis=1)[border]
    order = np.lexsort((v, u))
    # each vertex hands out its border edges in order; a walk ends back
    # at its start or, broken, at a vertex with none left
    ahead = {}
    for a, b in zip(u[order].tolist(), v[order].tolist()):
        ahead.setdefault(a, []).append(b)
    ahead = {a: iter(bs) for a, bs in ahead.items()}
    loops = []
    for start in sorted(ahead):
        for cur in ahead[start]:
            loop = [start]
            while cur not in (start, None):
                loop.append(cur)
                cur = next(ahead.get(cur, iter(())), None)
            if cur == start and len(loop) >= 3:
                k = loop.index(min(loop))
                loops.append(loop[k:] + loop[:k])
    loops.sort(key=lambda lp: lp[0])
    return loops


class _ComponentLookup:
    """One mesh.component_labels() labelling, read per triangle and per
    vertex: labels holds the component of each row of mesh.edges(), k
    the number of components, of_vertex the component of the lowest
    active triangle at each vertex (-1 at none), and incidences every
    (component c, vertex v) pair as c * n + v for n vertices, ascending,
    so that each component's vertices form one run."""

    def __init__(self, mesh):
        self.labels = mesh.component_labels()
        self.k = int(self.labels.max()) + 1 if len(self.labels) else 0
        _, verts, _ = mesh.edges()
        at, at_label = verts.ravel(), np.repeat(self.labels, 3)
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
    component's lengths taken in ascending edge order."""
    _, _, index = mesh.edges()
    u, v = index.ends()
    ou, ov = mesh.origin[u], mesh.origin[v]
    interp = ~((ou[:, 0] == ov[:, 0])
               & (mesh.origin_kind[u] == mesh.origin_kind[v])
               & (np.abs(ou[:, 1] - ov[:, 1]) == 1))
    diff = mesh.positions[u[interp]] - mesh.positions[v[interp]]
    # np.linalg.norm's dot, row by row
    lengths = np.sqrt(geometry.dot_rows(diff, diff))
    comp = lookup.labels[index.first()[interp] // 3]
    return {c: float(np.mean(ls)) for c, ls in enumerate(
        split_by_label(lengths, comp)) if ls}


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
    pos, verts, n = mesh.positions, mesh.edges()[1], mesh.vertex_count()
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
    facing = geometry.dot_rows(binorm[rows], inward)
    flip = rows[facing > 0]
    binorm[flip] = -binorm[flip]
    ok = t_ok & n_ok & b_ok

    lengths = [len(lp) for lp in loops]
    component = np.array([lookup.of_loop(lp) for lp in loops],
                         dtype=np.int64)
    dmax = None
    if with_dmax:
        means = [float(np.mean(mesh.widths[lp])) for lp in loops]
        dmax = np.repeat([dmax_comp.get(c, sigma_for(m, m, config))
                          for c, m in zip(component.tolist(), means)],
                         lengths)
    return ChainSet(
        offsets=np.concatenate([[0], np.cumsum(lengths)]), gid=g,
        pos=pos[g], tan=tan, nrm=nrm, bin=binorm, w=mesh.widths[g],
        col=mesh.colors[g], ok=ok, cyclic=np.ones(len(loops), dtype=bool),
        component=component, dmax=dmax)


# ---------------------------------------------------------------------------
# hole filling


def _quad_fill(mesh, loop):
    """Split a 4-loop (a, b, c, d) by mesher.split_quads, as the quad
    (d, c, a, b) of strip meshing, into two triangles wound against the
    loop."""
    a, b, c, d = loop
    quad = np.array([[d, c, a, b]], dtype=np.int64)
    use1, _ = split_quads(*mesh.positions[quad.T], quad)
    return ((d, c, b), (d, b, a)) if use1[0] else ((c, b, a), (c, a, d))


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
    component (closing those would glue a pillow shut). A round counts
    the triangles on its fills' edges once; each fill it adds counts."""
    added = 0
    for _ in range(len(mesh.tri_verts) + 1):
        loops = [lp for lp in boundary_loops(mesh)
                 if len(lp) <= config.small_hole_max_sides]
        if not loops:
            break
        lookup = _ComponentLookup(mesh)
        fills = [[tuple(loop[::-1])] if len(loop) == 3
                 else _quad_fill(mesh, loop)
                 for loop in loops if not lookup.loop_spans_component(loop)]
        # the undirected edges (lo, hi) of each triangle of each fill
        sides = [[[tuple(sorted(e)) for e in zip(t, t[1:] + t[:1])]
                  for t in tris] for tris in fills]
        flat = [e for rows in sides for r in rows for e in r]
        lo, hi = np.array(flat, dtype=np.int64).reshape(-1, 2).T
        count = Counter(dict(zip(flat, mesh.edges()[2].counts(lo, hi)
                                 .tolist())))
        added_now = 0
        for tris, rows in zip(fills, sides):
            # every edge may end up with at most two incident triangles
            gain = Counter(e for r in rows for e in r)
            if any(count[e] + extra > 2 for e, extra in gain.items()):
                continue
            tids = mesh.add_triangles(tris)
            for tid, r in zip(tids.tolist(), rows):
                if tid >= 0:
                    added_now += 1
                    count.update(r)
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
    # the triangles on the chord between loop positions i < j
    i, j = np.triu_indices(n, 1)
    count = np.zeros((n, n), dtype=np.int64)
    count[i, j] = mesh.edges()[2].counts(np.take(loop, i), np.take(loop, j))
    inf = float("inf")

    def chord_ok(i, j):
        # loop edges gain one triangle, interior chords gain two
        adjacent = (j - i == 1) or (i == 0 and j == n - 1)
        return count[i, j] <= (1 if adjacent else 0)

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
    tris = []
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        k = pick[i][j]
        tris.append((loop[j], loop[k], loop[i]))
        stack.append((i, k))
        stack.append((k, j))
    return int((mesh.add_triangles(tris) >= 0).sum())


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
    verts = mesh.edges()[1]
    pos, n = mesh.positions, mesh.vertex_count()
    # one row per (proposal, active corner at its vertex)
    at = verts.ravel()
    order = np.argsort(at, kind="stable")
    count = np.bincount(at, minlength=n)[g]
    owner = np.repeat(np.arange(len(g)), count)
    corner = order[spans(np.searchsorted(at, g, sorter=order), count)]
    before = verts[corner // 3]
    # the proposals follow the vertices as extra positions
    after = before.copy()
    after[np.arange(len(after)), corner % 3] = n + owner
    nb, ok_b = geometry.unit_rows_pow(geometry.triangle_normals(pos, before))
    na, ok_a = geometry.unit_rows_pow(
        geometry.triangle_normals(np.concatenate([pos, prop]), after))
    rows = np.flatnonzero(ok_a & ok_b)
    # geometry.dot_rows, not einsum: the guard angle is judged on
    # np.dot's rounding, as in mesher.apex_sides
    dots = geometry.dot_rows(nb[rows], na[rows])
    blocked = np.zeros(len(g), dtype=bool)
    blocked[owner[~ok_a]] = True
    blocked[owner[rows[dots < cos_guard]]] = True
    passed = np.flatnonzero(~blocked)
    _, last = np.unique(g[passed][::-1], return_index=True)
    last = passed[len(passed) - 1 - last]
    pos[g[last]] = prop[last]
    return len(passed)


def smooth_boundary(mesh, config, iterations=1):
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
        moved += _guarded_moves(
            mesh, g, pos[g] + SMOOTH_STEP * (target - pos[g]), config)
    return moved


def laplacian_smooth(mesh, config, iterations=1):
    """Interior-vertex Laplacian smoothing; boundary vertices stay put.
    Each interior vertex proposes a move toward the mean of its one-ring,
    summed in ascending neighbour order, with a normal guard."""
    moved = 0
    for _ in range(iterations):
        _, _, index = mesh.edges()
        n = mesh.vertex_count()
        lo, hi = index.ends()
        # both directions of every edge, by vertex, then by neighbour
        own, ring = np.r_[lo, hi], np.r_[hi, lo]
        boundary = np.zeros(n, dtype=bool)
        boundary[own[np.tile(index.count == 1, 2)]] = True
        order = np.lexsort((ring, own))
        own, ring = own[order], ring[order]
        own, ring = own[~boundary[own]], ring[~boundary[own]]
        pos = mesh.positions
        ring_sum = np.zeros((n, 3))
        np.add.at(ring_sum, own, pos[ring])
        size = np.bincount(own, minlength=n)
        g = np.flatnonzero(size)
        target = ring_sum[g] / size[g, None]
        moved += _guarded_moves(
            mesh, g, pos[g] + SMOOTH_STEP * (target - pos[g]), config)
    return moved


# ---------------------------------------------------------------------------
# stats


def component_stats(mesh):
    """Per-component counts plus Euler characteristic and boundary loop
    tally, ordered like mesh.components()."""
    lookup = _ComponentLookup(mesh)
    k = lookup.k
    triangles = np.bincount(lookup.labels, minlength=k).tolist()
    edges = np.bincount(lookup.labels[mesh.edges()[2].first() // 3],
                        minlength=k).tolist()
    vertices = np.bincount(lookup.incidences // lookup.n,
                           minlength=k).tolist()
    loops = np.bincount(np.array([lookup.of_loop(lp)
                                  for lp in boundary_loops(mesh)],
                                 dtype=np.int64), minlength=k).tolist()
    return [{
        "triangles": triangles[i],
        "vertices": vertices[i],
        "edges": edges[i],
        "euler": vertices[i] - edges[i] + triangles[i],
        "boundary_loops": loops[i],
        "closed": loops[i] == 0,
    } for i in range(k)]


def path_edge_fraction(mesh, paths):
    """Share of the consecutive vertex-id pairs along paths that are
    distinct and present as active mesh edges; 0.0 without pairs. An id
    that names no vertex, such as -1, is on no edge. All pairs are
    looked up in one pass."""
    paths = [np.asarray(ids, dtype=np.int64).ravel() for ids in paths]
    lo, hi = (np.concatenate([p[s] for p in paths] + [np.zeros(0, np.int64)])
              for s in (np.s_[:-1], np.s_[1:]))
    if not len(lo):
        return 0.0
    return np.count_nonzero(mesh.edges()[2].counts(lo, hi)) / len(lo)


# ---------------------------------------------------------------------------
# OBJ


def _lines(template, rows):
    """template once per row of rows, filled from the row's entries."""
    return (template * len(rows)).format(*rows.ravel().tolist())


def export_obj(mesh, path):
    """Write active triangles as a deterministic OBJ: used vertices in
    ascending id order with area-weighted normals, then one group per
    edge-connected component, ordered by their smallest face, each with
    its faces sorted, every face rotated to lead with its smallest
    vertex. -0.0 is written as 0. Returns (vertices, faces)."""
    _, verts, _ = mesh.edges()
    labels = mesh.component_labels()
    used, ids = np.unique(verts.ravel(), return_inverse=True)
    ids = ids.reshape(-1, 3) + 1

    # area-weighted vertex normals over the oriented surface
    pos = mesh.positions
    norms, ok = geometry.unit_rows_pow(_vertex_sums(
        verts, geometry.triangle_normals(pos, verts), len(pos))[used])
    norms[~ok] = (0.0, 0.0, 1.0)

    lead = np.argmin(ids, axis=1)[:, None]
    faces = np.take_along_axis(ids, (lead + np.arange(3)) % 3, axis=1)
    order = np.lexsort(faces.T[::-1])
    # a component's first face in that order is its smallest: name each
    # face's component by that face's position, which orders them
    comp = labels[order]
    at = np.unique(comp, return_index=True)[1][comp]
    order = order[np.argsort(at, kind="stable")]
    sizes = np.unique(at, return_counts=True)[1].tolist()

    groups = "".join(f"g component_{c:03d}\n" + "f {}//{} {}//{} {}//{}\n" * n
                     for c, n in enumerate(sizes))
    text = (_lines("v {:.9g} {:.9g} {:.9g}\n", pos[used] + 0.0)
            + _lines("vn {:.9g} {:.9g} {:.9g}\n", norms + 0.0)
            + groups.format(*np.repeat(faces[order], 2, axis=1)
                            .ravel().tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text or "\n")
    return len(used), len(faces)


# str.split()'s whitespace, a table over code points; False from its last
# entry on
_SPACE = np.zeros(0x3002, dtype=bool)
_SPACE[[*range(9, 14), *range(28, 33), 0x85, 0xA0, 0x1680,
        *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000]] = True


def load_obj(path):
    """Read positions, faces, and optional normals from an OBJ file.
    Faces with more than three vertices are fanned from the first. A
    face index must name a vertex listed above it: 1 is the first, -1
    the last so far; any other index raises ValueError naming the line,
    as does a v or vn line without 3 numbers. The file is tokenized at
    once, as str.split() splits each line; face indices (the part of a
    token before any '/') are read a digit column at a time over all
    corners, and by int() where not a sign and 1 to 15 ASCII digits."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # code points, those past the table clipped to its last entry
    codes = (np.frombuffer(text.encode("ascii"), dtype=np.uint8)
             if text.isascii() else np.minimum(np.frombuffer(
                 text.encode("utf-32-le"), dtype=np.uint32), len(_SPACE) - 1))
    # tokens: where whitespace stops and starts again
    begin, end = np.flatnonzero(np.diff(_SPACE[codes], prepend=True,
                                        append=True)).reshape(-1, 2).T
    begin, end = begin.astype(np.int32), end.astype(np.int32)
    lineno = 1 + np.searchsorted(np.flatnonzero(codes == ord("\n")), begin)
    # rows: the lines holding tokens, by their first token
    first = np.flatnonzero(np.diff(lineno, prepend=0))
    lineno, size = lineno[first], np.diff(np.r_[first, len(begin)])

    def tagged(tag):
        at = begin[first]
        hit = end[first] - at == len(tag)
        for k, char in enumerate(tag):
            hit &= codes[np.minimum(at + k, len(codes) - 1)] == ord(char)
        return np.flatnonzero(hit)

    def coords(tag):
        rows = tagged(tag)
        if (size[rows] < 4).any():
            raise ValueError(f"{path}:{lineno[rows[size[rows] < 4][0]]}: "
                             f"{tag} lines need 3 numbers")
        spans = [text[i:j] for i, j in zip(begin[first[rows] + 1].tolist(),
                                           end[first[rows] + 3].tolist())]
        return rows, np.array(" ".join(spans).split(),
                              dtype=np.float64).reshape(-1, 3)

    (v_rows, positions), (vn_rows, normals) = coords("v"), coords("vn")
    f_rows = tagged("f")
    corners = size[f_rows] - 1
    # per corner: its line's row and first corner, and its rank there
    row = np.repeat(f_rows, corners)
    start = np.repeat(np.cumsum(corners) - corners, corners)
    rank = np.arange(len(start)) - start
    tokens = first[row] + 1 + rank
    at = begin[tokens]
    slash = np.r_[np.flatnonzero(codes == ord("/")), len(codes)]
    stop = np.minimum(end[tokens], slash[np.searchsorted(slash, at)])
    lead = at + np.isin(codes[at], [ord("-"), ord("+")])
    del begin, end, slash           # free before the corner arrays grow
    index = np.zeros(len(at), dtype=np.int64)
    odd = (stop <= lead) | (stop - lead > 15)
    for k in range(min(15, int(np.max(stop - lead, initial=0)))):
        more = lead + k < stop
        digit = codes[np.where(more, lead + k, 0)] - np.int64(ord("0"))
        odd |= more & ((digit < 0) | (digit > 9))
        np.multiply(index, 10, out=index, where=more)
        np.add(index, digit, out=index, where=more)
    index[codes[at] == ord("-")] *= -1
    for i in np.flatnonzero(odd).tolist():
        index[i] = min(max(int(text[at[i]:stop[i]]), -2**62), 2**62)
    del codes                       # free before the faces list is built
    # the v lines above each corner's line
    seen = np.searchsorted(v_rows, row)
    g = np.where(index > 0, index - 1, seen + index)
    bad = np.flatnonzero((g < 0) | (g >= seen))
    if len(bad):
        i = bad[0]
        raise ValueError(f"{path}:{lineno[row[i]]}: face index "
                         f"{int(text[at[i]:stop[i]])} names no vertex")
    fan = np.flatnonzero(rank >= 2)
    faces = list(zip(g[start[fan]].tolist(), g[fan - 1].tolist(),
                     g[fan].tolist()))
    return positions, faces, normals if len(vn_rows) else None


def mesh_from_arrays(positions, faces, normals=None):
    """Wrap raw geometry in a SurfaceMesh (for evaluating OBJ files)."""
    mesh = SurfaceMesh()
    n = len(positions)
    if normals is None or len(normals) != n:
        normals = np.tile(np.array([0.0, 0.0, 1.0]), (n, 1))
    origin = np.stack([np.full(n, -1, dtype=np.int64),
                       np.arange(n, dtype=np.int64)], axis=1)
    mesh.add_vertices(np.asarray(positions, dtype=np.float64), normals,
                      np.ones(n), np.zeros((n, 3)), origin, KIND_STROKE)
    mesh.add_triangles(faces)
    return mesh
