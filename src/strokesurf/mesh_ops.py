"""Mesh-level operations: audits, orientation, boundary processing,
hole filling, smoothing, and OBJ round-tripping.

Everything here works on the active triangles of a SurfaceMesh and is
deterministic: iteration orders are sorted, ties broken by ids. Every
whole-mesh reader slices `mesh.edges()`, the mesh's active rows and
their one edge index per version (see mesher), but a walk or an audit
of some triangles indexes its own rows. OBJ export and import work on
whole arrays: export formats each block of lines with one str.format
call.

Every orientation (orient_all, break_nonorientable, resolve_moebius)
is one breadth-first walk, _Walk, over a set of triangle rows.
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

break_nonorientable cuts a triangle of each broken part's first conflict
(Gueziec et al., "Cutting and Stitching", IEEE TVCG 2001) and resumes
the walk at the cut. A fresh walk without the cut row, of level L, is
the same through level L minus that row, whose offers leave only gaps in
ranks that are only compared: the part walks on from its other rows of
level L in rank order. Flips count against the build-time winding, as a
walk over rewound rows follows flip[child] = same ^ flip[parent] with
the build-time same. Unreached rows start new parts from their lowest
tids, which keep their flips as a fresh walk keeps their windings.

Hole filling (close_small_holes, fill_all_holes) is one pass: one
boundary walk, one count of the triangles on every vertex pair of every
loop, each fill taken in loop order unless it would put a third triangle
on an edge, counting the fills taken before it, and one insert. The
pipeline fills holes right after a repair net, on a manifold mesh, and
there rounds of fills until one adds nothing would do the same: no
vertex lies on two loops, so no two fills share an edge; a fill with an
active duplicate triangle would overload an edge, so the check refuses
it; and a triangle the area floor drops leaves itself as the hole. On a
soup one pass can differ: a triangle the insert rule drops still counts
in later checks, a fill partly inserted is not retried, and a loop that
passes a vertex twice may fail the check with a minimum-area fill.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from . import geometry
from .matcher import ChainSet
from .mesher import (KIND_STROKE, SurfaceMesh, edge_index, join_equal_keys,
                     join_links, spans, split_by_label, split_quads)
from .scoring import sigma_for

# share of the way a smoothing step moves a vertex toward its target
SMOOTH_STEP = 0.5
# a walk's rank of a row it has not reached, and of a cut row
UNRANKED, DEAD = np.iinfo(np.int64).max, -1


# ---------------------------------------------------------------------------
# audits


def audit_manifold(mesh):
    """Return (bad_edges, bad_vertices), both sorted: edges with more
    than two incident triangles and vertices whose incident triangles
    split into multiple edge-connected fans. Each audit records its proof
    on the mesh (see mesher); given one, only the active rows at the
    vertices it does not cover are read, none when it covers them all.

    Fans come from one labelling of every triangle corner: the corners
    of two triangles at v are joined when the triangles also share an
    opposite vertex u, that is the edge (v, u). A vertex is bad when its
    corners carry more than one label."""
    n = mesh.vertex_count()
    at = mesh.unproved()
    if at is not None and not len(at):
        return [], []
    near = np.zeros(n, dtype=bool)
    near[slice(None) if at is None else at] = True
    if at is None:
        _, verts, index = mesh.edges()
    else:
        verts = mesh.triangle_array()[1]
        verts = verts[near[verts].any(axis=1)]
        index = edge_index(verts, n)
    corner = verts.ravel()
    # two rows on an edge join their corners at each of its ends: corner
    # c's edge runs from c to the next corner of its row
    c1, c2 = index.corner_pairs()
    n1, n2 = (c + 1 - 3 * (c % 3 == 2) for c in (c1, c2))
    same = corner[c1] == corner[c2]
    labels = join_links(len(corner), np.r_[c1, n1], np.r_[
        np.where(same, c2, n2), np.where(same, n2, c2)])
    # each label lies at one vertex: count labels per vertex
    _, first = np.unique(labels, return_index=True)
    fans = np.bincount(corner[first], minlength=n)
    lo, hi = index.ends(index.count > 2)
    touch = near[lo] | near[hi]
    lo, hi = lo[touch], hi[touch]
    bad = np.flatnonzero((fans > 1) & near)
    mesh.prove(np.r_[bad, lo, hi])
    return list(zip(lo.tolist(), hi.tolist())), bad.tolist()


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


class _Walk:
    """The walk of the module docstring over the active triangles tids,
    row i being tids[i], which a cut can resume. Per row: flip against the
    build-time winding; rank, UNRANKED until reached, DEAD (beating every
    offer, clashing with no pair) once cut; depth, its level; root, its
    part's lowest row. `ranked` counts all rows, then those cuts rerank."""

    def __init__(self, mesh, tids):
        self.tids, verts = mesh.triangle_array(tids)
        r = len(self.tids)
        whole = (r == mesh.active_count()
                 and np.array_equal(self.tids, mesh.edges()[0]))
        index = (mesh.edges()[2] if whole
                 else edge_index(verts, mesh.vertex_count()))
        up = (verts < np.roll(verts, -1, axis=1)).ravel()
        # every ordered pair (src, dst) of corners, 3 row + slot, on one
        # edge; the lower corner of each pair comes first as dst, so that
        # a stable sort by src leaves each corner's others ascending
        first, second = index.corner_pairs()
        src = np.concatenate([second, first])
        dst = np.concatenate([first, second])
        by_src = np.argsort(src, kind="stable")
        src, dst = src[by_src], dst[by_src]
        self.same, self.slot = up[src] == up[dst], src % 3
        self.parent, self.child = src // 3, dst // 3
        # a row's pairs in the order its winding runs them: kept, slots 0,
        # 1, 2 (order[:p]); flipped, 2, 1, 0 (order[p:])
        self.order = np.concatenate([np.arange(len(src)), np.argsort(
            src + 2 - 2 * self.slot, kind="stable")])
        self.count = np.bincount(self.parent, minlength=r)
        self.start = np.cumsum(self.count) - self.count
        self.flip = np.zeros(r, dtype=bool)
        self.rank = np.full(r, UNRANKED)
        self.depth, self.root = np.zeros((2, r), dtype=np.int64)
        self.done, self.ranked = 0, r
        self._start(np.arange(r))

    def _start(self, rows):
        """Walk the parts of the unranked rows, each from its lowest."""
        at = spans(self.start[rows], self.count[rows])
        a, b = self.parent[at], self.child[at]
        link = (self.rank[b] == UNRANKED) & (a < b)
        labels = join_links(len(rows), *np.searchsorted(rows, [a[link],
                                                               b[link]]))
        roots = rows[np.unique(labels, return_index=True)[1]]
        self.root[rows] = roots[labels]
        self.rank[roots] = self.done + np.arange(len(roots))
        self.depth[roots] = 0
        self.done += len(roots)
        self._grow(roots)

    def _grow(self, level):
        """Walk on level by level from the rows of level in rank order.
        Each pair of a level offers its child the next rank; a row keeps
        its lowest offer, its first discovery, and a ranked row holds a
        lower rank already. Ranks leave gaps but keep the walk's order."""
        rank, flip, p = self.rank, self.flip, len(self.parent)
        while len(level):
            at = self.order[spans(self.start[level] + p * flip[level],
                                  self.count[level])]
            kid = self.child[at]
            offer = np.arange(self.done, self.done + len(kid))
            np.minimum.at(rank, kid, offer)
            won = rank[kid] == offer
            at, level = at[won], kid[won]
            flip[level] = self.same[at] ^ flip[self.parent[at]]
            self.depth[level] = self.depth[self.parent[at]] + 1
            self.done += len(kid)

    def conflicts(self, rows):
        """Root row -> first conflict (t, other), as tids, of each broken
        part holding rows, in root order."""
        at = spans(self.start[rows], self.count[rows])
        parent, child, flip, rank = (self.parent[at], self.child[at],
                                     self.flip, self.rank)
        clash = ((self.same[at] ^ flip[parent] ^ flip[child])
                 & (rank[parent] < rank[child]))
        at, parent, child = at[clash], parent[clash], child[clash]
        pos = np.where(flip[parent], 2 - self.slot[at], self.slot[at])
        first = np.argsort((3 * rank[parent] + pos) * len(rank) + child)
        roots, once = np.unique(self.root[parent[first]], return_index=True)
        return dict(zip(roots.tolist(), zip(*(
            self.tids[x[first[once]]].tolist() for x in (parent, child)))))

    def cut(self, dead):
        """Cut the rows dead, one a part, in root order, walk on from each
        one's level (module docstring); return the rows the parts keep."""
        roots, level = self.root[dead], self.depth[dead]
        self.rank[dead] = DEAD
        part = np.flatnonzero(np.isin(self.root, roots) & (self.rank != DEAD))
        below = (self.depth[part]
                 - level[np.searchsorted(roots, self.root[part])])
        deeper, front = part[below > 0], part[below == 0]
        self.rank[deeper] = UNRANKED
        self.ranked += len(deeper)
        self._grow(front[np.argsort(self.rank[front])])
        self._start(part[self.rank[part] == UNRANKED])
        return part


def orient_parts(mesh, tids):
    """Wind the active triangles tids so that neighbours run their shared
    edge in opposite directions, with the walk of the module docstring,
    and write the flips to the mesh at once. Returns (parts, conflicts):
    the edge-connected parts of tids (joined through edges of tids only)
    as ascending tid lists ordered by their lowest tid, and for each the
    first conflicting pair (t, other) of its walk, or None when the part
    is orientable."""
    walk = _Walk(mesh, tids)
    mesh.flip(walk.tids[walk.flip])
    roots, labels = np.unique(walk.root, return_inverse=True)
    found = walk.conflicts(np.arange(len(labels)))
    return (split_by_label(walk.tids, labels),
            [found.get(root) for root in roots.tolist()])


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


class Cut(list):
    """break_nonorientable's cuts in removal order; walk_rows: rows ranked."""

    walk_rows = 0


def break_nonorientable(mesh, frozen=frozenset()):
    """Remove triangles until every component orients: the newer
    removable triangle of each broken part's first conflict goes (the
    newer of both when both are frozen), and the walk resumes at the cuts
    (module docstring) until no part is broken; then the flips and
    removals are written to the mesh. Surviving components keep the
    winding of their lowest triangle id; align them with orient_all
    afterwards if they should face the source normals. Returns a Cut."""
    walk, removed = _Walk(mesh, mesh.active_ids()), Cut()
    rows = np.arange(len(walk.tids))
    while pairs := walk.conflicts(rows).values():
        victims = [max([t for t in pair if t not in frozen] or pair)
                   for pair in pairs]
        removed += victims
        rows = walk.cut(np.searchsorted(walk.tids, victims))
    mesh.flip(walk.tids[walk.flip])
    mesh.remove(removed)
    removed.walk_rows = walk.ranked
    return removed


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


def third_vertices(verts, edges):
    """The first corner of each triangle row of verts, (n, 3), that is
    not on its edge edges[i]; every row holds its edge."""
    verts = np.asarray(verts, dtype=np.int64).reshape(-1, 3)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    off = (verts != edges[:, :1]) & (verts != edges[:, 1:])
    return verts[np.arange(len(verts)), np.argmax(off, axis=1)]


def _small_fills(mesh, loops, count):
    """The fill of each 3- or 4-loop, wound against it: a 3-loop is one
    triangle, and every 4-loop (a, b, c, d) is split by one
    mesher.split_quads call, as the quad (d, c, a, b) of strip meshing.
    A small fill depends on its loop alone, so count is not read."""
    quads = np.array([lp for lp in loops if len(lp) == 4],
                     dtype=np.int64).reshape(-1, 4)[:, [3, 2, 0, 1]]
    use1, _ = split_quads(*mesh.positions[quads.T], quads)
    split = iter([[(d, c, b), (d, b, a)] if one else [(c, b, a), (c, a, d)]
                  for (d, c, a, b), one in zip(quads.tolist(), use1.tolist())])
    return [[tuple(lp[::-1])] if len(lp) == 3 else next(split)
            for lp in loops]


def _min_area_fills(mesh, loops, count):
    """Yield the minimum-area triangulation of each loop in turn (the
    classic interval DP), wound against the loop, reading count as it
    stands at the loop's turn: a loop edge may hold one triangle
    already, a chord none. An unfillable loop yields no triangles."""
    for loop in loops:
        n, pts = len(loop), mesh.positions[loop].tolist()
        cost = [[0.0] * n for _ in range(n)]
        pick = [[-1] * n for _ in range(n)]
        for span in range(2, n):
            for i in range(n - span):
                j = i + span
                cost[i][j] = float("inf")
                # (0, n - 1) is the one loop edge with a span of 2 or more
                if count[tuple(sorted((loop[i], loop[j])))] > (span == n - 1):
                    continue
                for k in range(i + 1, j):
                    c = (cost[i][k] + cost[k][j]
                         + geometry.triangle_area(pts[i], pts[k], pts[j]))
                    if c < cost[i][j] - 1e-15:
                        cost[i][j], pick[i][j] = c, k
        tris, stack = [], [(0, n - 1)] if pick[0][n - 1] >= 0 else []
        while stack:
            i, j = stack.pop()
            if j - i >= 2:
                k = pick[i][j]
                tris.append((loop[j], loop[k], loop[i]))
                stack += [(i, k), (k, j)]
        yield tris


def _fill_holes(mesh, max_sides, triangulate):
    """Fill the boundary loops of at most max_sides vertices in one pass
    (module docstring), each with the triangles triangulate(mesh, loops,
    count) gives it in turn, and return the number added. count holds
    the triangles on each vertex pair (lo, hi) of the loops, plus those
    of the fills taken before. A loop that is the entire boundary of a
    sheet-like component stays open: closing it would glue a pillow
    shut."""
    lookup = _ComponentLookup(mesh)
    loops = [lp for lp in boundary_loops(mesh) if len(lp) <= max_sides
             and not lookup.loop_spans_component(lp)]
    pairs = sorted({tuple(sorted(e)) for lp in loops
                    for e in itertools.combinations(lp, 2)})
    lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    count = Counter(dict(zip(pairs, mesh.edges()[2].counts(lo, hi)
                             .tolist())))
    rows = []
    for tris in triangulate(mesh, loops, count):
        # every edge may end up with at most two incident triangles
        gain = Counter(tuple(sorted(e)) for t in tris
                       for e in zip(t, t[1:] + t[:1]))
        if all(count[e] + extra <= 2 for e, extra in gain.items()):
            count.update(gain)
            rows += tris
    return int((mesh.add_triangles(rows) >= 0).sum()) if rows else 0


def close_small_holes(mesh, config):
    """Fill the boundary loops of up to small_hole_max_sides vertices."""
    return _fill_holes(mesh, config.small_hole_max_sides, _small_fills)


def fill_all_holes(mesh, config, max_sides):
    """Triangulate the boundary loops of up to max_sides vertices."""
    return _fill_holes(mesh, max_sides, _min_area_fills)


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
    tally, components in the order of their lowest tid."""
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
