"""Triangle-strip meshing of matched chains.

Every emitted triangle connects one polyline edge (p_i, p_i+1) of a
chain to an apex vertex q: consecutive matches to the same target vertex
give a single triangle, consecutive target vertices give a quad split
along the better diagonal, and a jump across a short target section with
no internal matches gives a fan polygon. Short means an arc length (the
summed lengths of the section's edges) of at most FAN_SIGMAS times the
source edge's acceptance radius `scoring.sigma_for`, about nine ribbon
widths at the default width_factor: a longer section is no adjacent
stroke run the edge could span, and its fan is dropped before it is
queued. Being in drawing terms, the bound does not change under rigid
motion, uniform scale or normal flips. Quads folding sharper than the
dihedral threshold are discarded outright; everything else is cleaned up
later by consolidation.

Emission runs in array passes. `_emit_pairs` classifies every matched
chain edge of a match table at once, as a triangle, a quad or a fan,
and writes their triangle rows in emission order. `_Emitter.flush` then
scores every quad in one pass of the row kernels in `geometry`, vetoes
and splits every fan with one batch of vertex scores, and inserts the
rows through one `SurfaceMesh.add_triangles` call, which keeps the
first emission of each triangle; one assignment then writes the
provenance of those inserted. The crease-preserving variant queues its
sections' ribbon quads with the strips, so it too inserts once per
call.

SurfaceMesh keeps one triangle table: corners as a (T, 3) int64 array,
states as a (T,) array and provenance as a (T, 6) int64 array, in
storage whose capacity doubles when an insert finds it full. Passes
slice and write through the views `tri_verts`, `tri_state` and
`tri_prov`, and take the rows they walk in Python once with `.tolist()`.
Every insert goes through `add_triangles`, the one place the insert
rule is applied: no repeated corner, no area under the floor, no vertex
set of an active triangle. The floor is (1e-12 * scale())^2, scale()
being the bounding-box diagonal of the first vertex block the mesh is
given: the trimmed strokes of a surfacing, the vertices of an OBJ. Crease
offsets and ribbon corners come later and may reach far out, and a
floor that followed them would drop a row or keep it depending on when
it was inserted. It decides all its rows at once, then
appends the winners one by one through `add_triangle`, which tests
nothing: the benchmark's traced runs count strip triangles by its
returns, so a bulk append waits until those counts are redefined. An
insert may move the storage, so no caller holds a view across
`add_triangles`. The table is the only incidence store, and only
`edge_index` keys edges: `edges()` indexes the active rows once per
mesh version, read-only, for every edge reader to slice. A version
ends when `add_triangle` or `remove` change a row, at `flip`, which
moves edges between the slots that boundary walks and orientation
read, and at `add_vertices`, as the vertex count is in every key.
No code but `flip` rewrites a `tri_verts` row.

An audit's proof, which only `mesh_ops.audit_manifold` records, keeps
the row count at the audit, the vertices it found at fault and the
corners of every row `remove` takes out since. Rows added since are the
table's tail, so `add_triangle` records nothing, and `flip` and
`add_vertices` change no vertex's rows, so no fan or edge count. Every
vertex none of these name has the fans and edge counts the audit found.

A provenance row says what a strip triangle hangs on: (gid a, gid b,
flat a, flat b, flat apex, side) holds its chain edge in chain order,
as gids and as flat ids in the ChainSet it was meshed from, the flat id
of its apex there, and the apex side of the edge (+1 / -1). Every other
insert keeps the none row NO_PROV: -1 in every id column, side 0. The
flat ids serve the consolidation pass that follows the meshing: the
crease variant appends its offset chains after every stroke chain, so
the flat ids meshing wrote keep their meaning, and that pass scores
only undecided triangles, which are never frozen and so come from its
own chain set.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import geometry, scoring
from .matcher import pair_sigmas

# triangle states
OUTPUT = 1
REMOVED = 2

# vertex origin kinds
KIND_STROKE = 0
KIND_OFFSET = 1
KIND_RIBBON = 2


# provenance row of a triangle that hangs on no chain edge
NO_PROV = (-1, -1, -1, -1, -1, 0)

# the longest fan section, in sigma_for radii of its source edge (module
# docstring)
FAN_SIGMAS = 6.0


class EdgeIndex(NamedTuple):
    """The undirected edges of triangle rows, from edge_index. Corner c =
    3 row + slot stands for the edge from that slot to the next. key:
    the edges' keys, ascending; count: the rows on each; corner: every
    corner, by edge and then by row; edge: (R, 3), each corner's edge
    as a position in key; n: the vertex count of the keys."""

    key: np.ndarray
    count: np.ndarray
    corner: np.ndarray
    edge: np.ndarray
    n: int

    def ends(self, which=slice(None)):
        """(lo, hi), lo < hi: the vertices of the edges `which` selects."""
        return self.key[which] // self.n, self.key[which] % self.n

    def first(self):
        """The lowest corner on each edge."""
        return self.corner[np.cumsum(self.count) - self.count]

    def corner_pairs(self):
        """(c1, c2): every two corners on one edge, c1's row first, in
        (edge, c1, c2) order."""
        first, second = run_pairs(self.count)
        return self.corner[first], self.corner[second]

    def counts(self, a, b):
        """The rows on each vertex pair (a[i], b[i]), in either order; 0
        for a pair that is no edge or names an id outside 0..n-1."""
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        key = np.where((lo >= 0) & (hi < self.n), lo * self.n + hi, -1)
        at = np.searchsorted(self.key, key)    # E: a sentinel, count 0
        return np.where(np.append(self.key, -1)[at] == key,
                        np.append(self.count, 0)[at], 0)


def edge_index(verts, n):
    """The EdgeIndex of (R, 3) triangle rows over n vertices, from one
    stable sort of their undirected edge keys."""
    nxt = np.roll(verts, -1, axis=1)
    key = (np.minimum(verts, nxt) * n + np.maximum(verts, nxt)).ravel()
    corner = np.argsort(key, kind="stable")
    key = key[corner]
    new = np.r_[True, key[1:] != key[:-1]][:len(key)]
    edge = np.empty(len(key), dtype=np.int64)
    edge[corner] = np.cumsum(new) - 1
    start = np.flatnonzero(new)
    return EdgeIndex(key[start], np.diff(np.append(start, len(key))),
                     corner, edge.reshape(verts.shape), n)


def join_equal_keys(keys):
    """join_links labels of the rows of an (n, k) key array, linking
    every two rows that hold an equal key (chained in key order)."""
    n, k = keys.shape
    keys = keys.ravel()
    order = np.argsort(keys, kind="stable")
    rows = order // k
    same = keys[order[1:]] == keys[order[:-1]]
    return join_links(n, rows[:-1][same], rows[1:][same])


def join_links(n, a, b):
    """Component labels of rows 0..n-1 in the graph whose links join rows
    a[i] and b[i]. Labels count up from 0 in the order of each
    component's lowest row.

    Each round hooks the larger root of every link that still joins two
    trees onto the smaller one, then points every row at its root; a
    round merges at least one pair of trees, and on meshes a few rounds
    settle it. Roots are the lowest rows of their components. This
    labels like scipy.sparse.csgraph.connected_components (the tests
    compare them) without importing it: it loads scipy.sparse.linalg,
    which costs a surfacing run 3-4.6 MB of peak memory."""
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(ra, rb)[apart],
                      np.minimum(ra, rb)[apart])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return np.unique(root, return_inverse=True)[1]


def spans(lo, n):
    """The ranges [lo[i], lo[i] + n[i]), concatenated."""
    return np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())


def run_pairs(sizes):
    """Index pairs (i, j), i < j, of every run of a sequence cut into runs
    of the given sizes, in (run, i, j) order."""
    later = np.repeat(sizes, sizes) - 1 - spans(0, sizes)
    first = np.repeat(np.arange(len(later)), later)
    return first, first + 1 + spans(0, later)


def split_by_label(ids, labels):
    """Lists of ids per label, for labels 0..k-1; ids keep their order."""
    if len(labels) == 0:
        return []
    ids = np.asarray(ids)[np.argsort(labels, kind="stable")].tolist()
    cuts = np.cumsum(np.bincount(labels)).tolist()
    return [ids[lo:hi] for lo, hi in zip([0] + cuts[:-1], cuts)]


class SurfaceMesh:
    """Growable triangle soup over a global vertex table.

    Triangle t is row t of tri_verts, (T, 3) int64, entry t of tri_state
    (OUTPUT or REMOVED) and row t of tri_prov, (T, 6) int64,
    its provenance (module docstring): views of storage whose capacity
    doubles when full. add_triangles is the checked insert; it leaves
    the provenance row at NO_PROV and strip meshing writes it. scale()
    fixes the insert rule's area floor, `version` counts the writes that
    end an edge index, and prove and unproved keep the last audit's
    proof (module docstring)."""

    def __init__(self):
        self.positions = np.zeros((0, 3))
        self.normals = np.zeros((0, 3))
        self.widths = np.zeros(0)
        self.colors = np.zeros((0, 3))
        self.origin = np.zeros((0, 2), dtype=np.int64)
        self.origin_kind = np.zeros(0, dtype=np.int64)

        self._verts = np.zeros((0, 3), dtype=np.int64)
        self._state = np.zeros(0, dtype=np.int8)
        self._prov = np.zeros((0, 6), dtype=np.int64)
        self._count = 0
        self._key_to_id = {}
        self._scale = None
        self._edges = None
        self._labels = None
        self._proof = None
        self.version = 0
        self.removed_count = 0
        self.duplicates_skipped = 0
        self.quads_rejected = 0
        self.fans = 0
        self.fans_capped = 0
        self.fans_vetoed = 0
        self.emissions = 0

    tri_verts = property(lambda self: self._verts[:self._count])
    tri_state = property(lambda self: self._state[:self._count])
    tri_prov = property(lambda self: self._prov[:self._count])

    # ---- vertices ----

    @classmethod
    def from_chains(cls, cs):
        """A mesh with no triangles whose vertex table is the vertices of
        ChainSet cs in flat order, with origins (chain, index)."""
        mesh = cls()
        mesh.add_vertices(cs.pos, cs.nrm, cs.w, cs.col,
                          np.stack([cs.chain_id, cs.index], axis=1),
                          KIND_STROKE)
        return mesh

    def add_vertices(self, pos, nrm, w, col, origin, kind):
        pos = np.atleast_2d(np.asarray(pos, dtype=np.float64))
        n = len(pos)
        base = len(self.positions)
        self.positions = np.concatenate([self.positions, pos])
        self.normals = np.concatenate([self.normals,
                                       np.atleast_2d(np.asarray(nrm))])
        self.widths = np.concatenate([self.widths, np.atleast_1d(w)])
        self.colors = np.concatenate([self.colors,
                                      np.atleast_2d(np.asarray(col))])
        self.origin = np.concatenate([self.origin,
                                      np.atleast_2d(np.asarray(origin))])
        self.origin_kind = np.concatenate(
            [self.origin_kind, np.full(n, kind, dtype=np.int64)])
        if self._scale is None:
            self._scale = max(geometry.bbox_diagonal(pos), 1e-12)
        self._changed()
        return np.arange(base, base + n, dtype=np.int64)

    def vertex_count(self):
        return len(self.positions)

    def scale(self):
        """The bounding-box diagonal of the first vertex block, at least
        1e-12 (module docstring); None before any."""
        return self._scale

    # ---- triangles ----

    def add_triangle(self, a, b, c):
        """Append the row (a, b, c), which add_triangles has accepted, and
        return its tid. It tests nothing: only add_triangles calls it."""
        tid = self._count
        if tid == len(self._state):     # double; new rows start NO_PROV
            cap = max(2 * tid, 16)
            self._verts = np.resize(self._verts, (cap, 3))
            self._state = np.resize(self._state, cap)
            self._prov = np.resize(self._prov, (cap, 6))
            self._prov[tid:] = NO_PROV
        self._verts[tid] = a, b, c
        self._state[tid] = OUTPUT
        self._count = tid + 1
        self._key_to_id[tuple(sorted((a, b, c)))] = tid
        self._changed()
        return tid

    def add_triangles(self, verts):
        """Insert the rows of an (R, 3) gid array, in row order, under the
        one insert rule: a row naming a vertex twice or under the area
        floor is dropped, and a row whose vertex set an active triangle
        or an earlier row holds counts as a duplicate. Every row is
        decided at once; the winners are then appended one by one through
        add_triangle, as the benchmark's traced runs count strip
        triangles by its returns. Returns the tid of each row, -1 where
        none."""
        verts = np.asarray(verts, dtype=np.int64).reshape(-1, 3)
        tids = np.full(len(verts), -1, dtype=np.int64)
        a, b, c = verts.T
        area = geometry.triangle_areas(self.positions[a], self.positions[b],
                                       self.positions[c])
        valid = ((a != b) & (b != c) & (a != c)
                 & ~(area < (1e-12 * self.scale()) ** 2))
        rows = np.flatnonzero(valid)
        # the first valid row of each vertex set, in row order
        keys = np.sort(verts[rows], axis=1)
        order = np.lexsort(keys.T[::-1])
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
        first = np.sort(order[first])
        held = np.array([self._key_to_id.get(tuple(k), -1)
                         for k in keys[first].tolist()], dtype=np.int64)
        hit = held >= 0
        free = ~hit
        free[hit] = self._state[held[hit]] == REMOVED
        wins = rows[first][free]
        self.duplicates_skipped += len(rows) - len(wins)
        tids[wins] = [self.add_triangle(*tri) for tri in verts[wins].tolist()]
        return tids

    def remove(self, tids):
        """Remove a triangle or an array of them; a tid listed twice
        counts once, and one removed already not at all."""
        tids = np.unique(np.asarray(tids, dtype=np.int64))
        tids = tids[self._state[tids] != REMOVED]
        self._state[tids] = REMOVED
        self.removed_count += len(tids)
        if len(tids):
            self._changed()
            if self._proof is not None:
                self._proof[2].append(self._verts[tids].ravel())

    def is_active(self, tid):
        return self._state[tid] != REMOVED

    def active_ids(self):
        return np.flatnonzero(self.tri_state != REMOVED).tolist()

    def active_count(self):
        return self._count - self.removed_count

    def flip(self, tids):
        """Swap the last two corners of a triangle or an array of them."""
        verts = self.tri_verts
        verts[tids, 1:] = verts[tids, :0:-1]
        if np.size(tids):
            self._changed()

    def _changed(self):
        self.version += 1
        self._edges = self._labels = None

    def prove(self, bad):
        """Record an audit that found fault only at the vertices bad."""
        self._proof = self._count, np.asarray(bad, dtype=np.int64), []

    def unproved(self):
        """The vertices the last audit's proof does not cover, ascending;
        None before any audit (module docstring)."""
        if self._proof is not None:
            count, bad, removed = self._proof
            return np.unique(np.concatenate(
                [bad, self._verts[count:self._count].ravel(), *removed]))

    def edges(self):
        """(tids, verts, index): triangle_array() and the edge_index of
        its rows, built once per version; every array is read-only."""
        if self._edges is None:
            tids, verts = self.triangle_array()
            self._edges = tids, verts, edge_index(verts, self.vertex_count())
            for a in (tids, verts, *self._edges[2][:4]):
                a.flags.writeable = False
        return self._edges

    def edge_map(self):
        """Undirected edge (a, b), a < b -> its active triangle ids,
        ascending, for every edge of an active triangle. A snapshot of
        the table: later inserts and removals do not show in it."""
        tids, _, index = self.edges()
        lo, hi = index.ends()
        return dict(zip(zip(lo.tolist(), hi.tolist()), split_by_label(
            tids[index.corner // 3], index.edge.ravel()[index.corner])))

    def vertex_tris(self, gids=None):
        """Vertex -> list of incident active triangle ids, ascending, for
        every vertex or only the given ones; vertices without active
        triangles are left out."""
        tids, verts, _ = self.edges()
        at, tid = verts.ravel(), np.repeat(tids, 3)
        if gids is not None:
            keep = np.isin(at, np.asarray(gids, dtype=np.int64))
            at, tid = at[keep], tid[keep]
        at, labels = np.unique(at, return_inverse=True)
        return dict(zip(at.tolist(), split_by_label(tid, labels)))

    def triangle_array(self, tri_ids=None):
        """(tids, verts): the given triangle ids (default: the active
        ones) ascending, and their rows of tri_verts, (R, 3)."""
        if tri_ids is None:
            tids = np.flatnonzero(self.tri_state != REMOVED)
        else:
            tids = np.sort(np.fromiter(tri_ids, dtype=np.int64))
        return tids, self.tri_verts[tids]

    def component_labels(self):
        """The edge-connected component of each row of edges(), read-only
        and built once per version; components count up from 0 in the
        order of their lowest tid."""
        if self._labels is None:
            tids, _, index = self.edges()
            c1, c2 = index.corner_pairs()
            self._labels = join_links(len(tids), c1 // 3, c2 // 3)
            self._labels.flags.writeable = False
        return self._labels

    def components(self):
        """Edge-connected components of the active triangles. Returns
        (comp_of: dict tid -> comp index, comps: list of tid lists);
        components are ordered by their lowest tid, and comp_of and
        every list hold their tids ascending."""
        tids, labels = self.edges()[0], self.component_labels()
        return (dict(zip(tids.tolist(), labels.tolist())),
                split_by_label(tids, labels))


def apex_sides(cs, fa, fb, apex_pos, width):
    """Side of each apex apex_pos[i] relative to the chain edge between
    flat ids fa[i] and fb[i], against the chain's binormal averaged over
    the edge endpoints, as an int array of +1/-1. Offsets below 1e-9 *
    max(1, width[i]) give 0 (no side)."""
    apex_pos = np.asarray(apex_pos, dtype=np.float64).reshape(-1, 3)
    # geometry.dot_rows, not einsum: sidedness is decided on np.dot's
    # rounding
    off = (geometry.dot_rows(apex_pos - cs.pos[fa], cs.bin[fa])
           + geometry.dot_rows(apex_pos - cs.pos[fb], cs.bin[fb])) * 0.5
    return np.where(np.abs(off) < 1e-9 * np.maximum(1.0, width), 0,
                    np.where(off > 0, 1, -1))


def split_quads(pa, pb, qa, qb, gids):
    """How to split the quads with cycle (pa[i], pb[i], qb[i], qa[i]),
    (Q, 3) position arrays, and corner gids (Q, 4) in the order (pa, pb,
    qa, qb). Diagonal 1, (pa, qb), gives (pa, pb, qb) + (qa, qb, pa);
    diagonal 2, (pb, qa), gives (pa, pb, qa) + (pb, qb, qa). Returns
    (use1, dihedral): whether each quad takes diagonal 1, the one with
    the larger minimum interior angle, ties within 1e-12 going to the
    flatter fold and then to the smaller sorted diagonal; and the
    dihedral across the diagonal taken."""
    # one kernel call per triangle and per diagonal: stacked, they
    # make temporaries of 12 rows per quad, and once those are freed
    # the heap stays several MB larger over repeated runs
    angle = geometry.min_interior_angle_deg_rows
    min1 = np.minimum(angle(pa, pb, qb), angle(pa, qb, qa))
    min2 = np.minimum(angle(pa, pb, qa), angle(pb, qb, qa))
    di1 = geometry.dihedral_deg_rows(pa, qb, pb, qa)
    di2 = geometry.dihedral_deg_rows(pb, qa, pa, qb)
    key1 = np.sort(gids[:, [0, 3]], axis=1)
    key2 = np.sort(gids[:, [1, 2]], axis=1)
    key1_first = (key1[:, 0] < key2[:, 0]) | (
        (key1[:, 0] == key2[:, 0]) & (key1[:, 1] <= key2[:, 1]))
    flat1, flat2 = np.abs(180.0 - di1), np.abs(180.0 - di2)
    use1 = np.where(np.abs(min1 - min2) > 1e-12, min1 > min2,
                    np.where(np.abs(flat1 - flat2) > 1e-12,
                             flat1 < flat2, key1_first))
    return use1, np.where(use1, di1, di2)


class _Emitter:
    """The emission queue of one meshing invocation.

    strips and quads append triangle rows in emission order, one int64
    block per call. A row is (fa, fb, apex 1, apex 2, side, steps,
    rank): the edge it hangs on as flat ids, two candidate apexes, the
    match side, and the target steps of the matched edge that queued it
    with the row's rank among that edge's steps + 1 rows. steps 0 is a
    plain triangle, steps 1 a quad (its two triangles, one row per
    diagonal choice) and steps 2 or more a fan. flush scores every
    queued quad and fan at once: a quad's rows take apex 1 under
    diagonal 1 and apex 2 otherwise, or go with the quad when its fold
    is too sharp; a fan's rows take apex 1 before its split and apex 2
    from it on, its source-edge row takes the split vertex, and all go
    when an internal match vetoes the fan. The rows left are inserted
    with one SurfaceMesh.add_triangles call; the queue is then empty
    for more rows."""

    def __init__(self, mesh, table, config):
        self.mesh = mesh
        self.table = table
        self.cs = table.chainset
        self.config = config
        self.rows = []

    def strips(self, jobs):
        """Queue the strips of the jobs (chain, side, match) in order; see
        _emit_pairs. Fans it drops as too long count in mesh.fans_capped."""
        if jobs:
            rows, capped = _emit_pairs(self.cs, jobs, self.config)
            self.rows.append(rows)
            self.mesh.fans_capped += capped

    def quads(self, fa, fb, qa, qb, side):
        """Queue the quads with cycle (fa[i], fb[i], qb[i], qa[i]), flat
        id arrays, split in flush by split_quads."""
        one = np.ones_like(fa)
        src = np.stack([fa, fb, qb, qa, side * one, one, 0 * one], axis=1)
        tgt = np.stack([qa, qb, fa, fb, side * one, one, one], axis=1)
        self.rows.append(np.stack([src, tgt], axis=1).reshape(-1, 7))

    def flush(self):
        """Insert the queued rows, quads split and fans fanned, and write
        the provenance rows of the triangles inserted; an apex too close
        to its edge's ribbon plane to have a side takes the match side.
        Returns the tid of each row offered to the mesh, -1 where none."""
        cs = self.cs
        rows = np.concatenate(self.rows or [np.zeros((0, 7), np.int64)])
        self.rows = []
        fa, fb, apex, apex2, side, steps, rank = rows.T
        keep = np.ones(len(rows), dtype=bool)
        quad = np.flatnonzero(steps == 1)
        if len(quad):
            first = rank[quad] == 0
            corners = rows[quad[first]][:, [0, 1, 3, 2]]    # fa, fb, qa, qb
            use1, dihedral = split_quads(
                *(cs.pos[corners[:, k]] for k in range(4)), cs.gid[corners])
            rejected = dihedral < self.config.dihedral_min_deg
            self.mesh.quads_rejected += int(rejected.sum())
            q = np.cumsum(first) - 1
            apex[quad] = np.where(use1[q], apex[quad], apex2[quad])
            keep[quad] = ~rejected[q]
        fan = np.flatnonzero(steps >= 2)
        if len(fan):
            apex[fan], keep[fan] = self._fans(rows[fan])
        fa, fb, apex, side = fa[keep], fb[keep], apex[keep], side[keep]
        verts = np.stack([cs.gid[fa], cs.gid[fb], cs.gid[apex]], axis=1)
        self.mesh.emissions += len(verts)
        tids = self.mesh.add_triangles(verts)
        won = tids >= 0
        fa, fb, apex, side = fa[won], fb[won], apex[won], side[won]
        sides = apex_sides(cs, fa, fb, cs.pos[apex], cs.w[fa])
        self.mesh.tri_prov[tids[won]] = np.stack(
            [verts[won, 0], verts[won, 1], fa, fb, apex,
             np.where(sides != 0, sides, side)], axis=1)
        return tids

    def _fans(self, rows):
        """(apex, keep) of the queued fan rows, in queue order: a fan's
        rows run over its target section's edges, then its source edge. A
        fan is vetoed when an inside vertex of its section is matched, on
        either side of the table, to an inside vertex of the section.
        Every fan vertex q of every other fan scores the source edge's
        ends on the side of q facing them, 0 where q has a degenerate
        frame, and the split maximizes the fa scores before it plus the
        fb scores from it on."""
        cs = self.cs
        fa, fb, apex, apex2, _, steps, rank = rows.T
        start = rank == 0
        fan = np.cumsum(start) - 1
        size = steps[start] + 1
        source = np.cumsum(size) - 1          # each fan's source-edge row
        last = rank == steps
        # the fan vertex of each rank: the source-edge row's is the second
        # end of the section's last edge
        vert = np.where(last, np.roll(fb, 1), fa)
        inner = ~start & ~last
        n = len(cs)
        held = np.sort(fan[inner] * n + vert[inner])
        vetoed = np.zeros(len(size), dtype=bool)
        for match in self.table.matches.values():
            # chains appended after matching have no matches
            at = inner & (vert < len(match))
            m = match[vert[at]]
            key = fan[at] * n + m
            found = held[np.searchsorted(held, key).clip(max=len(held) - 1)]
            vetoed[fan[at][(m >= 0) & (found == key)]] = True
        self.mesh.fans += len(size)
        self.mesh.fans_vetoed += int(vetoed.sum())

        ok = ~vetoed[fan] & cs.ok[vert]
        q = np.tile(vert[ok], 2)
        p = np.concatenate([fa[source][fan[ok]], fb[source][fan[ok]]])
        facing = np.einsum("ij,ij->i", cs.pos[p] - cs.pos[q], cs.bin[q])
        logs = scoring.vertex_scores_log_arrays(
            cs.pos[q], cs.tan[q], cs.bin[q], cs.w[q],
            np.where(facing >= 0, 1, -1),
            cs.pos[p], cs.tan[p], cs.bin[p], cs.w[p],
            pair_sigmas(cs, q, p, self.config))
        score = np.zeros((2, len(fan)))
        score[:, ok] = np.exp(logs).reshape(2, -1)
        # each fan's cumsums on its own zero-padded row, as a global cumsum
        # less offsets would round differently; rows are padded to the
        # next power of two, so one long fan pads no short one
        width = 2 ** np.ceil(np.log2(size)).astype(np.int64)
        m_pos = np.empty(len(size), dtype=np.int64)
        for w in np.unique(width).tolist():
            group = width == w
            at = group[fan]
            grid = np.zeros((2, int(group.sum()), w))
            grid[:, (np.cumsum(group) - 1)[fan[at]], rank[at]] = score[:, at]
            totals = (np.cumsum(grid[0], axis=1)
                      + np.cumsum(grid[1, :, ::-1], axis=1)[:, ::-1])
            totals[np.arange(w) >= size[group, None]] = -np.inf
            m_pos[group] = np.argmax(totals, axis=1)
        m_pos = m_pos[fan]
        apex = np.where(last, vert[source[fan] - steps + m_pos],
                        np.where(rank < m_pos, apex, apex2))
        return apex, ~vetoed[fan]


def _emit_pairs(cs, jobs, config):
    """(rows, capped): the queue rows (see _Emitter) of the jobs (chain
    ci, side, match), match holding one flat target id per vertex of
    chain ci (-1 where unmatched), and the number of fans dropped as too
    long. Jobs go in order, each along its chain's edges (p_i, p_i+1)
    and then, on a cyclic chain of more than two vertices, (p_n-1, p_0).
    An edge whose ends match one target vertex gives a triangle; one
    whose ends match target vertices `steps` apart on one chain, the
    shorter way round a cyclic chain and forward on a tie, gives a quad
    (steps 1) or a fan over the target section between them, unless
    that section's arc length exceeds FAN_SIGMAS sigma_for radii of the
    edge; an edge with an end unmatched, or its ends matched on two
    chains, gives nothing."""
    ci = np.array([job[0] for job in jobs], dtype=np.int64)
    n = np.array([len(job[2]) for job in jobs], dtype=np.int64)
    match = np.concatenate([job[2] for job in jobs])
    edges = n - 1 + (cs.cyclic[ci] & (n > 2))
    job = np.repeat(np.arange(len(jobs)), edges)
    ia = spans(0, edges)
    ib = np.where(ia == n[job] - 1, 0, ia + 1)
    at = np.repeat(np.cumsum(n) - n, edges)
    a, b = match[at + ia], match[at + ib]
    ca = cs.chain_id[np.maximum(a, 0)]
    live = (a >= 0) & (b >= 0) & (ca == cs.chain_id[np.maximum(b, 0)])
    job, a, b, ca = job[live], a[live], b[live], ca[live]
    base = cs.offsets[ci[job]]
    fa, fb = base + ia[live], base + ib[live]
    side = np.array([int(j[1]) for j in jobs], dtype=np.int64)[job]

    ja = cs.index[a]
    delta = cs.index[b] - ja
    nt, cyclic = cs.lengths[ca], cs.cyclic[ca]
    fwd, bwd = delta % nt, -delta % nt
    steps = np.where(cyclic, np.minimum(fwd, bwd), np.abs(delta))
    step = np.where(cyclic, np.where(fwd <= bwd, 1, -1),
                    np.where(delta > 0, 1, -1))

    # steps + 1 rows per edge: a quad's source edge comes first, a fan's
    # last, after the section's edges
    e = np.repeat(np.arange(len(steps)), steps + 1)
    rank = spans(0, steps + 1)
    s = steps[e]
    src = rank == np.where(s == 1, 0, s)
    k = rank - (s == 1)                 # the rank of a section edge
    j0 = ja[e] + step[e] * k
    j1 = j0 + step[e]
    cyc, tbase = cyclic[e], cs.offsets[ca[e]]
    t0 = tbase + np.where(cyc, j0 % nt[e], j0)
    t1 = tbase + np.where(cyc, j1 % nt[e], j1)
    # each fan section's arc length, its edges summed in order
    edge = (s >= 2) & ~src
    arc = np.bincount(e[edge], np.linalg.norm(cs.pos[t1[edge]]
                                              - cs.pos[t0[edge]], axis=1),
                      minlength=len(steps))
    capped = (steps >= 2) & (
        arc > FAN_SIGMAS * scoring.sigma_for(cs.w[fa], cs.w[fb], config))
    fa, fb, a = fa[e], fb[e], a[e]
    rows = np.stack([
        np.where(src, fa, t0), np.where(src, fb, t1),
        np.where(src, np.where(s == 0, a, np.where(s == 1, b[e], -1)), fa),
        np.where(src, np.where(s <= 1, a, -1), fb),
        side[e], s, rank], axis=1)
    return rows[~capped[e]], int(capped.sum())


def _emission_order(table):
    """(chain, side, the chain's slice of the side's matches) for every
    chain side that matched something, in emission order: by chain,
    then by the flat ids of the targets each side matched.

    A side is only a label for one half-plane of a ribbon: flipping a
    stroke's normals swaps its LEFT and RIGHT match arrays. Ordering the
    two sides by what they matched rather than by label keeps triangle
    ids, and the provenance kept for each duplicate, independent of
    normal signs."""
    offsets = table.chainset.offsets.tolist()
    order = []
    for ci, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        runs = {side: match[lo:hi] for side, match in table.matches.items()
                if (match[lo:hi] >= 0).any()}
        order += [(ci, side, runs[side]) for side in sorted(
            runs, key=lambda side: (runs[side].tolist(), side))]
    return order


def mesh_from_matches(table, config, mesh=None):
    """Emit triangle strips for every matched chain pair in the table,
    in `_emission_order`, and insert them in one pass. Duplicate
    triangles (same vertex set) are inserted once and keep the
    provenance of their first emission."""
    cs = table.chainset
    mesh = SurfaceMesh.from_chains(cs) if mesh is None else mesh
    emitter = _Emitter(mesh, table, config)
    emitter.strips(_emission_order(table))
    emitter.flush()
    return mesh


# ---- crease-preserving variant ----

def _sections(cs, match):
    """Maximal runs of consecutive matched vertices with one target
    chain. Yields (start, end_inclusive, target_chain)."""
    target = np.where(match >= 0, cs.chain_id[np.maximum(match, 0)], -1)
    cuts = [0, *(np.flatnonzero(target[1:] != target[:-1]) + 1).tolist(),
            len(match)]
    for i, j in zip(cuts[:-1], cuts[1:]):
        if i < j and target[i] >= 0:
            yield i, j - 1, int(target[i])


def _section_is_crease(cs, base, match, i0, i1, config):
    """A matched section folds into a crease when the ribbon half-planes
    facing each other meet at a dihedral of at most crease_angle_deg,
    measured as the angle between the two facing directions."""
    cos_lim = math.cos(math.radians(config.crease_angle_deg))
    fp = base + np.arange(i0, i1 + 1)
    fq = match[i0:i1 + 1]
    keep = (fq >= 0) & cs.ok[fp] & cs.ok[np.maximum(fq, 0)]
    fp, fq = fp[keep], fq[keep]
    d = cs.pos[fq] - cs.pos[fp]
    sp = geometry.dot_rows(d, cs.bin[fp])
    sq = geometry.dot_rows(-d, cs.bin[fq])
    keep = (np.abs(sp) >= 1e-12) & (np.abs(sq) >= 1e-12)
    dots = geometry.dot_rows(np.sign(sp[keep])[:, None] * cs.bin[fp[keep]],
                             np.sign(sq[keep])[:, None] * cs.bin[fq[keep]])
    return bool(len(dots)) and float(np.mean(dots)) >= cos_lim - 1e-12


def _make_offset_chain(mesh, cs, source_ci, idx, dirs, offset_cache):
    """Create (or reuse) half-width offset vertices for the flat ids idx
    of chain source_ci and append them to cs as a new chain with copied
    frames; the new vertices are added in one call, in run order."""
    keys = [(int(cs.gid[f]), int(s)) for f, s in zip(idx, dirs)]
    new = {}        # key not yet cached -> flat id of its first vertex
    for f, key in zip(idx, keys):
        if key not in offset_cache:
            new.setdefault(key, f)
    if new:
        f = np.array(list(new.values()), dtype=np.int64)
        sgn = np.array([s for _, s in new])[:, None]
        pos = cs.pos[f] + 0.5 * cs.w[f, None] * sgn * cs.bin[f]
        gids = mesh.add_vertices(pos, cs.nrm[f], cs.w[f], cs.col[f],
                                 np.stack([np.full_like(f, source_ci),
                                           cs.index[f]], axis=1),
                                 KIND_OFFSET)
        offset_cache.update(zip(new, zip(gids.tolist(), pos)))
    gids, pos = zip(*(offset_cache[key] for key in keys))
    return cs.append_chain(idx, np.asarray(gids, dtype=np.int64),
                           np.asarray(pos))


def mesh_with_creases(table, config, mesh=None):
    """Like mesh_from_matches, but matched sections meeting at a sharp
    angle keep a crease: the stroke with more vertices along the section
    extends a half-width ribbon toward the partner, and that ribbon edge
    (not the spine) connects to the partner's spine. Sides are visited
    in `_emission_order`, so the offset vertices and chains get ids that
    do not depend on normal signs either."""
    cs = table.chainset
    mesh = SurfaceMesh.from_chains(cs) if mesh is None else mesh
    emitter = _Emitter(mesh, table, config)
    offset_cache = {}

    jobs = []      # (chain_id, side, working match array)
    extra = []     # synthetic jobs for offset chains

    for ci, side, matched in _emission_order(table):
        match = matched.copy()
        base = int(cs.offsets[ci])
        for i0, i1, tci in _sections(cs, matched):
            if i1 - i0 < 1 or not _section_is_crease(cs, base, match, i0,
                                                     i1, config):
                continue
            run = np.arange(i0, i1 + 1)
            fp, fq = base + run, match[run]
            tidx = cs.index[fq]
            jmin, jmax = int(tidx.min()), int(tidx.max())
            src_count, tgt_count = len(run), jmax - jmin + 1
            keeper = (ci if src_count > tgt_count else
                      tci if tgt_count > src_count else min(ci, tci))
            if keeper == ci:
                # this stroke keeps its half ribbon toward the partner
                first, ribbon = i0, fp
                s = geometry.dot_rows(cs.pos[fq] - cs.pos[fp], cs.bin[fp])
            else:
                # the partner keeps its half ribbon toward this stroke
                first = jmin
                ribbon = int(cs.offsets[tci]) + np.arange(jmin, jmax + 1)
                s = geometry.dot_rows(cs.pos[fp].mean(axis=0)
                                      - cs.pos[ribbon], cs.bin[ribbon])
            oc = _make_offset_chain(mesh, cs, keeper, ribbon.tolist(),
                                    np.where(s >= 0, 1, -1).tolist(),
                                    offset_cache)
            # ribbon quads spine -> offset polyline
            obase = int(cs.offsets[oc])
            k = np.arange(len(ribbon) - 1)
            spine = int(cs.offsets[keeper]) + first + k
            emitter.quads(spine, spine + 1, obase + k, obase + k + 1, side)
            if keeper == ci:
                # a strip from the ribbon edge to the partner spine
                # replaces the direct strip
                extra.append((oc, side, fq))
                match[run] = -1
            else:
                # matches move to the partner's offset vertices
                match[run] = obase + tidx - jmin
        jobs.append((ci, side, match))

    emitter.strips(jobs + extra)
    emitter.flush()
    return mesh
