"""Triangle-strip meshing of matched chains.

Every emitted triangle connects one polyline edge (p_i, p_i+1) of a
chain to an apex vertex q: consecutive matches to the same target vertex
give a single triangle, consecutive target vertices give a quad split
along the better diagonal, and a jump across a short target section with
no internal matches gives a fan polygon. Quads folding sharper than the
dihedral threshold are discarded outright; everything else is cleaned up
later by consolidation.

Emission is queued: the strips of a whole match table become rows in
emission order, every quad is scored in one pass of the row kernels in
`geometry`, and the rows go into the mesh through one
`SurfaceMesh.add_triangles` call, which keeps the first emission of each
triangle and builds provenance only for the triangles it inserts. The
crease-preserving variant inserts what is queued before each ribbon it
adds vertices for, so every row meets the area floor of the vertex
table it was emitted under.

SurfaceMesh keeps one triangle table: corners as a (T, 3) int64 array,
states as a (T,) array, in storage whose capacity doubles when an insert
finds it full. Passes slice and write through the views `tri_verts` and
`tri_state`, and take the rows they walk in Python once with `.tolist()`.
An insert may move the storage, so no caller holds a view across
`add_triangle` or `add_triangles`. `add_triangles` still inserts its
winners one by one through `add_triangle`: the benchmark's traced runs
count strip triangles by its returns, so a bulk append waits until
those counts are redefined.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import geometry, scoring
from .matcher import Chain, VertexRef, pair_sigmas
from .scoring import Side

# triangle states
OUTPUT = 1
UNDECIDED = 0
REMOVED = 2

# vertex origin kinds
KIND_STROKE = 0
KIND_OFFSET = 1
KIND_RIBBON = 2


@dataclass(frozen=True)
class Provenance:
    """What a triangle hangs on: a chain edge and an apex, in the
    coordinate frame of the ChainSet it was meshed from."""

    edge: tuple                 # (gid, gid) in chain order
    side: int                   # +1 / -1, apex side of the edge's chain
    edge_ref: tuple             # (VertexRef, VertexRef)
    apex_ref: VertexRef


def edge_keys(verts, n_vertices):
    """Undirected edge keys lo * n_vertices + hi of the corner rows
    (a, b, c), as an (R, 3) array for the edges (a, b), (b, c), (c, a)."""
    nxt = np.roll(verts, -1, axis=1)
    return np.minimum(verts, nxt) * n_vertices + np.maximum(verts, nxt)


def join_equal_keys(keys):
    """Component labels of the rows of an (n, k) key array, in the graph
    that joins every two rows holding an equal key. Labels count up from
    0 in the order of each component's lowest row.

    Rows sharing a key are chained in key order. Each round hooks the
    larger root of every chain link that still joins two trees onto the
    smaller one, then points every row at its root; a round merges at
    least one pair of trees, and on meshes a few rounds settle it.
    Roots are the lowest rows of their components. This labels like
    scipy.sparse.csgraph.connected_components (the tests compare them)
    without importing it: it loads scipy.sparse.linalg, which costs a
    surfacing run 3-4.6 MB of peak memory."""
    n, k = keys.shape
    keys = keys.ravel()
    order = np.argsort(keys, kind="stable")
    rows = order // k
    same = keys[order[1:]] == keys[order[:-1]]
    a, b = rows[:-1][same], rows[1:][same]
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


def split_by_label(ids, labels):
    """Lists of ids per label, for labels 0..k-1; ids keep their order."""
    if len(labels) == 0:
        return []
    ids = np.asarray(ids)[np.argsort(labels, kind="stable")].tolist()
    cuts = np.cumsum(np.bincount(labels)).tolist()
    return [ids[lo:hi] for lo, hi in zip([0] + cuts[:-1], cuts)]


class SurfaceMesh:
    """Growable triangle soup over a global vertex table.

    Triangle t is row t of tri_verts, (T, 3) int64, and entry t of
    tri_state (OUTPUT, UNDECIDED or REMOVED): views of storage whose
    capacity doubles when full. An insert may move that storage, so take
    the views afresh after add_triangle or add_triangles."""

    def __init__(self):
        self.positions = np.zeros((0, 3))
        self.normals = np.zeros((0, 3))
        self.widths = np.zeros(0)
        self.colors = np.zeros((0, 3))
        self.origin = np.zeros((0, 2), dtype=np.int64)
        self.origin_kind = np.zeros(0, dtype=np.int64)

        self._verts = np.zeros((0, 3), dtype=np.int64)
        self._state = np.zeros(0, dtype=np.int8)
        self._count = 0
        self.tri_prov = []
        self._key_to_id = {}
        self._em = {}
        self._scale = None
        self.removed_count = 0
        self.duplicates_skipped = 0
        self.quads_rejected = 0
        self.emissions = 0

    tri_verts = property(lambda self: self._verts[:self._count])
    tri_state = property(lambda self: self._state[:self._count])

    # ---- vertices ----

    @classmethod
    def from_drawing(cls, drawing):
        mesh = cls()
        for sid, s in enumerate(drawing.strokes):
            n = len(s)
            origin = np.stack([np.full(n, sid, dtype=np.int64),
                               np.arange(n, dtype=np.int64)], axis=1)
            mesh.add_vertices(s.points, s.normals, s.widths,
                              np.tile(s.color, (n, 1)), origin, KIND_STROKE)
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
        self._scale = None
        return np.arange(base, base + n, dtype=np.int64)

    def vertex_count(self):
        return len(self.positions)

    def scale(self):
        if self._scale is None:
            self._scale = max(geometry.bbox_diagonal(self.positions), 1e-12)
        return self._scale

    # ---- triangles ----

    def add_triangle(self, a, b, c, prov=None):
        a, b, c = int(a), int(b), int(c)
        if a == b or b == c or a == c:
            return None
        pos = self.positions
        area = geometry.triangle_area(pos[a].tolist(), pos[b].tolist(),
                                      pos[c].tolist())
        if area < (1e-12 * self.scale()) ** 2:
            return None
        key = tuple(sorted((a, b, c)))
        old = self._key_to_id.get(key)
        if old is not None and self._state[old] != REMOVED:
            self.duplicates_skipped += 1
            return None
        tid = self._count
        if tid == len(self._state):     # double; rows past tid go unread
            self._verts = np.resize(self._verts, (max(2 * tid, 16), 3))
            self._state = np.resize(self._state, max(2 * tid, 16))
        self._verts[tid] = a, b, c
        self._state[tid] = OUTPUT
        self._count = tid + 1
        self.tri_prov.append(prov)
        self._key_to_id[key] = tid
        for u, v in ((a, b), (b, c), (c, a)):
            ekey = (u, v) if u < v else (v, u)
            self._em.setdefault(ekey, []).append(tid)
        return tid

    def add_triangles(self, verts, provenance):
        """Add the rows of an (R, 3) gid array as add_triangle would, one
        after another: a row naming a vertex twice or under the area
        floor is dropped, and a row whose vertex set an active triangle
        or an earlier row holds counts as a duplicate. Every row is
        decided at once; the winners then go through add_triangle in row
        order, with the provenance list provenance(rows) builds for
        those rows only (see the module docstring for why one by one).
        Returns the tid of each row, -1 where none."""
        verts = np.asarray(verts, dtype=np.int64).reshape(-1, 3)
        self.emissions += len(verts)
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
        held = [self._key_to_id.get(tuple(k)) for k in keys[first].tolist()]
        free = [t is None or self._state[t] == REMOVED for t in held]
        wins = rows[first][np.array(free, dtype=bool)]
        self.duplicates_skipped += len(rows) - len(wins)
        tids[wins] = [self.add_triangle(*tri, prov)
                      for tri, prov in zip(verts[wins].tolist(),
                                           provenance(wins))]
        return tids

    def remove(self, tid):
        if self._state[tid] == REMOVED:
            return
        self._state[tid] = REMOVED
        self.removed_count += 1
        a, b, c = self._verts[tid].tolist()
        for u, v in ((a, b), (b, c), (c, a)):
            ekey = (u, v) if u < v else (v, u)
            # empty lists stay so iterators never see a key vanish
            self._em[ekey].remove(tid)

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

    def edge_map(self):
        """The live map undirected edge -> incident active triangle ids,
        kept by add_triangle/remove; read-only. Keys whose last triangle
        was removed remain with an empty list."""
        return self._em

    def vertex_tris(self):
        """Vertex -> list of incident active triangle ids, ascending."""
        tids, verts = self.triangle_array()
        gids, labels = np.unique(verts.ravel(), return_inverse=True)
        return dict(zip(gids.tolist(),
                        split_by_label(np.repeat(tids, 3), labels)))

    def triangle_array(self, tri_ids=None):
        """(tids, verts): the given triangle ids (default: the active
        ones) ascending, and their rows of tri_verts, (R, 3)."""
        if tri_ids is None:
            tids = np.flatnonzero(self.tri_state != REMOVED)
        else:
            tids = np.sort(np.fromiter(tri_ids, dtype=np.int64))
        return tids, self.tri_verts[tids]

    def components(self, tri_ids=None):
        """Edge-connected components of the given (default: the active)
        triangles. Returns (comp_of: dict tid -> comp index, comps: list
        of tid lists); components are ordered by their lowest tid, and
        comp_of and every list hold their tids ascending."""
        tids, verts = self.triangle_array(tri_ids)
        labels = join_equal_keys(edge_keys(verts, self.vertex_count()))
        comps = split_by_label(tids, labels)
        return dict(zip(tids.tolist(), labels.tolist())), comps


def apex_sides(cs, fa, fb, apex_pos, width):
    """Side of each apex apex_pos[i] relative to the chain edge between
    flat ids fa[i] and fb[i], against the chain's binormal averaged over
    the edge endpoints, as an int array of +1/-1. Offsets below 1e-9 *
    max(1, width[i]) give 0 (no side)."""
    apex_pos = np.asarray(apex_pos, dtype=np.float64).reshape(-1, 3)
    n = len(apex_pos)
    # np.dot row by row, not einsum: BLAS ddot rounds as sidedness was
    # always decided, and einsum differs from it on a share of rows
    dots = [np.fromiter(map(np.dot, apex_pos - cs.pos[f], cs.bin[f]),
                        dtype=np.float64, count=n) for f in (fa, fb)]
    off = (dots[0] + dots[1]) * 0.5
    return np.where(np.abs(off) < 1e-9 * np.maximum(1.0, width), 0,
                    np.where(off > 0, 1, -1))


class _Emitter:
    """The emission queue of one meshing invocation.

    tri_on_edge, quad and polygon append triangle rows in emission
    order: a chain edge as flat ids (fa, fb), the apex under each quad
    diagonal, the match side and the index of the row's quad, -1 for a
    plain triangle. A quad queues both of its triangles. flush scores
    every queued quad at once, keeps each quad's rows with the apexes of
    its chosen diagonal or drops them with the quad, and inserts the
    rows with one SurfaceMesh.add_triangles call; the queue is then
    empty for more rows."""

    def __init__(self, mesh, cs, config):
        self.mesh = mesh
        self.cs = cs
        self.config = config
        # flat int64 rows (fa, fb, apex if diagonal 1, else, side, quad)
        # and (fa, fb, qa, qb) per quad
        self.rows = array("q")
        self.quads = array("q")

    def tri_on_edge(self, ci, ia, ib, apex_flat, match_side):
        base = int(self.cs.offsets[ci])
        self.rows.extend((base + ia, base + ib, apex_flat, apex_flat,
                          int(match_side), -1))

    def quad(self, ci, ia, ib, qa_flat, qb_flat, match_side):
        """Quad cycle (p_ia, p_ib, q_b, q_a), split in flush: diagonal 1,
        (p_ia, q_b), gives (p_ia, p_ib, q_b) + (q_a, q_b, p_ia), and
        diagonal 2, (p_ib, q_a), gives (p_ia, p_ib, q_a) + (q_a, q_b,
        p_ib)."""
        base = int(self.cs.offsets[ci])
        fa, fb = base + ia, base + ib
        q = len(self.quads) // 4
        self.quads.extend((fa, fb, qa_flat, qb_flat))
        side = int(match_side)
        self.rows.extend((fa, fb, qb_flat, qa_flat, side, q,
                          qa_flat, qb_flat, fa, fb, side, q))

    def _split_quads(self, quads):
        """(use1, rejected) per quad row (fa, fb, qa, qb): split along the
        diagonal with the larger minimum interior angle, ties within
        1e-12 going to the flatter fold and then to the smaller sorted
        diagonal; reject the quad when its split folds sharper than the
        dihedral threshold."""
        # one kernel call per triangle and per diagonal: stacked, they
        # make temporaries of 12 rows per quad, and once those are freed
        # the heap stays several MB larger over repeated runs
        pa, pb, qa, qb = (self.cs.pos[quads[:, k]] for k in range(4))
        angle = geometry.min_interior_angle_deg_rows
        min1 = np.minimum(angle(pa, pb, qb), angle(pa, qb, qa))
        min2 = np.minimum(angle(pa, pb, qa), angle(pb, qb, qa))
        di1 = geometry.dihedral_deg_rows(pa, qb, pb, qa)
        di2 = geometry.dihedral_deg_rows(pb, qa, pa, qb)
        g = self.cs.gid[quads]
        key1 = np.sort(g[:, [0, 3]], axis=1)
        key2 = np.sort(g[:, [1, 2]], axis=1)
        key1_first = (key1[:, 0] < key2[:, 0]) | (
            (key1[:, 0] == key2[:, 0]) & (key1[:, 1] <= key2[:, 1]))
        flat1, flat2 = np.abs(180.0 - di1), np.abs(180.0 - di2)
        use1 = np.where(np.abs(min1 - min2) > 1e-12, min1 > min2,
                        np.where(np.abs(flat1 - flat2) > 1e-12,
                                 flat1 < flat2, key1_first))
        rejected = np.where(use1, di1, di2) < self.config.dihedral_min_deg
        return use1, rejected

    def flush(self):
        """Insert the queued rows, quads split; returns the tid of each
        row offered to the mesh, -1 where none."""
        cs = self.cs
        rows = np.array(self.rows, dtype=np.int64).reshape(-1, 6)
        fa, fb, apex, apex2, side, quad = rows.T
        if self.quads:
            use1, rejected = self._split_quads(
                np.array(self.quads, dtype=np.int64).reshape(-1, 4))
            self.mesh.quads_rejected += int(rejected.sum())
            in_quad = quad >= 0
            apex = np.where(in_quad & ~use1[quad], apex2, apex)
            keep = ~(in_quad & rejected[quad])
            fa, fb, apex, side = fa[keep], fb[keep], apex[keep], side[keep]
        self.rows, self.quads = array("q"), array("q")
        verts = np.stack([cs.gid[fa], cs.gid[fb], cs.gid[apex]], axis=1)
        return self.mesh.add_triangles(
            verts,
            lambda rows: self._provenance(fa[rows], fb[rows], apex[rows],
                                          side[rows]))

    def _provenance(self, fa, fb, apex, match_side):
        """Provenance of the rows with edges (fa, fb), apexes and match
        sides given as arrays; an apex too close to its edge's ribbon
        plane to have a side takes the match side."""
        cs = self.cs
        side = apex_sides(cs, fa, fb, cs.pos[apex], cs.w[fa])
        side = np.where(side != 0, side, match_side)
        gid = cs.gid

        def refs(f):
            return map(VertexRef, cs.chain_id[f].tolist(),
                       cs.index[f].tolist())

        return [Provenance(edge=(ga, gb), side=sd, edge_ref=(ra, rb),
                           apex_ref=rq)
                for ga, gb, sd, ra, rb, rq in zip(
                    gid[fa].tolist(), gid[fb].tolist(), side.tolist(),
                    refs(fa), refs(fb), refs(apex))]

    def polygon(self, ci, ia, ib, qa_flat, qb_flat, table, match_side):
        """Fan a section of the target chain between two non-consecutive
        matched vertices, provided the section has no internal matches."""
        cs = self.cs
        qa_ref = cs.ref(qa_flat)
        qb_ref = cs.ref(qb_flat)
        tci = qa_ref.chain
        tchain = cs.chains[tci]
        nt = len(tchain)
        ja, jb = qa_ref.index, qb_ref.index

        delta = jb - ja
        if tchain.cyclic:
            fwd = delta % nt
            bwd = (-delta) % nt
            if fwd <= bwd:
                steps, step = fwd, 1
            else:
                steps, step = bwd, -1
        else:
            steps, step = abs(delta), 1 if delta > 0 else -1
        if steps < 2:
            return

        idxs = [(ja + step * k) % nt if tchain.cyclic else ja + step * k
                for k in range(steps + 1)]
        inside = set(idxs[1:-1])
        tbase = int(cs.offsets[tci])
        for u in inside:
            for side_key in ((tci, 1), (tci, -1)):
                arr = table.matches.get(side_key)
                if arr is None or arr[u] < 0:
                    continue
                m = arr[u]
                if cs.chain_id[m] == tci and int(cs.index[m]) in inside:
                    return

        base = int(cs.offsets[ci])
        fa = base + ia
        fb = base + ib

        # each fan vertex q scores fa and fb on the side of q facing
        # them; q with a degenerate frame scores 0
        fan = tbase + np.asarray(idxs, dtype=np.int64)
        ok = cs.ok[fan]
        q = np.concatenate([fan[ok], fan[ok]])
        p = np.repeat([fa, fb], int(ok.sum()))
        facing = np.einsum("ij,ij->i", cs.pos[p] - cs.pos[q], cs.bin[q])
        logs = scoring.vertex_scores_log_arrays(
            cs.pos[q], cs.tan[q], cs.bin[q], cs.w[q],
            np.where(facing >= 0, 1, -1),
            cs.pos[p], cs.tan[p], cs.bin[p], cs.w[p],
            pair_sigmas(cs, q, p, self.config))
        s_a, s_b = np.zeros((2, len(fan)))
        s_a[ok], s_b[ok] = np.exp(logs).reshape(2, -1)
        pre = np.cumsum(s_a)
        suf = np.cumsum(s_b[::-1])[::-1]
        totals = pre + suf
        m_pos = int(np.argmax(totals))

        for k in range(len(idxs) - 1):
            j0, j1 = idxs[k], idxs[k + 1]
            apex = fa if k < m_pos else fb
            self.tri_on_edge(tci, j0, j1, apex, match_side)
        self.tri_on_edge(ci, ia, ib, tbase + idxs[m_pos], match_side)


def _emit_pairs(emitter, table, ci, side, match):
    cs = emitter.cs
    chain = cs.chains[ci]
    n = len(chain)
    pairs = [(i, i + 1) for i in range(n - 1)]
    if chain.cyclic and n > 2:
        pairs.append((n - 1, 0))
    for ia, ib in pairs:
        a = match[ia]
        b = match[ib]
        if a < 0 or b < 0:
            continue
        ca, cb = cs.chain_id[a], cs.chain_id[b]
        if ca != cb:
            continue
        if a == b:
            emitter.tri_on_edge(ci, ia, ib, a, side)
            continue
        ja, jb = int(cs.index[a]), int(cs.index[b])
        tchain = cs.chains[ca]
        dj = abs(jb - ja)
        if tchain.cyclic and len(tchain) > 2:
            dj = min(dj, len(tchain) - dj)
        if dj == 1:
            emitter.quad(ci, ia, ib, a, b, side)
        else:
            emitter.polygon(ci, ia, ib, a, b, table, side)


def _emission_order(table):
    """The table's (chain, side) keys in emission order: by chain, then
    by the flat ids of the targets each side matched.

    A side is only a label for one half-plane of a ribbon: flipping a
    stroke's normals swaps its LEFT and RIGHT match arrays. Ordering the
    two sides by what they matched rather than by label keeps triangle
    ids, and the provenance kept for each duplicate, independent of
    normal signs."""
    return sorted(table.matches,
                  key=lambda k: (k[0], table.matches[k].tolist()))


def mesh_from_matches(table, config, mesh=None):
    """Emit triangle strips for every matched chain pair in the table,
    in `_emission_order`, and insert them in one pass. Duplicate
    triangles (same vertex set) are inserted once and keep the
    provenance of their first emission."""
    cs = table.chainset
    if mesh is None:
        mesh = SurfaceMesh()
        mesh.add_vertices(cs.pos, cs.nrm, cs.w, cs.col,
                          np.stack([cs.chain_id, cs.index], axis=1),
                          KIND_STROKE)
    emitter = _Emitter(mesh, cs, config)
    for (ci, side) in _emission_order(table):
        _emit_pairs(emitter, table, ci, side, table.matches[(ci, side)])
    emitter.flush()
    return mesh


# ---- crease-preserving variant ----

def _sections(cs, match):
    """Maximal runs of consecutive matched vertices with one target
    chain. Yields (start, end_inclusive, target_chain)."""
    n = len(match)
    i = 0
    while i < n:
        if match[i] < 0:
            i += 1
            continue
        t = int(cs.chain_id[match[i]])
        j = i
        while (j + 1 < n and match[j + 1] >= 0
               and int(cs.chain_id[match[j + 1]]) == t):
            j += 1
        yield i, j, t
        i = j + 1


def _section_is_crease(cs, base, match, i0, i1, config):
    """A matched section folds into a crease when the ribbon half-planes
    facing each other meet at a dihedral of at most crease_angle_deg,
    measured as the angle between the two facing directions."""
    cos_lim = math.cos(math.radians(config.crease_angle_deg))
    dots = []
    for x in range(i0, i1 + 1):
        fp = base + x
        fq = match[x]
        if fq < 0 or not cs.ok[fp] or not cs.ok[fq]:
            continue
        d = cs.pos[fq] - cs.pos[fp]
        sp = np.dot(d, cs.bin[fp])
        sq = np.dot(-d, cs.bin[fq])
        if abs(sp) < 1e-12 or abs(sq) < 1e-12:
            continue
        a_p = np.sign(sp) * cs.bin[fp]
        a_q = np.sign(sq) * cs.bin[fq]
        dots.append(float(np.dot(a_p, a_q)))
    if not dots:
        return False
    return float(np.mean(dots)) >= cos_lim - 1e-12


def _make_offset_chain(mesh, cs, source_ci, idx_range, dirs, offset_cache):
    """Create (or reuse) half-width offset vertices for a run of chain
    vertices and register them as a new chain with copied frames."""
    src = cs.chains[source_ci]
    base = int(cs.offsets[source_ci])
    gids = []
    pos = []
    for x, sgn in zip(idx_range, dirs):
        f = base + x
        key = (int(cs.gid[f]), int(sgn))
        if key in offset_cache:
            gids.append(offset_cache[key][0])
            pos.append(offset_cache[key][1])
            continue
        p = cs.pos[f] + 0.5 * cs.w[f] * sgn * cs.bin[f]
        gid = mesh.add_vertices(p[None, :], cs.nrm[f][None, :],
                                [cs.w[f]], cs.col[f][None, :],
                                np.asarray([(source_ci, x)]),
                                KIND_OFFSET)[0]
        offset_cache[key] = (int(gid), p)
        gids.append(int(gid))
        pos.append(p)
    idx = [base + x for x in idx_range]
    chain = Chain(
        gids=np.asarray(gids, dtype=np.int64),
        positions=np.asarray(pos),
        tangents=cs.tan[idx].copy(),
        normals=cs.nrm[idx].copy(),
        binormals=cs.bin[idx].copy(),
        widths=cs.w[idx].copy(),
        colors=cs.col[idx].copy(),
        ok=cs.ok[idx].copy(),
    )
    return cs.append_chain(chain)


def mesh_with_creases(table, config, mesh=None):
    """Like mesh_from_matches, but matched sections meeting at a sharp
    angle keep a crease: the stroke with more vertices along the section
    extends a half-width ribbon toward the partner, and that ribbon edge
    (not the spine) connects to the partner's spine. Sides are visited
    in `_emission_order`, so the offset vertices and chains get ids that
    do not depend on normal signs either."""
    cs = table.chainset
    if mesh is None:
        mesh = SurfaceMesh()
        mesh.add_vertices(cs.pos, cs.nrm, cs.w, cs.col,
                          np.stack([cs.chain_id, cs.index], axis=1),
                          KIND_STROKE)
    emitter = _Emitter(mesh, cs, config)
    offset_cache = {}

    jobs = []      # (chain_id, side, working match array)
    extra = []     # synthetic jobs for offset chains

    for (ci, side) in _emission_order(table):
        match = table.matches[(ci, side)].copy()
        base = int(cs.offsets[ci])
        for i0, i1, tci in _sections(cs, table.matches[(ci, side)]):
            if i1 - i0 < 1:
                continue
            if not _section_is_crease(cs, base, match, i0, i1, config):
                continue
            src_count = i1 - i0 + 1
            tidx = [int(cs.index[match[x]]) for x in range(i0, i1 + 1)]
            tgt_count = max(tidx) - min(tidx) + 1
            if src_count > tgt_count:
                keeper = ci
            elif tgt_count > src_count:
                keeper = tci
            else:
                keeper = min(ci, tci)

            run = list(range(i0, i1 + 1))
            # offset vertices move mesh.scale() and with it the area
            # floor: insert the rows queued before them under the old one
            emitter.flush()
            if keeper == ci:
                # this stroke keeps its half ribbon toward the partner
                dirs = []
                for x in run:
                    f = base + x
                    d = cs.pos[match[x]] - cs.pos[f]
                    s = np.dot(d, cs.bin[f])
                    dirs.append(1 if s >= 0 else -1)
                oc = _make_offset_chain(mesh, cs, ci, run, dirs, offset_cache)
                obase = int(cs.offsets[oc])
                # ribbon quads spine -> offset polyline
                for k in range(len(run) - 1):
                    emitter.quad(ci, run[k], run[k + 1],
                                 obase + k, obase + k + 1, side)
                # strip from the ribbon edge to the partner spine
                omatch = np.full(len(run), -1, dtype=np.int64)
                for k, x in enumerate(run):
                    omatch[k] = match[x]
                extra.append((oc, side, omatch))
            else:
                # partner keeps the ribbon; redirect matches to offsets
                jmin, jmax = min(tidx), max(tidx)
                tbase = int(cs.offsets[tci])
                centroid = np.mean(
                    [cs.pos[base + x] for x in run], axis=0)
                t_run = list(range(jmin, jmax + 1))
                dirs = []
                for j in t_run:
                    f = tbase + j
                    s = np.dot(centroid - cs.pos[f], cs.bin[f])
                    dirs.append(1 if s >= 0 else -1)
                oc = _make_offset_chain(mesh, cs, tci, t_run, dirs,
                                        offset_cache)
                obase = int(cs.offsets[oc])
                for k in range(len(t_run) - 1):
                    emitter.quad(tci, t_run[k], t_run[k + 1],
                                 obase + k, obase + k + 1, side)
                for x in run:
                    j = int(cs.index[match[x]])
                    match[x] = obase + (j - jmin)
            # suppress the direct strip when this stroke was the keeper
            if keeper == ci:
                for x in run:
                    match[x] = -1
        jobs.append((ci, side, match))

    for ci, side, match in jobs:
        _emit_pairs(emitter, table, ci, side, match)
    for ci, side, match in extra:
        _emit_pairs(emitter, table, ci, side, match)
    emitter.flush()
    return mesh
