"""Small geometric helpers shared across the package.

Everything here works on plain float64 numpy arrays. Angles are in
degrees unless a name says otherwise. Dihedral angles follow the
half-plane convention: 180 means the two triangles are coplanar and
facing away from each other (flat surface), small values mean a sharp
fold.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

EPS_DEGENERATE = 1e-9

# tolerance of the segment-triangle crossing test, relative to the
# triangle's longest edge (and to the segment's parameter range)
CROSS_EPS_REL = 1e-9

# pairs_within: at most GRID_CELLS cells along an axis, so that a cell
# key fits in int64. The runs of POINT_BATCH points are bounded at a
# time and about PAIR_BATCH candidate pairs expanded at a time, which
# keeps the search's temporaries to a few MB. _COLUMNS are the (dx, dy)
# of the neighbouring 3-cell columns that follow a cell's own column
GRID_CELLS = 1 << 20
POINT_BATCH = 1 << 12
PAIR_BATCH = 1 << 15
_COLUMNS = np.array([(0, 1), (1, -1), (1, 0), (1, 1)], dtype=np.int64)


def unit_rows_pow(arr, eps=EPS_DEGENERATE):
    """unit_rows with every square taken by libm pow, as Python's
    float ** 2 takes it; pow can sit one ulp off the product x * x that
    unit_rows uses."""
    arr = np.asarray(arr, dtype=np.float64).reshape(-1, 3)
    sq = [np.fromiter(map(math.pow, arr[:, k].tolist(), repeat(2.0)),
                      dtype=np.float64, count=len(arr)) for k in range(3)]
    norms = np.sqrt(sq[0] + sq[1] + sq[2])
    ok = ~(norms < eps)
    out = np.zeros_like(arr)
    np.divide(arr, norms[:, None], out=out, where=ok[:, None])
    return out, ok


def unit_rows(arr, eps=EPS_DEGENERATE):
    """Row-wise normalization. Degenerate rows become zero, flagged in ok."""
    arr = np.asarray(arr, dtype=np.float64)
    norms = np.linalg.norm(arr, axis=1)
    ok = norms >= eps
    out = np.zeros_like(arr)
    np.divide(arr, norms[:, None], out=out, where=ok[:, None])
    return out, ok


def dot_rows(u, v):
    """Row-wise dot products of (n, 3) arrays, each row rounded as
    np.dot rounds it (one BLAS ddot per row); einsum and a left-to-right
    sum differ from that on a share of rows."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _acos_deg(c):
    """Degrees of math.acos over a 1-D array, value by value. np.arccos
    rounds differently from libm's acos on a share of inputs, and the
    angle tie rules of strip meshing must see the scalar bits."""
    return np.degrees(np.fromiter(map(math.acos, memoryview(c)),
                                  dtype=np.float64, count=len(c)))


def _clamp_unit(c):
    """min(1.0, max(-1.0, c)) with Python's argument order, NaN included."""
    c = np.where(c > -1.0, c, -1.0)
    return np.where(c < 1.0, c, 1.0)


def angle_between_deg_rows(u, v):
    """Row-wise angle between vectors u[i] and v[i], (n, 3) arrays, in
    degrees in [0, 180]; 0 where either vector is degenerate. Each row
    runs the same IEEE operations in the same order as a scalar
    evaluation, so its answer does not depend on the batch."""
    u = np.asarray(u, dtype=np.float64).reshape(-1, 3)
    v = np.asarray(v, dtype=np.float64).reshape(-1, 3)
    ux, uy, uz = u[:, 0], u[:, 1], u[:, 2]
    vx, vy, vz = v[:, 0], v[:, 1], v[:, 2]
    nu = np.sqrt(ux * ux + uy * uy + uz * uz)
    nv = np.sqrt(vx * vx + vy * vy + vz * vz)
    ok = ~((nu < EPS_DEGENERATE) | (nv < EPS_DEGENERATE))
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (ux * vx + uy * vy + uz * vz) / (nu * nv)
    # acos(1) is 0, the degenerate answer
    return _acos_deg(np.where(ok, _clamp_unit(c), 1.0))


def triangle_area(a, b, c):
    """Area of triangle (a, b, c), with triangle_normals' operations.
    Corners given as lists of Python floats skip numpy's per-scalar
    cost."""
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return 0.5 * math.sqrt(nx * nx + ny * ny + nz * nz)


def triangle_areas(a, b, c):
    """Row-wise triangle_area over (n, 3) corner arrays, with the same
    operations in the same order."""
    ux, uy, uz = (b[:, k] - a[:, k] for k in range(3))
    vx, vy, vz = (c[:, k] - a[:, k] for k in range(3))
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return 0.5 * np.sqrt(nx * nx + ny * ny + nz * nz)


def triangle_normals(positions, tris):
    """Unnormalized normals for an (m, 3) index array of triangles; each
    norm is twice the area. np.cross runs the same IEEE operations in the
    same order for every row."""
    p = positions[tris[:, 0]]
    return np.cross(positions[tris[:, 1]] - p, positions[tris[:, 2]] - p)


def min_interior_angle_deg_rows(a, b, c):
    """Row-wise smallest interior angle in degrees of triangles (a[i],
    b[i], c[i]), (n, 3) arrays."""
    a, b, c = (np.asarray(x, dtype=np.float64).reshape(-1, 3)
               for x in (a, b, c))
    return np.minimum(np.minimum(angle_between_deg_rows(b - a, c - a),
                                 angle_between_deg_rows(a - b, c - b)),
                      angle_between_deg_rows(a - c, b - c))


def dihedral_deg_rows(a, b, c, d):
    """Row-wise dihedral between triangles (a, b, c) and (a, b, d) across
    edge ab, over (n, 3) arrays.

    Returns 180 for coplanar triangles on opposite sides of the edge
    (flat surface) and values near 0 for a fold where c and d nearly
    coincide. Degenerate configurations report 180 (no fold evidence).
    Each row runs the same IEEE operations in the same order as a
    scalar evaluation, so its answer does not depend on the batch.
    """
    a, b, c, d = (np.asarray(x, dtype=np.float64).reshape(-1, 3)
                  for x in (a, b, c, d))
    ax, ay, az = a[:, 0], a[:, 1], a[:, 2]
    ex, ey, ez = b[:, 0] - ax, b[:, 1] - ay, b[:, 2] - az
    el = np.sqrt(ex * ex + ey * ey + ez * ez)
    with np.errstate(divide="ignore", invalid="ignore"):
        ex, ey, ez = ex / el, ey / el, ez / el
        ux, uy, uz = c[:, 0] - ax, c[:, 1] - ay, c[:, 2] - az
        vx, vy, vz = d[:, 0] - ax, d[:, 1] - ay, d[:, 2] - az
        du = ux * ex + uy * ey + uz * ez
        dv = vx * ex + vy * ey + vz * ez
        ux, uy, uz = ux - du * ex, uy - du * ey, uz - du * ez
        vx, vy, vz = vx - dv * ex, vy - dv * ey, vz - dv * ez
        nu = np.sqrt(ux * ux + uy * uy + uz * uz)
        nv = np.sqrt(vx * vx + vy * vy + vz * vz)
        ok = ~((el < EPS_DEGENERATE) | (nu < EPS_DEGENERATE)
               | (nv < EPS_DEGENERATE))
        cang = (ux * vx + uy * vy + uz * vz) / (nu * nv)
    # acos(-1) is pi, and pi in degrees is exactly 180, the degenerate
    # answer
    return _acos_deg(np.where(ok, _clamp_unit(cang), -1.0))


def polyline_arclengths(points):
    """Cumulative arc length per vertex, starting at 0."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def bbox_diagonal(points):
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        return 0.0
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


def pairs_within(points, radius):
    """Every pair of rows of points at most radius apart (d·d <= r*r,
    the squares summed over x, y, z in order, the test of
    cKDTree.query_pairs), as a (P, 2) int64 array of (i, j) rows with
    i < j, sorted.

    A sort-based uniform grid, the fixed-radius search of spatial
    hashing (Teschner et al., "Optimized Spatial Hashing for Collision
    Detection of Deformable Objects", VMV 2003). The cell edge is the
    radius, one part in a million larger so that rounding cannot put a
    pair two cells apart. Each cell has one int64 key, z fastest, and
    the points are sorted by it. A point's candidates are the points
    after it in its own cell and every point of the 13 neighbouring
    cells that follow its cell. Cells that differ only in z are
    adjacent in key order, so those 14 cells are 5 runs of the sorted
    points: the own cell on to its +z neighbour, and the 3-cell
    columns at (dx, dy) = (0, 1), (1, -1), (1, 0) and (1, 1).
    Vectorised searchsorted calls on the sorted keys bound the runs of
    a block of POINT_BATCH points' cells at once. The runs are expanded
    about PAIR_BATCH candidates at a time and filtered exactly. The
    pairs found are sorted as one int64 key i * n + j: sorted rows cost
    less to gather and sort again downstream than rows in grid order.
    A grid wider than GRID_CELLS along an axis gets larger cells: its
    keys would overflow, and a coarser grid still gives a superset of
    the pairs before the exact filter.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    radius = float(radius)
    n = len(points)
    if n < 2 or not radius >= 0:
        return np.empty((0, 2), dtype=np.int64)
    rel = points - points.min(axis=0)
    cell = max(radius * (1 + 1e-6),
               float(rel.max()) / (GRID_CELLS - 2)) or 1.0
    # one empty cell of padding on each side keeps every neighbour key
    # inside the grid
    coords = np.floor(rel / cell).astype(np.int64) + 1
    dims = coords.max(axis=0) + 2
    key = (coords[:, 0] * dims[1] + coords[:, 1]) * dims[2] + coords[:, 2]
    order = np.argsort(key, kind="stable")
    key = key[order]
    x, y, z = points[order].T.copy()
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    cells = key[start]
    cell_of = np.repeat(np.arange(len(cells)), np.diff(np.r_[start, n]))
    # key of the middle cell of each column, relative to the own cell
    column = (_COLUMNS[:, 0] * dims[1] + _COLUMNS[:, 1])[:, None] * dims[2]

    r2 = radius * radius
    out = [np.empty(0, dtype=np.int64)]
    for s0 in range(0, n, POINT_BATCH):
        own = np.arange(s0, min(s0 + POINT_BATCH, n))
        u = cell_of[own]
        block = cells[u[0]:u[-1] + 1]
        u -= u[0]
        lo = np.searchsorted(key, column + (block - 1))
        hi = np.searchsorted(key, column + (block + 1), side="right")
        # 5 runs per point, run-major
        owner = np.tile(own, 5)
        first = np.concatenate([own + 1, lo[:, u].ravel()])
        runs = np.concatenate([
            np.searchsorted(key, block + 1, side="right")[u],
            hi[:, u].ravel()]) - first
        ahead = np.cumsum(runs) - runs
        cuts = np.unique(np.r_[np.searchsorted(
            ahead, np.arange(0, ahead[-1] + runs[-1], PAIR_BATCH)),
            len(runs)])
        for r0, r1 in zip(cuts[:-1], cuts[1:]):
            took = runs[r0:r1]
            i = np.repeat(owner[r0:r1], took)
            j = np.repeat(first[r0:r1] - (ahead[r0:r1] - ahead[r0]), took)
            j += np.arange(len(j))
            dx, dy, dz = x[j] - x[i], y[j] - y[i], z[j] - z[i]
            keep = dx * dx + dy * dy + dz * dz <= r2
            i, j = order[i[keep]], order[j[keep]]
            out.append(np.minimum(i, j) * n + np.maximum(i, j))
    pairs = np.sort(np.concatenate(out))
    return np.stack([pairs // n, pairs % n], axis=1)


def point_triangle_pair_distances(p, a, b, c):
    """Row-wise exact distances from point p[i] to triangle (a[i], b[i],
    c[i]), all (n, 3) arrays, by region classification over each
    triangle's barycentric parameterization (Eberly's method). Each row
    runs the same operations in the same order whatever the batch, so
    its answer does not depend on which rows share a call."""
    p, a, b, c = (np.asarray(v, dtype=np.float64).reshape(-1, 3)
                  for v in (p, a, b, c))
    e0 = b - a
    e1 = c - a
    dv = a - p
    aa = np.einsum("ij,ij->i", e0, e0)
    bb = np.einsum("ij,ij->i", e0, e1)
    cc = np.einsum("ij,ij->i", e1, e1)
    dd = np.einsum("ij,ij->i", dv, e0)
    ee = np.einsum("ij,ij->i", dv, e1)
    det = np.maximum(aa * cc - bb * bb, 1e-300)

    s = bb * ee - cc * dd
    t = bb * dd - aa * ee
    inside = (s + t <= det) & (s >= 0) & (t >= 0)
    s_in = s / det
    t_in = t / det

    s0 = np.clip(-dd / np.maximum(aa, 1e-300), 0.0, 1.0)
    t0 = np.zeros_like(s0)
    t1 = np.clip(-ee / np.maximum(cc, 1e-300), 0.0, 1.0)
    s1 = np.zeros_like(t1)
    denom = np.maximum(aa - 2 * bb + cc, 1e-300)
    s2 = np.clip((cc + ee - bb - dd) / denom, 0.0, 1.0)
    t2 = 1.0 - s2

    best = None
    for sp, tp in ((s0, t0), (s1, t1), (s2, t2)):
        diff = dv + sp[:, None] * e0 + tp[:, None] * e1
        d2 = np.einsum("ij,ij->i", diff, diff)
        best = d2 if best is None else np.minimum(best, d2)
    diff_in = dv + s_in[:, None] * e0 + t_in[:, None] * e1
    d2_in = np.einsum("ij,ij->i", diff_in, diff_in)
    best = np.where(inside, np.minimum(best, d2_in), best)
    return np.sqrt(np.maximum(best, 0.0))


# rows of a triangle_frames table: the frame's origin (corner a), its
# axes u (unit, along ab) and v (n x u), the corners a, b, c in (u, v)
# coordinates, the inward normals of edges ab, bc, ca there and their
# lengths, and the interior test's tolerance
FRAME_ORIGIN, FRAME_U, FRAME_V = 0, 3, 6
FRAME_CORNERS, FRAME_INWARD, FRAME_NLEN, FRAME_TOL = 9, 15, 21, 24


def _plane_axes(a, b, c):
    """The crossing test's plane frame of triangles (a, b, c), (k, 3)
    arrays: unit u along ab and v = n x u as 3-tuples of arrays, the
    interior test's tolerance and the bool array of usable triangles."""
    ax, ay, az = a[:, 0], a[:, 1], a[:, 2]
    ux, uy, uz = b[:, 0] - ax, b[:, 1] - ay, b[:, 2] - az
    wx, wy, wz = c[:, 0] - ax, c[:, 1] - ay, c[:, 2] - az
    nx = uy * wz - uz * wy
    ny = uz * wx - ux * wz
    nz = ux * wy - uy * wx
    nn = np.sqrt(nx * nx + ny * ny + nz * nz)
    lab = np.sqrt(ux * ux + uy * uy + uz * uz)
    lac = np.sqrt(wx * wx + wy * wy + wz * wz)
    bcx, bcy, bcz = wx - ux, wy - uy, wz - uz
    lbc = np.sqrt(bcx * bcx + bcy * bcy + bcz * bcz)
    scale = np.maximum(np.maximum(lab, lac), lbc)
    # near-zero area relative to the longest edge. A scalar `x ** 2`
    # (libm pow) can sit one ulp off x * x, but a triangle that close to
    # the threshold is far too thin to pass the interior test, so the
    # answer is the same either way
    thr = CROSS_EPS_REL * scale
    ok = (scale != 0.0) & ~(nn < thr * thr) & ~(lab < EPS_DEGENERATE)

    nx, ny, nz = nx / nn, ny / nn, nz / nn
    fx, fy, fz = ux / lab, uy / lab, uz / lab
    return ((fx, fy, fz),
            (ny * fz - nz * fy, nz * fx - nx * fz, nx * fy - ny * fx),
            thr, ok)


def triangle_frames(a, b, c):
    """The per-triangle part of segments_cross_triangles_interior over
    (k, 3) corner arrays: a (25, k) float64 table whose rows the FRAME_*
    offsets name (x then y for 2D rows), and a (k,) bool array, False
    for a degenerate triangle, which nothing crosses."""
    a, b, c = (np.asarray(v, dtype=np.float64).reshape(-1, 3)
               for v in (a, b, c))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the 3D part's temporaries are freed before the table is made
        u, v, tol, ok = _plane_axes(a, b, c)
        frames = np.empty((25, len(a)))
        frames[FRAME_ORIGIN:FRAME_ORIGIN + 3] = a.T
        frames[FRAME_U:FRAME_U + 3] = u
        frames[FRAME_V:FRAME_V + 3] = v
        frames[FRAME_TOL] = tol
        del u, v, tol
        corners = frames[FRAME_CORNERS:FRAME_INWARD].reshape(3, 2, -1)
        inward = frames[FRAME_INWARD:FRAME_NLEN].reshape(3, 2, -1)
        for i, p in enumerate((a, b, c)):
            corners[i] = frame_coordinates(frames, None, p)
        # inward edge normals, oriented by the opposite vertex
        for i in range(3):
            e0, e1, third = (corners[(i + j) % 3] for j in range(3))
            nrx, nry = e0[1] - e1[1], e1[0] - e0[0]
            flip = (nrx * (third[0] - e0[0]) + nry * (third[1] - e0[1])
                    < 0)
            inward[i] = np.where(flip, -nrx, nrx), np.where(flip, -nry, nry)
            nrx, nry = inward[i]
            frames[FRAME_NLEN + i] = np.sqrt(nrx * nrx + nry * nry)
            ok &= ~(frames[FRAME_NLEN + i] < 1e-300)
    return frames, ok


def frame_coordinates(frames, tri, p):
    """(x, y) of the points p[..., i, :] in the plane frame of column
    tri[i] of a triangle_frames table, tri None meaning column i; p is
    (n, 3), or (m, n, 3) for m points per column."""
    def row(r):
        return frames[r] if tri is None else frames[r].take(tri)

    # a degenerate triangle's frame holds inf and NaN
    with np.errstate(invalid="ignore", over="ignore"):
        dx = p[..., 0] - row(FRAME_ORIGIN)
        dy = p[..., 1] - row(FRAME_ORIGIN + 1)
        dz = p[..., 2] - row(FRAME_ORIGIN + 2)
        return (dx * row(FRAME_U) + dy * row(FRAME_U + 1)
                + dz * row(FRAME_U + 2),
                dx * row(FRAME_V) + dy * row(FRAME_V + 1)
                + dz * row(FRAME_V + 2))


def segments_cross_frames(frames, ok, tri, q0, q1):
    """The per-row part of segments_cross_triangles_interior: does the
    2D segment from q0 to q1, in the frame of column tri[i] of the
    triangle_frames table `frames` with flags `ok`, pass through that
    triangle's open interior? q0 and q1 are (x, y) pairs of arrays
    whose last axis runs along tri; a start shared by m segments may be
    given once, (n,) against (m, n) ends. Returns a bool array of the
    broadcast shape."""
    def row(r, tri=tri):
        return frames[r].take(tri)

    shape = np.broadcast_shapes(np.shape(q0[0]), np.shape(q1[0]))
    ok = np.broadcast_to(ok.take(tri), shape).copy()
    lo = np.zeros(shape)
    hi = np.ones(shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # clip the segment against the three half planes
        dx, dy = q1[0] - q0[0], q1[1] - q0[1]
        for i in range(3):
            ex, ey = row(FRAME_CORNERS + 2 * i), row(FRAME_CORNERS + 2 * i + 1)
            nrx, nry = row(FRAME_INWARD + 2 * i), row(FRAME_INWARD + 2 * i + 1)
            f0 = nrx * (q0[0] - ex) + nry * (q0[1] - ey)
            fd = nrx * dx + nry * dy
            parallel = np.abs(fd) < 1e-300
            ok &= ~(parallel & (f0 < 0))
            tcross = -f0 / fd
            enter = ~parallel & (fd > 0)
            leave = ~parallel & ~(fd > 0)
            lo = np.where(enter & (tcross > lo), tcross, lo)
            hi = np.where(leave & (tcross < hi), tcross, hi)
        # lo only rises and hi only falls, so crossing once is final
        ok &= ~(lo > hi) & ~(hi - lo < CROSS_EPS_REL)

        # strict interior test at the clipped midpoint, on the segments
        # the clipping left (few, when they start at a corner)
        at = np.nonzero(ok)
        left = np.broadcast_to(tri, shape)[at]
        mid = 0.5 * (lo[at] + hi[at])
        mx = np.broadcast_to(q0[0], shape)[at] + mid * dx[at]
        my = np.broadcast_to(q0[1], shape)[at] + mid * dy[at]
        eps = row(FRAME_TOL, left)
        inside = np.ones(len(left), dtype=bool)
        for i in range(3):
            ex, ey = (row(FRAME_CORNERS + 2 * i, left),
                      row(FRAME_CORNERS + 2 * i + 1, left))
            nrx, nry = (row(FRAME_INWARD + 2 * i, left),
                        row(FRAME_INWARD + 2 * i + 1, left))
            inside &= ~((nrx * (mx - ex) + nry * (my - ey))
                        / row(FRAME_NLEN + i, left) <= eps)
        ok[at] = inside
    return ok


def segments_cross_triangles_interior(p0, p1, a, b, c):
    """Row-wise over (n, 3) arrays, a bool array: does segment (p0[i],
    p1[i]), projected onto the plane of triangle (a[i], b[i], c[i]),
    pass through the triangle's open interior? Endpoints on the
    boundary do not count, nor does a projected segment running exactly
    along an edge, nor a degenerate triangle. It composes the
    per-triangle part triangle_frames with the per-row parts
    frame_coordinates and segments_cross_frames. Each row runs the same
    IEEE operations in the same order as a scalar evaluation (no fused
    or reordered sums), so its answer does not depend on the batch, nor
    on how many rows share a triangle."""
    p0, p1 = (np.asarray(v, dtype=np.float64).reshape(-1, 3)
              for v in (p0, p1))
    frames, ok = triangle_frames(a, b, c)
    tri = np.arange(len(ok))
    return segments_cross_frames(frames, ok, tri,
                                 frame_coordinates(frames, tri, p0),
                                 frame_coordinates(frames, tri, p1))


def segment_crosses_triangle_interior(p0, p1, ta, tb, tc):
    """True if segment (p0, p1), projected onto the triangle's plane,
    passes through the triangle's open interior: the one-row form of
    segments_cross_triangles_interior."""
    return bool(segments_cross_triangles_interior(p0, p1, ta, tb, tc)[0])
