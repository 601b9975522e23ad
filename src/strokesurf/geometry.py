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


def segments_cross_triangles_interior(p0, p1, a, b, c):
    """Row-wise over (n, 3) arrays, a bool array: does segment (p0[i],
    p1[i]), projected onto the plane of triangle (a[i], b[i], c[i]),
    pass through the triangle's open interior? Endpoints on the
    boundary do not count, nor does a projected segment running exactly
    along an edge, nor a degenerate triangle. Each row runs the same
    IEEE operations in the same order as a scalar evaluation (no fused
    or reordered sums), so its answer does not depend on the batch."""
    p0, p1, a, b, c = (np.asarray(v, dtype=np.float64).reshape(-1, 3)
                       for v in (p0, p1, a, b, c))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
        # (libm pow) can sit one ulp off x * x, but a triangle that close
        # to the threshold is far too thin to pass the interior test
        # below, so the answer is the same either way
        thr = CROSS_EPS_REL * scale
        ok = (scale != 0.0) & ~(nn < thr * thr) & ~(lab < EPS_DEGENERATE)

        nx, ny, nz = nx / nn, ny / nn, nz / nn
        # 2D frame in the triangle plane: u along ab, v = n x u
        fx, fy, fz = ux / lab, uy / lab, uz / lab
        vx = ny * fz - nz * fy
        vy = nz * fx - nx * fz
        vz = nx * fy - ny * fx

        def to2d(p):
            dx, dy, dz = p[:, 0] - ax, p[:, 1] - ay, p[:, 2] - az
            return (dx * fx + dy * fy + dz * fz,
                    dx * vx + dy * vy + dz * vz)

        q0, q1 = to2d(p0), to2d(p1)
        t2 = (to2d(a), to2d(b), to2d(c))
        # inward edge normals, oriented by the opposite vertex
        inward = []
        for i in range(3):
            e0, e1, third = t2[i], t2[(i + 1) % 3], t2[(i + 2) % 3]
            nrx, nry = e0[1] - e1[1], e1[0] - e0[0]
            flip = (nrx * (third[0] - e0[0]) + nry * (third[1] - e0[1])
                    < 0)
            inward.append((np.where(flip, -nrx, nrx),
                           np.where(flip, -nry, nry)))

        # clip the segment against the three half planes
        lo = np.zeros(len(ok))
        hi = np.ones(len(ok))
        dx, dy = q1[0] - q0[0], q1[1] - q0[1]
        for e0, (nrx, nry) in zip(t2, inward):
            f0 = nrx * (q0[0] - e0[0]) + nry * (q0[1] - e0[1])
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

        # strict interior test at the clipped midpoint
        mid = 0.5 * (lo + hi)
        mx = q0[0] + mid * dx
        my = q0[1] + mid * dy
        eps = CROSS_EPS_REL * scale
        for e0, (nrx, nry) in zip(t2, inward):
            nlen = np.sqrt(nrx * nrx + nry * nry)
            ok &= ~(nlen < 1e-300)
            ok &= ~((nrx * (mx - e0[0]) + nry * (my - e0[1])) / nlen <= eps)
    return ok


def segment_crosses_triangle_interior(p0, p1, ta, tb, tc):
    """True if segment (p0, p1), projected onto the triangle's plane,
    passes through the triangle's open interior: the one-row form of
    segments_cross_triangles_interior."""
    return bool(segments_cross_triangles_interior(p0, p1, ta, tb, tc)[0])
