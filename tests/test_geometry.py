"""The batched segment-versus-triangle crossing test (its row-wise form
and its split into per-triangle and per-row parts), the row-wise
point-triangle distance and the row-wise angle kernels against their
references."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from strokesurf import geometry

import oracles


def reference(p0, p1, a, b, c):
    return np.array([oracles.segment_crosses_triangle_interior(*row)
                     for row in zip(p0, p1, a, b, c)], dtype=bool)


def degenerate_rows(rng, n):
    """Rows (p0, p1, a, b, c) built to sit on the kernel's tie and
    degeneracy branches."""
    a, b, c = (rng.normal(size=(n, 3)) for _ in range(3))
    p0, p1 = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    t = rng.uniform(-0.5, 1.5, size=(n, 1))
    kind = np.arange(n) % 6
    # collinear corners: c on the line through a and b
    c = np.where(kind[:, None] == 0, a + t * (b - a), c)
    # zero-length ab
    b = np.where(kind[:, None] == 1, a, b)
    # an endpoint on an edge, the other anywhere
    p0 = np.where(kind[:, None] == 2, b + t.clip(0, 1) * (c - b), p0)
    # parallel to an edge, in the triangle's plane
    p1 = np.where(kind[:, None] == 3, p0 + t * (b - a), p1)
    # a spoke from a corner, as criterion 2 draws them
    p0 = np.where(kind[:, None] == 4, a, p0)
    # running exactly along an edge
    on_ab = kind[:, None] == 5
    p0 = np.where(on_ab, a, p0)
    p1 = np.where(on_ab, a + t * (b - a), p1)
    return p0, p1, a, b, c


def test_batched_crossing_equals_scalar_on_random_rows():
    rng = np.random.default_rng(7)
    rows = tuple(rng.normal(size=(4000, 3)) for _ in range(5))
    got = geometry.segments_cross_triangles_interior(*rows)
    want = reference(*rows)
    assert got.dtype == bool
    assert np.array_equal(got, want)
    # both answers are common, so the comparison is not vacuous
    assert 0.1 < want.mean() < 0.9


def test_batched_crossing_equals_scalar_on_degenerate_rows():
    rng = np.random.default_rng(11)
    rows = degenerate_rows(rng, 3000)
    got = geometry.segments_cross_triangles_interior(*rows)
    want = reference(*rows)
    assert np.array_equal(got, want)
    kind = np.arange(3000) % 6
    assert not want[kind == 0].any() and not want[kind == 1].any()
    assert not want[kind == 5].any()
    assert want[kind == 2].any() and want[kind == 4].any()


def test_one_row_form_matches_batch():
    rng = np.random.default_rng(3)
    rows = degenerate_rows(rng, 300)
    batch = geometry.segments_cross_triangles_interior(*rows)
    single = [geometry.segment_crosses_triangle_interior(*row)
              for row in zip(*rows)]
    assert single == batch.tolist()


def test_empty_batch():
    empty = np.zeros((0, 3))
    got = geometry.segments_cross_triangles_interior(*(empty,) * 5)
    assert got.shape == (0,) and got.dtype == bool


def shared_triangle_rows(rng, n, k):
    """Rows as criterion 2 draws them: k triangles, each crossed by many
    segments that start at one of its corners. The triangles include
    degenerate ones; the far ends are random points, corners of other
    triangles, and points on the triangle's own edges and lines."""
    a, b, c = degenerate_rows(rng, k)[2:]
    tri = rng.integers(0, k, n)
    corner = rng.integers(0, 3, n)
    tris = np.stack([a, b, c])
    p0 = tris[corner, tri]
    p1 = rng.normal(size=(n, 3))
    t = rng.uniform(-0.5, 1.5, size=(n, 1))
    kind = np.arange(n) % 4
    p1 = np.where(kind[:, None] == 1, tris[rng.integers(0, 3, n),
                                           rng.integers(0, k, n)], p1)
    p1 = np.where(kind[:, None] == 2, b[tri] + t * (c[tri] - b[tri]), p1)
    p1 = np.where(kind[:, None] == 3, p0 + t * (a[tri] - p0), p1)
    return (a, b, c), tri, corner, p0, p1


def test_split_form_equals_scalar_on_shared_triangles():
    """The per-triangle part once per triangle, then the per-row part
    for all rows, answers each row as the scalar reference does, whether
    the start is projected or read from the frame's corner rows, and
    whether the segments sharing a start come one per row or stacked."""
    rng = np.random.default_rng(5)
    (a, b, c), tri, corner, p0, p1 = shared_triangle_rows(rng, 6000, 60)
    want = reference(p0, p1, a[tri], b[tri], c[tri])
    frames, ok = geometry.triangle_frames(a, b, c)
    q0 = geometry.frame_coordinates(frames, tri, p0)
    q1 = geometry.frame_coordinates(frames, tri, p1)
    got = geometry.segments_cross_frames(frames, ok, tri, q0, q1)
    assert np.array_equal(got, want)
    assert 0.05 < want.mean() < 0.9

    row = geometry.FRAME_CORNERS + 2 * corner
    corner_q0 = frames[row, tri], frames[row + 1, tri]
    # bit for bit; degenerate frames hold NaN
    assert np.array_equal(corner_q0[0], q0[0], equal_nan=True)
    assert np.array_equal(corner_q0[1], q0[1], equal_nan=True)
    # two ends per shared start, as criterion 2 stacks a triangle's spokes
    half = len(tri) // 2
    ends = np.stack([p1[:half], p1[half:2 * half]])
    stacked = geometry.segments_cross_frames(
        frames, ok, tri[:half], (corner_q0[0][:half], corner_q0[1][:half]),
        geometry.frame_coordinates(frames, tri[:half], ends))
    other = reference(p0[:half], ends[1], a[tri[:half]], b[tri[:half]],
                      c[tri[:half]])
    assert stacked.shape == (2, half)
    assert np.array_equal(stacked[0], want[:half])
    assert np.array_equal(stacked[1], other)


def test_triangle_frames_flag_degenerate_triangles():
    """The per-triangle flag is False exactly where the scalar reference
    gives up on the triangle: every zero-length ab, and the collinear
    corners whose rounded area falls under the threshold (others are
    merely too thin to cross), among random triangles."""
    rng = np.random.default_rng(13)
    _, _, a, b, c = degenerate_rows(rng, 3000)
    _, ok = geometry.triangle_frames(a, b, c)
    want = [oracles.crossing_plane(*row) is not None
            for row in zip(a, b, c)]
    assert ok.tolist() == want
    kind = np.arange(3000) % 6
    assert not ok[kind == 1].any() and not ok[kind == 0].all()
    assert ok[kind > 1].all()


# points on a coarse lattice: exact collinearity, shared corners and
# endpoints on edges come up often
lattice = st.lists(st.integers(-2, 2).map(lambda k: 0.5 * k),
                   min_size=3, max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(lattice, min_size=5, max_size=5),
                min_size=1, max_size=20))
def test_batched_crossing_equals_scalar_on_lattice_points(rows):
    p0, p1, a, b, c = np.asarray(rows, dtype=np.float64).transpose(1, 0, 2)
    got = geometry.segments_cross_triangles_interior(p0, p1, a, b, c)
    assert got.tolist() == reference(p0, p1, a, b, c).tolist()


# ---------------------------------------------------------------------------
# point-triangle distance


def distance_reference(p, a, b, c):
    """Each row alone through the one-point reference kernel."""
    return np.array([oracles.point_to_triangles_distance(*row)[0]
                     for row in zip(p, a, b, c)])


def test_row_distances_equal_one_point_reference():
    rng = np.random.default_rng(21)
    p, a, b, c = (rng.normal(size=(3000, 3)) for _ in range(4))
    kind = np.arange(3000) % 5
    # p on a corner, on an edge, and triangles with collinear or
    # coincident corners
    t = rng.uniform(0, 1, size=(3000, 1))
    p = np.where(kind[:, None] == 0, b, p)
    p = np.where(kind[:, None] == 1, a + t * (c - a), p)
    c = np.where(kind[:, None] == 2, a + t * (b - a), c)
    b = np.where(kind[:, None] == 3, a, b)
    got = geometry.point_triangle_pair_distances(p, a, b, c)
    assert np.array_equal(got, distance_reference(p, a, b, c))
    assert np.all(got[kind == 0] == 0.0)
    empty = np.zeros((0, 3))
    assert geometry.point_triangle_pair_distances(*(empty,) * 4).shape \
        == (0,)


# ---------------------------------------------------------------------------
# angles


def angle_rows(rng, n):
    """Vector pairs (u, v): random, degenerate (zero or below
    EPS_DEGENERATE), parallel and antiparallel (cosines at the clamp),
    and orthogonal."""
    u, v = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    k = rng.uniform(0.1, 3.0, size=(n, 1))
    kind = (np.arange(n) % 8)[:, None]
    u = np.where(kind == 0, 0.0, u)
    v = np.where(kind == 1, 1e-10 * v, v)
    v = np.where(kind == 2, k * u, v)
    v = np.where(kind == 3, -k * u, v)
    v = np.where(kind == 4, np.cross(u, v), v)
    return u, v


def triangle_rows(rng, n):
    """Triangles (a, b, c): random, collinear, with coincident corners,
    and slivers."""
    a, b, c = (rng.normal(size=(n, 3)) for _ in range(3))
    t = rng.uniform(-0.5, 1.5, size=(n, 1))
    kind = (np.arange(n) % 5)[:, None]
    c = np.where(kind == 0, a + t * (b - a), c)
    b = np.where(kind == 1, a, b)
    c = np.where(kind == 2, b, c)
    c = np.where(kind == 3, a + t * (b - a) + 1e-7 * c, c)
    return a, b, c


def scalar_rows(fn, *rows):
    return np.array([fn(*row) for row in zip(*rows)])


def kernel_cosines(u, v):
    """The clamped cosines angle_between_deg_rows takes the acos of."""
    nu, nv = np.linalg.norm(u, axis=1), np.linalg.norm(v, axis=1)
    c = np.einsum("ij,ij->i", u, v) / (nu * nv)
    return np.clip(c, -1.0, 1.0)


def test_angle_rows_equal_scalar_reference():
    rng = np.random.default_rng(31)
    u, v = angle_rows(rng, 4000)
    got = geometry.angle_between_deg_rows(u, v)
    want = scalar_rows(oracles.angle_between_deg, u, v)
    assert np.array_equal(got, want)
    kind = np.arange(4000) % 8
    assert np.all(got[(kind == 0) | (kind == 1)] == 0.0)
    # np.arccos rounds differently from math.acos on some of these
    # cosines, so a kernel taking it fails the comparison above
    live = kind >= 5
    c = kernel_cosines(u[live], v[live])
    assert not np.array_equal(np.degrees(np.arccos(c)),
                              [math.degrees(math.acos(x)) for x in c])


def test_min_interior_angle_rows_equal_scalar_reference():
    rng = np.random.default_rng(32)
    a, b, c = triangle_rows(rng, 3000)
    got = geometry.min_interior_angle_deg_rows(a, b, c)
    want = scalar_rows(oracles.min_interior_angle_deg, a, b, c)
    assert np.array_equal(got, want)
    kind = np.arange(3000) % 5
    assert np.all(got[(kind == 1) | (kind == 2)] == 0.0)


def test_dihedral_rows_equal_scalar_reference():
    rng = np.random.default_rng(33)
    a, b, c, d = (rng.normal(size=(4000, 3)) for _ in range(4))
    t = rng.uniform(-0.5, 1.5, size=(4000, 1))
    kind = (np.arange(4000) % 7)[:, None]
    # zero-length edge, an apex on the edge's line, apexes coinciding,
    # coplanar on opposite sides (flat) and mirrored on one side
    b = np.where(kind == 0, a, b)
    c = np.where(kind == 1, a + t * (b - a), c)
    d = np.where(kind == 2, c, d)
    d = np.where(kind == 3, 2 * (a + t * (b - a)) - c, d)
    got = geometry.dihedral_deg_rows(a, b, c, d)
    want = scalar_rows(oracles.dihedral_deg, a, b, c, d)
    assert np.array_equal(got, want)
    kind = kind.ravel()
    assert np.all(got[(kind == 0) | (kind == 1)] == 180.0)
    assert np.all(got[kind == 2] < 1e-4)


def test_angle_kernels_take_empty_batches():
    empty = np.zeros((0, 3))
    assert geometry.angle_between_deg_rows(empty, empty).shape == (0,)
    assert geometry.min_interior_angle_deg_rows(*(empty,) * 3).shape == (0,)
    assert geometry.dihedral_deg_rows(*(empty,) * 4).shape == (0,)


def test_dot_rows_equal_np_dot_row_by_row():
    rng = np.random.default_rng(71)

    def per_row(u, v):
        return np.fromiter(map(np.dot, u, v), dtype=np.float64,
                           count=len(u))

    for scale in (1.0, 1e-6, 1e9):
        u = rng.normal(size=(20000, 3)) * scale
        v = rng.normal(size=(20000, 3))
        assert np.array_equal(geometry.dot_rows(u, v), per_row(u, v))
    wide = rng.normal(size=(5000, 8))
    u, v = wide[:, 1:7:2], wide[::-1, :3]
    assert not (u.flags.c_contiguous or v.flags.c_contiguous)
    assert np.array_equal(geometry.dot_rows(u, v), per_row(u, v))
    empty = np.zeros((0, 3))
    assert geometry.dot_rows(empty, empty).shape == (0,)


def normal_area(a, b, c):
    """Half the norm of triangle_normals' row, summed in order."""
    n = geometry.triangle_normals(np.array([a, b, c]),
                                  np.array([[0, 1, 2]]))[0]
    return 0.5 * math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])


def test_triangle_areas_equal_half_the_normal_norm():
    rng = np.random.default_rng(34)
    a, b, c = triangle_rows(rng, 2000)
    want = scalar_rows(normal_area, a, b, c)
    assert np.array_equal(geometry.triangle_areas(a, b, c), want)
    assert np.array_equal(scalar_rows(geometry.triangle_area, a, b, c),
                          want)
    as_floats = [geometry.triangle_area(*(p.tolist() for p in row))
                 for row in zip(a, b, c)]
    assert as_floats == want.tolist()
