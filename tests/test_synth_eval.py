"""Synthetic drawing generator and the evaluation harness."""

import json
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from strokesurf import geometry, synth_eval
from strokesurf.mesh_ops import mesh_from_arrays
from strokesurf.synth_eval import (GroundTruthSurface, SplitMix64,
                                   SyntheticSpec, directed_hausdorff,
                                   evaluate, generate,
                                   interpolated_fraction,
                                   points_to_mesh_distance,
                                   sample_mesh_surface)

import oracles
from conftest import make_stroke


# ---------------------------------------------------------------------------
# PRNG

# first outputs of the published splitmix64.c for seed 0
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                    0x06C45D188009454F, 0xF88BB8A8724C81EC,
                    0x1B39896A51A8749B]


def test_splitmix64_reference_vectors():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(5)] == SPLITMIX64_SEED0
    rng = SplitMix64(0)
    assert rng.uniform() == (SPLITMIX64_SEED0[0] >> 11) * 2.0 ** -53


def test_splitmix64_streams_are_reproducible():
    a, b = SplitMix64(99), SplitMix64(99)
    assert np.array_equal(a.uniforms(64), b.uniforms(64))
    assert np.array_equal(a.normals(64), b.normals(64))


def test_splitmix64_normal_moments():
    z = SplitMix64(7).normals(4000)
    assert abs(float(z.mean())) < 0.05
    assert abs(float(z.std()) - 1.0) < 0.05


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1, 123456789])
@pytest.mark.parametrize("n", [0, 1, 2, 1000])
def test_uniforms_equal_scalar_draws(seed, n):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    # a pending normal() spare must survive the draws untouched
    assert fast.normal() == slow.normal()
    got = fast.uniforms(n)
    want = np.array([slow.uniform() for _ in range(n)])
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)
    assert fast.state == slow.state
    assert [fast.normal() for _ in range(3)] == \
        [slow.normal() for _ in range(3)]
    assert fast.next_u64() == slow.next_u64()


# ---------------------------------------------------------------------------
# spec handling


def test_spec_from_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"surface": "torus", "strokes": 9,
                                "seed": 44}))
    spec = SyntheticSpec.from_json(path)
    assert spec.surface == "torus"
    assert spec.strokes == 9
    assert spec.seed == 44
    assert spec.width == SyntheticSpec().width


def test_spec_from_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"surface": "torus", "stroke_count": 9}))
    with pytest.raises(ValueError, match="stroke_count"):
        SyntheticSpec.from_json(path)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(surface="klein_bottle")
    with pytest.raises(ValueError):
        SyntheticSpec(pattern="scribble")
    with pytest.raises(ValueError):
        SyntheticSpec(strokes=0)
    with pytest.raises(ValueError):
        SyntheticSpec(flip_probability=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(noise=-0.1)


# ---------------------------------------------------------------------------
# generation


def test_generate_bit_identical():
    spec = SyntheticSpec(surface="sphere", strokes=8, width=0.15,
                         spacing=0.1, noise=0.02, normal_noise_deg=4.0,
                         seed=5)
    d1, _ = generate(spec)
    d2, _ = generate(spec)
    assert len(d1.strokes) == len(d2.strokes)
    for s1, s2 in zip(d1.strokes, d2.strokes):
        assert np.array_equal(s1.points, s2.points)
        assert np.array_equal(s1.normals, s2.normals)
        assert np.array_equal(s1.widths, s2.widths)
        assert np.array_equal(s1.timestamps, s2.timestamps)


@pytest.mark.parametrize("surface", synth_eval.SURFACES)
@pytest.mark.parametrize("pattern", ["parallel", "spiral"])
def test_zero_noise_vertices_on_surface(surface, pattern):
    spec = SyntheticSpec(surface=surface, pattern=pattern, strokes=7,
                         width=0.15, spacing=0.1, noise=0.0,
                         normal_noise_deg=0.0, flip_probability=0.0,
                         seed=2)
    drawing, truth = generate(spec)
    assert drawing.strokes
    for stroke in drawing.strokes:
        assert float(truth.distance(stroke.points).max()) <= 1e-12
        assert np.all(stroke.widths == spec.width)
        assert np.all(np.diff(stroke.timestamps) > 0)


def test_zero_noise_normals_point_outward():
    spec = SyntheticSpec(surface="sphere", strokes=6, spacing=0.1,
                         flip_probability=0.0, seed=3)
    drawing, _ = generate(spec)
    for stroke in drawing.strokes:
        radial, _ = geometry.unit_rows(stroke.points)
        dots = np.einsum("ij,ij->i", radial, stroke.normals)
        assert np.all(dots > 0.999)


def test_flip_probability_one_flips_every_stroke():
    base = dict(surface="sphere", strokes=6, spacing=0.1, seed=3)
    plain, _ = generate(SyntheticSpec(flip_probability=0.0, **base))
    flipped, _ = generate(SyntheticSpec(flip_probability=1.0, **base))
    for s0, s1 in zip(plain.strokes, flipped.strokes):
        assert np.allclose(s1.normals, -s0.normals)
        assert np.array_equal(s1.points, s0.points)


def test_hand_noise_is_correlated_and_scaled():
    rng = SplitMix64(11)
    sigma = 0.03
    noise = synth_eval._hand_noise(rng, 4000, sigma)
    assert noise.shape == (4000, 3)
    for c in range(3):
        assert abs(float(noise[:, c].std()) - sigma) < 0.15 * sigma
        r = float(np.corrcoef(noise[:-1, c], noise[1:, c])[0, 1])
        assert r > 0.6
    single = synth_eval._hand_noise(SplitMix64(1), 1, sigma)
    assert single.shape == (1, 3)


# ---------------------------------------------------------------------------
# ground truth surfaces


def test_distance_analytic_values():
    cases = [
        ("sphere", [2.0, 0, 0], 1.0),
        ("sphere", [0.0, 0, 0], 1.0),
        ("dome", [0.0, 0, 0.5], 0.5),
        ("dome", [0.0, 0, -1.0], math.sqrt(2.0)),
        ("cylinder", [0.0, 0, 0], 1.0),
        ("cylinder", [0.0, 0, 2.0], math.sqrt(2.0)),
        ("torus", [1.0, 0, 0], synth_eval.TORUS_MINOR),
        ("torus", [1.0 + synth_eval.TORUS_MINOR, 0, 0], 0.0),
        ("cube", [1.5, 0, 0], 0.5),
        ("cube", [0.0, 0, 0], 1.0),
        ("cube", [2.0, 2.0, 0], math.sqrt(2.0)),
    ]
    for kind, point, expect in cases:
        truth = GroundTruthSurface(kind=kind)
        got = float(truth.distance([point])[0])
        assert got == pytest.approx(expect, abs=1e-12), (kind, point)


@pytest.mark.parametrize("kind", synth_eval.SURFACES)
def test_samples_lie_on_surface(kind):
    truth = GroundTruthSurface(kind=kind)
    pts = truth.sample(300, SplitMix64(4))
    assert pts.shape == (300, 3)
    assert float(truth.distance(pts).max()) <= 1e-12


@pytest.mark.parametrize("n", [0, 1, 500])
def test_cube_samples_equal_the_per_sample_reference(n):
    fast, slow = SplitMix64(23), SplitMix64(23)
    got = GroundTruthSurface(kind="cube").sample(n, fast)
    want = oracles.cube_samples(n, slow)
    assert got.shape == want.shape == (n, 3)
    assert np.array_equal(got, want)
    assert fast.state == slow.state


@pytest.mark.parametrize("kind", synth_eval.SURFACES)
def test_reference_mesh_vertices_on_surface(kind):
    truth = GroundTruthSurface(kind=kind)
    pos, faces = truth.to_mesh(resolution=24)
    assert float(truth.distance(pos).max()) <= 1e-9
    tris = np.array(faces)
    assert tris.min() >= 0 and tris.max() < len(pos)


def test_reference_torus_is_closed():
    pos, faces = GroundTruthSurface(kind="torus").to_mesh(resolution=16)
    from strokesurf import mesh_ops
    mesh = mesh_from_arrays(pos, faces)
    (stats,) = mesh_ops.component_stats(mesh)
    assert stats["closed"] and stats["euler"] == 0


# ---------------------------------------------------------------------------
# distances and sampling over meshes


def test_points_to_mesh_distance_matches_brute_force():
    rng = np.random.default_rng(8)
    pos = rng.uniform(-1, 1, (14, 3))
    faces = [tuple(rng.choice(14, 3, replace=False)) for _ in range(20)]
    points = rng.uniform(-2, 2, (50, 3))
    got = points_to_mesh_distance(points, pos, faces)
    tris = np.array(faces)
    a, b, c = pos[tris[:, 0]], pos[tris[:, 1]], pos[tris[:, 2]]
    for i, p in enumerate(points):
        exact = float(geometry.point_triangle_pair_distances(
            np.broadcast_to(p, a.shape), a, b, c).min())
        assert got[i] == pytest.approx(exact, abs=1e-12)


def assert_matches_reference(points, pos, faces):
    got, pairs = points_to_mesh_distance(points, pos, faces,
                                         return_pairs=True)
    want = oracles.points_to_mesh_distance(points, pos, faces)
    assert got.shape == want.shape == (len(points),)
    assert np.array_equal(got, want)
    *_, balls = oracles.mesh_candidates(points, pos, faces)
    assert pairs == sum(len(b) for b in balls)
    return balls


def random_mesh(rng, nv, nf):
    pos = rng.uniform(-1, 1, (nv, 3))
    faces = [tuple(rng.choice(nv, 3, replace=False)) for _ in range(nf)]
    return pos, faces


@pytest.mark.parametrize("seed", range(6))
def test_batched_distance_equals_per_point_reference(seed):
    rng = np.random.default_rng(100 + seed)
    pos, faces = random_mesh(rng, 40, 70)
    points = np.vstack([rng.uniform(-1.2, 1.2, (300, 3)),
                        rng.uniform(-20, 20, (40, 3))])
    assert_matches_reference(points, pos, faces)


def test_batched_distance_keeps_the_bound_without_candidates():
    # far out on the ray from the centroid through the farthest corner,
    # rounding can leave the centroid just outside the query ball
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]])
    faces = [(0, 1, 2)]
    ray = pos[1] - pos.mean(axis=0)
    ray /= np.linalg.norm(ray)
    points = pos[1] + np.logspace(0, 12, 200)[:, None] * ray
    balls = assert_matches_reference(points, pos, faces)
    assert any(not b for b in balls) and any(balls)


def test_batched_distance_on_degenerate_triangles():
    rng = np.random.default_rng(31)
    pos, faces = random_mesh(rng, 30, 40)
    pos = np.vstack([pos, [[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0],
                           [0.5, 1e-12, 0], [0.3, 0.2, 0.1]]])
    n = len(pos)
    faces += [(n - 5, n - 4, n - 3),    # collinear corners: zero area
              (n - 5, n - 5, n - 4),    # a repeated corner
              (n - 1, n - 1, n - 1),    # a single point
              (n - 5, n - 3, n - 2)]    # a sliver
    points = np.vstack([rng.uniform(-1, 2.5, (200, 3)),
                        pos[n - 5:] + rng.normal(0, 1e-3, (5, 3))])
    assert_matches_reference(points, pos, faces)


def test_batched_distance_on_vertices_and_edges():
    rng = np.random.default_rng(12)
    pos, faces = random_mesh(rng, 25, 40)
    tris = np.array(faces)
    t = rng.uniform(0, 1, (len(tris), 1))
    on_edges = pos[tris[:, 0]] + t * (pos[tris[:, 1]] - pos[tris[:, 0]])
    mids = 0.5 * (pos[tris[:, 1]] + pos[tris[:, 2]])
    points = np.vstack([pos, on_edges, mids])
    assert_matches_reference(points, pos, faces)
    got = points_to_mesh_distance(pos[np.unique(tris)], pos, faces)
    assert np.all(got == 0.0)


@pytest.mark.parametrize("n", [0, 1, synth_eval.POINT_BLOCK - 1,
                               synth_eval.POINT_BLOCK,
                               synth_eval.POINT_BLOCK + 1])
def test_batched_distance_at_block_edges(n):
    rng = np.random.default_rng(n)
    pos, faces = random_mesh(rng, 30, 50)
    points = rng.uniform(-1.5, 1.5, (n, 3))
    assert_matches_reference(points, pos, faces)


def test_batched_distance_splits_a_point_across_row_chunks(monkeypatch):
    rng = np.random.default_rng(5)
    pos, faces = random_mesh(rng, 30, 60)
    points = rng.uniform(-1.5, 1.5, (50, 3))
    # chunks of 7 rows cut through most points' candidate runs
    monkeypatch.setattr(synth_eval, "PAIR_ROWS", 7)
    monkeypatch.setattr(synth_eval, "POINT_BLOCK", 9)
    assert_matches_reference(points, pos, faces)


def test_spread_classes_keep_every_closer_triangle():
    """A grid of small triangles, one large triangle and a zero-spread
    one: each spread class is queried at its own radius, yet every
    distance is the brute-force minimum over all triangles, capped by
    the nearest-vertex bound, and each point's candidates lie inside
    the single ball the largest spread would give it."""
    n = 12
    u, v = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n),
                       indexing="ij")
    pos = np.stack([u.ravel(), v.ravel(), np.zeros(n * n)], axis=1)
    faces = []
    for i in range(n - 1):
        for j in range(n - 1):
            k = i * n + j
            faces += [(k, k + n, k + n + 1), (k, k + n + 1, k + 1)]
    m = len(pos)
    pos = np.vstack([pos, [[-3.0, -3.0, 1.0], [4.0, -3.0, 1.0],
                           [0.5, 5.0, 1.0], [0.5, 0.5, -0.5]]])
    faces += [(m, m + 1, m + 2), (m + 3, m + 3, m + 3)]
    points = np.random.default_rng(17).uniform(-3, 4, (400, 3))

    tris = np.array(faces)
    a, b, c = pos[tris[:, 0]], pos[tris[:, 1]], pos[tris[:, 2]]
    centroids = (a + b + c) / 3.0
    spread = np.max([np.linalg.norm(x - centroids, axis=1)
                     for x in (a, b, c)], axis=0)
    assert len(set(np.frexp(spread)[1].tolist())) >= 3
    assert spread[-1] == 0.0

    balls = assert_matches_reference(points, pos, faces)
    got = points_to_mesh_distance(points, pos, faces)
    upper, _ = cKDTree(pos[np.unique(tris)]).query(points)
    brute = np.array([geometry.point_triangle_pair_distances(
        np.broadcast_to(p, a.shape), a, b, c).min() for p in points])
    assert np.array_equal(got, np.minimum(upper, brute))

    single = cKDTree(centroids).query_ball_point(
        points, upper + spread.max() + 1e-12)
    assert all(set(new) <= set(old) for new, old in zip(balls, single))
    assert sum(map(len, balls)) < sum(map(len, single))


def mixed_mesh(rng):
    """random_mesh plus clusters of tiny triangles and a few huge ones,
    so that several spread classes hold triangles."""
    pos, faces = random_mesh(rng, 40, 60)
    centres = rng.uniform(-1, 1, (8, 1, 3))
    tiny = (centres + rng.uniform(-1e-3, 1e-3, (8, 3, 3))).reshape(-1, 3)
    huge = rng.uniform(-8, 8, (6, 3))
    n = len(pos)
    faces += [(n + 3 * k, n + 3 * k + 1, n + 3 * k + 2) for k in range(10)]
    return np.vstack([pos, tiny, huge]), faces


def hausdorff_points(rng, pos, faces, n, outlier):
    """n points mixing mesh vertices (distance 0), samples on the mesh,
    points around it and repeats of those (tied bounds), with one far
    outlier last when asked."""
    used = pos[np.unique(np.array(faces))]
    pool = np.vstack([used,
                      sample_mesh_surface(pos, faces, 40, SplitMix64(n)),
                      rng.uniform(-1.5, 1.5, (3 * n, 3))])
    pool = pool[rng.permutation(len(pool))]
    pool = np.vstack([pool[:n // 2], pool[:n - n // 2]])
    if outlier:
        pool[-1] = (60.0, -45.0, 30.0)
    return pool[rng.permutation(n)]


def assert_exact_hausdorff(points, pos, faces):
    got, pairs = directed_hausdorff(points, pos, faces)
    want = oracles.points_to_mesh_distance(points, pos, faces).max()
    assert got == want
    assert got == points_to_mesh_distance(points, pos, faces).max()
    *_, balls = oracles.mesh_candidates(points, pos, faces)
    assert 0 <= pairs <= sum(len(b) for b in balls)


@pytest.mark.parametrize("outlier", [False, True])
@pytest.mark.parametrize("n", [1, synth_eval.POINT_BLOCK - 1,
                               synth_eval.POINT_BLOCK,
                               synth_eval.POINT_BLOCK + 1])
@pytest.mark.parametrize("seed", range(3))
def test_directed_hausdorff_equals_the_full_maximum(seed, n, outlier):
    rng = np.random.default_rng(700 + seed)
    pos, faces = mixed_mesh(rng)
    tris = np.array(faces)
    a, b, c = pos[tris[:, 0]], pos[tris[:, 1]], pos[tris[:, 2]]
    centroids = (a + b + c) / 3.0
    spread = np.max([np.linalg.norm(x - centroids, axis=1)
                     for x in (a, b, c)], axis=0)
    assert len(set(np.frexp(spread)[1].tolist())) >= 4
    assert_exact_hausdorff(hausdorff_points(rng, pos, faces, n, outlier),
                           pos, faces)


@pytest.mark.parametrize("n", [1, 4, 5, 6, 90])
def test_directed_hausdorff_with_small_blocks(monkeypatch, n):
    rng = np.random.default_rng(40 + n)
    pos, faces = mixed_mesh(rng)
    monkeypatch.setattr(synth_eval, "PAIR_ROWS", 7)
    monkeypatch.setattr(synth_eval, "POINT_BLOCK", 5)
    for outlier in (False, True):
        assert_exact_hausdorff(hausdorff_points(rng, pos, faces, n, outlier),
                               pos, faces)


def test_directed_hausdorff_reaches_a_later_block(monkeypatch):
    """Two points hover just over a large triangle whose centroid is far
    away, so their bounds come from a tiny triangle above them and are
    loose; the maximum lies in the second block, behind those bounds and
    ahead of a point on a vertex."""
    pos = np.array([[-10.0, -10, 0], [20.0, -10, 0], [-10.0, 20, 0],
                    [5.0, 0, 1], [5.001, 0, 1], [5.0, 0.001, 1]])
    faces = [(0, 1, 2), (3, 4, 5)]
    points = np.array([[5.0, 0, 0.01], [5.0005, 0, 0.01], [0.0, 0, 0.5],
                       [20.0, -10, 0]])
    monkeypatch.setattr(synth_eval, "POINT_BLOCK", 2)
    assert_exact_hausdorff(points, pos, faces)
    assert directed_hausdorff(points, pos, faces)[0] == 0.5


def test_directed_hausdorff_on_a_far_ray():
    # the points of test_batched_distance_keeps_the_bound_without_candidates,
    # some of which have no candidate triangle at all
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]])
    ray = pos[1] - pos.mean(axis=0)
    ray /= np.linalg.norm(ray)
    points = pos[1] + np.logspace(0, 12, 200)[:, None] * ray
    assert_exact_hausdorff(points, pos, [(0, 1, 2)])


def test_directed_hausdorff_needs_points():
    rng = np.random.default_rng(3)
    pos, faces = random_mesh(rng, 10, 12)
    with pytest.raises(ValueError):
        directed_hausdorff(np.zeros((0, 3)), pos, faces)
    with pytest.raises(ValueError):
        directed_hausdorff(pos[:2], pos, [])


def test_sample_mesh_surface_is_area_weighted():
    pos = np.array([[0.0, 0, 0], [10.0, 0, 0], [0.0, 10.0, 0],
                    [-1.0, 0, 0], [-1.1, 0, 0], [-1.0, 0.1, 0]])
    faces = [(0, 1, 2), (3, 4, 5)]
    pts = sample_mesh_surface(pos, faces, 500, SplitMix64(6))
    assert float(points_to_mesh_distance(pts, pos, faces).max()) <= 1e-9
    in_small = np.sum(pts[:, 0] < -0.5)
    assert in_small < 5        # tiny triangle draws ~0.01% of samples


def test_sample_mesh_surface_rejects_zero_area():
    pos = np.zeros((3, 3))
    with pytest.raises(ValueError):
        sample_mesh_surface(pos, [(0, 1, 2)], 10, SplitMix64(1))


# ---------------------------------------------------------------------------
# evaluation


def octa_mesh():
    pos = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0],
                    [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0]])
    faces = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
             (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]
    return mesh_from_arrays(pos, faces), pos, faces


def test_evaluate_against_self_is_zero():
    mesh, pos, faces = octa_mesh()
    truth = GroundTruthSurface.from_mesh(pos, faces)
    report = evaluate(mesh, truth, samples=400, seed=9)
    assert report.hausdorff <= 1e-12
    assert report.mesh_to_truth <= 1e-12
    assert report.truth_to_mesh <= 1e-12
    assert report.nonmanifold_edges == 0
    assert report.nonmanifold_vertices == 0
    assert report.components == 1
    assert report.euler_characteristics == [2]
    assert report.boundary_loops == [0]
    assert report.samples_per_side == 400
    assert report.distance_pairs > 0
    d = report.to_dict()
    assert d["interpolated_edge_fraction"] is None
    assert d["runtime_seconds"] >= 0


def full_scan(mesh, truth, samples, seed):
    """(mesh_to_truth, truth_to_mesh, pairs) of evaluate's samples, every
    sample measured with points_to_mesh_distance or truth.distance."""
    rng = SplitMix64(seed)
    _, faces = mesh.triangle_array()
    mesh_samples = sample_mesh_surface(mesh.positions, faces, samples, rng)
    if truth.kind == "mesh":
        d_mesh, pairs = points_to_mesh_distance(
            mesh_samples, truth.positions, truth.faces, return_pairs=True)
    else:
        d_mesh, pairs = truth.distance(mesh_samples), 0
    d_truth, more = points_to_mesh_distance(
        truth.sample(samples, rng), mesh.positions, faces,
        return_pairs=True)
    return float(d_mesh.max()), float(d_truth.max()), pairs + more


def test_evaluate_sphere_reference_mesh():
    truth = GroundTruthSurface(kind="sphere")
    pos, faces = truth.to_mesh(resolution=32)
    mesh = mesh_from_arrays(pos, faces)
    report = evaluate(mesh, truth, samples=2000, seed=10)
    assert report.hausdorff == max(report.mesh_to_truth,
                                   report.truth_to_mesh)
    assert report.hausdorff < 0.02
    assert report.components == 1
    # the early break keeps both maxima bit for bit and tests at most a
    # fifth of the full scan's pairs, with an analytic and a mesh truth:
    # one bound pair per sample, where the full scan tests about 12,
    # plus one block of candidates per side
    fine = GroundTruthSurface.from_mesh(*truth.to_mesh(resolution=48))
    for surface in (truth, fine):
        report = evaluate(mesh, surface, samples=2000, seed=10)
        d_mesh, d_truth, pairs = full_scan(mesh, surface, 2000, 10)
        assert report.mesh_to_truth == d_mesh
        assert report.truth_to_mesh == d_truth
        assert report.hausdorff == max(d_mesh, d_truth)
        assert 0 < report.distance_pairs * 5 <= pairs


def test_evaluate_reports_distance_pairs_repeatably():
    truth = GroundTruthSurface(kind="sphere")
    pos, faces = truth.to_mesh(resolution=12)
    mesh = mesh_from_arrays(pos, faces)
    runs = [evaluate(mesh, GroundTruthSurface.from_mesh(pos, faces),
                     samples=300, seed=3) for _ in range(2)]
    assert runs[0].distance_pairs > 0
    assert runs[0].distance_pairs == runs[1].distance_pairs
    assert runs[0].to_dict()["distance_pairs"] == runs[0].distance_pairs
    # an analytic truth tests pairs on the truth-to-mesh side only, as
    # many as the early break needs, fewer than the full scan's
    analytic = evaluate(mesh, truth, samples=300, seed=3)
    rng = SplitMix64(3)
    active = [mesh.tri_verts[t] for t in mesh.active_ids()]
    sample_mesh_surface(mesh.positions, active, 300, rng)
    points = truth.sample(300, rng)
    _, pairs = directed_hausdorff(points, mesh.positions, active)
    _, full = points_to_mesh_distance(points, mesh.positions, active,
                                      return_pairs=True)
    assert analytic.distance_pairs == pairs > 0
    assert pairs < full


def test_evaluate_requires_triangles():
    mesh, pos, faces = octa_mesh()
    for t in list(mesh.active_ids()):
        mesh.remove(t)
    with pytest.raises(ValueError):
        evaluate(mesh, GroundTruthSurface.from_mesh(pos, faces))


def test_interpolated_fraction_by_position():
    n = 6
    xs = np.linspace(0.0, 1.0, n)
    rail_a = np.stack([xs, np.zeros(n), np.zeros(n)], axis=1)
    rail_b = np.stack([xs, np.full(n, 0.2), np.zeros(n)], axis=1)
    strokes = [make_stroke(rail_a), make_stroke(rail_b)]
    from strokesurf.stroke_model import Drawing
    drawing = Drawing(strokes=strokes)

    pos = np.vstack([rail_a, rail_b])
    faces = []
    for i in range(n - 1):
        faces.append((i, n + i, n + i + 1))
        faces.append((i, n + i + 1, i + 1))
    mesh = mesh_from_arrays(pos, faces)
    assert interpolated_fraction(mesh, drawing) == pytest.approx(1.0)

    mesh.remove(0)            # drops rail-b edge (n, n+1)
    expect = (2 * (n - 1) - 1) / (2 * (n - 1))
    assert interpolated_fraction(mesh, drawing) == pytest.approx(expect)
    # a drawing whose strokes all trim away, of zero length, has no edge
    dot = make_stroke(np.zeros((3, 3)))
    assert interpolated_fraction(mesh, Drawing(strokes=[dot])) == 0.0
