"""End-to-end acceptance checks.

Each test prints a one-line PASS/FAIL verdict straight to the terminal
(bypassing capture) so a full run reads as an eleven-line report. All
thresholds are module constants. The drawing corpus is surfaced once
per session and shared by every test that inspects it.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import make_stroke
from test_consolidate import random_conflict_graph, solved
from test_matcher import candidate_rows, random_viterbi_instance

from strokesurf import geometry, matcher, mesh_ops, scoring
from strokesurf import stroke_model as sm
from strokesurf.consolidate import OUT_NODE
from strokesurf.pipeline import PipelineOptions, run_pipeline
from strokesurf.synth_eval import (SplitMix64, SyntheticSpec, evaluate,
                                   generate)

CORPUS_BUDGET_S = 600.0
CLEAN_FRACTION_MIN = 0.95
NOISY_FRACTION_MIN = 0.85
SPHERE_HAUSDORFF_MAX = 0.15
MATCH_TOL = 1e-9
CLUSTER_RATIO_MIN = 0.95
SCORE_TOL = 1e-6
FLIP_DELTA_MAX = 0.01
SMALL_BENCH_BUDGET_S = 60.0
LARGE_BENCH_BUDGET_S = 300.0
CREASE_TARGET_DEG = 90.0
CREASE_TOL_DEG = 10.0
SMOOTH_FLOOR_DEG = 135.0
CORPUS_HAUSDORFF_MAX = 0.30

# stroke count, width, spacing per surface; three noise levels
# (relative point noise, normal noise in degrees, flip probability)
CORPUS_PARAMS = {
    "sphere":   (24, 0.15, 0.06),
    "dome":     (14, 0.15, 0.06),
    "cube":     (12, 0.18, 0.07),
    "cylinder": (14, 0.15, 0.06),
    "torus":    (18, 0.14, 0.06),
}
CORPUS_LEVELS = [(0.0, 0.0, 0.0), (0.125, 4.0, 1 / 3), (0.25, 6.0, 1 / 3)]


@pytest.fixture(scope="module")
def corpus():
    """Thirty drawings (5 surfaces x 2 patterns x 3 noise levels),
    surfaced once and reused by the corpus-wide checks."""
    records = []
    seed = 100
    t0 = time.perf_counter()
    for surface, (strokes, width, spacing) in CORPUS_PARAMS.items():
        for pattern in ("parallel", "spiral"):
            for noise_frac, normal_deg, flip in CORPUS_LEVELS:
                seed += 1
                spec = SyntheticSpec(surface=surface, pattern=pattern,
                                     strokes=strokes, width=width,
                                     spacing=spacing,
                                     noise=noise_frac * width,
                                     normal_noise_deg=normal_deg,
                                     flip_probability=flip, seed=seed)
                drawing, truth = generate(spec)
                mesh, report = run_pipeline(drawing)
                records.append(SimpleNamespace(
                    surface=surface, pattern=pattern,
                    noise_frac=noise_frac, seed=seed, spec=spec,
                    drawing=drawing, truth=truth, mesh=mesh,
                    report=report))
    return records, time.perf_counter() - t0


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print("\n[acceptance %2d] %s  %s" % (num, "PASS" if ok else "FAIL",
                                             detail))


def triangle_signature(mesh):
    """Active triangles as order-free sets of rounded vertex positions."""
    sig = set()
    for tid in mesh.active_ids():
        tri = mesh.tri_verts[tid]
        sig.add(tuple(sorted(
            tuple(np.round(mesh.positions[v], 9)) for v in tri)))
    return sig


def min_interior_dihedral(mesh):
    best = 360.0
    for (u, v), tids in mesh.edge_map().items():
        live = [t for t in tids if mesh.is_active(t)]
        if len(live) != 2:
            continue
        wings = [next(x for x in mesh.tri_verts[t] if x not in (u, v))
                 for t in live]
        best = min(best, float(geometry.dihedral_deg_rows(
            mesh.positions[u], mesh.positions[v],
            mesh.positions[wings[0]], mesh.positions[wings[1]])[0]))
    return best


# ---------------------------------------------------------------------------
# 1. every corpus drawing surfaces to a manifold mesh within budget


def test_01_corpus_is_manifold(corpus, capsys):
    records, elapsed = corpus
    worst = max((r.report["nonmanifold_edges"],
                 r.report["nonmanifold_vertices"]) for r in records)
    ok = worst == (0, 0) and elapsed < CORPUS_BUDGET_S
    announce(capsys, 1, ok,
             "30/30 corpus cells manifold, worst edges/vertices %s, "
             "%.0fs (budget %.0fs)" % (worst, elapsed, CORPUS_BUDGET_S))
    for r in records:
        assert r.report["nonmanifold_edges"] == 0, (r.surface, r.seed)
        assert r.report["nonmanifold_vertices"] == 0, (r.surface, r.seed)
    assert elapsed < CORPUS_BUDGET_S


# ---------------------------------------------------------------------------
# 2. interpolated-edge fraction stays high with and without noise


def test_02_interpolated_fraction(corpus, capsys):
    records, _ = corpus
    clean = min(r.report["interpolated_edge_fraction"]
                for r in records if r.noise_frac == 0.0)
    noisy = min(r.report["interpolated_edge_fraction"]
                for r in records if r.noise_frac > 0.0)
    ok = clean >= CLEAN_FRACTION_MIN and noisy >= NOISY_FRACTION_MIN
    announce(capsys, 2, ok,
             "interpolated fraction min clean %.4f (>= %.2f), "
             "noisy %.4f (>= %.2f)" % (clean, CLEAN_FRACTION_MIN,
                                       noisy, NOISY_FRACTION_MIN))
    assert clean >= CLEAN_FRACTION_MIN
    assert noisy >= NOISY_FRACTION_MIN


# ---------------------------------------------------------------------------
# 3. the clean sphere closes into one genus-0 component near the truth


def test_03_sphere_closed_and_accurate(corpus, capsys):
    records, _ = corpus
    rec = next(r for r in records if r.surface == "sphere"
               and r.pattern == "parallel" and r.noise_frac == 0.0)
    rep = evaluate(rec.mesh, rec.truth, samples=10000, seed=7)
    ok = (rec.report["components"] == 1
          and rec.report["euler_characteristics"] == [2]
          and rec.report["boundary_loops"] == [0]
          and rep.hausdorff <= SPHERE_HAUSDORFF_MAX)
    announce(capsys, 3, ok,
             "clean sphere: %d component, euler %s, %d open loops, "
             "Hausdorff %.4f (<= %.2f)" % (
                 rec.report["components"],
                 rec.report["euler_characteristics"],
                 sum(rec.report["boundary_loops"]),
                 rep.hausdorff, SPHERE_HAUSDORFF_MAX))
    assert rec.report["components"] == 1
    assert rec.report["euler_characteristics"] == [2]
    assert rec.report["boundary_loops"] == [0]
    assert rep.hausdorff <= SPHERE_HAUSDORFF_MAX


# ---------------------------------------------------------------------------
# 4. chain matching reaches the enumerated optimum on random instances


def test_04_matching_is_optimal(capsys, config):
    rng = np.random.default_rng(1404)
    worst = 0.0
    exact = 0
    n = 1000
    for _ in range(n):
        cs, cand_lists = random_viterbi_instance(rng, config)
        side = int(rng.choice([1, -1]))
        match, _, totals = matcher.viterbi_chain(
            cs, side, candidate_rows(cand_lists), config)
        total = totals[0]
        best = oracles.viterbi_reference(cs, 0, side, cand_lists, config)
        achieved = oracles.assignment_score(cs, 0, side, cand_lists,
                                            match, config)
        worst = max(worst, abs(total - best), abs(achieved - total))
        if abs(total - best) <= MATCH_TOL and \
                abs(achieved - total) <= MATCH_TOL:
            exact += 1
    ok = exact == n
    announce(capsys, 4, ok,
             "%d/%d random chains matched optimally, worst gap %.2e "
             "(tol %.0e)" % (exact, n, worst, MATCH_TOL))
    assert exact == n, worst


# ---------------------------------------------------------------------------
# 5. conflict clustering separates every hard pair and stays near optimal


def test_05_clustering_near_optimal(capsys, config):
    rng = np.random.default_rng(505)
    n = 500
    violations = 0
    min_ratio = np.inf
    for _ in range(n):
        g = random_conflict_graph(rng)
        assign, got = solved(g)
        for (u, v) in g.hard:
            if assign[u] == assign[v]:
                violations += 1
        best = oracles.partition_optimum([OUT_NODE] + g.nodes,
                                         g.arcs, g.hard)
        ratio = 1.0 if best <= 0 else got / best
        min_ratio = min(min_ratio, ratio)

    g = oracles.ConflictGraph(nodes=[10, 20])
    g.add_arc(10, 20, config.incompatible_weight, hard=True)
    g.add_arc(OUT_NODE, 10, 5.0)
    g.add_arc(OUT_NODE, 20, 2.0)
    worked = solved(g)[1]

    ok = (violations == 0 and min_ratio >= CLUSTER_RATIO_MIN - 1e-9
          and worked == pytest.approx(5.0, abs=1e-12))
    announce(capsys, 5, ok,
             "%d graphs: %d hard violations, min objective ratio %.4f "
             "(>= %.2f), worked example %.1f" % (
                 n, violations, min_ratio, CLUSTER_RATIO_MIN, worked))
    assert violations == 0
    assert min_ratio >= CLUSTER_RATIO_MIN - 1e-9
    assert worked == pytest.approx(5.0, abs=1e-12)


# ---------------------------------------------------------------------------
# 6. scoring reference values


def test_06_score_reference_values(capsys, config):
    def vert(points, width):
        return sm.StrokeVertex(make_stroke(np.asarray(points, float),
                                           width=width), 0, 0)

    p = vert([[0, 0, 0], [0, 1, 0]], 0.5)
    q = vert([[1, 0, 0], [1, 1, 0]], 0.5)
    left = scoring.vertex_score(p, q, scoring.Side.LEFT, config).score
    right = scoring.vertex_score(p, q, scoring.Side.RIGHT, config).score
    pers = scoring.persistence_score([0, 0, 0], [0, 1, 0],
                                     [1, 0, 0], [1, 1, 0], sigma=0.75)
    expected = (0.411112, 0.135335, 0.028566)
    errs = (abs(left - expected[0]), abs(right - expected[1]),
            abs(pers - expected[2]))
    ok = max(errs) <= SCORE_TOL
    announce(capsys, 6, ok,
             "unit-pair scores %.6f / %.6f / %.6f vs %s (tol %.0e)"
             % (left, right, pers, expected, SCORE_TOL))
    assert left == pytest.approx(expected[0], abs=SCORE_TOL)
    assert right == pytest.approx(expected[1], abs=SCORE_TOL)
    assert pers == pytest.approx(expected[2], abs=SCORE_TOL)


# ---------------------------------------------------------------------------
# 7. flipping a third of the stroke normals barely changes the output


def test_07_flip_robustness(corpus, capsys):
    records, _ = corpus
    picks = [("sphere", "parallel"), ("dome", "spiral"),
             ("cube", "parallel"), ("cylinder", "spiral"),
             ("torus", "parallel")]
    worst = 0.0
    for surface, pattern in picks:
        rec = next(r for r in records if r.surface == surface
                   and r.pattern == pattern and r.noise_frac == 0.25)
        rng = SplitMix64(900 + rec.seed)
        flipped = []
        for s in rec.drawing.strokes:
            neg = rng.uniform() < 1 / 3
            flipped.append(sm.Stroke(
                s.points, -s.normals if neg else s.normals, s.widths,
                s.color, s.timestamps))
        mesh_f, _ = run_pipeline(sm.Drawing(flipped))
        base = triangle_signature(rec.mesh)
        delta = len(base ^ triangle_signature(mesh_f)) / len(base)
        worst = max(worst, delta)
    ok = worst <= FLIP_DELTA_MAX
    announce(capsys, 7, ok,
             "normal flips on %d noisy cells: worst triangle delta "
             "%.4f (<= %.2f)" % (len(picks), worst, FLIP_DELTA_MAX))
    assert worst <= FLIP_DELTA_MAX


# ---------------------------------------------------------------------------
# 8. wall-clock budgets at two drawing sizes


def test_08_runtime_budget(capsys):
    small = SyntheticSpec(surface="sphere", pattern="parallel",
                          strokes=100, width=0.05, spacing=0.078,
                          noise=0.15 * 0.05, normal_noise_deg=4.0,
                          flip_probability=1 / 3, seed=42)
    large = SyntheticSpec(surface="sphere", pattern="parallel",
                          strokes=300, width=0.022, spacing=0.059,
                          noise=0.15 * 0.022, normal_noise_deg=4.0,
                          flip_probability=1 / 3, seed=42)
    stats = []
    for spec in (small, large):
        drawing, _ = generate(spec)
        t0 = time.perf_counter()
        _, report = run_pipeline(drawing)
        stats.append((time.perf_counter() - t0, report["vertices"]))
    (t_s, v_s), (t_l, v_l) = stats
    ok = (t_s < SMALL_BENCH_BUDGET_S and t_l < LARGE_BENCH_BUDGET_S
          and 4000 <= v_s <= 6500 and 16000 <= v_l <= 25000)
    announce(capsys, 8, ok,
             "100 strokes: %d verts in %.1fs (< %.0fs); 300 strokes: "
             "%d verts in %.1fs (< %.0fs)" % (
                 v_s, t_s, SMALL_BENCH_BUDGET_S,
                 v_l, t_l, LARGE_BENCH_BUDGET_S))
    assert t_s < SMALL_BENCH_BUDGET_S
    assert t_l < LARGE_BENCH_BUDGET_S
    assert 4000 <= v_s <= 6500
    assert 16000 <= v_l <= 25000


# ---------------------------------------------------------------------------
# 9. reruns are byte-identical and stroke order does not matter


def test_09_determinism(corpus, capsys, tmp_path):
    records, _ = corpus
    rec = next(r for r in records if r.surface == "sphere"
               and r.pattern == "parallel" and r.noise_frac == 0.25)
    mesh_b, _ = run_pipeline(generate(rec.spec)[0])
    path_a, path_b = tmp_path / "a.obj", tmp_path / "b.obj"
    mesh_ops.export_obj(rec.mesh, path_a)
    mesh_ops.export_obj(mesh_b, path_b)
    identical = path_a.read_bytes() == path_b.read_bytes()

    permuted = sm.Drawing(list(reversed(rec.drawing.strokes)))
    mesh_p, _ = run_pipeline(permuted)
    base = triangle_signature(rec.mesh)
    changed = len(base ^ triangle_signature(mesh_p))

    ok = identical and changed == 0
    announce(capsys, 9, ok,
             "rerun byte-identical: %s; stroke-order permutation "
             "changed %d triangles" % (identical, changed))
    assert identical
    assert changed == 0


# ---------------------------------------------------------------------------
# 10. crease preservation is an option, smoothing is the default


def test_10_crease_option(capsys):
    def sheets(w=0.12, sp=0.12, count=4, length=1.2, npts=13):
        xs = np.linspace(0.0, length, npts)
        strokes = []
        for k in range(count):
            y = -(w / 2 + k * sp)
            pts = np.stack([xs, np.full(npts, y), np.zeros(npts)], 1)
            strokes.append(make_stroke(pts, normal=(0, 0, 1), width=w))
        for k in range(count):
            z = w / 2 + k * sp
            pts = np.stack([xs, np.zeros(npts), np.full(npts, z)], 1)
            strokes.append(make_stroke(pts, normal=(0, 1, 0), width=w))
        return sm.Drawing(strokes)

    mesh_def, rep_def = run_pipeline(sheets())
    mesh_cr, rep_cr = run_pipeline(sheets(),
                                   PipelineOptions(preserve_creases=True))
    smooth_min = min_interior_dihedral(mesh_def)
    crease_min = min_interior_dihedral(mesh_cr)
    ok = (smooth_min >= SMOOTH_FLOOR_DEG - 0.01
          and abs(crease_min - CREASE_TARGET_DEG) <= CREASE_TOL_DEG
          and rep_def["nonmanifold_edges"] == 0
          and rep_cr["nonmanifold_edges"] == 0)
    announce(capsys, 10, ok,
             "perpendicular sheets: default min dihedral %.1f "
             "(>= %.0f), crease run %.1f (target %.0f +- %.0f)" % (
                 smooth_min, SMOOTH_FLOOR_DEG, crease_min,
                 CREASE_TARGET_DEG, CREASE_TOL_DEG))
    assert smooth_min >= SMOOTH_FLOOR_DEG - 0.01
    assert abs(crease_min - CREASE_TARGET_DEG) <= CREASE_TOL_DEG
    assert rep_def["nonmanifold_edges"] == 0
    assert rep_cr["nonmanifold_edges"] == 0


# ---------------------------------------------------------------------------
# 11. no corpus cell strays far from its ground truth


def test_11_corpus_hausdorff(corpus, capsys):
    records, _ = corpus
    dists = [(evaluate(r.mesh, r.truth).hausdorff, r.surface, r.pattern,
              r.noise_frac) for r in records]
    worst = max(dists)
    ok = worst[0] <= CORPUS_HAUSDORFF_MAX
    announce(capsys, 11, ok,
             "worst corpus Hausdorff %.4f on %s-%s-%s (<= %.2f), mean "
             "%.4f" % (*worst, CORPUS_HAUSDORFF_MAX,
                       np.mean([d[0] for d in dists])))
    assert worst[0] <= CORPUS_HAUSDORFF_MAX, worst
