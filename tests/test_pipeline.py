"""Full pipeline wiring: stages, options, reports, and fallbacks."""

import contextlib
import json
import os
import sys
from collections import Counter

import numpy as np
import pytest

from strokesurf import consolidate, geometry, matcher, pipeline, scoring
from strokesurf.mesher import KIND_OFFSET, KIND_RIBBON, KIND_STROKE
from strokesurf.pipeline import PipelineOptions, run_pipeline
from strokesurf.stroke_model import Drawing, Stroke, ValidationError
from strokesurf.synth_eval import SyntheticSpec, generate

import oracles
from conftest import line_stroke, make_stroke
from test_matcher import assert_same_lists

REPORT_KEYS = {
    "stage_stats", "interpolated_edge_fraction", "nonmanifold_edges",
    "nonmanifold_vertices", "components", "euler_characteristics",
    "boundary_loops", "triangles", "vertices", "strokes_in",
    "strokes_trimmed_away", "duplicates_skipped", "quads_rejected",
    "total_seconds",
}

STAGES = ["baseline_match", "restricted_match", "strip_meshing",
          "strip_consolidation", "boundary_extension",
          "extension_consolidation", "small_holes", "boundary_smoothing",
          "gap_spanning", "gap_consolidation", "orientation", "ribbons"]


def flat_pair_drawing():
    return Drawing(strokes=[line_stroke(y=0.0), line_stroke(y=0.1)])


def test_flat_pair_end_to_end():
    mesh, report = run_pipeline(flat_pair_drawing())
    assert report["triangles"] == 18
    assert report["vertices"] == 20
    assert report["nonmanifold_edges"] == 0
    assert report["nonmanifold_vertices"] == 0
    assert report["interpolated_edge_fraction"] == pytest.approx(1.0)
    assert report["components"] == 1
    assert report["euler_characteristics"] == [1]
    assert report["boundary_loops"] == [1]
    assert report["strokes_in"] == 2
    assert report["strokes_trimmed_away"] == 0
    assert set(report) == REPORT_KEYS
    assert [s["name"] for s in report["stage_stats"]] == STAGES


def test_color_cue_keeps_differently_coloured_strokes_apart():
    """With use_color, two strokes that would mesh into one strip but
    differ in colour match nothing and fall back to their ribbons."""
    a, b = flat_pair_drawing().strokes
    drawing = Drawing(strokes=[a, Stroke(b.points, b.normals, b.widths,
                                         (1.0, 0.0, 0.0))])
    for use_color, components, triangles, candidates, ribbons in (
            (False, 1, 18, 56, 0), (True, 2, 36, 0, 36)):
        mesh, report = run_pipeline(drawing,
                                    PipelineOptions(use_color=use_color))
        by_name = {s["name"]: s for s in report["stage_stats"]}
        assert report["components"] == components
        assert report["triangles"] == triangles
        assert by_name["baseline_match"]["candidates"] == candidates
        assert by_name["ribbons"]["triangles_added"] == ribbons
        assert (mesh.origin_kind[mesh.tri_verts] == KIND_RIBBON).all(
            axis=1).sum() == ribbons


def test_stage_stats_carry_deltas_and_timings():
    _, report = run_pipeline(flat_pair_drawing())
    by_name = {s["name"]: s for s in report["stage_stats"]}
    assert by_name["strip_meshing"]["triangles_added"] > 0
    for s in report["stage_stats"]:
        assert s["seconds"] >= 0
        assert s["triangles_removed"] >= 0


CONSOLIDATION_STAGES = ["strip_consolidation", "extension_consolidation",
                        "gap_consolidation"]
CONSOLIDATION_KEYS = {
    "pairs_by_criterion", "undecided", "components", "largest_component",
    "component_histogram", "exact_solves", "greedy_solves",
    "greedy_objective", "greedy_bound", "repair_removed",
    "edge_pairs_tested", "vertex_pairs_tested",
}


def test_consolidation_stages_report_counts():
    """The pair's strip of 18 triangles has 17 shared edges, and its
    triangles i and i + 2 share one vertex: 16 pairs that hang on
    different stroke edges on the same side of the vertex's stroke, so
    all reach the crossing test. Nothing conflicts, and the later passes
    only see pairs of frozen triangles, which they skip."""
    _, report = run_pipeline(flat_pair_drawing())
    for s in report["stage_stats"]:
        if s["name"] in CONSOLIDATION_STAGES:
            tested = (17, 16) if s["name"] == "strip_consolidation" else (0, 0)
            assert s["consolidation"] == dict(
                dict.fromkeys(CONSOLIDATION_KEYS, 0),
                pairs_by_criterion=[0, 0, 0], component_histogram=[],
                edge_pairs_tested=tested[0], vertex_pairs_tested=tested[1])
        else:
            assert "consolidation" not in s


def test_noisy_spiral_reports_a_greedy_sized_component():
    drawing, _ = generate(FLIP_SPECS["dome_spiral"])
    _, report = run_pipeline(drawing)
    by_name = {s["name"]: s for s in report["stage_stats"]}
    for name in CONSOLIDATION_STAGES:
        counts = by_name[name]["consolidation"]
        assert set(counts) == CONSOLIDATION_KEYS
        assert (counts["exact_solves"] + counts["greedy_solves"]
                == counts["components"])
        # the pairs found are among the pairs tested
        crit = counts["pairs_by_criterion"]
        assert crit[0] + crit[2] <= counts["edge_pairs_tested"]
        assert crit[1] <= counts["vertex_pairs_tested"]
        # power-of-two size bins: the top one holds the largest component
        hist = counts["component_histogram"]
        assert sum(hist) == counts["components"]
        if hist:
            assert hist[-1] > 0
            assert len(hist) == counts["largest_component"].bit_length()
    strip = by_name["strip_consolidation"]["consolidation"]
    assert strip["largest_component"] > consolidate.EXACT_NODE_LIMIT
    assert strip["greedy_solves"] >= 1
    assert 0 < strip["greedy_objective"] <= strip["greedy_bound"]
    assert min(strip["pairs_by_criterion"]) > 0
    assert strip["undecided"] >= strip["largest_component"]


# what each matching, strip-emitting or repairing stage reports beside
# its deltas
REPAIR_COUNTS = {
    "baseline_match": {"candidates", "candidate_pairs", "matched"},
    "restricted_match": {"candidates", "candidate_pairs", "matched",
                         "rows_reused"},
    "strip_meshing": {"emissions", "fans", "fans_capped", "fans_vetoed"},
    "boundary_extension": {"candidates", "candidate_pairs", "matched",
                           "emissions", "fans", "fans_capped",
                           "fans_vetoed"},
    "gap_spanning": {"candidates", "candidate_pairs", "matched",
                     "emissions", "fans", "fans_capped", "fans_vetoed"},
    "strip_consolidation": {"nonorientable_removed", "walk_rows"},
    "extension_consolidation": {"nonorientable_removed", "walk_rows"},
    "small_holes": {"holes_closed_added"},
    "orientation": {"moebius_removed", "nonorientable_removed",
                    "walk_rows", "repair_removed", "holes_closed_added"},
    "hole_filling": {"holes_filled_added"},
}
ENTRY_KEYS = {"name", "triangles_added", "triangles_removed",
              "duplicates_skipped", "quads_rejected", "seconds",
              "consolidation"}


@pytest.mark.parametrize("name, options", [
    ("dome_spiral", PipelineOptions()),
    ("cube_parallel", PipelineOptions(preserve_creases=True,
                                      close_holes_max_sides=8,
                                      smooth_iterations=3)),
])
def test_repair_counts_match_stage_deltas(name, options):
    drawing, _ = generate(FLIP_SPECS[name])
    _, report = run_pipeline(drawing, options)
    by_name = {s["name"]: s for s in report["stage_stats"]}
    for s in report["stage_stats"]:
        assert set(s) - ENTRY_KEYS == REPAIR_COUNTS.get(s["name"], set())
    for stage in ("strip_consolidation", "extension_consolidation"):
        s = by_name[stage]
        assert (s["nonorientable_removed"]
                + s["consolidation"]["repair_removed"]
                <= s["triangles_removed"])
    assert by_name["small_holes"]["holes_closed_added"] == \
        by_name["small_holes"]["triangles_added"]
    # one stroke loses no row to the restriction, so both sides keep the
    # baseline pass's match
    restricted = by_name["restricted_match"]
    if name == "dome_spiral":
        assert restricted["rows_reused"] == restricted["candidates"] > 0
    else:
        assert 0 <= restricted["rows_reused"] <= restricted["candidates"]
    # the noisy spiral's strokes run past long target sections
    assert (by_name["strip_meshing"]["fans_capped"] > 0) == \
        (name == "dome_spiral")
    orient = by_name["orientation"]
    assert orient["moebius_removed"] > 0
    assert (orient["moebius_removed"] + orient["nonorientable_removed"]
            + orient["repair_removed"] == orient["triangles_removed"])
    assert orient["holes_closed_added"] == orient["triangles_added"]
    if "hole_filling" in by_name:
        fill = by_name["hole_filling"]
        assert fill["holes_filled_added"] == fill["triangles_added"]
        assert fill["triangles_removed"] == 0


@pytest.mark.parametrize("name, options", [
    ("flat_pair", PipelineOptions()),
    ("cube_parallel", PipelineOptions(preserve_creases=True)),
])
def test_stage_counts_add_up_to_report_totals(name, options):
    drawing = (flat_pair_drawing() if name == "flat_pair"
               else generate(FLIP_SPECS[name])[0])
    _, report = run_pipeline(drawing, options)
    stages = report["stage_stats"]
    for key in ("duplicates_skipped", "quads_rejected"):
        assert sum(s[key] for s in stages) == report[key]
    assert report["duplicates_skipped"] > 0
    by_name = {s["name"]: s for s in stages}
    # only meshing emits triangles that can duplicate or fold
    for s in stages:
        if s["name"] not in ("strip_meshing", "boundary_extension",
                             "gap_spanning", "small_holes", "orientation",
                             "ribbons", "hole_filling"):
            assert s["duplicates_skipped"] == s["quads_rejected"] == 0
    for stage in ("baseline_match", "restricted_match"):
        assert by_name[stage]["candidates"] >= by_name[stage]["matched"] > 0
    for stage in ("baseline_match", "restricted_match",
                  "boundary_extension", "gap_spanning"):
        assert by_name[stage]["candidates"] <= \
            by_name[stage]["candidate_pairs"]
    # every emitted row is added, skipped as a duplicate or too thin
    for stage in ("strip_meshing", "boundary_extension", "gap_spanning"):
        s = by_name[stage]
        assert s["emissions"] >= s["triangles_added"] + s["duplicates_skipped"]
        assert s["fans"] >= s["fans_vetoed"]
    if name == "flat_pair":
        # every vertex lists the partner vertex across and its diagonal
        # neighbours (two at a stroke end): 2 * (8 * 3 + 2 * 2); every
        # vertex is matched, and each strip triangle comes from both sides
        assert by_name["baseline_match"]["candidates"] == 56
        # 46 vertex pairs lie within the 0.18 search radius (18 along
        # the strokes, 10 straight across, 18 diagonal), each tested in
        # both directions on both sides
        assert by_name["baseline_match"]["candidate_pairs"] == 184
        assert by_name["baseline_match"]["matched"] == 20
        assert by_name["strip_meshing"]["duplicates_skipped"] == 18
        assert by_name["strip_meshing"]["emissions"] == 36
        assert by_name["strip_meshing"]["fans"] == 0
    else:
        assert report["quads_rejected"] > 0
        assert by_name["strip_meshing"]["fans"] > 0


def test_skip_extension_drops_stages():
    _, report = run_pipeline(flat_pair_drawing(),
                             PipelineOptions(skip_extension=True))
    names = [s["name"] for s in report["stage_stats"]]
    assert "boundary_extension" not in names
    assert "extension_consolidation" not in names
    assert report["nonmanifold_edges"] == 0


def test_optional_fill_and_smooth_stages():
    _, report = run_pipeline(
        flat_pair_drawing(),
        PipelineOptions(close_holes_max_sides=8, smooth_iterations=2))
    names = [s["name"] for s in report["stage_stats"]]
    assert "hole_filling" in names
    assert "smoothing" in names
    assert report["nonmanifold_edges"] == 0


def test_option_validation():
    with pytest.raises(ValidationError):
        PipelineOptions(close_holes_max_sides=-1)
    with pytest.raises(ValidationError):
        PipelineOptions(smooth_iterations=-1)


def test_preserve_creases_matches_default_on_flat_input():
    mesh_a, rep_a = run_pipeline(flat_pair_drawing())
    mesh_b, rep_b = run_pipeline(flat_pair_drawing(),
                                 PipelineOptions(preserve_creases=True))
    assert rep_b["triangles"] == rep_a["triangles"]
    assert rep_b["nonmanifold_edges"] == 0


def test_isolated_stroke_falls_back_to_ribbon():
    drawing = Drawing(strokes=[line_stroke(y=0.0), line_stroke(y=0.1),
                               line_stroke(y=50.0)])
    mesh, report = run_pipeline(drawing)
    assert report["components"] == 2
    ribbon_tris = [t for t in mesh.active_ids()
                   if all(mesh.origin_kind[g] == KIND_RIBBON
                          for g in mesh.tri_verts[t])]
    assert len(ribbon_tris) == 18
    assert report["triangles"] == 36
    assert report["nonmanifold_edges"] == 0
    assert report["nonmanifold_vertices"] == 0


@pytest.mark.parametrize("bad, spine", [
    (0, [1, 2, 3, 4]), (2, [0, 1, 3, 4]), (4, [0, 1, 2, 3])])
def test_ribbon_corners_take_their_own_stroke_vertex(bad, spine):
    """A vertex whose frame is degenerate (its normal along the stroke)
    gets no corners; every other corner carries the width, normal and
    index of the vertex it was offset from, half a width away."""
    normals = np.tile([0.0, 0.0, 1.0], (5, 1))
    normals[bad] = (1.0, 0.0, 0.0)
    widths = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    points = np.stack([np.linspace(0, 1, 5), np.zeros(5), np.zeros(5)], 1)
    stroke = Stroke(points, normals, widths, (1, 1, 1))
    assert np.flatnonzero(~stroke.frames_ok).tolist() == [bad]
    drawing = Drawing(strokes=[stroke])
    cs = matcher.stroke_chains(drawing)
    mesh = pipeline.SurfaceMesh.from_chains(cs)
    assert pipeline._emit_ribbons(mesh, drawing, cs) > 0
    ribbon = np.flatnonzero(mesh.origin_kind == KIND_RIBBON)
    at = np.repeat(spine, 2)
    assert mesh.widths[ribbon].tolist() == widths[at].tolist()
    assert np.array_equal(mesh.normals[ribbon], normals[at])
    assert mesh.origin[ribbon].tolist() == [[0, v] for v in at.tolist()]
    np.testing.assert_allclose(np.linalg.norm(
        mesh.positions[ribbon] - points[at], axis=1), 0.5 * widths[at])


def test_all_strokes_trimmed_away_raises():
    degenerate = make_stroke(np.array([[0.0, 0, 0], [0.0, 0, 0]]))
    with pytest.raises(ValidationError):
        run_pipeline(Drawing(strokes=[degenerate]))


def test_input_order_invariance():
    strokes = [line_stroke(y=0.0), line_stroke(y=0.1), line_stroke(y=0.2)]
    mesh_a, _ = run_pipeline(Drawing(strokes=strokes))
    mesh_b, _ = run_pipeline(Drawing(strokes=strokes[::-1]))
    assert _triangle_signature(mesh_a) == _triangle_signature(mesh_b)


def _flip_normals(drawing, pick):
    return Drawing(strokes=[
        Stroke(s.points, -s.normals if pick(i) else s.normals, s.widths,
               s.color, s.timestamps)
        for i, s in enumerate(drawing.strokes)])


# noisy corpus-style drawings that surface in under a second each and
# whose output follows emission order and mid-run winding closely
FLIP_SPECS = {
    # one stroke winding six times from the pole, 414 vertices
    "dome_spiral": SyntheticSpec(
        surface="dome", pattern="spiral", strokes=6, width=0.15,
        spacing=0.06, noise=0.25 * 0.15, normal_noise_deg=6.0, seed=112),
    # 36 strokes over six faces, 864 vertices
    "cube_parallel": SyntheticSpec(
        surface="cube", pattern="parallel", strokes=6, width=0.18,
        spacing=0.07, noise=0.25 * 0.18, normal_noise_deg=6.0, seed=115),
}

# the acceptance corpus's cube-spiral-0.125 cell: a run of it solves a
# conflict component of over 100 nodes greedily (193) and cuts at
# orientation conflicts (18), where FLIP_SPECS runs meet none
CUBE_SPIRAL = SyntheticSpec(
    surface="cube", pattern="spiral", strokes=12, width=0.18, spacing=0.07,
    noise=0.125 * 0.18, normal_noise_deg=4.0, flip_probability=1 / 3,
    seed=117)


@pytest.mark.parametrize("spec", FLIP_SPECS.values(), ids=FLIP_SPECS.keys())
@pytest.mark.parametrize("options", [
    PipelineOptions(),
    PipelineOptions(preserve_creases=True, close_holes_max_sides=8,
                    smooth_iterations=3),
], ids=["default", "creases_fill_smooth"])
def test_normal_flip_invariance(spec, options):
    drawing, _ = generate(spec)
    base = _triangle_signature(run_pipeline(drawing, options)[0])
    # every third stroke, then all of them
    for pick in (lambda i: i % 3 == 0, lambda i: True):
        mesh, _ = run_pipeline(_flip_normals(drawing, pick), options)
        assert _triangle_signature(mesh) == base


@pytest.mark.parametrize("spec", FLIP_SPECS.values(), ids=FLIP_SPECS.keys())
def test_matching_equals_the_per_vertex_reference(spec, monkeypatch):
    """Every matching phase of a run lists the candidates, and chooses
    the matches, of the per-vertex references in oracles.py."""
    phases, built = [], []

    def checked(build, phase=None):
        # the argument after config is the phase of boundary candidates
        def wrapper(cs, config, *args, color_cue=False):
            cands = build(cs, config, *args, color_cue=color_cue)
            name = phase or args[0]
            assert_same_lists(cands, oracles.phase_candidates(
                cs, config, name, None, color_cue))
            phases.append(name)
            built.append((config, color_cue))
            return cands
        return wrapper

    def checked_restricted(cands, neighbors):
        restricted = restrict(cands, neighbors)
        config, color_cue = built[-1]
        assert_same_lists(restricted, oracles.phase_candidates(
            cands.chainset, config, "restricted", neighbors, color_cue))
        phases.append("restricted")
        return restricted

    def checked_match_all(cands, config):
        table = match_all(cands, config)
        cs = cands.chainset
        assert set(table.matches) == set(cands.lists)
        for side, rows in cands.lists.items():
            assert table.matches[side].shape == (len(cs),)
            got, got_mlog, totals = matcher.viterbi_chain(cs, side, rows,
                                                          config)
            assert np.array_equal(got, table.matches[side])
            for ci in range(cs.chain_count()):
                lo, hi = cs.offsets[ci], cs.offsets[ci + 1]
                match, mlog, total = oracles.viterbi_chain(
                    cs, ci, side, oracles.vertex_lists(rows, cs, ci), config)
                assert np.array_equal(got[lo:hi], match)
                np.testing.assert_allclose(got_mlog[lo:hi], mlog,
                                           rtol=1e-12)
                assert totals[ci] == pytest.approx(total, rel=1e-12)
        return table

    match_all = matcher.match_all
    restrict = matcher.restricted_candidates
    monkeypatch.setattr(matcher, "baseline_candidates", checked(
        matcher.baseline_candidates, "baseline"))
    monkeypatch.setattr(matcher, "restricted_candidates", checked_restricted)
    monkeypatch.setattr(matcher, "boundary_candidates", checked(
        matcher.boundary_candidates))
    monkeypatch.setattr(matcher, "match_all", checked_match_all)
    run_pipeline(generate(spec)[0])
    assert phases == ["baseline", "restricted", "extension", "gap"]


@pytest.mark.parametrize("spec", FLIP_SPECS.values(), ids=FLIP_SPECS.keys())
def test_restricted_matching_searches_and_scores_nothing(spec, monkeypatch):
    """The restricted stage is a view of the baseline pass: it runs no
    pair search and calls neither scoring kernel, where the baseline
    stage runs one search and calls both kernels."""
    calls, by_stage = Counter(), {}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    search = geometry.pairs_within
    for name, module in list(sys.modules.items()):
        if (name.startswith("strokesurf")
                and getattr(module, "pairs_within", None) is search):
            monkeypatch.setattr(module, "pairs_within",
                                counted("pairs_within", search))
    for key in ("vertex_scores_log_arrays", "persistence_log_rows"):
        monkeypatch.setattr(scoring, key, counted(key, getattr(scoring, key)))
    stage = pipeline._Tracker.stage

    @contextlib.contextmanager
    def tracked(self, name, *args, **kwargs):
        before = Counter(calls)
        with stage(self, name, *args, **kwargs) as counts:
            yield counts
        by_stage[name] = Counter(calls) - before

    monkeypatch.setattr(pipeline._Tracker, "stage", tracked)
    run_pipeline(generate(spec)[0])
    assert by_stage["baseline_match"]["pairs_within"] == 1
    assert by_stage["baseline_match"]["vertex_scores_log_arrays"] > 0
    assert by_stage["baseline_match"]["persistence_log_rows"] > 0
    assert by_stage["restricted_match"] == Counter()


def test_flipped_flat_pair_faces_its_normals():
    mesh_a, _ = run_pipeline(flat_pair_drawing())
    mesh_b, _ = run_pipeline(_flip_normals(flat_pair_drawing(),
                                           lambda i: True))
    assert _triangle_signature(mesh_a) == _triangle_signature(mesh_b)
    assert _face_normal_z(mesh_a) == [1.0] * 18
    assert _face_normal_z(mesh_b) == [-1.0] * 18


def test_reruns_are_identical():
    mesh_a, rep_a = run_pipeline(flat_pair_drawing())
    mesh_b, rep_b = run_pipeline(flat_pair_drawing())
    assert _triangle_signature(mesh_a) == _triangle_signature(mesh_b)
    assert rep_a["triangles"] == rep_b["triangles"]


def test_dump_dir_writes_stage_artifacts(tmp_path):
    dump = tmp_path / "stages"
    run_pipeline(flat_pair_drawing(),
                 PipelineOptions(dump_dir=str(dump)))
    names = sorted(os.listdir(dump))
    assert any(n.endswith("_strip_meshing_mesh.obj") for n in names)
    assert any(n.endswith("_baseline_match_matches.json") for n in names)
    # stage prefixes are ordered
    prefixes = [int(n.split("_")[0]) for n in names]
    assert prefixes == sorted(prefixes)


def test_dump_numbers_follow_the_stage_order(tmp_path):
    """Every dump of a stage, its match table included, carries the
    stage's 1-based position in stage_stats, so a stage's match and mesh
    dumps share their number and sorting the names orders the stages."""
    dump = tmp_path / "stages"
    _, report = run_pipeline(generate(FLIP_SPECS["dome_spiral"])[0],
                             PipelineOptions(dump_dir=str(dump)))
    stages = [s["name"] for s in report["stage_stats"]]
    assert len(set(stages)) == len(stages)
    kinds = {}
    for name in os.listdir(dump):
        seq, rest = name.split("_", 1)
        stage, kind = rest.rsplit("_", 1)
        assert stages[int(seq) - 1] == stage
        kinds.setdefault(stage, set()).add(kind)
    # the stages that dump their matches before they end
    for stage in ("boundary_extension", "gap_spanning"):
        assert kinds[stage] == {"matches.json", "mesh.obj"}


def expected_match_entries(table):
    """A match table's dump entries, chain by chain, LEFT before RIGHT,
    vertex by vertex; each target located by the chain offsets."""
    cs = table.chainset
    offsets = cs.offsets.tolist()
    entries = []
    for ci in range(len(offsets) - 1):
        for side, tag in ((1, "L"), (-1, "R")):
            if side not in table.matches:
                continue
            for i in range(offsets[ci + 1] - offsets[ci]):
                m = int(table.matches[side][offsets[ci] + i])
                if m >= 0:
                    tc = int(np.searchsorted(offsets, m, side="right")) - 1
                    entries.append({"from": [ci, i], "side": tag,
                                    "to": [tc, m - offsets[tc]]})
    return entries


def test_match_dumps_list_every_match_in_order(tmp_path, monkeypatch):
    tables = []

    def recorded(cands, config):
        tables.append(match_all(cands, config))
        return tables[-1]

    match_all = matcher.match_all
    monkeypatch.setattr(matcher, "match_all", recorded)
    dump = tmp_path / "stages"
    run_pipeline(generate(FLIP_SPECS["dome_spiral"])[0],
                 PipelineOptions(dump_dir=str(dump)))
    names = sorted(n for n in os.listdir(dump) if n.endswith("matches.json"))
    assert [n.split("_", 1)[1] for n in names] == [
        "baseline_match_matches.json", "restricted_match_matches.json",
        "boundary_extension_matches.json", "gap_spanning_matches.json"]
    assert len(tables) == len(names)
    for name, table in zip(names, tables):
        with open(dump / name, encoding="utf-8") as fh:
            entries = json.load(fh)
        assert entries and entries == expected_match_entries(table)


def test_stage_candidates_count_every_candidate_row(monkeypatch):
    """A match stage's `candidates` is the number of (source, target)
    rows its candidate set holds, summed over sides as the benchmark's
    tracer sums len() over CandidateSet.lists."""
    counted = []

    def counting(build):
        def wrapper(*args, **kwargs):
            cands = build(*args, **kwargs)
            counted.append(sum(len(v) for v in cands.lists.values()))
            assert counted[-1] == sum(
                int(rows.shape[0]) for rows in cands.lists.values())
            return cands
        return wrapper

    for name in ("baseline_candidates", "restricted_candidates",
                 "boundary_candidates"):
        monkeypatch.setattr(matcher, name,
                            counting(getattr(matcher, name)))
    _, report = run_pipeline(generate(FLIP_SPECS["dome_spiral"])[0])
    by_name = {s["name"]: s for s in report["stage_stats"]}
    stages = ("baseline_match", "restricted_match", "boundary_extension",
              "gap_spanning")
    assert counted == [by_name[s]["candidates"] for s in stages]
    assert all(n > 0 for n in counted)


def test_interpolated_fraction_counts_stroke_polylines_only():
    """Crease meshing appends offset chains to the stroke chain set; the
    report's fraction still reads the stroke polylines alone."""
    drawing, _ = generate(FLIP_SPECS["cube_parallel"])
    mesh, report = run_pipeline(drawing,
                                PipelineOptions(preserve_creases=True))
    assert (mesh.origin_kind == KIND_OFFSET).any()
    # stroke vertices, stroke by stroke in polyline order
    stroke = np.flatnonzero(mesh.origin_kind == KIND_STROKE)
    paths = np.split(stroke,
                     np.flatnonzero(np.diff(mesh.origin[stroke, 0])) + 1)
    assert len(paths) == report["strokes_in"] - report[
        "strokes_trimmed_away"]
    edges = mesh.edge_map()
    pairs = [(int(a), int(b)) for p in paths for a, b in zip(p[:-1], p[1:])]
    want = sum(pair in edges for pair in pairs) / len(pairs)
    assert report["interpolated_edge_fraction"] == want


def test_match_dumps_are_built_only_with_a_dump_dir(monkeypatch):
    def no_payload(table):
        raise AssertionError("match payload built without a dump dir")

    monkeypatch.setattr(pipeline, "_match_payload", no_payload)
    _, report = run_pipeline(flat_pair_drawing())
    assert report["triangles"] > 0


def _face_normal_z(mesh):
    """z of each active triangle's unit normal, rounded."""
    z = []
    for t in mesh.active_ids():
        n = geometry.triangle_normals(mesh.positions, mesh.tri_verts[[t]])
        z.append(round(float(geometry.unit_rows_pow(n)[0][0, 2]), 9))
    return z


def _triangle_signature(mesh):
    tris = set()
    for t in mesh.active_ids():
        pts = [tuple(round(float(x), 9) for x in mesh.positions[g])
               for g in mesh.tri_verts[t]]
        tris.add(tuple(sorted(pts)))
    return tris
