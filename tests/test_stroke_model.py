import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokesurf import stroke_model as sm

import oracles
from conftest import line_stroke, make_stroke


def test_straight_stroke_frames():
    s = line_stroke(n=5, normal=(0, 0, 1))
    assert np.allclose(s.tangents, [1, 0, 0])
    # b = t x n
    assert np.allclose(s.binormals, [0, -1, 0])
    assert s.frames_ok.all()


def test_end_tangents_are_one_sided():
    pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0]], dtype=float)
    s = make_stroke(pts)
    assert np.allclose(s.tangents[0], [1, 0, 0])
    assert np.allclose(s.tangents[-1], [0, 1, 0])
    mid = np.array([1, 1, 0]) / np.sqrt(2)
    assert np.allclose(s.tangents[1], mid)


def test_flipping_normal_flips_binormal():
    s = line_stroke()
    f = make_stroke(s.points, normal=(0, 0, -1))
    assert np.allclose(f.binormals, -s.binormals)
    assert (f.frames_ok == s.frames_ok).all()


def test_tangent_parallel_normal_is_degenerate():
    s = line_stroke(normal=(1, 0, 0))
    assert not s.frames_ok.any()


def test_frame_orthogonality_random_walk():
    rng = np.random.default_rng(3)
    pts = np.cumsum(rng.normal(size=(20, 3)), axis=0)
    nrm = rng.normal(size=(20, 3))
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    s = sm.Stroke(pts, nrm, np.full(20, 0.1))
    for i in np.nonzero(s.frames_ok)[0]:
        t, b = s.tangents[i], s.binormals[i]
        assert abs(np.dot(t, b)) < 1e-9
        assert abs(np.linalg.norm(b) - 1.0) < 1e-9


def test_config_validation():
    """Every range error names its config key, the rule and the value."""
    for key, value, rule in [
            ("cone_angle_deg", 0.0, r"in \(0, 180\)"),
            ("trim_fraction", 1.5, r"in \(0, 1\)"),
            ("dominant_freq", 0.0, r"in \(0, 1\]"),
            ("width_factor", -1.0, "positive")]:
        with pytest.raises(sm.ValidationError, match=(
                f"^config key {key} must be {rule}, got {value}$")):
            sm.Config(**{key: value})


@pytest.mark.parametrize("sides", [-1, 0, 2, 5, 8])
def test_config_small_holes_are_triangles_or_quads(sides):
    """Small-hole closure fills triangles and quads only."""
    with pytest.raises(sm.ValidationError, match="small_hole_max_sides"):
        sm.Config(small_hole_max_sides=sides)
    assert [sm.Config(small_hole_max_sides=k).small_hole_max_sides
            for k in (3, 4)] == [3, 4]


def test_config_json_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cone_angle_deg": 45.0, "width_factor": 2.0}))
    cfg = sm.Config.from_json(path)
    assert cfg.cone_angle_deg == 45.0
    assert cfg.width_factor == 2.0
    with pytest.raises(sm.ValidationError):
        path.write_text(json.dumps({"no_such_knob": 1}))
        sm.Config.from_json(path)


# ---------------------------------------------------------------------------
# parsing


def drawing_dict():
    return {
        "strokes": [
            {
                "vertices": [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
                "normals": [[0, 0, 1]] * 3,
                "width": 0.2,
                "color": [0.5, 0.5, 0.5],
                "timestamps": [0.0, 0.1, 0.2],
            }
        ]
    }


def test_load_drawing_from_dict():
    d = sm.load_drawing(drawing_dict())
    assert len(d.strokes) == 1
    s = d.strokes[0]
    assert s.points.shape == (3, 3)
    assert np.allclose(s.widths, 0.2)
    assert s.timestamps is not None


def test_load_drawing_scalar_or_vector_width():
    data = drawing_dict()
    data["strokes"][0]["width"] = [0.1, 0.2, 0.3]
    d = sm.load_drawing(data)
    assert np.allclose(d.strokes[0].widths, [0.1, 0.2, 0.3])


def test_load_drawing_normalizes_normals():
    data = drawing_dict()
    data["strokes"][0]["normals"] = [[0, 0, 5]] * 3
    d = sm.load_drawing(data)
    assert np.allclose(d.strokes[0].normals, [0, 0, 1])


def test_load_drawing_drops_duplicate_vertices():
    data = drawing_dict()
    data["strokes"][0]["vertices"] = [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
    d = sm.load_drawing(data)
    assert len(d.strokes[0]) == 2


def test_load_drawing_drops_degenerate_strokes():
    data = drawing_dict()
    data["strokes"].append({
        "vertices": [[5, 5, 5], [5, 5, 5]],
        "normals": [[0, 0, 1]] * 2,
        "width": 0.1,
    })
    d = sm.load_drawing(data)
    assert len(d.strokes) == 1
    assert d.dropped_strokes == 1


@pytest.mark.parametrize("mutate", [
    lambda d: d["strokes"][0].pop("normals"),
    lambda d: d["strokes"][0].__setitem__("width", -1),
    lambda d: d["strokes"][0].__setitem__("vertices", [[0, 0], [1, 1]]),
    lambda d: d["strokes"][0].__setitem__(
        "normals", [[0, 0, 1], [0, 0, 1]]),
    lambda d: d["strokes"][0].__setitem__(
        "vertices", [[0, 0, 0], [1, 0, float("nan")], [2, 0, 0]]),
    lambda d: d.__setitem__("strokes", []),
    lambda d: d["strokes"][0].__setitem__("color", [float("nan"), 0, 0]),
    lambda d: d["strokes"][0].__setitem__(
        "timestamps", [0.0, float("inf"), 2.0]),
])
def test_load_drawing_validation_errors(mutate):
    data = drawing_dict()
    mutate(data)
    with pytest.raises(sm.ValidationError):
        sm.load_drawing(data)


def test_load_drawing_bad_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"strokes": [\n  {"vertices": }\n]}')
    with pytest.raises(sm.StrokeFormatError) as err:
        sm.load_drawing(str(path))
    assert "line 2" in str(err.value)


def test_save_load_round_trip(tmp_path):
    d = sm.load_drawing(drawing_dict())
    path = tmp_path / "out.json"
    sm.save_drawing(d, path)
    d2 = sm.load_drawing(str(path))
    assert np.array_equal(d.strokes[0].points, d2.strokes[0].points)
    assert np.array_equal(d.strokes[0].normals, d2.strokes[0].normals)
    assert np.array_equal(d.strokes[0].widths, d2.strokes[0].widths)
    assert np.array_equal(d.strokes[0].timestamps, d2.strokes[0].timestamps)


# ---------------------------------------------------------------------------
# hook trimming


def hooked_points():
    """Straight run with a tight fold-back hook on the front end."""
    body = np.stack([np.linspace(0.0, 2.0, 21), np.zeros(21),
                     np.zeros(21)], axis=1)
    hook = np.array([[0.08, 0.02, 0.0]])
    return np.concatenate([hook, body])


def test_trim_removes_front_hook(config):
    # the fold vertex goes with the hook, so two points disappear
    s = make_stroke(hooked_points(), width=0.1)
    t = sm.trim_hooks(s, config)
    assert t is not None
    assert len(t) == 20
    assert np.allclose(t.points[0], [0.1, 0, 0])


def test_trim_removes_back_hook(config):
    pts = hooked_points()[::-1].copy()
    s = make_stroke(pts, width=0.1)
    t = sm.trim_hooks(s, config)
    assert len(t) == 20
    assert np.allclose(t.points[-1], [0.1, 0, 0])


def test_trim_leaves_clean_stroke_alone(config):
    s = line_stroke(n=12)
    t = sm.trim_hooks(s, config)
    assert np.array_equal(t.points, s.points)


def test_trim_ignores_folds_outside_window(config):
    # a sharp fold in the middle of the stroke is content, not a hook
    pts = np.array([[x, 0, 0] for x in np.linspace(0, 1, 11)]
                   + [[1 - x, 0.01, 0] for x in np.linspace(0.1, 1, 10)])
    s = make_stroke(pts, width=0.1)
    t = sm.trim_hooks(s, config)
    assert len(t) == len(pts)


def test_trim_is_idempotent(config):
    s = make_stroke(hooked_points(), width=0.1)
    once = sm.trim_hooks(s, config)
    twice = sm.trim_hooks(once, config)
    assert np.array_equal(once.points, twice.points)


# ---------------------------------------------------------------------------
# ribbons and ordering


def test_ribbon_geometry_offsets_half_width():
    s = line_stroke(n=4, width=0.2)
    corners, tris, _ = sm.ribbon_geometry(s)
    assert len(corners) == 8
    assert len(tris) == 6
    ys = np.unique(np.round(corners[:, 1], 12))
    assert np.allclose(sorted(ys), [-0.1, 0.1])


def test_ribbon_geometry_skips_degenerate_frames():
    s = line_stroke(n=4, normal=(1, 0, 0))
    corners, tris, _ = sm.ribbon_geometry(s)
    assert len(tris) == 0


def test_ribbon_geometry_matches_the_segment_loop():
    """The array ribbon equals the segment-by-segment reference bit for
    bit: corners, triangles and corner vertices, on random strokes whose
    frames are degenerate here and there, whose quads are often exact
    rectangles (diagonals of equal length) and which can lose every
    segment."""
    rng = np.random.default_rng(3)
    cases = Counter()
    for _ in range(3000):
        n = int(rng.integers(2, 9))
        if rng.random() < 0.3:      # a straight ribbon of one width
            pts = np.outer(np.arange(n), rng.normal(size=3))
            normals = np.tile(rng.normal(size=3), (n, 1))
            widths = np.full(n, rng.uniform(0.01, 1.0))
        else:
            pts = rng.normal(size=(n, 3)).cumsum(axis=0)
            normals = rng.normal(size=(n, 3))
            widths = rng.uniform(0.01, 1.0, n)
        # a normal along the tangent leaves its vertex no frame
        bad = rng.random(n) < 0.2
        normals[bad] = np.gradient(pts, axis=0)[bad]
        stroke = sm.Stroke(pts, normals, widths)
        want = oracles.ribbon_geometry(stroke)
        got = sm.ribbon_geometry(stroke)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        cases["no_frame"] += not stroke.frames_ok.all()
        cases["empty"] += len(got[1]) == 0
        cases["partial"] += 0 < len(got[1]) < 2 * (n - 1)
    assert min(cases.values()) > 50, cases


def test_canonical_order_ignores_input_order():
    a = line_stroke(y=0.0)
    b = line_stroke(y=0.1)
    d1 = sm.canonical_stroke_order(sm.Drawing(strokes=[a, b]))
    d2 = sm.canonical_stroke_order(sm.Drawing(strokes=[b, a]))
    for s1, s2 in zip(d1.strokes, d2.strokes):
        assert np.array_equal(s1.points, s2.points)


def test_canonical_order_ignores_normal_flips():
    a = line_stroke(y=0.0)
    b = line_stroke(y=0.1)
    flipped = sm.Stroke(a.points, -a.normals, a.widths, a.color)
    d1 = sm.canonical_stroke_order(sm.Drawing(strokes=[a, b]))
    d2 = sm.canonical_stroke_order(sm.Drawing(strokes=[flipped, b]))
    for s1, s2 in zip(d1.strokes, d2.strokes):
        assert np.array_equal(s1.points, s2.points)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_interior_angles_bounds(seed):
    rng = np.random.default_rng(seed)
    pts = np.cumsum(rng.normal(size=(8, 3)), axis=0)
    ang = sm.interior_angles_deg(pts)
    assert ang.shape == (8,)
    assert ang[0] == 180.0 and ang[-1] == 180.0
    assert ((ang >= 0.0) & (ang <= 180.0)).all()
