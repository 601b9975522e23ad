"""CLI: synth -> surface -> eval round trip, exit codes, artifacts."""

import json

import numpy as np
import pytest

from strokesurf import mesh_ops
from strokesurf.cli import cli_main
from strokesurf.stroke_model import Drawing, save_drawing

from conftest import line_stroke


@pytest.fixture
def spec_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "surface": "sphere", "pattern": "parallel", "strokes": 16,
        "width": 0.15, "spacing": 0.1, "noise": 0.0,
        "normal_noise_deg": 0.0, "flip_probability": 0.0, "seed": 21,
    }))
    return path


def test_synth_surface_eval_round_trip(tmp_path, spec_json, capsys):
    drawing = tmp_path / "drawing.json"
    truth = tmp_path / "truth.obj"
    out = tmp_path / "mesh.obj"
    report = tmp_path / "report.json"

    assert cli_main(["synth", "--spec", str(spec_json),
                     "--out", str(drawing), "--truth", str(truth)]) == 0
    assert drawing.exists() and truth.exists()

    assert cli_main(["--input", str(drawing), "--output", str(out),
                     "--report", str(report)]) == 0
    assert out.exists()
    run_report = json.loads(report.read_text())
    assert run_report["nonmanifold_edges"] == 0
    assert run_report["nonmanifold_vertices"] == 0
    assert run_report["interpolated_edge_fraction"] >= 0.95

    eval_report = tmp_path / "eval.json"
    assert cli_main(["eval", "--mesh", str(out), "--truth", str(truth),
                     "--drawing", str(drawing),
                     "--report", str(eval_report)]) == 0
    scored = json.loads(eval_report.read_text())
    assert scored["nonmanifold_edges"] == 0
    assert scored["hausdorff"] <= 0.15
    assert scored["interpolated_edge_fraction"] >= 0.95
    assert capsys.readouterr().out.count("triangles") == 1


def test_eval_without_report_prints_json(tmp_path, spec_json, capsys):
    drawing = tmp_path / "drawing.json"
    truth = tmp_path / "truth.obj"
    out = tmp_path / "mesh.obj"
    cli_main(["synth", "--spec", str(spec_json), "--out", str(drawing),
              "--truth", str(truth)])
    cli_main(["--input", str(drawing), "--output", str(out)])
    capsys.readouterr()
    assert cli_main(["eval", "--mesh", str(out),
                     "--truth", str(truth)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["interpolated_edge_fraction"] is None


def test_surface_output_is_byte_identical(tmp_path):
    drawing = tmp_path / "d.json"
    save_drawing(Drawing(strokes=[line_stroke(y=0.0),
                                  line_stroke(y=0.1)]), drawing)
    out1, out2 = tmp_path / "a.obj", tmp_path / "b.obj"
    assert cli_main(["--input", str(drawing), "--output", str(out1)]) == 0
    assert cli_main(["--input", str(drawing), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_override(tmp_path, capsys):
    drawing = tmp_path / "d.json"
    save_drawing(Drawing(strokes=[line_stroke(y=0.0),
                                  line_stroke(y=0.1)]), drawing)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"width_factor": 0.01}))
    out = tmp_path / "m.obj"
    # a tiny matching radius keeps the rails apart: ribbons only
    assert cli_main(["--input", str(drawing), "--output", str(out),
                     "--config", str(cfg)]) == 0
    assert "2 components" in capsys.readouterr().out


def test_dump_stages_flag(tmp_path, capsys):
    drawing = tmp_path / "d.json"
    save_drawing(Drawing(strokes=[line_stroke(y=0.0),
                                  line_stroke(y=0.1)]), drawing)
    dump = tmp_path / "stages"
    out = tmp_path / "m.obj"
    assert cli_main(["--input", str(drawing), "--output", str(out),
                     "--dump-stages", str(dump)]) == 0
    assert any(p.suffix == ".obj" for p in dump.iterdir())


def test_usage_error_exit_code(capsys):
    assert cli_main(["--input", "only.json"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_input_exit_code(tmp_path, capsys):
    out = tmp_path / "m.obj"
    code = cli_main(["--input", str(tmp_path / "nope.json"),
                     "--output", str(out)])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_corrupt_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    out = tmp_path / "m.obj"
    assert cli_main(["--input", str(bad), "--output", str(out)]) == 2
    assert "input error" in capsys.readouterr().err


def test_bad_spec_field_exit_code(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"surface": "sphere", "bogus": 1}))
    assert cli_main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "d.json")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_corrupt_spec_names_its_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"surface": "sphere", }')
    assert cli_main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "d.json")]) == 2
    err = capsys.readouterr().err
    assert f"input error: {spec}: invalid JSON at line 1" in err


@pytest.mark.parametrize("key, value, what", [
    ("color", [float("nan"), 0.0, 0.0], "color"),
    ("timestamps", [0.0, float("inf")], "timestamps")])
def test_non_finite_stroke_field_exit_code(tmp_path, capsys, key, value,
                                           what):
    path = tmp_path / "d.json"
    save_drawing(Drawing(strokes=[line_stroke(y=0.0, n=2),
                                  line_stroke(y=0.1, n=2)]), path)
    doc = json.loads(path.read_text())
    doc["strokes"][1][key] = value
    path.write_text(json.dumps(doc))
    assert cli_main(["--input", str(path),
                     "--output", str(tmp_path / "m.obj")]) == 2
    assert (f"input error: stroke 1: non-finite {what}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key, value", [
    ("width", {}), ("color", "red"), ("color", {"r": 1}),
    ("timestamps", ["0", "late"])])
def test_unreadable_stroke_field_exit_code(tmp_path, capsys, key, value):
    """A stroke field numpy cannot read as floats is an input error that
    names the stroke and the field."""
    path = tmp_path / "d.json"
    save_drawing(Drawing(strokes=[line_stroke(y=0.0, n=2),
                                  line_stroke(y=0.1, n=2)]), path)
    doc = json.loads(path.read_text())
    doc["strokes"][1][key] = value
    path.write_text(json.dumps(doc))
    assert cli_main(["--input", str(path),
                     "--output", str(tmp_path / "m.obj")]) == 2
    assert (f"input error: stroke 1: bad {key}: "
            in capsys.readouterr().err)


@pytest.mark.parametrize("doc", [
    {"width_factor": "x"}, [[1]], 3, None, {"small_hole_max_sides": 4.5},
    {"cone_angle_deg": True}, {"dihedral_min_deg": [45]},
    {"width_factor": float("nan")}, {"width_factor": float("inf")},
    {"small_hole_max_sides": 5}, {"width_factor": -1.0},
    {"crease_angle_deg": 180.0}])
def test_bad_config_document_exit_code(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["--input", str(tmp_path / "d.json"),
                     "--output", str(tmp_path / "m.obj"),
                     "--config", str(cfg)]) == 2
    assert "input error: config" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"strokes": "x"}, ["sphere"], "sphere", {"seed": 1.5},
    {"surface": 3}, {"width": None}, {"strokes": False},
    {"width": float("nan")}, {"noise": float("-inf")}])
def test_bad_spec_document_exit_code(tmp_path, capsys, doc):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert cli_main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "d.json")]) == 2
    assert "input error: spec" in capsys.readouterr().err


def test_eval_rejects_empty_mesh(tmp_path, capsys):
    empty = tmp_path / "empty.obj"
    empty.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
    assert cli_main(["eval", "--mesh", str(empty),
                     "--truth", str(empty)]) == 2
    assert "no faces" in capsys.readouterr().err


@pytest.mark.parametrize("face", ["f 1 2 0", "f 1 2 5", "f 1 2 -5",
                                  "f 1 2 4"])
@pytest.mark.parametrize("role", ["--mesh", "--truth"])
def test_eval_rejects_face_index_out_of_range(tmp_path, capsys, face, role):
    good = tmp_path / "good.obj"
    good.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    bad = tmp_path / "bad.obj"
    bad.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\n")
    files = {"--mesh": good, "--truth": good, role: bad}
    assert cli_main(["eval", "--mesh", str(files["--mesh"]),
                     "--truth", str(files["--truth"])]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and f"{bad}:4:" in err


@pytest.mark.parametrize("vertex", ["v 0 x 0", "v 0 0", "v 0 0 1e400z"])
@pytest.mark.parametrize("role", ["--mesh", "--truth"])
def test_eval_rejects_a_bad_vertex_line(tmp_path, capsys, vertex, role):
    good = tmp_path / "good.obj"
    good.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    bad = tmp_path / "bad.obj"
    bad.write_text(f"v 0 0 0\nv 1 0 0\n{vertex}\nf 1 2 3\n")
    files = {"--mesh": good, "--truth": good, role: bad}
    assert cli_main(["eval", "--mesh", str(files["--mesh"]),
                     "--truth", str(files["--truth"])]) == 2
    assert "input error" in capsys.readouterr().err


def test_load_obj_resolves_negative_indices(tmp_path):
    path = tmp_path / "m.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
                    "v 1 1 0\nf 2 4 -2\n")
    _, faces, _ = mesh_ops.load_obj(path)
    assert faces == [(0, 1, 2), (1, 3, 2)]
