"""Tests of the benchmark itself: tracing must not change the output,
must put every wrapped attribute back, and BENCHMARK.json must be
well-formed and fully measured.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

import strokesurf  # noqa: E402
from strokesurf import mesh_ops, mesher, synth_eval  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _package_state():
    """Every attribute of every strokesurf module and traced class."""
    mods = {k: m for k, m in sys.modules.items()
            if k == "strokesurf" or k.startswith("strokesurf.")}
    state = {(k, a): v for k, m in mods.items() for a, v in vars(m).items()}
    for cls in (mesher.SurfaceMesh, synth_eval.GroundTruthSurface):
        state.update({(cls.__name__, a): v for a, v in vars(cls).items()})
    return state


@pytest.fixture
def flat_pair_dir(tmp_path):
    """Two parallel strokes 0.1 apart, the truth plane under them, and
    an empty output directory, as the worker expects them."""
    xs = np.linspace(0.0, 0.9, 10)
    strokes = []
    for y in (0.0, 0.1):
        pts = np.stack([xs, np.full(10, y), np.zeros(10)], axis=1)
        strokes.append(strokesurf.Stroke(pts, np.tile([0.0, 0.0, 1.0],
                                                      (10, 1)),
                                         np.full(10, 0.12)))
    strokesurf.save_drawing(strokesurf.Drawing(strokes=strokes),
                            tmp_path / "drawing.json")
    plane = np.array([[-0.1, -0.1, 0], [1.0, -0.1, 0], [1.0, 0.2, 0],
                      [-0.1, 0.2, 0]], dtype=float)
    truth = mesh_ops.mesh_from_arrays(plane, [(0, 1, 2), (0, 2, 3)])
    mesh_ops.export_obj(truth, tmp_path / "truth.obj")
    return tmp_path


def test_traced_run_matches_plain_run_and_restores(flat_pair_dir):
    session = worker.Session("sphere-dense", flat_pair_dir)  # no flags
    plain = [session.surface(), session.evaluate()]
    before = _package_state()

    tracer = Tracer()
    *traced, surface_trace, eval_trace = worker.traced_iteration(session,
                                                                 tracer)

    assert tracer.missing == []
    after = _package_state()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []

    sha = plain[0]["obj_sha256"]
    for sample in plain + traced:
        assert sample["exit"] == 0
        assert run.check_sample(sample, sha) == []
    assert traced[0]["obj_sha256"] == sha
    assert traced[1]["hausdorff"] == plain[1]["hausdorff"]

    summary = surface_trace.summary()
    # cli and pipeline call their own `from ... import` bindings
    assert summary["pipeline.run_pipeline"]["calls"] == 1
    assert summary["stroke_model.trim_hooks"]["calls"] == 2
    assert summary["stroke_model.load_drawing"]["calls"] == 1
    counts = surface_trace.counts
    assert 18 <= counts["mesher.triangles_added.count"] \
        <= summary["mesher.SurfaceMesh.add_triangle"]["calls"]
    assert eval_trace.summary()["synth_eval.evaluate"]["calls"] == 1

    # self times partition the root span exactly
    root = summary["bench.surface"]["total_s"]
    assert sum(s["self_s"] for s in summary.values()) == \
        pytest.approx(root, rel=1e-9)

    metrics = worker.layer_metrics(surface_trace, eval_trace, traced[0],
                                   plain[0]["seconds"])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]
            if m["name"] not in metrics] == []
    assert metrics["trace.accounted_share"] == pytest.approx(1.0, abs=0.05)


def test_missing_target_is_skipped_and_reads_zero():
    tracer = Tracer(targets=[("mesher", "no_such_function"),
                             ("mesher", "SurfaceMesh.no_such_method")])
    tracer.install()
    tracer.restore()
    assert tracer.missing == ["mesher.no_such_function",
                              "mesher.SurfaceMesh.no_such_method"]
    assert tracer.take().summary()["mesher.no_such_function"]["calls"] == 0


def test_failed_checks_are_reported():
    surface = {"kind": "surface", "exit": 0, "obj_sha256": "a",
               "nonmanifold_edges": 0, "nonmanifold_vertices": 0}
    evaluation = {"kind": "eval", "exit": 0, "hausdorff": 0.1,
                  "nonmanifold_edges": 0, "nonmanifold_vertices": 0}
    assert run.check_sample(surface, "a") == []
    assert run.check_sample(evaluation, "a") == []
    assert run.check_sample(dict(surface, exit=3), "a")
    assert run.check_sample(dict(surface, nonmanifold_vertices=1), "a")
    assert run.check_sample(dict(surface, obj_sha256="b"), "a")
    assert run.check_sample(dict(surface, obj_sha256=None), None)
    assert run.check_sample(dict(evaluation, exit=2), "a")
    del evaluation["hausdorff"]
    assert run.check_sample(evaluation, "a")


def test_reference_seconds_rescale_by_probe_speed():
    ref = speed.REF_S
    assert speed.reference_seconds(2.0, [ref, ref]) == pytest.approx(2.0)
    # on a host running at half speed the same work reads the same
    assert speed.reference_seconds(4.0, [2 * ref] * 3) == pytest.approx(2.0)


def test_speedometer_probes_during_the_call_and_restores_the_timer():
    import signal

    handler = signal.getsignal(signal.SIGALRM)
    meter = speed.Speedometer(every=0.05)
    result, wall, ref = meter.timed(lambda: sum(range(5_000_000)))
    assert result == sum(range(5_000_000))
    assert meter.inside and ref > 0
    # the timed probes sit inside the call and are not counted as its work
    busy = sum(spent for _, spent, _ in meter.inside)
    assert busy < wall
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_is_well_formed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in bench["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in bench[group]]
    assert len(names) == len(set(names))
    assert [n for n in names if not NAME.fullmatch(n)] == []
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_placement_is_rigid_and_seeded():
    rot, shift, order = workloads.placement(0)
    assert np.array_equal(rot, np.eye(3)) and not shift.any()
    assert order is None
    rot, shift, _ = workloads.placement(7)
    assert np.allclose(rot @ rot.T, np.eye(3))
    assert np.linalg.det(rot) == pytest.approx(1.0)
    pts = np.random.default_rng(0).normal(size=(5, 3))
    assert np.array_equal(workloads.place_points(pts, 7),
                          workloads.place_points(pts, 7))
    assert not np.allclose(workloads.place_points(pts, 7),
                           workloads.place_points(pts, 8))
