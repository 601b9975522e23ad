"""Child process of the benchmark: makes a workload's inputs, or surfaces
and scores them through the in-process CLI.

    python3 perfbench/worker.py gen --workload W --seed N --dir D
    python3 perfbench/worker.py run --workload W --dir D --seconds S --trace T

`gen` writes D/drawing.json, D/truth.obj and D/gen.json. `run` writes
D/run.json with one sample per CLI call (wall seconds and, without
tracing, reference seconds from speed.py), the process's peak RSS and,
with --trace 1, the per-layer metrics of one traced surface+eval pair.
It needs `strokesurf` importable (run.py puts the checkout's src/ on
PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import speed
import workloads
from tracer import Tracer

# stage names a report may contain, in pipeline order
STAGES = ["baseline_match", "restricted_match", "strip_meshing",
          "strip_consolidation", "boundary_extension",
          "extension_consolidation", "small_holes", "boundary_smoothing",
          "gap_spanning", "gap_consolidation", "orientation", "ribbons",
          "hole_filling", "smoothing"]

# modules whose spans make up the surface path, in pipeline order
SURFACE_LAYERS = ["stroke_model", "matcher", "mesher", "consolidate",
                  "geometry", "mesh_ops", "pipeline"]


def generate_inputs(workload, seed, out_dir):
    """Write the placed drawing and the placed truth surface as OBJ."""
    import strokesurf
    from strokesurf import mesh_ops

    spec = strokesurf.SyntheticSpec(**workloads.synthetic_spec(workload))
    drawing, truth = strokesurf.generate(spec)
    placed = workloads.place_drawing(strokesurf, drawing, seed)
    strokesurf.save_drawing(placed, out_dir / "drawing.json")
    positions, faces = truth.to_mesh()
    ref = mesh_ops.mesh_from_arrays(
        workloads.place_points(positions, seed), faces)
    mesh_ops.export_obj(ref, out_dir / "truth.obj")
    return {"strokes": len(placed.strokes),
            "vertices": placed.vertex_count()}


class Session:
    """Runs the CLI surface and eval paths in this process. With a
    `Speedometer`, every call is also timed in reference seconds."""

    def __init__(self, workload, work_dir, speedometer=None):
        from strokesurf import cli
        self.cli = cli
        self.speedometer = speedometer
        d = Path(work_dir)
        self.obj = d / "out.obj"
        self.report = d / "report.json"
        self.eval_report = d / "eval.json"
        self.surface_argv = (
            ["--input", str(d / "drawing.json"), "--output", str(self.obj),
             "--report", str(self.report)]
            + workloads.WORKLOADS[workload]["flags"])
        self.eval_argv = ["eval", "--mesh", str(self.obj),
                          "--truth", str(d / "truth.obj"),
                          "--drawing", str(d / "drawing.json"),
                          "--report", str(self.eval_report)]

    def _call(self, kind, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            if self.speedometer is None:
                t0 = time.perf_counter()
                code = self.cli.cli_main(argv)
                return {"kind": kind, "exit": code,
                        "seconds": time.perf_counter() - t0}
            code, wall, ref = self.speedometer.timed(
                lambda: self.cli.cli_main(argv))
            return {"kind": kind, "exit": code, "seconds": wall,
                    "ref_seconds": ref}

    def surface(self):
        """Surface the drawing once; timing plus what the checks use."""
        for path in (self.obj, self.report):
            path.unlink(missing_ok=True)
        out = self._call("surface", self.surface_argv)
        out["obj_sha256"] = None
        if self.obj.exists():
            out["obj_sha256"] = hashlib.sha256(
                self.obj.read_bytes()).hexdigest()
        if self.report.exists():
            rep = json.loads(self.report.read_text())
            out.update(
                nonmanifold_edges=rep["nonmanifold_edges"],
                nonmanifold_vertices=rep["nonmanifold_vertices"],
                interp_edge_frac=rep["interpolated_edge_fraction"],
                triangles=rep["triangles"],
                stage_s={st["name"]: st["seconds"]
                         for st in rep["stage_stats"]})
        return out

    def evaluate(self):
        """Score the last surfaced OBJ once; timing plus its checks."""
        self.eval_report.unlink(missing_ok=True)
        out = self._call("eval", self.eval_argv)
        if self.eval_report.exists():
            ev = json.loads(self.eval_report.read_text())
            out.update(hausdorff=ev["hausdorff"],
                       nonmanifold_edges=ev["nonmanifold_edges"],
                       nonmanifold_vertices=ev["nonmanifold_vertices"])
        return out


def repeat(step, window):
    """Call step() once, then again while one more call as long as the
    last would still end within `window` seconds of the first start."""
    samples = []
    t0 = time.perf_counter()
    while True:
        started = time.perf_counter()
        samples.append(step())
        done = time.perf_counter()
        if (done - t0) + (done - started) > window:
            return samples


def layer_metrics(surface_trace, eval_trace, surface_sample,
                  untraced_surface_s):
    """Per-layer metrics of one traced surface+eval iteration."""
    metrics = {}
    summary = surface_trace.summary()
    surface_s = summary["bench.surface"]["total_s"]
    for name, st in summary.items():
        if name.startswith("bench."):
            continue
        metrics[f"{name}.s"] = st["self_s"]
        metrics[f"{name}.calls"] = st["calls"]
    metrics.update(surface_trace.counts)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["mesher.SurfaceMesh.add_triangle.useful_ratio"] = ratio(
        metrics["mesher.triangles_added.count"],
        metrics["mesher.SurfaceMesh.add_triangle.calls"])
    metrics["consolidate.pairs.useful_ratio"] = ratio(
        metrics["consolidate.pairs.count"],
        metrics["consolidate.incompatible.calls"])
    metrics["pipeline.run_pipeline.self_s"] = \
        summary["pipeline.run_pipeline"]["self_s"]
    stage_s = surface_sample.get("stage_s", {})
    for stage in STAGES + sorted(set(stage_s) - set(STAGES)):
        metrics[f"pipeline.stage.{stage}.s"] = stage_s.get(stage, 0.0)

    accounted = 0.0
    for layer in SURFACE_LAYERS:
        self_s = sum(st["self_s"] for name, st in summary.items()
                     if name.startswith(layer + "."))
        accounted += self_s
        metrics[f"layer.{layer}.self_s"] = self_s
        metrics[f"layer.{layer}.share"] = ratio(self_s, surface_s)

    eval_summary = eval_trace.summary()
    eval_s = eval_summary["bench.eval"]["total_s"]
    synth_self = 0.0
    for name, st in eval_summary.items():
        if name.startswith("synth_eval."):
            metrics[f"{name}.s"] = st["self_s"]
            metrics[f"{name}.calls"] = st["calls"]
            synth_self += st["self_s"]
    metrics["layer.synth_eval.self_s"] = synth_self
    metrics["layer.synth_eval.share"] = ratio(synth_self, eval_s)

    metrics.update({
        "trace.surface_s": surface_s,
        "trace.untraced_surface_s": untraced_surface_s,
        "trace.overhead_s": surface_s - untraced_surface_s,
        "trace.eval_s": eval_s,
        "trace.spans": len(surface_trace) + len(eval_trace),
        "trace.cli_self_s": summary["bench.surface"]["self_s"],
        "trace.accounted_share": ratio(accounted, surface_s),
    })
    return metrics


def traced_iteration(session, tracer):
    """One surface and one eval call under `tracer`; the wrappers are
    removed again before this returns, even when a call fails."""
    tracer.install()
    try:
        with tracer.span("bench.surface"):
            surface = session.surface()
        surface_trace = tracer.take()
        with tracer.span("bench.eval"):
            evaluation = session.evaluate()
        eval_trace = tracer.take()
    finally:
        tracer.restore()
    return surface, evaluation, surface_trace, eval_trace


def run(workload, work_dir, seconds, trace):
    """With trace 0, surface for about half of `seconds` and then score
    for the rest, but for at least half of it, timing each call in wall
    and reference seconds; with trace 1, one plain and one traced
    surface+eval pair, in wall seconds only (the speed probes would run
    inside the traced spans)."""
    import numpy
    import scipy

    session = Session(workload, work_dir,
                      None if trace else speed.Speedometer())
    result = {"versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if trace:
        samples = [session.surface(), session.evaluate()]
        tracer = Tracer()
        surface, evaluation, surface_trace, eval_trace = \
            traced_iteration(session, tracer)
        samples += [dict(surface, traced=True), dict(evaluation, traced=True)]
        result["missing_targets"] = tracer.missing
        result["layer_metrics"] = layer_metrics(
            surface_trace, eval_trace, surface, samples[0]["seconds"])
        surface_trace.save(Path(work_dir) / "spans_surface.npz")
        eval_trace.save(Path(work_dir) / "spans_eval.npz")
    else:
        t0 = time.perf_counter()
        samples = repeat(session.surface, seconds / 2)
        left = seconds - (time.perf_counter() - t0)
        samples += repeat(session.evaluate, max(left, seconds / 2))
    result["samples"] = samples
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv=None):
    p = argparse.ArgumentParser(prog="worker.py")
    p.add_argument("role", choices=["gen", "run"])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = p.parse_args(argv)
    work_dir = Path(ns.dir)
    if ns.role == "gen":
        out = generate_inputs(ns.workload, ns.seed, work_dir)
    else:
        out = run(ns.workload, work_dir, ns.seconds, ns.trace)
    (work_dir / f"{ns.role}.json").write_text(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
