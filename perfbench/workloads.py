"""The benchmark's drawings and how a seed places them.

Each workload is one synthetic drawing from `synth_eval.generate`, with
the noise realization fixed at the corpus seed used by
`tests/test_acceptance.py`: on noisy spirals the run time depends
strongly on that realization (the 14-stroke dome/spiral 0.25 cell takes
about 33 s with seed 112 and about 48 s with seed 114), so it is part of
the workload's definition. `spiral-noisy` is that cell drawn with 12
strokes instead of 14: at about 15 s a run, 80% of it in strip
consolidation, it keeps the cell's profile at half the cost.

The benchmark's `--seed` picks a rigid motion and a stroke order for the
drawing, which the surfacing must not depend on; seed 0 keeps the corpus
drawing exactly as generated.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = {
    "sphere-dense": {
        "spec": {"surface": "sphere", "pattern": "parallel", "strokes": 100,
                 "width": 0.05, "spacing": 0.078, "noise_frac": 0.15,
                 "normal_noise_deg": 4.0, "flip_probability": 1 / 3,
                 "seed": 42},
        "flags": [],
    },
    "spiral-noisy": {
        "spec": {"surface": "dome", "pattern": "spiral", "strokes": 12,
                 "width": 0.15, "spacing": 0.06, "noise_frac": 0.25,
                 "normal_noise_deg": 6.0, "flip_probability": 1 / 3,
                 "seed": 112},
        "flags": [],
    },
    "cube-crease": {
        "spec": {"surface": "cube", "pattern": "parallel", "strokes": 12,
                 "width": 0.18, "spacing": 0.07, "noise_frac": 0.125,
                 "normal_noise_deg": 4.0, "flip_probability": 1 / 3,
                 "seed": 114},
        "flags": ["--preserve-creases", "--close-holes", "8",
                  "--smooth", "3"],
    },
}


# layer -> the end-to-end metrics its per-layer metrics should move, and
# on which workloads; written down before measuring, kept with each run
LAYER_MOVES = {
    "stroke_model": "surface_s, slightly, on every workload (control)",
    "matcher": "surface_s on sphere-dense; no change on spiral-noisy",
    "mesher": "surface_s and peak_rss_mb on sphere-dense and cube-crease",
    "consolidate": "surface_s and peak_rss_mb on spiral-noisy; little on "
                   "sphere-dense",
    "geometry": "surface_s on spiral-noisy",
    "mesh_ops": "surface_s on sphere-dense (audit, fans); hole filling and "
                "smoothing only on cube-crease",
    "pipeline": "surface_s on every workload",
    "synth_eval": "eval_s on every workload; never surface_s",
}


def synthetic_spec(workload):
    """`SyntheticSpec` keyword arguments; noise is relative to width as in
    the acceptance corpus."""
    spec = dict(WORKLOADS[workload]["spec"])
    spec["noise"] = spec.pop("noise_frac") * spec["width"]
    return spec


def placement(seed):
    """Rotation matrix, translation and stroke-order generator for a
    seed. Seed 0 is the identity placement in the generated order."""
    rng = np.random.default_rng(seed)
    if seed == 0:
        return np.eye(3), np.zeros(3), None
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, rng.uniform(-1.0, 1.0, size=3), rng


def place_drawing(strokesurf, drawing, seed):
    """The drawing moved rigidly and with its strokes reordered."""
    rot, shift, rng = placement(seed)
    strokes = [strokesurf.Stroke(s.points @ rot.T + shift, s.normals @ rot.T,
                                 s.widths, s.color, s.timestamps)
               for s in drawing.strokes]
    if rng is not None:
        strokes = [strokes[i] for i in rng.permutation(len(strokes))]
    return strokesurf.Drawing(strokes=strokes,
                              dropped_strokes=drawing.dropped_strokes)


def place_points(points, seed):
    rot, shift, _ = placement(seed)
    return np.asarray(points, dtype=np.float64) @ rot.T + shift
