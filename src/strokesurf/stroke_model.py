"""Stroke data model: input parsing, per-vertex frames, hook trimming.

A drawing is a list of ribbon strokes. Each stroke carries a polyline
spine, a unit normal per vertex (the ribbon's facing direction as
drawn) and a half-ribbon width per vertex. The local frame at a vertex
combines the polyline tangent with the drawn normal; its binormal spans
the ribbon plane and is the axis along which neighbor strokes are
probed during matching.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import geometry
from .geometry import EPS_DEGENERATE


class StrokeFormatError(ValueError):
    """Raised when an input file cannot be parsed at all."""


class ValidationError(ValueError):
    """Raised when parsed input violates the drawing contract."""


_JSON_TYPES = {"float": (int, float), "int": (int,), "str": (str,)}


def read_json(path):
    """The parsed JSON document at path; StrokeFormatError, naming the
    path and the position, when it is no JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise StrokeFormatError(
                f"{path}: invalid JSON at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc


def json_fields(cls, data, what):
    """The keyword arguments for dataclass cls that a parsed JSON
    document holds: an object whose keys name fields of cls, each with
    a finite value of the field's type (a float field takes integers
    too). Raises ValidationError otherwise; `what` names the document."""
    if not isinstance(data, dict):
        raise ValidationError(
            f"{what} must be a JSON object, got {type(data).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ValidationError(f"unknown {what} keys: {sorted(unknown)}")
    for name, value in data.items():
        if (isinstance(value, bool)
                or not isinstance(value, _JSON_TYPES[types[name]])
                or isinstance(value, float) and not math.isfinite(value)):
            raise ValidationError(
                f"{what} key {name} must be a JSON {types[name]}, "
                f"got {value!r}")
    return data


@dataclass
class Config:
    """Tunable pipeline parameters. Defaults follow the reference setup."""

    trim_angle_deg: float = 45.0
    trim_fraction: float = 0.15
    width_factor: float = 1.5
    cone_angle_deg: float = 60.0
    boundary_cone_angle_deg: float = 80.0
    dominant_freq: float = 0.30
    dihedral_min_deg: float = 45.0
    incompatible_weight: float = -30.0
    compatible_weight: float = 1.0
    smoothing_normal_guard_deg: float = 45.0
    small_hole_max_sides: int = 4
    crease_angle_deg: float = 90.0

    def __post_init__(self):
        for name in ("trim_angle_deg", "cone_angle_deg",
                     "boundary_cone_angle_deg", "dihedral_min_deg",
                     "smoothing_normal_guard_deg", "crease_angle_deg"):
            if not (0.0 < getattr(self, name) < 180.0):
                self._reject(name, "in (0, 180)")
        if not (0.0 < self.trim_fraction < 1.0):
            self._reject("trim_fraction", "in (0, 1)")
        if not (0.0 < self.dominant_freq <= 1.0):
            self._reject("dominant_freq", "in (0, 1]")
        if self.width_factor <= 0.0:
            self._reject("width_factor", "positive")
        if self.small_hole_max_sides not in (3, 4):   # triangles, quads
            self._reject("small_hole_max_sides", "3 or 4")

    def _reject(self, name, rule):
        raise ValidationError(f"config key {name} must be {rule}, "
                              f"got {getattr(self, name)}")

    @classmethod
    def from_json(cls, path):
        return cls(**json_fields(cls, read_json(path), "config"))


@dataclass(frozen=True)
class FrenetFrame:
    """Per-vertex frame: polyline tangent, drawn normal, their binormal.

    ok is False when tangent and normal are (anti)parallel so no binormal
    exists; such vertices sit out of matching entirely.
    """

    tangent: np.ndarray
    normal: np.ndarray
    binormal: np.ndarray
    ok: bool


class Stroke:
    """One ribbon stroke. Arrays are never mutated after construction."""

    def __init__(self, points, normals, widths, color=(1.0, 1.0, 1.0),
                 timestamps=None):
        self.points = np.asarray(points, dtype=np.float64)
        self.normals = np.asarray(normals, dtype=np.float64)
        self.widths = np.asarray(widths, dtype=np.float64)
        self.color = np.asarray(color, dtype=np.float64)
        self.timestamps = (None if timestamps is None
                           else np.asarray(timestamps, dtype=np.float64))
        self._frames = None

    def __len__(self):
        return len(self.points)

    def _compute_frames(self):
        pts = self.points
        n = len(pts)
        tangents = np.zeros((n, 3))
        if n >= 2:
            tangents[0] = pts[1] - pts[0]
            tangents[-1] = pts[-1] - pts[-2]
            if n > 2:
                tangents[1:-1] = pts[2:] - pts[:-2]
        tangents, t_ok = geometry.unit_rows(tangents)
        binormals, b_ok = geometry.unit_rows(np.cross(tangents, self.normals))
        self._frames = (tangents, binormals, t_ok & b_ok)

    @property
    def tangents(self):
        if self._frames is None:
            self._compute_frames()
        return self._frames[0]

    @property
    def binormals(self):
        if self._frames is None:
            self._compute_frames()
        return self._frames[1]

    @property
    def frames_ok(self):
        if self._frames is None:
            self._compute_frames()
        return self._frames[2]

    def content_hash(self):
        """Stable digest of the stroke's geometric content.

        Normals are deliberately excluded: stroke ids (and with them all
        id-based tie-breaks) must not move when a drawing comes back with
        some ribbon orientations flipped."""
        h = hashlib.sha256()
        for arr in (self.points, self.widths, self.color):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class StrokeVertex:
    """A view of one vertex of a stroke, used at API boundaries."""

    stroke: Stroke
    stroke_id: int
    index: int

    @property
    def position(self):
        return self.stroke.points[self.index]

    @property
    def normal(self):
        return self.stroke.normals[self.index]

    @property
    def width(self):
        return float(self.stroke.widths[self.index])

    @property
    def frame(self):
        return frame_at(self.stroke, self.index)


@dataclass
class Drawing:
    strokes: list = field(default_factory=list)
    dropped_strokes: int = 0

    def vertex_count(self):
        return sum(len(s) for s in self.strokes)


def frame_at(stroke, i):
    """Frame of vertex i of a stroke (one-sided tangents at the ends)."""
    return FrenetFrame(
        tangent=stroke.tangents[i],
        normal=stroke.normals[i],
        binormal=stroke.binormals[i],
        ok=bool(stroke.frames_ok[i]),
    )


def _floats(raw, key, index):
    """Stroke field raw[key] as a float64 array; one missing, null, not
    floats or not finite is a ValidationError naming stroke and field."""
    if raw.get(key) is None:
        raise ValidationError(f"stroke {index}: missing {key}")
    try:
        values = np.asarray(raw[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"stroke {index}: bad {key}: {exc}")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"stroke {index}: non-finite {key}")
    return values


def _clean_stroke(raw, index):
    """Validate and normalize one raw stroke dict. Returns Stroke or None."""
    if not isinstance(raw, dict):
        raise ValidationError(f"stroke {index}: not an object")
    verts = _floats(raw, "vertices", index)
    norms = _floats(raw, "normals", index)
    if verts.ndim != 2 or verts.shape[1] != 3:
        raise ValidationError(f"stroke {index}: vertices must be (n, 3)")
    if norms.shape != verts.shape:
        raise ValidationError(
            f"stroke {index}: normals shape {norms.shape} does not match "
            f"vertices {verts.shape}")

    widths = _floats(raw, "width", index)
    if widths.ndim == 0:
        widths = np.full(len(verts), float(widths))
    if widths.shape != (len(verts),):
        raise ValidationError(f"stroke {index}: width must be scalar or (n,)")
    if np.any(widths <= 0):
        raise ValidationError(f"stroke {index}: widths must be positive")

    color = _floats(raw, "color", index) if "color" in raw else np.ones(3)
    if color.shape != (3,):
        raise ValidationError(f"stroke {index}: color must be [r, g, b]")

    timestamps = None
    if raw.get("timestamps") is not None:
        timestamps = _floats(raw, "timestamps", index)
        if timestamps.shape != (len(verts),):
            raise ValidationError(f"stroke {index}: timestamps length mismatch")

    nn = np.linalg.norm(norms, axis=1)
    if np.any(nn < EPS_DEGENERATE):
        raise ValidationError(f"stroke {index}: zero-length normal")
    norms = norms / nn[:, None]

    # drop consecutive duplicate vertices (keep the first of each run)
    keep = np.ones(len(verts), dtype=bool)
    if len(verts) > 1:
        scale = max(geometry.bbox_diagonal(verts), 1.0)
        seg = np.linalg.norm(np.diff(verts, axis=0), axis=1)
        keep[1:] = seg > 1e-9 * scale
    verts = verts[keep]
    norms = norms[keep]
    widths = widths[keep]
    if timestamps is not None:
        timestamps = timestamps[keep]

    if len(verts) < 2:
        return None
    return Stroke(verts, norms, widths, color, timestamps)


def load_drawing(path_or_dict):
    """Load a drawing from a JSON file path or an already-parsed dict.

    Strokes with fewer than two distinct vertices are dropped and
    counted in Drawing.dropped_strokes.
    """
    data = (path_or_dict if isinstance(path_or_dict, dict)
            else read_json(path_or_dict))
    if not isinstance(data, dict) or "strokes" not in data:
        raise ValidationError("drawing JSON must be an object with 'strokes'")
    raw_strokes = data["strokes"]
    if not isinstance(raw_strokes, list) or not raw_strokes:
        raise ValidationError("drawing has no strokes")

    strokes = []
    dropped = 0
    for i, raw in enumerate(raw_strokes):
        stroke = _clean_stroke(raw, i)
        if stroke is None:
            dropped += 1
        else:
            strokes.append(stroke)
    if not strokes:
        raise ValidationError("drawing has no usable strokes")
    return Drawing(strokes=strokes, dropped_strokes=dropped)


def save_drawing(drawing, path):
    """Serialize a drawing back to the input JSON layout (full precision)."""
    out = {"strokes": []}
    for s in drawing.strokes:
        rec = {
            "vertices": s.points.tolist(),
            "normals": s.normals.tolist(),
            "width": s.widths.tolist(),
            "color": s.color.tolist(),
        }
        if s.timestamps is not None:
            rec["timestamps"] = s.timestamps.tolist()
        out["strokes"].append(rec)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
        fh.write("\n")


def interior_angles_deg(points):
    """Angle at each interior vertex between the reversed incoming segment
    and the outgoing segment. 180 = straight continuation, 0 = doubling
    back on itself. Endpoints get 180 (no angle defined)."""
    n = len(points)
    out = np.full(n, 180.0)
    if n < 3:
        return out
    inc = points[1:-1] - points[:-2]   # incoming segments
    outg = points[2:] - points[1:-1]   # outgoing segments
    rin, _ = geometry.unit_rows(-inc)
    rout, _ = geometry.unit_rows(outg)
    c = np.clip(np.einsum("ij,ij->i", rin, rout), -1.0, 1.0)
    out[1:-1] = np.degrees(np.arccos(c))
    return out


def trim_hooks(stroke, config):
    """Remove hook artifacts from both stroke ends.

    Within the leading/trailing trim_fraction of arc length, any vertex
    folding back at <= trim_angle_deg takes the whole sub-polyline from
    the stroke end through that vertex with it. Repeats until stable.
    Returns the trimmed stroke, or None when fewer than two vertices
    remain.
    """
    pts = stroke.points
    norms = stroke.normals
    widths = stroke.widths
    ts = stroke.timestamps

    while True:
        n = len(pts)
        if n < 2:
            return None
        arcs = geometry.polyline_arclengths(pts)
        total = arcs[-1]
        if total <= 0:
            return None
        window = config.trim_fraction * total
        angles = interior_angles_deg(pts)
        offending = (angles <= config.trim_angle_deg)

        cut_front = 0
        front = np.nonzero(offending & (arcs <= window))[0]
        front = front[(front > 0) & (front < n - 1)]
        if len(front):
            cut_front = int(front.max()) + 1

        cut_back = n
        back = np.nonzero(offending & (arcs >= total - window))[0]
        back = back[(back > 0) & (back < n - 1)]
        if len(back):
            cut_back = int(back.min())

        if cut_front == 0 and cut_back == n:
            break
        if cut_front >= cut_back:
            return None
        pts = pts[cut_front:cut_back]
        norms = norms[cut_front:cut_back]
        widths = widths[cut_front:cut_back]
        if ts is not None:
            ts = ts[cut_front:cut_back]

    if len(pts) < 2:
        return None
    return Stroke(pts, norms, widths, stroke.color, ts)


def ribbon_geometry(stroke):
    """Triangulated ribbon of a stroke: corners at +-(w/2) along the
    binormal, one quad per polyline segment, each quad split along its
    shorter diagonal. Segments touching a degenerate frame are omitted.

    Returns (corner_positions, triangles, vertex): a left and then a
    right corner for each stroke vertex on a kept segment, in vertex
    order; triangles indexing those corners, two per kept segment in
    segment order; and the stroke vertex of each corner.
    """
    ok = stroke.frames_ok
    seg = ok[:-1] & ok[1:]
    spine = np.flatnonzero(np.r_[seg, False] | np.r_[False, seg])
    half = 0.5 * stroke.widths[spine, None] * stroke.binormals[spine]
    left, right = stroke.points[spine] + half, stroke.points[spine] - half
    corners = np.stack([left, right], axis=1).reshape(-1, 3)
    l0 = 2 * np.searchsorted(spine, np.flatnonzero(seg))
    r0, l1, r1 = l0 + 1, l0 + 2, l0 + 3
    main, alt = corners[l0] - corners[r1], corners[r0] - corners[l1]
    # lengths as np.linalg.norm rounds them: sqrt of np.dot's rounding
    use_main = (np.sqrt(geometry.dot_rows(main, main))
                <= np.sqrt(geometry.dot_rows(alt, alt)))[:, None]
    tris = np.where(use_main, np.stack([l0, r0, r1, l0, r1, l1], axis=1),
                    np.stack([r0, r1, l1, r0, l1, l0], axis=1))
    return corners, tris.reshape(-1, 3), np.repeat(spine, 2)


def canonical_stroke_order(drawing):
    """Reorder strokes by content hash so stroke ids are independent of
    the order they appear in the input file."""
    keyed = sorted(enumerate(drawing.strokes),
                   key=lambda kv: kv[1].content_hash())
    return Drawing(strokes=[s for _, s in keyed],
                   dropped_strokes=drawing.dropped_strokes)
