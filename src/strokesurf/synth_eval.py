"""Synthetic ribbon drawings over known surfaces, and evaluation of
reconstructed meshes against them.

The generator covers five canonical surfaces (unit sphere, unit-radius
dome, 2x2x2 cube, unit-radius cylinder of height 2, torus R=1 r=0.35)
with three coverage patterns (parallel, boustrophedon, spiral), adds
Gaussian position noise, angular normal noise, and per-stroke
orientation flips, all driven by a fixed counter-based PRNG so the
corpus is reproducible bit for bit.

Evaluation needs nearest-neighbour and ball queries, which scipy's
cKDTree answers; generation and surfacing need none. So scipy.spatial
is imported only when evaluation first builds a tree (_kdtree), not
with this module: the import takes longer than surfacing a benchmark
drawing, and `import strokesurf`, `generate` and `strokesurf surface`
load no scipy module.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry, mesh_ops
from .stroke_model import (Config, Drawing, Stroke, json_fields, read_json,
                           trim_hooks)

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# points_to_mesh_distance: sample points per block, each block queried
# against every spread class's centroid tree, and (point, triangle) rows
# per distance-kernel call; together they bound its memory. A call of
# 4096 rows keeps the kernel's temporaries near 1.3 MB, also in
# directed_hausdorff's bound pass, which gives every sample one row.
# directed_hausdorff takes its blocks in descending order of an upper
# bound and stops at the first block whose leading bound is at most the
# best exact distance found: no later point can exceed it, so the
# maximum is exact while most blocks go untested
POINT_BLOCK = 256
PAIR_ROWS = 1 << 12

# interpolated_fraction: how far, relative to the mesh's bounding-box
# diagonal, a mesh vertex may lie from a stroke point it stands for
POINT_TOL_REL = 1e-6


class SplitMix64:
    """Counter-based 64-bit generator (SplitMix64). Fixed constants,
    documented algorithm; doubles take the top 53 bits."""

    def __init__(self, seed):
        self.state = int(seed) & _MASK
        self._spare = None

    def next_u64(self):
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniforms(self, n):
        """n uniform() draws as one array, computed with wrapping uint64
        arithmetic: draw k mixes state + k * gamma. Values and the final
        state equal those of n scalar draws; the normal() spare is left
        alone, as uniform() leaves it."""
        n = max(int(n), 0)
        k = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self.state) + k * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self.state = (self.state + n * _GAMMA) & _MASK
        return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def normal(self):
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        while True:
            u1 = self.uniform()
            if u1 > 0.0:
                break
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)

    def normals(self, n):
        return np.array([self.normal() for _ in range(n)])


SURFACES = ("sphere", "dome", "cube", "cylinder", "torus")
PATTERNS = ("parallel", "boustrophedon", "spiral")


@dataclass
class SyntheticSpec:
    """Recipe for one synthetic drawing."""

    surface: str = "sphere"
    pattern: str = "parallel"
    strokes: int = 24
    width: float = 0.15
    spacing: float = 0.05         # vertex step along each stroke
    noise: float = 0.0            # Gaussian position sigma, length units
    normal_noise_deg: float = 0.0
    flip_probability: float = 1.0 / 3.0
    seed: int = 1

    def __post_init__(self):
        if self.surface not in SURFACES:
            raise ValueError(f"unknown surface {self.surface!r}")
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.strokes <= 0 or self.width <= 0 or self.spacing <= 0:
            raise ValueError("strokes, width, spacing must be positive")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip_probability must lie in [0, 1]")
        if self.noise < 0 or self.normal_noise_deg < 0:
            raise ValueError("noise amplitudes must be non-negative")

    @classmethod
    def from_json(cls, path):
        return cls(**json_fields(cls, read_json(path), "spec"))


# ---------------------------------------------------------------------------
# ground truth surfaces

TORUS_MINOR = 0.35
CYLINDER_HALF_HEIGHT = 1.0


@dataclass
class GroundTruthSurface:
    """Analytic surface with exact distance queries and samplers."""

    kind: str
    positions: np.ndarray = None    # only for kind == "mesh"
    faces: np.ndarray = None        # (F, 3) int64, only for kind == "mesh"

    # -- distance --

    def distance(self, points):
        """Distance from each point to the surface. Only the largest one
        is needed for a Hausdorff distance, and max_distance finds it
        exactly with fewer tests on a mesh."""
        if self.kind == "mesh":
            return points_to_mesh_distance(points, self.positions,
                                           self.faces)
        return self._analytic_distance(points)

    def max_distance(self, points):
        """(distance, pairs): the largest distance from the points to the
        surface and the (point, triangle) pairs tested. A mesh goes
        through directed_hausdorff, whose early break skips every point
        whose upper bound cannot beat the best distance found, with the
        same maximum, bit for bit, as distance(points).max(); an
        analytic surface measures every point and tests no pairs."""
        if self.kind == "mesh":
            return directed_hausdorff(points, self.positions, self.faces)
        return float(self._analytic_distance(points).max()), 0

    def _analytic_distance(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if self.kind == "sphere":
            return np.abs(np.linalg.norm(p, axis=1) - 1.0)
        if self.kind == "dome":
            r = np.linalg.norm(p, axis=1)
            closest_z = np.divide(p[:, 2], r, out=np.ones_like(r),
                                  where=r > 0)
            on_cap = closest_z >= 0
            d_cap = np.abs(r - 1.0)
            rho = np.linalg.norm(p[:, :2], axis=1)
            d_rim = np.sqrt((rho - 1.0) ** 2 + p[:, 2] ** 2)
            return np.where(on_cap, d_cap, d_rim)
        if self.kind == "cylinder":
            rho = np.linalg.norm(p[:, :2], axis=1)
            inside = np.abs(p[:, 2]) <= CYLINDER_HALF_HEIGHT
            d_side = np.abs(rho - 1.0)
            dz = np.abs(p[:, 2]) - CYLINDER_HALF_HEIGHT
            d_rim = np.sqrt((rho - 1.0) ** 2 + np.maximum(dz, 0.0) ** 2)
            return np.where(inside, d_side, d_rim)
        if self.kind == "torus":
            rho = np.linalg.norm(p[:, :2], axis=1)
            return np.abs(np.sqrt((rho - 1.0) ** 2 + p[:, 2] ** 2)
                          - TORUS_MINOR)
        if self.kind == "cube":
            q = np.abs(p) - 1.0
            outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
            inside = np.minimum(np.max(q, axis=1), 0.0)
            return np.abs(outside + inside)
        raise ValueError(f"unknown surface kind {self.kind!r}")

    # -- sampling --

    def sample(self, n, rng):
        if self.kind == "sphere":
            g = rng.normals(3 * n).reshape(n, 3)
            u, _ = geometry.unit_rows(g)
            return u
        if self.kind == "dome":
            pts = []
            while len(pts) < n:
                g = np.array([rng.normal(), rng.normal(), rng.normal()])
                nrm = np.linalg.norm(g)
                if nrm < 1e-12:
                    continue
                g /= nrm
                if g[2] >= 0:
                    pts.append(g)
            return np.array(pts)
        if self.kind == "cylinder":
            phi = 2 * np.pi * rng.uniforms(n)
            z = (2 * rng.uniforms(n) - 1.0) * CYLINDER_HALF_HEIGHT
            return np.stack([np.cos(phi), np.sin(phi), z], axis=1)
        if self.kind == "torus":
            pts = []
            while len(pts) < n:
                phi = 2 * math.pi * rng.uniform()
                psi = 2 * math.pi * rng.uniform()
                # area density proportional to R + r cos(psi)
                if rng.uniform() * (1 + TORUS_MINOR) > 1 + TORUS_MINOR \
                        * math.cos(psi):
                    continue
                w = 1 + TORUS_MINOR * math.cos(psi)
                pts.append([w * math.cos(phi), w * math.sin(phi),
                            TORUS_MINOR * math.sin(psi)])
            return np.array(pts)
        if self.kind == "cube":
            face = (rng.uniforms(n) * 6).astype(int).clip(0, 5)
            a = 2 * rng.uniforms(n) - 1.0
            b = 2 * rng.uniforms(n) - 1.0
            axis, sign = np.divmod(face, 2)
            # the two coordinates that vary on each face, in axis order
            rest = np.array([[1, 2], [0, 2], [0, 1]])[axis]
            rows = np.arange(n)
            out = np.zeros((n, 3))
            out[rows, axis] = np.where(sign == 0, 1.0, -1.0)
            out[rows, rest[:, 0]] = a
            out[rows, rest[:, 1]] = b
            return out
        if self.kind == "mesh":
            return sample_mesh_surface(self.positions, self.faces, n, rng)
        raise ValueError(f"unknown surface kind {self.kind!r}")

    # -- reference triangulation --

    def to_mesh(self, resolution=48):
        if self.kind == "mesh":
            return self.positions, self.faces
        return _reference_mesh(self.kind, resolution)

    @classmethod
    def from_mesh(cls, positions, faces):
        return cls(kind="mesh", positions=np.asarray(positions, float),
                   faces=np.asarray(faces, dtype=np.int64).reshape(-1, 3))


def _grid_faces(nu, nv, wrap_u=False, wrap_v=False):
    faces = []
    for i in range(nu - (0 if wrap_u else 1)):
        for j in range(nv - (0 if wrap_v else 1)):
            i1 = (i + 1) % nu
            j1 = (j + 1) % nv
            a = i * nv + j
            b = i1 * nv + j
            c = i1 * nv + j1
            d = i * nv + j1
            faces.append((a, b, c))
            faces.append((a, c, d))
    return faces


def _reference_mesh(kind, res):
    if kind in ("sphere", "dome"):
        top = math.pi / 2 if kind == "dome" else math.pi
        nu, nv = res // 2 + 1, res
        theta = np.linspace(1e-3, top - (1e-3 if kind == "sphere" else 0),
                            nu)
        phi = np.linspace(0, 2 * np.pi, nv, endpoint=False)
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        pos = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                        np.cos(th)], axis=-1).reshape(-1, 3)
        return pos, _grid_faces(nu, nv, wrap_v=True)
    if kind == "cylinder":
        nu, nv = res // 2 + 1, res
        z = np.linspace(-CYLINDER_HALF_HEIGHT, CYLINDER_HALF_HEIGHT, nu)
        phi = np.linspace(0, 2 * np.pi, nv, endpoint=False)
        zz, ph = np.meshgrid(z, phi, indexing="ij")
        pos = np.stack([np.cos(ph), np.sin(ph), zz], axis=-1).reshape(-1, 3)
        return pos, _grid_faces(nu, nv, wrap_v=True)
    if kind == "torus":
        nu = nv = res
        phi = np.linspace(0, 2 * np.pi, nu, endpoint=False)
        psi = np.linspace(0, 2 * np.pi, nv, endpoint=False)
        ph, ps = np.meshgrid(phi, psi, indexing="ij")
        w = 1 + TORUS_MINOR * np.cos(ps)
        pos = np.stack([w * np.cos(ph), w * np.sin(ph),
                        TORUS_MINOR * np.sin(ps)], axis=-1).reshape(-1, 3)
        return pos, _grid_faces(nu, nv, wrap_u=True, wrap_v=True)
    if kind == "cube":
        pos_list = []
        faces = []
        n = max(res // 8, 2)
        line = np.linspace(-1, 1, n)
        for axis in range(3):
            for sign in (1.0, -1.0):
                base = len(pos_list)
                rest = [ax for ax in range(3) if ax != axis]
                for a in line:
                    for b in line:
                        p = np.zeros(3)
                        p[axis] = sign
                        p[rest[0]] = a
                        p[rest[1]] = b
                        pos_list.append(p)
                for f in _grid_faces(n, n):
                    tri = tuple(base + v for v in f)
                    if sign > 0:
                        faces.append(tri)
                    else:
                        faces.append((tri[0], tri[2], tri[1]))
        return np.array(pos_list), faces
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# stroke path construction (noise-free centerlines on the surface)


def _arc_points(radius, z, gap_arc, spacing, reverse=False):
    """Points along a horizontal circle of given radius at height z,
    leaving gap_arc of circumference open around phi = 0."""
    circumference = 2 * math.pi * radius
    open_arc = max(circumference - gap_arc, spacing * 2)
    count = max(int(open_arc / spacing) + 1, 4)
    half_gap = max((circumference - open_arc) / (2 * radius), 0.0)
    phi = np.linspace(half_gap, 2 * math.pi - half_gap, count)
    if reverse:
        phi = phi[::-1]
    return np.stack([radius * np.cos(phi), radius * np.sin(phi),
                     np.full(count, float(z))], axis=1)


def _sphere_paths(spec, polar_span=math.pi, z_shift=0.0):
    """Latitude rings (or a single spiral) over a unit sphere section."""
    n = spec.strokes
    paths = []
    if spec.pattern in ("parallel", "boustrophedon"):
        for k in range(n):
            theta = (k + 0.5) * polar_span / n
            radius = math.sin(theta)
            ring = _arc_points(radius, math.cos(theta) + z_shift,
                               gap_arc=1.5 * spec.spacing,
                               spacing=spec.spacing,
                               reverse=(spec.pattern == "boustrophedon"
                                        and k % 2 == 1))
            paths.append(ring)
        return paths
    # spiral: one stroke winding n times pole to pole
    theta0 = 0.5 * polar_span / n
    theta1 = polar_span - theta0
    pts = [np.array([math.sin(theta0), 0.0, math.cos(theta0) + z_shift])]
    t = 0.0
    while t < 1.0:
        theta = theta0 + (theta1 - theta0) * t
        # local speed of (theta(t), phi(t)) on the sphere
        dtheta = theta1 - theta0
        dphi = 2 * math.pi * n
        speed = math.hypot(dtheta, dphi * math.sin(theta))
        t = min(t + spec.spacing / max(speed, 1e-9), 1.0)
        theta = theta0 + (theta1 - theta0) * t
        phi = 2 * math.pi * n * t
        pts.append(np.array([math.sin(theta) * math.cos(phi),
                             math.sin(theta) * math.sin(phi),
                             math.cos(theta) + z_shift]))
    return [np.array(pts)]


def _cylinder_paths(spec):
    n = spec.strokes
    h = CYLINDER_HALF_HEIGHT
    if spec.pattern in ("parallel", "boustrophedon"):
        paths = []
        for k in range(n):
            z = -h + (k + 0.5) * (2 * h) / n
            paths.append(_arc_points(1.0, z, gap_arc=1.5 * spec.spacing,
                                     spacing=spec.spacing,
                                     reverse=(spec.pattern == "boustrophedon"
                                              and k % 2 == 1)))
        return paths
    pts = []
    t = 0.0
    speed = math.hypot(2 * h, 2 * math.pi * n)
    steps = int(speed / spec.spacing) + 1
    for i in range(steps + 1):
        t = i / steps
        phi = 2 * math.pi * n * t
        pts.append(np.array([math.cos(phi), math.sin(phi), -h + 2 * h * t]))
    return [np.array(pts)]


def _torus_paths(spec):
    n = spec.strokes
    r = TORUS_MINOR
    if spec.pattern in ("parallel", "boustrophedon"):
        paths = []
        for k in range(n):
            psi = (k + 0.5) * 2 * math.pi / n
            ring_r = 1.0 + r * math.cos(psi)
            ring = _arc_points(ring_r, r * math.sin(psi),
                               gap_arc=1.5 * spec.spacing,
                               spacing=spec.spacing,
                               reverse=(spec.pattern == "boustrophedon"
                                        and k % 2 == 1))
            paths.append(ring)
        return paths
    pts = [np.array([1.0 + r, 0.0, 0.0])]
    t = 0.0
    while t < 1.0:
        psi = 2 * math.pi * t
        dpsi = 2 * math.pi * r
        dphi = 2 * math.pi * n * (1.0 + r * math.cos(psi))
        speed = math.hypot(dpsi, dphi)
        t = min(t + spec.spacing / max(speed, 1e-9), 1.0)
        psi = 2 * math.pi * t
        phi = 2 * math.pi * n * t
        w = 1.0 + r * math.cos(psi)
        pts.append(np.array([w * math.cos(phi), w * math.sin(phi),
                             r * math.sin(psi)]))
    return [np.array(pts)]


def _face_frame(axis, sign):
    """Outward normal plus the two in-plane axes of a cube face."""
    normal = np.zeros(3)
    normal[axis] = sign
    rest = [ax for ax in range(3) if ax != axis]
    u = np.zeros(3)
    u[rest[0]] = 1.0
    v = np.zeros(3)
    v[rest[1]] = 1.0
    return normal, u, v


def _cube_paths(spec):
    n = spec.strokes
    margin = 1.0 / n
    paths = []
    normals = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            nrm, u, v = _face_frame(axis, sign)
            if spec.pattern in ("parallel", "boustrophedon"):
                for k in range(n):
                    c = -1.0 + (k + 0.5) * 2.0 / n
                    lo, hi = -1.0 + margin, 1.0 - margin
                    count = max(int((hi - lo) / spec.spacing) + 1, 2)
                    s = np.linspace(lo, hi, count)
                    if spec.pattern == "boustrophedon" and k % 2 == 1:
                        s = s[::-1]
                    pts = (nrm[None, :] + np.outer(s, u) + c * v[None, :])
                    paths.append(pts)
                    normals.append(nrm)
            else:
                pts = _square_spiral(spec, margin)
                world = (nrm[None, :] + pts[:, 0:1] * u[None, :]
                         + pts[:, 1:2] * v[None, :])
                paths.append(world)
                normals.append(nrm)
    return paths, normals


def _square_spiral(spec, margin):
    """Inward rectangular spiral covering [-1, 1]^2, one corner ring per
    2x spacing ... laid out in (a, b) face coordinates."""
    step = 2.0 / spec.strokes
    lo, hi = -1.0 + margin, 1.0 - margin
    corners = []
    while hi - lo > step:
        corners.extend([(lo, lo), (hi, lo), (hi, hi), (lo + step, hi)])
        lo += step
        hi -= step
    if not corners:
        corners = [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]
    pts = []
    for (a0, b0), (a1, b1) in zip(corners, corners[1:]):
        seg = math.hypot(a1 - a0, b1 - b0)
        count = max(int(seg / spec.spacing), 1)
        for i in range(count):
            t = i / count
            pts.append((a0 + (a1 - a0) * t, b0 + (b1 - b0) * t))
    pts.append(corners[-1])
    return np.array(pts)


def _surface_normals(kind, points):
    p = np.atleast_2d(points)
    if kind in ("sphere", "dome"):
        n, _ = geometry.unit_rows(p)
        return n
    if kind == "cylinder":
        n = p.copy()
        n[:, 2] = 0.0
        n, _ = geometry.unit_rows(n)
        return n
    if kind == "torus":
        rho = np.linalg.norm(p[:, :2], axis=1)
        ring = np.zeros_like(p)
        safe = rho > 1e-12
        ring[safe, 0] = p[safe, 0] / rho[safe]
        ring[safe, 1] = p[safe, 1] / rho[safe]
        n, _ = geometry.unit_rows(p - ring)
        return n
    raise ValueError(kind)


def _rotate_about(vectors, axes, angles):
    """Rodrigues rotation of unit vectors about unit axes."""
    out = np.empty_like(vectors)
    for i in range(len(vectors)):
        v, k, a = vectors[i], axes[i], angles[i]
        out[i] = (v * math.cos(a) + np.cross(k, v) * math.sin(a)
                  + k * float(np.dot(k, v)) * (1 - math.cos(a)))
    return out


def _hand_noise(rng, n, sigma, window=7):
    """Correlated Gaussian jitter: white noise smoothed along the stroke
    (hand tremor is low-frequency), rescaled so each vertex keeps the
    requested standard deviation."""
    raw = rng.normals(3 * n).reshape(n, 3)
    k = min(window, max(1, n))
    if k <= 1:
        return sigma * raw
    kernel = np.ones(k) / k
    out = np.empty_like(raw)
    pad = k // 2
    for c in range(3):
        col = np.pad(raw[:, c], (pad, k - 1 - pad), mode="edge")
        out[:, c] = np.convolve(col, kernel, mode="valid")
    return sigma * math.sqrt(k) * out


def generate(spec):
    """Build a Drawing over the requested surface plus its ground truth.

    Strokes carry outward surface normals (before flips), constant
    width, and per-vertex timestamps. Deterministic in the spec.
    """
    rng = SplitMix64(spec.seed)
    if spec.surface == "sphere":
        paths = _sphere_paths(spec)
        normals = None
    elif spec.surface == "dome":
        paths = _sphere_paths(spec, polar_span=math.pi / 2)
        normals = None
    elif spec.surface == "cylinder":
        paths = _cylinder_paths(spec)
        normals = None
    elif spec.surface == "torus":
        paths = _torus_paths(spec)
        normals = None
    else:
        paths, normals = _cube_paths(spec)

    strokes = []
    clock = 0.0
    for si, pts in enumerate(paths):
        pts = np.asarray(pts, dtype=np.float64)
        if normals is None:
            nrm = _surface_normals(spec.surface, pts)
        else:
            nrm = np.tile(normals[si], (len(pts), 1))
        if spec.noise > 0:
            pts = pts + _hand_noise(rng, len(pts), spec.noise)
        if spec.normal_noise_deg > 0:
            raw = rng.normals(pts.size).reshape(pts.shape)
            axes = np.cross(nrm, raw)
            axes, ok = geometry.unit_rows(axes)
            axes[~ok] = np.array([1.0, 0.0, 0.0])
            angles = np.radians(spec.normal_noise_deg) \
                * rng.normals(len(pts))
            nrm = _rotate_about(nrm, axes, angles)
            nrm, _ = geometry.unit_rows(nrm)
        if rng.uniform() < spec.flip_probability:
            nrm = -nrm
        stamps = clock + np.arange(len(pts)) * 0.01
        clock = float(stamps[-1]) + 0.5
        strokes.append(Stroke(
            points=pts, normals=nrm,
            widths=np.full(len(pts), spec.width),
            color=np.array([0.8, 0.8, 0.8]),
            timestamps=stamps))
    drawing = Drawing(strokes=strokes)
    return drawing, GroundTruthSurface(kind=spec.surface)


# ---------------------------------------------------------------------------
# evaluation


def _kdtree(points):
    """A scipy cKDTree over points: the one place scipy is imported
    (module docstring)."""
    from scipy.spatial import cKDTree
    return cKDTree(points)


class _MeshIndex(NamedTuple):
    """A triangle list prepared for exact distance queries: corner
    arrays, centroids, the spread classes as (triangle ids, centroid
    tree, largest spread) triples, the largest spread of each
    triangle's class, and a tree over the used vertices."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    centroids: np.ndarray
    classes: list
    class_spread: np.ndarray
    vert_tree: object


def _mesh_index(positions, faces):
    positions = np.asarray(positions, dtype=np.float64)
    tris = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if len(tris) == 0:
        raise ValueError("mesh has no triangles")
    a = positions[tris[:, 0]]
    b = positions[tris[:, 1]]
    c = positions[tris[:, 2]]
    centroids = (a + b + c) / 3.0
    spread = np.maximum(np.maximum(
        np.linalg.norm(a - centroids, axis=1),
        np.linalg.norm(b - centroids, axis=1)),
        np.linalg.norm(c - centroids, axis=1))
    exponent = np.frexp(spread)[1]
    classes = []
    class_spread = np.empty(len(tris))
    for e in np.unique(exponent):
        ids = np.flatnonzero(exponent == e)
        class_spread[ids] = spread[ids].max()
        classes.append((ids, _kdtree(centroids[ids]),
                        float(class_spread[ids[0]])))
    return _MeshIndex(a, b, c, centroids, classes, class_spread,
                      _kdtree(positions[np.unique(tris)]))


def _candidates(index, points, upper):
    """(owner, tri): every (point, triangle) candidate pair of points,
    at most POINT_BLOCK of them, whose nearest-vertex distances are
    upper, as row numbers into points and triangle ids, sorted by
    owner."""
    block = np.arange(len(points))
    owner, tri = [], []
    for ids, tree, r_class in index.classes:
        balls = tree.query_ball_point(points, upper + r_class + 1e-12)
        counts = np.fromiter(map(len, balls), dtype=np.int64,
                             count=len(balls))
        owner.append(np.repeat(block, counts))
        tri.append(ids[np.fromiter(itertools.chain.from_iterable(balls),
                                   dtype=np.int64,
                                   count=int(counts.sum()))])
    owner = np.concatenate(owner)
    order = np.argsort(owner, kind="stable")
    return owner[order], np.concatenate(tri)[order]


def _lower_by_pairs(index, points, owner, tri, out):
    """out[i] lowered to the exact distance from points[i] to each
    triangle paired with it, pairs sorted by owner, through
    geometry.point_triangle_pair_distances at most PAIR_ROWS rows at a
    time."""
    for lo in range(0, len(tri), PAIR_ROWS):
        o = owner[lo:lo + PAIR_ROWS]
        t = tri[lo:lo + PAIR_ROWS]
        d = geometry.point_triangle_pair_distances(
            points[o], index.a[t], index.b[t], index.c[t])
        # owner is sorted, so each point's rows are one run
        heads = np.flatnonzero(np.r_[True, o[1:] != o[:-1]])
        rows = o[heads]
        out[rows] = np.minimum(out[rows], np.minimum.reduceat(d, heads))
    return out


def points_to_mesh_distance(points, positions, faces, return_pairs=False):
    """Exact point-to-surface distance per sample: the nearest mesh
    vertex bounds the answer, centroid KD-trees prune triangles, and the
    survivors get the exact point-triangle test.

    A triangle's spread is the distance from its centroid to its
    farthest corner. Triangles are split into classes by the binary
    exponent of their spread, np.frexp(spread)[1], with one centroid
    tree per class, and a point's ball in a class reaches its
    nearest-vertex bound plus the largest spread in that class. A
    triangle closer to the point than the bound has its centroid within
    the bound plus its own spread, so it stays a candidate: the result
    is min(bound, distances to every triangle), exactly, while a few
    large triangles widen only the balls of their own class.

    Points go to the trees in blocks of POINT_BLOCK. A block's (point,
    candidate triangle) pairs from every class, sorted by point, go
    through geometry.point_triangle_pair_distances at most PAIR_ROWS
    rows at a time, so memory stays bounded however many candidates a
    point has. Each distance is bit-identical to testing the point's
    candidates in one call, as the per-point reference in the tests
    does. With return_pairs, also returns the number of pairs tested."""
    index = _mesh_index(positions, faces)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    upper, _ = index.vert_tree.query(points)
    out = upper.copy()
    pairs = 0
    for start in range(0, len(points), POINT_BLOCK):
        block = slice(start, start + POINT_BLOCK)
        owner, tri = _candidates(index, points[block], upper[block])
        _lower_by_pairs(index, points[block], owner, tri, out[block])
        pairs += len(tri)
    return (out, pairs) if return_pairs else out


def directed_hausdorff(points, positions, faces):
    """(distance, pairs): the largest points_to_mesh_distance of the
    points, bit for bit, and the (point, triangle) pairs tested to find
    it, with the early break of Taha and Hanbury (IEEE TPAMI 2015).

    Each point first gets an upper bound: its nearest-vertex distance,
    lowered to the exact distance to the triangle whose centroid is
    nearest (one tree query and one kernel call for all points). That
    triangle counts only when its centroid lies inside the point's ball
    of its class with a relative margin of 1e-9, far above rounding, so
    its kernel row is one of the point's candidate rows and the bound
    is never below points_to_mesh_distance. Points are then taken in
    blocks of POINT_BLOCK by bound, descending (ties in input order),
    and each block runs the spread-class candidate test, less the pair
    already tested. A block whose leading bound is at most the best
    exact distance so far ends the scan: every later point's distance
    is at most its bound, so at most that best. Every processed
    distance is the minimum of the same kernel rows as in
    points_to_mesh_distance, so the maximum is bit-identical, and no
    point costs more pairs than it does there. Raises ValueError
    without points."""
    index = _mesh_index(positions, faces)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if not len(points):
        raise ValueError("no points to measure")
    upper, _ = index.vert_tree.query(points)
    to_centroid, near = _kdtree(index.centroids).query(points)
    held = np.flatnonzero(to_centroid * (1.0 + 1e-9)
                          <= upper + index.class_spread[near])
    known = np.full(len(points), -1, dtype=np.int64)
    known[held] = near[held]
    bound = upper.copy()
    _lower_by_pairs(index, points, held, near[held], bound)
    order = np.argsort(-bound, kind="stable")
    best = -math.inf
    pairs = len(held)
    for start in range(0, len(points), POINT_BLOCK):
        block = order[start:start + POINT_BLOCK]
        if bound[block[0]] <= best:
            break
        owner, tri = _candidates(index, points[block], upper[block])
        fresh = tri != known[block][owner]
        owner, tri = owner[fresh], tri[fresh]
        d = _lower_by_pairs(index, points[block], owner, tri, bound[block])
        best = max(best, float(d.max()))
        pairs += len(tri)
    return best, pairs


def sample_mesh_surface(positions, faces, n, rng):
    """Area-weighted barycentric samples over a triangle list."""
    positions = np.asarray(positions, dtype=np.float64)
    tris = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    a = positions[tris[:, 0]]
    b = positions[tris[:, 1]]
    c = positions[tris[:, 2]]
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    total = float(areas.sum())
    if total <= 0:
        raise ValueError("mesh has zero area")
    cdf = np.cumsum(areas) / total
    picks = np.searchsorted(cdf, rng.uniforms(n), side="left")
    picks = np.clip(picks, 0, len(tris) - 1)
    u = rng.uniforms(n)
    v = rng.uniforms(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    w = 1.0 - u - v
    return (w[:, None] * a[picks] + u[:, None] * b[picks]
            + v[:, None] * c[picks])


@dataclass
class EvalReport:
    nonmanifold_edges: int
    nonmanifold_vertices: int
    components: int
    euler_characteristics: list
    boundary_loops: list
    hausdorff: float
    mesh_to_truth: float
    truth_to_mesh: float
    samples_per_side: int
    # (point, triangle) pairs tested, both sides: directed_hausdorff's
    # one bound pair per point whose nearest-centroid triangle is a
    # candidate, plus the spread-class candidates of the points its
    # early break had to process; analytic truths test none
    distance_pairs: int
    interpolated_edge_fraction: float    # NaN when no drawing given
    runtime_seconds: float

    def to_dict(self):
        d = dict(self.__dict__)
        if math.isnan(d["interpolated_edge_fraction"]):
            d["interpolated_edge_fraction"] = None
        return d


def interpolated_fraction(mesh, drawing, config=None):
    """Share of trimmed stroke polyline edges present as mesh edges,
    located by position (for meshes loaded back from OBJ)."""
    config = config or Config()
    used = np.unique(mesh.edges()[1])
    if not used.size:
        return 0.0
    tree = _kdtree(mesh.positions[used])
    points = [t.points for t in (trim_hooks(s, config)
                                 for s in drawing.strokes) if t is not None]
    if not points:
        return 0.0
    # one query for every stroke's points, split back per stroke
    dists, idx = tree.query(np.concatenate(points))
    ids = np.where(dists <= POINT_TOL_REL * mesh.scale(), used[idx], -1)
    return mesh_ops.path_edge_fraction(
        mesh, np.split(ids, np.cumsum([len(p) for p in points])[:-1]))


def evaluate(mesh, truth, drawing=None, samples=10000, seed=7,
             config=None):
    """Measure a reconstruction: audits, topology, symmetric sampled
    Hausdorff distance against the ground truth, and (when the source
    drawing is supplied) the interpolated-edge fraction.

    Each side of the Hausdorff distance is the largest exact distance
    of its samples: directed_hausdorff, on the truth side directly and
    through truth.max_distance on the mesh side when the truth is a
    mesh, tests only the samples whose upper bound exceeds the best
    distance found so far. Every skipped sample lies no farther than
    that best, so both sides equal the maxima over every sample's
    points_to_mesh_distance bit for bit."""
    t0 = time.perf_counter()
    rng = SplitMix64(seed)
    faces = mesh.edges()[1]
    if not len(faces):
        raise ValueError("mesh has no active triangles")
    topology = mesh_ops.topology_summary(mesh)

    mesh_samples = sample_mesh_surface(mesh.positions, faces, samples, rng)
    d_mesh, pairs_mesh = truth.max_distance(mesh_samples)
    d_truth, pairs_truth = directed_hausdorff(
        truth.sample(samples, rng), mesh.positions, faces)

    fraction = float("nan")
    if drawing is not None:
        fraction = interpolated_fraction(mesh, drawing, config)

    return EvalReport(
        **topology,
        hausdorff=max(d_mesh, d_truth),
        mesh_to_truth=d_mesh,
        truth_to_mesh=d_truth,
        samples_per_side=samples,
        distance_pairs=pairs_mesh + pairs_truth,
        interpolated_edge_fraction=fraction,
        runtime_seconds=time.perf_counter() - t0,
    )
