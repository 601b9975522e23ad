"""End-to-end surfacing pipeline.

Order of operations: trim hooks, canonicalize stroke order, baseline
matching to find dominant neighbors, restricted matching, strip meshing
(optionally crease-preserving), consolidation, boundary extension
within components, small-hole closure, boundary smoothing, gap-spanning
matching across components with prior triangles frozen, orientation
repair, ribbons for strokes that contributed nothing, then optional
hole filling and smoothing.

Normal signs only name the two sides of a ribbon, so nothing before the
last step reads them: strips are emitted in an order fixed by what was
matched, and components are wound from their lowest triangle id. Only
at the end is each component flipped to face the source normals, so the
output faces the way the strokes were drawn.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import consolidate, matcher, mesh_ops, mesher
from .mesher import KIND_RIBBON, SurfaceMesh
from .scoring import Side
from .stroke_model import (Config, Drawing, ValidationError,
                           canonical_stroke_order, ribbon_geometry,
                           trim_hooks)


@dataclass
class PipelineOptions:
    use_color: bool = False
    preserve_creases: bool = False
    skip_extension: bool = False
    close_holes_max_sides: int = 0     # 0 = only the built-in <=4 rule
    smooth_iterations: int = 0
    dump_dir: str = None
    config: Config = field(default_factory=Config)

    def __post_init__(self):
        if self.close_holes_max_sides < 0:
            raise ValidationError("close_holes_max_sides must be >= 0")
        if self.smooth_iterations < 0:
            raise ValidationError("smooth_iterations must be >= 0")


# the SurfaceMesh counters whose growth a strip-emitting stage reports
STRIP_COUNTS = ("emissions", "fans", "fans_capped", "fans_vetoed")


class _Tracker:
    """Collects per-stage triangle, duplicate and rejected-quad deltas,
    timings and consolidation counts; optionally dumps the mesh after
    each stage (and on stage failure) and match tables, every dump
    numbered by its stage's 1-based position in stage_stats."""

    def __init__(self, mesh, dump_dir):
        self.mesh = mesh
        self.dump_dir = dump_dir
        self.stats = []
        self._seq = 0

    def stage(self, name, consolidation=None):
        return _StageScope(self, name, consolidation)

    def _path(self, name, suffix):
        return os.path.join(self.dump_dir, f"{self._seq:02d}_{name}_{suffix}")

    def dump_mesh(self, name):
        if self.dump_dir is not None and self.mesh.active_count():
            mesh_ops.export_obj(self.mesh, self._path(name, "mesh.obj"))

    def dump_matches(self, name, table):
        """Write a stage's match table, built only with a dump directory."""
        if self.dump_dir is not None:
            with open(self._path(name, "matches.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(_match_payload(table), fh, indent=1)


class _StageScope:
    def __init__(self, tracker, name, consolidation):
        self.tracker = tracker
        self.name = name
        self.consolidation = consolidation
        self.counts = {}

    def count(self, key, n):
        """Add n to a count reported in this stage's entry."""
        self.counts[key] = self.counts.get(key, 0) + n

    def __enter__(self):
        mesh = self.tracker.mesh
        self.t0 = time.perf_counter()
        self.tris_before = len(mesh.tri_verts)
        self.removed_before = mesh.removed_count
        self.duplicates_before = mesh.duplicates_skipped
        self.rejected_before = mesh.quads_rejected
        self.strips_before = {key: getattr(mesh, key) for key in STRIP_COUNTS}
        self.tracker._seq += 1
        return self

    def count_emissions(self):
        """Report what strip meshing did in this stage: `emissions`, the
        triangle rows it offered the mesh (every row of a kept quad,
        triangle or fan, whether it was added, skipped as a duplicate or
        too thin), `fans`, the fans it queued, `fans_capped`, those it
        dropped unqueued for spanning too long a target section, and
        `fans_vetoed`, those an internal match dropped."""
        for key, before in self.strips_before.items():
            self.count(key, getattr(self.tracker.mesh, key) - before)

    def __exit__(self, exc_type, exc, tb):
        mesh = self.tracker.mesh
        entry = {
            "name": self.name,
            "triangles_added": len(mesh.tri_verts) - self.tris_before,
            "triangles_removed": mesh.removed_count - self.removed_before,
            "duplicates_skipped": mesh.duplicates_skipped
            - self.duplicates_before,
            "quads_rejected": mesh.quads_rejected - self.rejected_before,
            "seconds": time.perf_counter() - self.t0,
            **self.counts,
        }
        if self.consolidation is not None:
            entry["consolidation"] = asdict(self.consolidation)
        self.tracker.stats.append(entry)
        if exc_type is None:
            self.tracker.dump_mesh(self.name)
        else:
            self.tracker.dump_mesh(self.name + "_failed")
        return False


def _stroke_paths(cs, drawing):
    """The gids of each stroke's chain: the first chains of cs, one per
    stroke of the drawing, ahead of any offset chain crease meshing
    appended."""
    count = len(drawing.strokes)
    return np.split(cs.gid[:cs.offsets[count]], cs.offsets[1:count])


def _stroke_triangle_presence(mesh, cs, drawing):
    """Which stroke chains own at least one active triangle vertex."""
    touched = np.zeros(mesh.vertex_count(), dtype=bool)
    touched[mesh.edges()[1]] = True
    return [bool(touched[gids].any()) for gids in _stroke_paths(cs, drawing)]


def _emit_ribbons(mesh, drawing, cs):
    """Strokes with no retained triangles contribute their original
    triangulated ribbons; a corner's origin is (stroke, vertex)."""
    present = _stroke_triangle_presence(mesh, cs, drawing)
    added = 0
    for si, stroke in enumerate(drawing.strokes):
        if present[si]:
            continue
        corners, tris = ribbon_geometry(stroke)
        if len(tris) == 0:
            continue
        # a left and a right corner per vertex on a segment it keeps
        kept = stroke.frames_ok[:-1] & stroke.frames_ok[1:]
        spine = np.repeat(np.flatnonzero(np.r_[kept, False]
                                         | np.r_[False, kept]), 2)
        origin = np.stack([np.full(len(corners), si), spine], axis=1)
        gids = mesh.add_vertices(
            corners, stroke.normals[spine], stroke.widths[spine],
            np.tile(stroke.color, (len(corners), 1)), origin, KIND_RIBBON)
        added += int((mesh.add_triangles(gids[tris]) >= 0).sum())
    return added


def _count_matching(stage, cands=None, table=None):
    """Add a match stage's candidate rows, the pairs its search tested
    and its matched vertices to its entry; without a candidate set the
    stage matched nothing."""
    stage.count("candidates", 0 if cands is None else sum(
        len(rows) for rows in cands.lists.values()))
    stage.count("candidate_pairs",
                0 if cands is None else cands.pairs_tested)
    stage.count("matched", 0 if table is None else sum(
        int((m >= 0).sum()) for m in table.matches.values()))


def _match_payload(table):
    """One entry per matched vertex, as (chain, index) pairs, ordered by
    chain, LEFT before RIGHT, then vertex index."""
    cs = table.chainset
    offsets = cs.offsets.tolist()
    payload = []
    for ci, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        for side in sorted(table.matches, reverse=True):
            match = table.matches[side][lo:hi].tolist()
            payload += [{"from": [ci, i], "side": Side(side).tag,
                         "to": [int(cs.chain_id[m]), int(cs.index[m])]}
                        for i, m in enumerate(match) if m >= 0]
    return payload


def run_pipeline(drawing, options=None):
    """Surface a drawing. Returns (mesh, report dict)."""
    options = options or PipelineOptions()
    config = options.config
    t_start = time.perf_counter()

    # trim hooks, then fix stroke identity by content so input order
    # cannot influence anything downstream
    trimmed = []
    dropped = 0
    for stroke in drawing.strokes:
        t = trim_hooks(stroke, config)
        if t is None:
            dropped += 1
        else:
            trimmed.append(t)
    if not trimmed:
        raise ValidationError("no strokes survive hook trimming")
    work = canonical_stroke_order(Drawing(strokes=trimmed))

    cs = matcher.stroke_chains(work)
    mesh = SurfaceMesh.from_chains(cs)
    tracker = _Tracker(mesh, options.dump_dir)
    if options.dump_dir is not None:
        os.makedirs(options.dump_dir, exist_ok=True)

    with tracker.stage("baseline_match") as stage:
        cands = matcher.baseline_candidates(cs, config,
                                            color_cue=options.use_color)
        baseline = matcher.match_all(cands, config)
        _count_matching(stage, cands, baseline)
        freqs = matcher.matching_frequencies(baseline)
        neighbors = matcher.dominant_neighbors(baseline, freqs, config)
    tracker.dump_matches("baseline_match", baseline)

    with tracker.stage("restricted_match") as stage:
        cands = matcher.restricted_candidates(cands, neighbors)
        table = matcher.match_all(cands, config)
        _count_matching(stage, cands, table)
        stage.count("rows_reused", table.rows_reused)
    tracker.dump_matches("restricted_match", table)

    with tracker.stage("strip_meshing") as stage:
        if options.preserve_creases:
            mesher.mesh_with_creases(table, config, mesh=mesh)
        else:
            mesher.mesh_from_matches(table, config, mesh=mesh)
        stage.count_emissions()

    stats = consolidate.ConsolidationStats()
    with tracker.stage("strip_consolidation", stats) as stage:
        consolidate.consolidate_mesh(mesh, cs, config, stats=stats)
        stage.count("nonorientable_removed",
                    len(mesh_ops.break_nonorientable(mesh)))
        stats.repair_removed += len(consolidate.repair_nonmanifold(mesh))

    if not options.skip_extension:
        frozen = set(mesh.active_ids())
        with tracker.stage("boundary_extension") as stage:
            bcs = mesh_ops.boundary_chain_set(mesh, config)
            if bcs is None:
                _count_matching(stage)
            else:
                bcands = matcher.boundary_candidates(
                    bcs, config, "extension", color_cue=options.use_color)
                btable = matcher.match_all(bcands, config)
                _count_matching(stage, bcands, btable)
                mesher.mesh_from_matches(btable, config, mesh=mesh)
                tracker.dump_matches("boundary_extension", btable)
            stage.count_emissions()
        stats = consolidate.ConsolidationStats()
        with tracker.stage("extension_consolidation", stats) as stage:
            if bcs is not None:
                consolidate.consolidate_mesh(mesh, bcs, config,
                                             frozen=frozen, stats=stats)
            stage.count("nonorientable_removed", len(
                mesh_ops.break_nonorientable(mesh, frozen=frozen)))
            stats.repair_removed += len(
                consolidate.repair_nonmanifold(mesh, frozen=frozen))

    with tracker.stage("small_holes") as stage:
        stage.count("holes_closed_added",
                    mesh_ops.close_small_holes(mesh, config))

    with tracker.stage("boundary_smoothing"):
        mesh_ops.smooth_boundary(mesh, config)

    frozen = set(mesh.active_ids())
    tris_before_gap = len(mesh.tri_verts)
    with tracker.stage("gap_spanning") as stage:
        gcs = mesh_ops.boundary_chain_set(mesh, config, with_dmax=True)
        if gcs is None:
            _count_matching(stage)
        else:
            gcands = matcher.boundary_candidates(
                gcs, config, "gap", color_cue=options.use_color)
            gtable = matcher.match_all(gcands, config)
            _count_matching(stage, gcands, gtable)
            mesher.mesh_from_matches(gtable, config, mesh=mesh)
            tracker.dump_matches("gap_spanning", gtable)
        stage.count_emissions()
    stats = consolidate.ConsolidationStats()
    with tracker.stage("gap_consolidation", stats):
        if gcs is not None:
            consolidate.consolidate_mesh(mesh, gcs, config, frozen=frozen,
                                         stats=stats)

    with tracker.stage("orientation") as stage:
        new_tids = [t for t in mesh.active_ids() if t >= tris_before_gap]
        stage.count("moebius_removed",
                    len(mesh_ops.resolve_moebius(mesh, new_tids)))
        stage.count("nonorientable_removed", len(
            mesh_ops.break_nonorientable(mesh, frozen=frozen)))
        # removals may leave pinched fans behind
        stage.count("repair_removed", len(
            consolidate.repair_nonmanifold(mesh, frozen=frozen)))
        stage.count("holes_closed_added",
                    mesh_ops.close_small_holes(mesh, config))
        stage.count("repair_removed", len(
            consolidate.repair_nonmanifold(mesh, frozen=frozen)))

    with tracker.stage("ribbons"):
        _emit_ribbons(mesh, work, cs)

    if options.close_holes_max_sides > 0:
        with tracker.stage("hole_filling") as stage:
            stage.count("holes_filled_added", mesh_ops.fill_all_holes(
                mesh, config, max_sides=options.close_holes_max_sides))

    if options.smooth_iterations > 0:
        with tracker.stage("smoothing"):
            mesh_ops.laplacian_smooth(mesh, config,
                                      iterations=options.smooth_iterations)

    # every stage above winds components by triangle id alone; only now
    # are they flipped to face the way the strokes were drawn
    mesh_ops.orient_all(mesh)

    bad_edges, bad_vertices = mesh_ops.audit_manifold(mesh)
    stats = mesh_ops.component_stats(mesh)
    report = {
        "stage_stats": tracker.stats,
        "interpolated_edge_fraction": mesh_ops.path_edge_fraction(
            mesh, _stroke_paths(cs, work)),
        "nonmanifold_edges": len(bad_edges),
        "nonmanifold_vertices": len(bad_vertices),
        "components": len(stats),
        "euler_characteristics": [s["euler"] for s in stats],
        "boundary_loops": [s["boundary_loops"] for s in stats],
        "triangles": mesh.active_count(),
        "vertices": len(np.unique(mesh.edges()[1])),
        "strokes_in": len(drawing.strokes),
        "strokes_trimmed_away": dropped,
        "duplicates_skipped": mesh.duplicates_skipped,
        "quads_rejected": mesh.quads_rejected,
        "total_seconds": time.perf_counter() - t_start,
    }
    return mesh, report
