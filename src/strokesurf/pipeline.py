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

import contextlib
import json
import os
import time
from collections import Counter
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


# the SurfaceMesh counters whose growth a strip-emitting stage reports:
# `emissions`, the triangle rows strip meshing offered the mesh (every row
# of a kept quad, triangle or fan, whether it was added, skipped as a
# duplicate or too thin), `fans`, the fans it queued, `fans_capped`, those
# it dropped unqueued for spanning too long a target section, and
# `fans_vetoed`, those an internal match dropped
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

    @contextlib.contextmanager
    def stage(self, name, consolidation=None, strips=False):
        """Scope one stage; yields the Counter of the counts reported in
        its entry after the mesh deltas, followed, with strips, by the
        growth of STRIP_COUNTS."""
        mesh = self.mesh
        t0 = time.perf_counter()
        tris, removed = len(mesh.tri_verts), mesh.removed_count
        duplicates, rejected = mesh.duplicates_skipped, mesh.quads_rejected
        before = {key: getattr(mesh, key) for key in STRIP_COUNTS if strips}
        self._seq += 1
        counts = Counter()
        failed = True
        try:
            yield counts
            failed = False
        finally:
            for key, n in before.items():
                counts[key] += getattr(mesh, key) - n
            entry = {
                "name": name,
                "triangles_added": len(mesh.tri_verts) - tris,
                "triangles_removed": mesh.removed_count - removed,
                "duplicates_skipped": mesh.duplicates_skipped - duplicates,
                "quads_rejected": mesh.quads_rejected - rejected,
                "seconds": time.perf_counter() - t0,
                **counts,
            }
            if consolidation is not None:
                entry["consolidation"] = asdict(consolidation)
            self.stats.append(entry)
            self.dump_mesh(name + "_failed" if failed else name)

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


def _stroke_paths(cs, drawing):
    """The gids of each stroke's chain: the first chains of cs, one per
    stroke of the drawing, ahead of any offset chain crease meshing
    appended."""
    count = len(drawing.strokes)
    return np.split(cs.gid[:cs.offsets[count]], cs.offsets[1:count])


def _emit_ribbons(mesh, drawing, cs):
    """Strokes with no chain vertex on an active triangle contribute their
    original triangulated ribbons, all inserted with one add_vertices and
    one add_triangles call; a corner's origin is (stroke, vertex)."""
    touched = np.zeros(mesh.vertex_count(), dtype=bool)
    touched[mesh.edges()[1]] = True
    blocks = []
    base = 0
    for si, gids in enumerate(_stroke_paths(cs, drawing)):
        if touched[gids].any():
            continue
        stroke = drawing.strokes[si]
        corners, tris, vertex = ribbon_geometry(stroke)
        blocks.append((corners, stroke.normals[vertex], stroke.widths[vertex],
                       np.tile(stroke.color, (len(vertex), 1)),
                       np.stack([np.full(len(vertex), si), vertex], axis=1),
                       tris + base))
        base += len(corners)
    if not base:
        return 0
    *columns, tris = (np.concatenate(c) for c in zip(*blocks))
    gids = mesh.add_vertices(*columns, KIND_RIBBON)
    return int((mesh.add_triangles(gids[tris]) >= 0).sum())


def _count_matching(stage, cands=None, table=None):
    """Add a match stage's candidate rows, the pairs its search tested
    and its matched vertices to its entry; without a candidate set the
    stage matched nothing."""
    stage["candidates"] += 0 if cands is None else sum(
        len(rows) for rows in cands.lists.values())
    stage["candidate_pairs"] += 0 if cands is None else cands.pairs_tested
    stage["matched"] += 0 if table is None else sum(
        int((m >= 0).sum()) for m in table.matches.values())


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


def _break_nonorientable(stage, mesh, frozen=frozenset()):
    """mesh_ops.break_nonorientable, counted in the stage."""
    cut = mesh_ops.break_nonorientable(mesh, frozen=frozen)
    stage["nonorientable_removed"] += len(cut)
    stage["walk_rows"] += cut.walk_rows


def _match_boundaries(tracker, name, phase, config, color_cue):
    """The stage `name` that matches the mesh's boundary loops in a
    boundary_candidates phase and meshes the matches; returns the
    boundary ChainSet, None when the mesh has no boundary."""
    mesh = tracker.mesh
    with tracker.stage(name, strips=True) as stage:
        bcs = mesh_ops.boundary_chain_set(mesh, config,
                                          with_dmax=phase == "gap")
        if bcs is None:
            _count_matching(stage)
        else:
            cands = matcher.boundary_candidates(bcs, config, phase,
                                                color_cue=color_cue)
            table = matcher.match_all(cands, config)
            _count_matching(stage, cands, table)
            mesher.mesh_from_matches(table, config, mesh=mesh)
            tracker.dump_matches(name, table)
    return bcs


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
        stage["rows_reused"] += table.rows_reused
    tracker.dump_matches("restricted_match", table)

    with tracker.stage("strip_meshing", strips=True):
        if options.preserve_creases:
            mesher.mesh_with_creases(table, config, mesh=mesh)
        else:
            mesher.mesh_from_matches(table, config, mesh=mesh)

    stats = consolidate.ConsolidationStats()
    with tracker.stage("strip_consolidation", stats) as stage:
        consolidate.consolidate_mesh(mesh, cs, config, stats=stats)
        _break_nonorientable(stage, mesh)
        stats.repair_removed += len(consolidate.repair_nonmanifold(mesh))

    if not options.skip_extension:
        frozen = set(mesh.active_ids())
        bcs = _match_boundaries(tracker, "boundary_extension", "extension",
                                config, options.use_color)
        stats = consolidate.ConsolidationStats()
        with tracker.stage("extension_consolidation", stats) as stage:
            if bcs is not None:
                consolidate.consolidate_mesh(mesh, bcs, config,
                                             frozen=frozen, stats=stats)
            _break_nonorientable(stage, mesh, frozen)
            stats.repair_removed += len(
                consolidate.repair_nonmanifold(mesh, frozen=frozen))

    with tracker.stage("small_holes") as stage:
        stage["holes_closed_added"] += mesh_ops.close_small_holes(mesh,
                                                                  config)

    with tracker.stage("boundary_smoothing"):
        mesh_ops.smooth_boundary(mesh, config)

    frozen = set(mesh.active_ids())
    gcs = _match_boundaries(tracker, "gap_spanning", "gap", config,
                            options.use_color)
    stats = consolidate.ConsolidationStats()
    with tracker.stage("gap_consolidation", stats):
        if gcs is not None:
            consolidate.consolidate_mesh(mesh, gcs, config, frozen=frozen,
                                         stats=stats)

    with tracker.stage("orientation") as stage:
        new_tids = [t for t in mesh.active_ids() if t not in frozen]
        stage["moebius_removed"] += len(
            mesh_ops.resolve_moebius(mesh, new_tids))
        _break_nonorientable(stage, mesh, frozen)
        # removals may leave pinched fans behind
        stage["repair_removed"] += len(
            consolidate.repair_nonmanifold(mesh, frozen=frozen))
        stage["holes_closed_added"] += mesh_ops.close_small_holes(mesh,
                                                                  config)
        stage["repair_removed"] += len(
            consolidate.repair_nonmanifold(mesh, frozen=frozen))

    with tracker.stage("ribbons"):
        _emit_ribbons(mesh, work, cs)

    if options.close_holes_max_sides > 0:
        with tracker.stage("hole_filling") as stage:
            stage["holes_filled_added"] += mesh_ops.fill_all_holes(
                mesh, config, max_sides=options.close_holes_max_sides)

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
