"""Span tracing for strokesurf, installed from outside the package.

`Tracer.install()` replaces the public functions and `SurfaceMesh`
methods listed in `TARGETS` with timing wrappers. Every other module
attribute of the package that is bound to the same function object
(for example `pipeline.trim_hooks` or `cli.run_pipeline`, which come
from `from ... import`) is replaced as well, so no call path escapes
the wrapper. `Tracer.restore()` puts every original object back.

Spans live in memory as flat arrays (name id, parent index, start, end)
and are turned into per-name self times by `Trace.summary()`: a span's
self time is its duration minus the durations of its direct children.
Counts are taken only from what the wrapped calls return.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute) pairs; an attribute "Class.method" wraps a plain
# function stored on the class. Span names are "<module>.<attribute>".
TARGETS = [
    ("stroke_model", "load_drawing"),
    ("stroke_model", "trim_hooks"),
    ("stroke_model", "canonical_stroke_order"),
    ("stroke_model", "ribbon_geometry"),
    ("matcher", "stroke_chains"),
    ("matcher", "baseline_candidates"),
    ("matcher", "restricted_candidates"),
    ("matcher", "boundary_candidates"),
    ("matcher", "match_all"),
    ("matcher", "viterbi_chain"),
    ("matcher", "matching_frequencies"),
    ("matcher", "dominant_neighbors"),
    ("mesher", "mesh_from_matches"),
    ("mesher", "mesh_with_creases"),
    ("mesher", "SurfaceMesh.add_triangle"),
    ("mesher", "SurfaceMesh.add_vertices"),
    ("mesher", "SurfaceMesh.edge_map"),
    ("mesher", "SurfaceMesh.vertex_tris"),
    ("mesher", "SurfaceMesh.components"),
    ("consolidate", "consolidate_mesh"),
    ("consolidate", "find_incompatible_pairs"),
    ("consolidate", "incompatible"),
    ("consolidate", "classify_undecided"),
    ("consolidate", "undecided_components"),
    ("consolidate", "build_conflict_graph"),
    ("consolidate", "solve_clustering"),
    ("consolidate", "apply_consolidation"),
    ("consolidate", "repair_nonmanifold"),
    ("geometry", "segment_crosses_triangle_interior"),
    ("mesh_ops", "audit_manifold"),
    ("mesh_ops", "vertex_fan_groups"),
    ("mesh_ops", "orient_all"),
    ("mesh_ops", "break_nonorientable"),
    ("mesh_ops", "resolve_moebius"),
    ("mesh_ops", "boundary_chain_set"),
    ("mesh_ops", "close_small_holes"),
    ("mesh_ops", "fill_all_holes"),
    ("mesh_ops", "smooth_boundary"),
    ("mesh_ops", "laplacian_smooth"),
    ("mesh_ops", "component_stats"),
    ("mesh_ops", "export_obj"),
    ("mesh_ops", "load_obj"),
    ("mesh_ops", "mesh_from_arrays"),
    ("pipeline", "run_pipeline"),
    ("synth_eval", "evaluate"),
    ("synth_eval", "points_to_mesh_distance"),
    ("synth_eval", "interpolated_fraction"),
    ("synth_eval", "sample_mesh_surface"),
    ("synth_eval", "GroundTruthSurface.distance"),
]

PACKAGE = "strokesurf"


def _count_candidates(counts, result, args):
    counts["matcher.candidates.count"] += sum(
        len(v) for v in result.lists.values())


def _count_matches(counts, result, args):
    counts["matcher.matched.count"] += sum(
        int((np.asarray(m) >= 0).sum()) for m in result.matches.values())


def _count_triangle(counts, result, args):
    if result is not None:
        counts["mesher.triangles_added.count"] += 1


def _count_pairs(counts, result, args):
    counts["consolidate.pairs.count"] += len(result)


def _count_components(counts, result, args):
    counts["consolidate.undecided_components.count"] += len(result)
    counts["consolidate.undecided.count"] += sum(len(c) for c in result)
    if result:
        counts["consolidate.component.max_nodes"] = max(
            counts["consolidate.component.max_nodes"],
            max(len(c) for c in result))


def _count_repairs(counts, result, args):
    counts["consolidate.repair_nonmanifold.removed"] += len(result)


def _clustering_is_greedy(args):
    consolidate = sys.modules[PACKAGE + ".consolidate"]
    graph = args[0]
    return int(len(graph.nodes) > consolidate.EXACT_NODE_LIMIT)


# span name -> hook(counts, result, args) deriving counts from returns
COUNT_HOOKS = {
    "matcher.baseline_candidates": _count_candidates,
    "matcher.restricted_candidates": _count_candidates,
    "matcher.boundary_candidates": _count_candidates,
    "matcher.match_all": _count_matches,
    "mesher.SurfaceMesh.add_triangle": _count_triangle,
    "consolidate.find_incompatible_pairs": _count_pairs,
    "consolidate.undecided_components": _count_components,
    "consolidate.repair_nonmanifold": _count_repairs,
}

COUNT_KEYS = [
    "matcher.candidates.count", "matcher.matched.count",
    "mesher.triangles_added.count", "consolidate.pairs.count",
    "consolidate.undecided_components.count", "consolidate.undecided.count",
    "consolidate.component.max_nodes",
    "consolidate.repair_nonmanifold.removed",
]

# span name -> (span names to record instead, function of the call's
# arguments giving the index of the one to use), for a function whose
# cost depends on the path it takes
SPLIT_SPANS = {
    "consolidate.solve_clustering": (
        ("consolidate.solve_clustering.exact",
         "consolidate.solve_clustering.greedy"), _clustering_is_greedy),
}


class Trace:
    """Spans and counts recorded between two `Tracer.take()` calls."""

    def __init__(self, names, name_ids, parents, starts, ends, counts):
        self.names = list(names)
        self.name_ids = np.frombuffer(name_ids, dtype=np.int32).copy()
        self.parents = np.frombuffer(parents, dtype=np.int64).copy()
        self.starts = np.frombuffer(starts, dtype=np.float64).copy()
        self.ends = np.frombuffer(ends, dtype=np.float64).copy()
        self.counts = dict(counts)

    def __len__(self):
        return len(self.starts)

    def self_times(self):
        """Per-span duration minus the durations of its direct children."""
        dur = self.ends - self.starts
        child = np.zeros(len(dur))
        has_parent = self.parents >= 0
        np.add.at(child, self.parents[has_parent], dur[has_parent])
        return dur - child

    def summary(self):
        """name -> {"calls", "self_s", "total_s"} over all spans."""
        n = len(self.names)
        self_s = np.bincount(self.name_ids, weights=self.self_times(),
                             minlength=n)
        total_s = np.bincount(self.name_ids,
                              weights=self.ends - self.starts, minlength=n)
        calls = np.bincount(self.name_ids, minlength=n)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "total_s": float(total_s[i])}
                for i, name in enumerate(self.names)}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            name_ids=self.name_ids, parents=self.parents,
                            starts=self.starts, ends=self.ends)


class Tracer:
    """Installs timing wrappers and records one span per wrapped call."""

    def __init__(self, targets=TARGETS):
        self.targets = list(targets)
        self.names = []
        self._ids = {}
        self._patched = []          # (owner, attribute, original)
        self.missing = []
        self._reset()

    def _reset(self):
        self._name_ids = array("i")
        self._parents = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = []
        self.counts = dict.fromkeys(COUNT_KEYS, 0)

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self._starts)
        self._name_ids.append(nid)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(0.0)
        self._stack.append(idx)
        self._starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self._ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        hook = COUNT_HOOKS.get(name)
        split_names, choose = SPLIT_SPANS.get(name, ((name,), None))
        nids = [self._name_id(n) for n in split_names]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nids[choose(args)] if choose else nids[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counts, result, args)
            return result

        return wrapper

    def install(self):
        """Wrap every target (and every alias of it in the package)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        package = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        try:
            for module_name, attr in self.targets:
                self._install_one(module_name, attr, package)
        except BaseException:
            self.restore()
            raise

    def _install_one(self, module_name, attr, package):
        name = f"{module_name}.{attr}"
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        owner = module
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None) if owner is not None else None
        original = vars(owner).get(leaf) if owner is not None else None
        if not callable(original) or isinstance(original,
                                                (staticmethod, classmethod)):
            # keep the name so its metrics read zero rather than vanish
            self._name_id(name)
            self.missing.append(name)
            return
        wrapper = self._wrap(original, name)
        self._patch(owner, leaf, original, wrapper)
        if path:
            return
        for mod in package:
            for alias, value in list(vars(mod).items()):
                if value is original and not (mod is owner and
                                              alias == leaf):
                    self._patch(mod, alias, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put back every original attribute, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self):
        """Return the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        trace = Trace(self.names, self._name_ids, self._parents,
                      self._starts, self._ends, self.counts)
        self._reset()
        return trace
