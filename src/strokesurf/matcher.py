"""Vertex-to-vertex matching between ribbon strokes.

Matching runs per chain and per side. A chain is a polyline with frames:
either a stroke spine or, in the later surfacing phases, a boundary loop
of the partial mesh. One ChainSet holds every chain of a phase flat, and
every vertex is named by its flat id there: candidates are (source,
target) rows of flat ids, and a match is a flat target id per vertex.

Candidates come from one pair search per phase: a cKDTree gathers every
pair of vertices within the largest acceptance radius, the geometric
conditions (distance, probe cone, non-adjacency, end cone, target
chain) filter the pair arrays, and a sort by (source, target) leaves
each side's rows with every chain's sources in one run. One match per
vertex is then chosen by maximizing the product of vertex and
persistence scores along each segment, a run of consecutive chain
vertices that all have candidates. One Viterbi pass per side scores
every row in batches and advances every segment one step at a time.

The restricted pass of stroke matching is a view of the baseline pass.
Its search would be the baseline's search with one more target-chain
mask, so its rows are the baseline rows that mask keeps, in their
order. Its scores are the baseline's: each row and each transition is
scored on its own, whatever batch it is in. So a side that lost no row
to the restriction has the baseline's match, and a side that lost rows
is walked again on the baseline's scores. The result equals a fresh
search and solve bit for bit.

Ties are broken toward the lowest (chain, vertex) pair, which equals
flat-id order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from . import scoring
from .scoring import Side


@dataclass(eq=False)
class ChainSet:
    """Polyline chains stored flat.

    Vertex k of chain c has flat id offsets[c] + k. Per vertex: gid, its
    mesh vertex id; pos, tan, nrm and bin, its position and frame; w
    and col, its width and color; ok, whether its frame is usable; and
    optionally dmax, an acceptance radius overriding the width rule. Per
    chain: cyclic, and component, the mesh component a boundary chain
    bounds (-1 for strokes). chain_id, index and lengths are derived
    from offsets: each flat id's chain and position in it, and each
    chain's vertex count."""

    offsets: np.ndarray
    gid: np.ndarray
    pos: np.ndarray
    tan: np.ndarray
    nrm: np.ndarray
    bin: np.ndarray
    w: np.ndarray
    col: np.ndarray
    ok: np.ndarray
    cyclic: Optional[np.ndarray] = None
    component: Optional[np.ndarray] = None
    dmax: Optional[np.ndarray] = None

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if self.offsets[-1] == 0:
            raise ValueError("empty chain set")
        count = len(self.offsets) - 1
        if self.cyclic is None:
            self.cyclic = np.zeros(count, dtype=bool)
        if self.component is None:
            self.component = np.full(count, -1, dtype=np.int64)
        self._index()

    def _index(self):
        self.lengths = np.diff(self.offsets)
        self.chain_id = np.repeat(np.arange(len(self.lengths)), self.lengths)
        self.index = np.arange(len(self)) - self.offsets[self.chain_id]

    def append_chain(self, flat, gid, pos):
        """Append a non-cyclic chain whose vertices take the given gids
        and positions and copy every other per-vertex value from the
        flat ids `flat`; returns its chain id. Earlier flat ids keep
        their meaning."""
        self.offsets = np.append(self.offsets, len(self) + len(flat))
        self.gid = np.concatenate([self.gid, gid])
        self.pos = np.concatenate([self.pos, pos])
        for name in ("tan", "nrm", "bin", "w", "col", "ok", "dmax"):
            rows = getattr(self, name)
            if rows is not None:
                setattr(self, name, np.concatenate([rows, rows[flat]]))
        self.cyclic = np.append(self.cyclic, False)
        self.component = np.append(self.component, -1)
        self._index()
        return self.chain_count() - 1

    def chain_count(self):
        return len(self.offsets) - 1

    def __len__(self):
        return int(self.offsets[-1])


def stroke_chains(drawing):
    """Build the phase-one ChainSet straight from the drawing's strokes:
    one chain per stroke, gids dense in stroke order."""
    strokes = drawing.strokes
    lengths = [len(s) for s in strokes]
    return ChainSet(
        offsets=np.concatenate([[0], np.cumsum(lengths)]),
        gid=np.arange(sum(lengths), dtype=np.int64),
        pos=np.concatenate([s.points for s in strokes]),
        tan=np.concatenate([s.tangents for s in strokes]),
        nrm=np.concatenate([s.normals for s in strokes]),
        bin=np.concatenate([s.binormals for s in strokes]),
        w=np.concatenate([s.widths for s in strokes]),
        col=np.repeat([s.color for s in strokes], lengths, axis=0),
        ok=np.concatenate([s.frames_ok for s in strokes]))


@dataclass
class CandidateSet:
    """Candidates per side: lists[side] is an (R, 2) int64 array of
    (source, target) flat ids, sorted by source and then target.

    pairs_tested counts the directed (source, target) pairs the pair
    search tested, once per side built. A restricted set shares its
    baseline's search, so its pairs_tested is that search's count.

    passes is None except on baseline sets, where match_all keeps each
    side's _Pass for a restricted set to reuse. A restricted set names
    that baseline set in base and its rows there in kept, lists[side]
    being base.lists[side][kept[side]], until match_all has solved it.
    """

    chainset: ChainSet
    pairs_tested: int = 0
    lists: dict = field(default_factory=dict)
    passes: Optional[dict] = None
    base: Optional["CandidateSet"] = None
    kept: dict = field(default_factory=dict)


@dataclass
class MatchTable:
    """Chosen matches per side: matches[side] holds one flat target id
    per vertex of the chain set, -1 where the vertex is unmatched.
    rows_reused counts the candidate rows of the sides that lost no row
    to the restriction and so kept the baseline pass's match (0 where
    no pass was reused)."""

    chainset: ChainSet
    matches: dict = field(default_factory=dict)
    rows_reused: int = 0


def _query_radii(cs, config, radius_mode):
    """Upper bound on the acceptance radius per source vertex."""
    if radius_mode == "dmax":
        if cs.dmax is None:
            raise ValueError("chainset has no dmax for gap-phase matching")
        return cs.dmax
    w_max = float(cs.w[cs.ok].max()) if cs.ok.any() else float(cs.w.max())
    return scoring.sigma_for(cs.w, w_max, config)


def pair_sigmas(cs, p_flat, q_flats, config):
    """Gaussian sigma per (p, q) pair; the gap phase averages the two
    component radii, otherwise the width rule applies."""
    if cs.dmax is not None:
        return 0.5 * (cs.dmax[p_flat] + cs.dmax[q_flats])
    return scoring.sigma_for(cs.w[p_flat], cs.w[q_flats], config)


def _build_candidates(cs, config, cone_deg, sides, radius_mode,
                      color_cue=False, same_component=False):
    """Shared candidate generation: one pair search per phase.

    One cKDTree.query_pairs call gathers every pair of non-degenerate
    vertices within the largest acceptance radius. The symmetric tests
    (minimum length, width-mode radius, color, polyline adjacency) run
    on the undirected pairs, with same_component keeping only pairs
    whose chains lie in one mesh component (cs.component); the pairs are
    then taken in both directions, and the directed tests (dmax-mode
    radius, probe cone per side, end cone) run on those arrays. Each
    side keeps its rows sorted by (source, target).
    """
    cos_cone = float(np.cos(np.radians(cone_deg)))
    radii = _query_radii(cs, config, radius_mode)
    ok_ids = np.nonzero(cs.ok)[0]
    eps_len = 1e-12 * max(1.0, float(np.abs(cs.pos).max()))
    # the slack keeps pairs whose tree distance rounds above the radius
    pairs = ok_ids[cKDTree(cs.pos[ok_ids]).query_pairs(
        float(radii.max()) * (1 + 1e-9), output_type="ndarray")]
    out = CandidateSet(cs, pairs_tested=2 * len(pairs) * len(sides))

    a, b = pairs[:, 0], pairs[:, 1]
    d = cs.pos[b] - cs.pos[a]
    dist = np.linalg.norm(d, axis=1)
    keep = dist > eps_len
    if radius_mode != "dmax":
        keep &= dist <= scoring.sigma_for(cs.w[a], cs.w[b], config)
    if color_cue:
        keep &= np.all(cs.col[a] == cs.col[b], axis=1)
    if same_component:
        keep &= (cs.component[cs.chain_id[a]]
                 == cs.component[cs.chain_id[b]])

    # exclude the immediate polyline neighbors
    lengths, cyclic = cs.lengths, cs.cyclic
    ca = cs.chain_id[a]
    di = np.abs(cs.index[a] - cs.index[b])
    wrap = cyclic[ca] & (lengths[ca] > 2) & (di == lengths[ca] - 1)
    keep &= ~((ca == cs.chain_id[b]) & ((di == 1) | wrap))

    a, b, d, dist = a[keep], b[keep], d[keep], dist[keep]
    src = np.concatenate([a, b])
    tgt = np.concatenate([b, a])
    d = np.concatenate([d, -d])
    dist = np.concatenate([dist, dist])
    if radius_mode == "dmax":
        keep = dist <= cs.dmax[src]
    else:
        keep = np.ones(len(src), dtype=bool)

    # near chain ends the cone must also hold seen from q (d points from
    # p to q; the absolute dot product does not see the direction)
    at_end = (~cyclic[cs.chain_id]) & (
        (cs.index == 0) | (cs.index == lengths[cs.chain_id] - 1))
    need = np.nonzero(keep & (at_end[src] | at_end[tgt]))[0]
    at_q = np.abs(np.einsum("ij,ij->i", d[need], cs.bin[tgt[need]]))
    keep[need[at_q < cos_cone * dist[need]]] = False

    # probe cone at p, on each side
    along = np.einsum("ij,ij->i", d, cs.bin[src])
    for side in sides:
        side = int(side)
        sel = keep & (side * along >= cos_cone * dist)
        s, t = src[sel], tgt[sel]
        order = np.lexsort((t, s))
        out.lists[side] = np.stack([s[order], t[order]], axis=1)
    return out


def baseline_candidates(cs, config, color_cue=False):
    """First-pass candidates: every non-degenerate vertex of every stroke
    within the width-based radius and the probe cone."""
    out = _build_candidates(cs, config, config.cone_angle_deg,
                            (Side.LEFT, Side.RIGHT), "width",
                            color_cue=color_cue)
    out.passes = {}
    return out


def restricted_candidates(cands, dominant):
    """Second-pass candidates: the rows of the baseline set cands whose
    target lies on the source's own stroke or on its dominant neighbor
    on that side; dominant[side] is dominant_neighbors' array of them.
    The rows keep their order."""
    cs = cands.chainset
    out = CandidateSet(cs, pairs_tested=cands.pairs_tested, base=cands)
    for side, rows in cands.lists.items():
        src_chain = cs.chain_id[rows[:, 0]]
        tgt_chain = cs.chain_id[rows[:, 1]]
        kept = np.flatnonzero((tgt_chain == src_chain)
                              | (tgt_chain == dominant[side][src_chain]))
        out.kept[side], out.lists[side] = kept, rows[kept]
    return out


def boundary_candidates(cs, config, phase, color_cue=False):
    """Candidates for boundary-loop chains. Matching runs on the side the
    binormal points to (away from the surface), so only LEFT is built.

    phase "extension" keeps candidates within each chain's own mesh
    component; phase "gap" searches all boundaries with a wider cone and
    the per-component acceptance radius carried in cs.dmax.
    """
    if phase == "extension":
        return _build_candidates(cs, config, config.cone_angle_deg,
                                 (Side.LEFT,), "width", color_cue=color_cue,
                                 same_component=True)
    if phase == "gap":
        return _build_candidates(cs, config, config.boundary_cone_angle_deg,
                                 (Side.LEFT,), "dmax", color_cue=color_cue)
    raise ValueError(f"unknown boundary phase {phase!r}")


# ---- Viterbi, one level-synchronous pass per side ----

# rows per scoring-kernel call; the kernels work row by row, so the
# chunk size bounds their temporaries and changes no score
ROW_CHUNK = 4096


def _first_max(values, at, sizes):
    """Max of each group values[at[g]:at[g] + sizes[g]] (the groups tile
    values) and the index of its first occurrence, as argmax picks it."""
    best = np.maximum.reduceat(values, at)
    hit = values == np.repeat(best, sizes)
    index = np.where(hit, np.arange(len(values)), len(values))
    return best, np.minimum.reduceat(index, at)


class _Layout:
    """The shape of a Viterbi pass over candidate rows with sources src,
    sorted: per vertex its row count and first row (counts, starts),
    whether it has rows and whether it is linked to the vertex before
    it (has, linked).

    Vertex v is linked to v - 1 when both have candidates on one chain,
    never across a cyclic chain's ends; its level is its step in its
    segment. lrows are the rows b of linked vertices by level, levels
    the (first, end) positions of each level in lrows, pred the vertex
    before each. Each row b has one group of transition rows, (a, b)
    for every row a of its pred: group g holds the size[g] transitions
    from cut[g], and ja, jb are their (a, b) rows."""

    def __init__(self, cs, src):
        n = len(cs)
        self.counts = np.bincount(src, minlength=n)
        self.starts = np.concatenate([[0], np.cumsum(self.counts)])
        self.has = self.counts > 0
        linked = np.zeros(n, dtype=bool)
        linked[1:] = (self.has[1:] & self.has[:-1]
                      & (cs.chain_id[1:] == cs.chain_id[:-1]))
        self.linked = linked
        step = np.arange(n)
        level = step - np.maximum.accumulate(np.where(linked, 0, step))

        lrows = np.flatnonzero(linked[src])
        self.lrows = lrows[np.argsort(level[src[lrows]], kind="stable")]
        self.pred = src[self.lrows] - 1
        gcut = np.searchsorted(level[self.pred + 1],
                               np.arange(1, level.max() + 2))
        self.levels = list(zip(gcut[:-1].tolist(), gcut[1:].tolist()))
        self.size = self.counts[self.pred]
        self.cut = np.concatenate([[0], np.cumsum(self.size)])
        self.ja = (np.repeat(self.starts[self.pred] - self.cut[:-1],
                             self.size) + np.arange(self.cut[-1]))
        self.jb = np.repeat(self.lrows, self.size)


def _scores(cs, side, rows, lay, config):
    """Log vertex score per row and log persistence score per transition
    of lay, from the scoring kernels in ROW_CHUNK slices."""
    src, tgt = rows[:, 0], rows[:, 1]
    sig = pair_sigmas(cs, src, tgt, config)
    emis = np.empty(len(rows))
    for lo in range(0, len(rows), ROW_CHUNK):
        s, t = src[lo:lo + ROW_CHUNK], tgt[lo:lo + ROW_CHUNK]
        emis[lo:lo + ROW_CHUNK] = scoring.vertex_scores_log_arrays(
            cs.pos[s], cs.tan[s], cs.bin[s], cs.w[s], int(side),
            cs.pos[t], cs.tan[t], cs.bin[t], cs.w[t], sig[lo:lo + ROW_CHUNK])
    trans = np.empty(len(lay.ja))
    for lo in range(0, len(lay.ja), ROW_CHUNK):
        a, b = lay.ja[lo:lo + ROW_CHUNK], lay.jb[lo:lo + ROW_CHUNK]
        trans[lo:lo + ROW_CHUNK] = scoring.persistence_log_rows(
            cs.pos[src[a]], cs.pos[src[b]], cs.pos[tgt[a]], cs.pos[tgt[b]],
            sig[a])
    return emis, trans


def _walk(cs, lay, tgt, emis, trans):
    """Viterbi over lay's segments: per flat vertex the match and its log
    vertex score (-1 and NaN where unmatched), and per chain its
    segments' log scores added in order from 0.0.

    Level by level, every segment's step takes dp[a] + trans[a, b] over
    the rows a of v - 1 and b of v, the max over a (lowest a on ties),
    then + emis[b]."""
    ja, cut, size, lrows = lay.ja, lay.cut, lay.size, lay.lrows
    dp, back = emis.copy(), np.zeros(len(emis), dtype=np.int64)
    for g0, g1 in lay.levels:
        t0, t1 = cut[g0], cut[g1]
        best, first = _first_max(dp[ja[t0:t1]] + trans[t0:t1],
                                 cut[g0:g1] - t0, size[g0:g1])
        b = lrows[g0:g1]
        dp[b] = best + emis[b]
        back[b] = ja[t0 + first]

    # each segment ends at its best row; walk back level by level
    hv = np.flatnonzero(lay.has)
    best, first = _first_max(dp, lay.starts[hv], lay.counts[hv])
    ends = ~np.append(lay.linked[1:], False)[hv]
    choice = np.full(len(cs), -1, dtype=np.int64)
    choice[hv[ends]] = first[ends]
    for g0, g1 in reversed(lay.levels):
        pred = lay.pred[g0:g1]
        choice[pred] = back[choice[pred + 1]]
    totals = np.bincount(cs.chain_id[hv[ends]], weights=best[ends],
                         minlength=cs.chain_count())
    # choice -1 takes the appended value
    return (np.append(tgt, -1)[choice], np.append(emis, np.nan)[choice],
            totals)


def viterbi_chain(cs, side, rows, config):
    """Solve every chain of one side from its candidate rows,
    CandidateSet.lists[side]: per flat vertex the match and its log
    vertex score (-1 and NaN where unmatched), and per chain its
    segments' log scores added in order from 0.0 (see _walk)."""
    lay = _Layout(cs, rows[:, 0])
    return _walk(cs, lay, rows[:, 1], *_scores(cs, side, rows, lay, config))


@dataclass(eq=False)
class _Pass:
    """What a baseline side's Viterbi pass leaves for a restricted pass:
    per row its log vertex score (emis) and the start of its transition
    group in trans (group, -1 for rows of unlinked vertices); per vertex
    its first row (starts) and its match."""

    emis: np.ndarray
    trans: np.ndarray
    group: np.ndarray
    starts: np.ndarray
    match: np.ndarray

    @classmethod
    def solve(cls, cs, side, rows, config):
        """One side's pass over its candidate rows, as viterbi_chain
        solves it."""
        lay = _Layout(cs, rows[:, 0])
        emis, trans = _scores(cs, side, rows, lay, config)
        group = np.full(len(rows), -1, dtype=np.int64)
        group[lay.lrows] = lay.cut[:-1]
        return cls(emis, trans, group, lay.starts,
                   _walk(cs, lay, rows[:, 1], emis, trans)[0])


def _rewalk(cs, rows, kept, done):
    """Solve a restricted side from the baseline pass done, of whose
    rows rows are the kept ones: a side that lost no row keeps done's
    match, and any other is walked again on done's scores, taken in
    ROW_CHUNK slices. Returns the match and the number of rows reused,
    all of them or none."""
    if len(kept) == len(done.emis):
        return done.match, len(rows)
    src = rows[:, 0]
    lay = _Layout(cs, src)
    trans = np.empty(len(lay.ja))
    for lo in range(0, len(lay.ja), ROW_CHUNK):
        a, b = lay.ja[lo:lo + ROW_CHUNK], lay.jb[lo:lo + ROW_CHUNK]
        # row a's offset among the baseline rows of b's pred
        trans[lo:lo + ROW_CHUNK] = done.trans[
            done.group[kept[b]] + kept[a] - done.starts[src[b] - 1]]
    return _walk(cs, lay, rows[:, 1], done.emis[kept], trans)[0], 0


def match_all(cands, config):
    """Solve every side the candidate set holds. A baseline set keeps
    each side's pass. A restricted set whose baseline set holds the
    side's pass reuses it (see _rewalk). Its link to the baseline set
    is then dropped, so the passes live no longer than they are needed."""
    cs, base = cands.chainset, cands.base
    passes = {} if base is None else base.passes or {}
    table = MatchTable(cs)
    for side, rows in sorted(cands.lists.items()):
        done = passes.get(side)
        if done is not None:
            match, reused = _rewalk(cs, rows, cands.kept[side], done)
            table.rows_reused += reused
        else:
            done = _Pass.solve(cs, side, rows, config)
            match = done.match
            if cands.passes is not None:
                cands.passes[side] = done
        table.matches[side] = match
    cands.base, cands.kept = None, {}
    return table


# ---- neighbor statistics ----

def matching_frequencies(table):
    """Share of each chain's vertices matched into each target chain,
    per side: freqs[side][chain, target] in [0, 1]."""
    cs = table.chainset
    count = cs.chain_count()
    freqs = {}
    for side, match in table.matches.items():
        f = np.flatnonzero(match >= 0)
        hits = np.bincount(cs.chain_id[f] * count + cs.chain_id[match[f]],
                           minlength=count * count)
        freqs[side] = hits.reshape(count, count) / cs.lengths[:, None]
    return freqs


def dominant_neighbors(table, freqs, config):
    """Pick the per-side dominant neighbor of every chain: strictly
    highest matching frequency (ties to the lower chain id), at least
    dominant_freq, and at least one consecutive vertex pair matched to
    consecutive target vertices (either index order). Returns
    dominant[side], the neighbor per chain, -1 where there is none."""
    cs = table.chainset
    # the first vertex of every consecutive pair within a chain
    first = np.flatnonzero(cs.chain_id[1:] == cs.chain_id[:-1])
    out = {}
    for side, freq in freqs.items():
        best = np.argmax(freq, axis=1)
        often = freq[np.arange(len(best)), best] >= config.dominant_freq
        match = table.matches[side]
        a, b = match[first], match[first + 1]
        both = (a >= 0) & (b >= 0)
        f, a, b = first[both], a[both], b[both]
        t = best[cs.chain_id[f]]
        run = ((cs.chain_id[a] == t) & (cs.chain_id[b] == t)
               & (np.abs(cs.index[a] - cs.index[b]) == 1))
        supported = np.zeros(len(best), dtype=bool)
        supported[cs.chain_id[f[run]]] = True
        out[side] = np.where(often & supported, best, -1)
    return out
