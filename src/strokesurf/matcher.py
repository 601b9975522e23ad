"""Vertex-to-vertex matching between ribbon strokes.

Matching runs per chain and per side. A chain is a polyline with frames:
either a stroke spine or, in the later surfacing phases, a boundary loop
of the partial mesh. Candidates come from one pair search per phase: a
cKDTree gathers every pair of vertices within the largest acceptance
radius, the geometric conditions (distance, probe cone, non-adjacency,
end cone, target chain) filter the pair arrays, and a sort splits what
is left into each vertex's list. One match per vertex is then chosen by
maximizing the product of vertex and persistence scores along the chain
with a Viterbi sweep, after all of a chain side's vertex and transition
scores have been computed in batches. Vertices with no candidates split
the chain into independently solved segments.

All candidate ids are flat indices into the ChainSet arrays; ties are
broken toward the lowest (chain, vertex) pair, which equals flat-id
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.spatial import cKDTree

from . import scoring
from .scoring import Side


class VertexRef(NamedTuple):
    chain: int
    index: int


@dataclass
class Chain:
    """A polyline with per-vertex frames, widths and colors.

    gids map chain vertices to mesh vertex ids (for strokes these are
    assigned densely in stroke order). component tags boundary chains
    with the mesh component they bound; dmax optionally overrides the
    width-based acceptance radius per vertex.
    """

    gids: np.ndarray
    positions: np.ndarray
    tangents: np.ndarray
    normals: np.ndarray
    binormals: np.ndarray
    widths: np.ndarray
    colors: np.ndarray
    ok: np.ndarray
    cyclic: bool = False
    component: int = -1
    dmax: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.positions)


class ChainSet:
    """A list of chains plus flattened per-vertex arrays for bulk math."""

    def __init__(self, chains):
        self.chains = list(chains)
        self._rebuild()

    def _rebuild(self):
        cs = self.chains
        self.offsets = np.zeros(len(cs) + 1, dtype=np.int64)
        for i, c in enumerate(cs):
            self.offsets[i + 1] = self.offsets[i] + len(c)
        total = int(self.offsets[-1])
        if total == 0:
            raise ValueError("empty chain set")
        self.pos = np.concatenate([c.positions for c in cs])
        self.tan = np.concatenate([c.tangents for c in cs])
        self.nrm = np.concatenate([c.normals for c in cs])
        self.bin = np.concatenate([c.binormals for c in cs])
        self.w = np.concatenate([c.widths for c in cs])
        self.col = np.concatenate([c.colors for c in cs])
        self.ok = np.concatenate([c.ok for c in cs])
        self.gid = np.concatenate([c.gids for c in cs])
        self.chain_id = np.concatenate(
            [np.full(len(c), i, dtype=np.int64) for i, c in enumerate(cs)])
        self.index = np.concatenate(
            [np.arange(len(c), dtype=np.int64) for c in cs])
        if all(c.dmax is not None for c in cs):
            self.dmax = np.concatenate([c.dmax for c in cs])
        else:
            self.dmax = None

    def append_chain(self, chain):
        self.chains.append(chain)
        self._rebuild()
        return len(self.chains) - 1

    def flat(self, chain, index):
        return int(self.offsets[chain]) + int(index)

    def ref(self, flat_id):
        return VertexRef(int(self.chain_id[flat_id]), int(self.index[flat_id]))

    def __len__(self):
        return int(self.offsets[-1])


def stroke_chains(drawing, gid_base=None):
    """Build the phase-one ChainSet straight from the drawing's strokes."""
    chains = []
    base = 0
    for s in drawing.strokes:
        n = len(s)
        chains.append(Chain(
            gids=np.arange(base, base + n, dtype=np.int64),
            positions=s.points,
            tangents=s.tangents,
            normals=s.normals,
            binormals=s.binormals,
            widths=s.widths,
            colors=np.tile(s.color, (n, 1)),
            ok=s.frames_ok.copy(),
        ))
        base += n
    return ChainSet(chains)


@dataclass
class CandidateSet:
    """Per (chain, side) candidate lists of flat vertex ids.

    pairs_tested counts the directed (source, target) pairs the pair
    search tested, once per side built.
    """

    chainset: ChainSet
    cone_deg: float
    radius_mode: str                      # "width" or "dmax"
    pairs_tested: int = 0
    lists: dict = field(default_factory=dict)

    def get(self, chain, side):
        return self.lists.get((chain, int(side)))


@dataclass
class MatchTable:
    """Chosen matches per (chain, side): flat target ids (-1 = none),
    the log vertex score of each chosen match, and per-chain-side total
    log scores over the solved segments."""

    chainset: ChainSet
    matches: dict = field(default_factory=dict)
    match_logs: dict = field(default_factory=dict)
    totals: dict = field(default_factory=dict)


def _query_radii(cs, config, radius_mode):
    """Upper bound on the acceptance radius per source vertex."""
    if radius_mode == "dmax":
        if cs.dmax is None:
            raise ValueError("chainset has no dmax for gap-phase matching")
        return cs.dmax
    w_max = float(cs.w[cs.ok].max()) if cs.ok.any() else float(cs.w.max())
    return config.width_factor * 0.5 * (cs.w + w_max)


def pair_sigmas(cs, p_flat, q_flats, config):
    """Gaussian sigma per (p, q) pair; the gap phase averages the two
    component radii, otherwise the width rule applies."""
    if cs.dmax is not None:
        return 0.5 * (cs.dmax[p_flat] + cs.dmax[q_flats])
    return config.width_factor * 0.5 * (cs.w[p_flat] + cs.w[q_flats])


def _build_candidates(cs, config, cone_deg, sides, radius_mode,
                      color_cue=False, allowed=None):
    """Shared candidate generation: one pair search per phase.

    One cKDTree.query_pairs call gathers every pair of non-degenerate
    vertices within the largest acceptance radius. The symmetric tests
    (minimum length, width-mode radius, color, polyline adjacency) run
    on the undirected pairs; the pairs are then taken in both
    directions, and the directed tests (dmax-mode radius, target chain,
    probe cone per side, end cone) run on those arrays. Sorting by
    (source, target) splits them into each vertex's ascending list.

    allowed: optional function (source chains, target chains, side) ->
    bool mask of the pairs whose target chain may be matched; None
    allows every chain.
    """
    cos_cone = float(np.cos(np.radians(cone_deg)))
    radii = _query_radii(cs, config, radius_mode)
    ok_ids = np.nonzero(cs.ok)[0]
    eps_len = 1e-12 * max(1.0, float(np.abs(cs.pos).max()))
    # the slack keeps pairs whose tree distance rounds above the radius
    pairs = ok_ids[cKDTree(cs.pos[ok_ids]).query_pairs(
        float(radii.max()) * (1 + 1e-9), output_type="ndarray")]
    out = CandidateSet(cs, cone_deg, radius_mode,
                       pairs_tested=2 * len(pairs) * len(sides))

    a, b = pairs[:, 0], pairs[:, 1]
    d = cs.pos[b] - cs.pos[a]
    dist = np.linalg.norm(d, axis=1)
    keep = dist > eps_len
    if radius_mode != "dmax":
        keep &= dist <= config.width_factor * 0.5 * (cs.w[a] + cs.w[b])
    if color_cue:
        keep &= np.all(cs.col[a] == cs.col[b], axis=1)

    # exclude the immediate polyline neighbors
    lengths = np.diff(cs.offsets)
    cyclic = np.array([c.cyclic for c in cs.chains], dtype=bool)
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
        if allowed is not None:
            sel &= allowed(cs.chain_id[src], cs.chain_id[tgt], side)
        s, t = src[sel], tgt[sel]
        order = np.lexsort((t, s))
        s, t = s[order], t[order]
        bounds = np.searchsorted(s, np.arange(len(cs) + 1)).tolist()
        per_vertex = [t[i:j] for i, j in zip(bounds[:-1], bounds[1:])]
        for ci in range(len(cs.chains)):
            out.lists[(ci, side)] = per_vertex[
                int(cs.offsets[ci]):int(cs.offsets[ci + 1])]
    return out


def baseline_candidates(cs, config, color_cue=False):
    """First-pass candidates: every non-degenerate vertex of every stroke
    within the width-based radius and the probe cone."""
    return _build_candidates(cs, config, config.cone_angle_deg,
                             (Side.LEFT, Side.RIGHT), "width",
                             color_cue=color_cue)


def restricted_candidates(cs, config, neighbors, color_cue=False):
    """Second-pass candidates, limited per side to the stroke itself and
    its dominant neighbor on that side."""
    # dominant neighbor per chain and side, -1 where there is none
    dominant = {}
    for side in (Side.LEFT, Side.RIGHT):
        dominant[int(side)] = np.array(
            [-1 if t is None else t for t in
             (neighbors.neighbor_of(ci, side)
              for ci in range(len(cs.chains)))], dtype=np.int64)

    def allowed(src_chain, tgt_chain, side):
        return ((tgt_chain == src_chain)
                | (tgt_chain == dominant[side][src_chain]))

    return _build_candidates(cs, config, config.cone_angle_deg,
                             (Side.LEFT, Side.RIGHT), "width",
                             color_cue=color_cue, allowed=allowed)


def boundary_candidates(cs, config, phase, color_cue=False):
    """Candidates for boundary-loop chains. Matching runs on the side the
    binormal points to (away from the surface), so only LEFT is built.

    phase "extension" keeps candidates within each chain's own mesh
    component; phase "gap" searches all boundaries with a wider cone and
    the per-component acceptance radius carried in chain.dmax.
    """
    if phase == "extension":
        component = np.array([c.component for c in cs.chains],
                             dtype=np.int64)

        def allowed(src_chain, tgt_chain, side):
            return component[src_chain] == component[tgt_chain]

        return _build_candidates(cs, config, config.cone_angle_deg,
                                 (Side.LEFT,), "width",
                                 color_cue=color_cue, allowed=allowed)
    if phase == "gap":
        return _build_candidates(cs, config, config.boundary_cone_angle_deg,
                                 (Side.LEFT,), "dmax", color_cue=color_cue)
    raise ValueError(f"unknown boundary phase {phase!r}")


# ---- Viterbi over segments ----

def viterbi_path(emissions, transitions):
    """Maximize sum(emissions) + sum(transitions) over one choice per
    position. emissions[i] is (k_i,), transitions[i] is (k_i, k_{i+1}).
    Ties resolve to the lowest candidate index at every step.

    Returns (choices, total_log).
    """
    n = len(emissions)
    dp = np.asarray(emissions[0], dtype=np.float64).copy()
    back = []
    for i in range(1, n):
        tot = dp[:, None] + np.asarray(transitions[i - 1], dtype=np.float64)
        bp = np.argmax(tot, axis=0)
        dp = tot[bp, np.arange(tot.shape[1])] + emissions[i]
        back.append(bp)
    end = int(np.argmax(dp))
    choices = [0] * n
    choices[-1] = end
    for i in range(n - 2, -1, -1):
        choices[i] = int(back[i][choices[i + 1]])
    return choices, float(dp[end])


def _transition_blocks(cs, src, tgt, sig, starts, counts):
    """Log persistence matrices, keyed by k, of every step k -> k + 1
    whose two vertices both have candidates, all scored in one kernel
    call. (src, tgt, sig) are the chain's emission rows, vertex k's rows
    starting at starts[k]."""
    steps = np.nonzero((counts[:-1] > 0) & (counts[1:] > 0))[0]
    k_i, k_j = counts[steps], counts[steps + 1]
    # candidate a of vertex k against candidate b of vertex k + 1,
    # row-major per step
    block = np.repeat(np.arange(len(steps)), k_i * k_j)
    block_start = np.concatenate([[0], np.cumsum(k_i * k_j)])
    r = np.arange(block_start[-1]) - block_start[block]
    ri = starts[steps][block] + r // k_j[block]
    rj = starts[steps + 1][block] + r % k_j[block]
    trans = scoring.persistence_log_rows(
        cs.pos[src[ri]], cs.pos[src[rj]], cs.pos[tgt[ri]],
        cs.pos[tgt[rj]], sig[ri])
    return {k: trans[block_start[o]:block_start[o + 1]].reshape(
                int(k_i[o]), int(k_j[o]))
            for o, k in enumerate(steps.tolist())}


def viterbi_chain(cs, chain_id, side, cand_lists, config):
    """Solve one chain/side: per-vertex matches (-1 where unmatched),
    their log vertex scores, and the summed log score over segments.

    Every (vertex, candidate) row of the chain is scored in one call of
    the vertex-score kernel, and every transition block (the candidates
    of vertex k against those of vertex k + 1, for consecutive vertices
    that both have some) in one call of the row-wise persistence kernel;
    the segments' Viterbi sweeps then read slices of the two.
    """
    n = len(cs.chains[chain_id])
    base = int(cs.offsets[chain_id])
    match = np.full(n, -1, dtype=np.int64)
    mlog = np.full(n, np.nan)
    counts = np.array([len(c) for c in cand_lists], dtype=np.int64)
    src = np.repeat(np.arange(base, base + n), counts)
    tgt = np.concatenate(cand_lists)
    sig = pair_sigmas(cs, src, tgt, config)
    emis = scoring.vertex_scores_log_arrays(
        cs.pos[src], cs.tan[src], cs.bin[src], cs.w[src], int(side),
        cs.pos[tgt], cs.tan[tgt], cs.bin[tgt], cs.w[tgt], sig)
    starts = np.concatenate([[0], np.cumsum(counts)])
    step_trans = _transition_blocks(cs, src, tgt, sig, starts, counts)

    total = 0.0
    i = 0
    while i < n:
        if counts[i] == 0:
            i += 1
            continue
        j = i
        while j + 1 < n and counts[j + 1] > 0:
            j += 1
        emissions = [emis[starts[k]:starts[k + 1]] for k in range(i, j + 1)]
        transitions = [step_trans[k] for k in range(i, j)]
        choices, seg_total = viterbi_path(emissions, transitions)
        for off, c in enumerate(choices):
            match[i + off] = cand_lists[i + off][c]
            mlog[i + off] = emissions[off][c]
        total += seg_total
        i = j + 1
    return match, mlog, total


def match_all(cands, config):
    """Run viterbi_chain for every (chain, side) present in the
    candidate set."""
    cs = cands.chainset
    table = MatchTable(cs)
    for (ci, side) in sorted(cands.lists.keys()):
        match, mlog, total = viterbi_chain(cs, ci, side,
                                           cands.lists[(ci, side)], config)
        table.matches[(ci, side)] = match
        table.match_logs[(ci, side)] = mlog
        table.totals[(ci, side)] = total
    return table


# ---- neighbor statistics ----

def matching_frequencies(table):
    """Share of each chain's vertices matched into each target chain,
    per side: freq[(chain, side)][target] in [0, 1]."""
    cs = table.chainset
    freqs = {}
    for (ci, side), match in table.matches.items():
        n = len(match)
        counts = {}
        for t in cs.chain_id[match[match >= 0]]:
            counts[int(t)] = counts.get(int(t), 0) + 1
        freqs[(ci, side)] = {t: c / n for t, c in sorted(counts.items())}
    return freqs


@dataclass
class NeighborMap:
    """Dominant neighbor per (chain, side), with its frequency."""

    dominant: dict = field(default_factory=dict)

    def neighbor_of(self, chain, side):
        entry = self.dominant.get((chain, int(side)))
        return None if entry is None else entry[0]


def dominant_neighbors(table, freqs, config):
    """Pick the per-side dominant neighbor: strictly highest matching
    frequency (ties to the lower chain id), at least dominant_freq, and
    at least one consecutive vertex pair matched to consecutive target
    vertices (either index order)."""
    cs = table.chainset
    out = NeighborMap()
    for (ci, side), match in sorted(table.matches.items()):
        fmap = freqs.get((ci, side), {})
        best_t, best_f = None, 0.0
        for t in sorted(fmap):
            if fmap[t] > best_f:
                best_t, best_f = t, fmap[t]
        if best_t is None or best_f < config.dominant_freq:
            continue
        m = match
        ok_pair = False
        for i in range(len(m) - 1):
            a, b = m[i], m[i + 1]
            if a < 0 or b < 0:
                continue
            if cs.chain_id[a] != best_t or cs.chain_id[b] != best_t:
                continue
            if abs(int(cs.index[a]) - int(cs.index[b])) == 1:
                ok_pair = True
                break
        if ok_pair:
            out.dominant[(ci, int(side))] = (best_t, best_f)
    return out

