"""Vertex-to-vertex matching between ribbon strokes.

Matching runs per chain and per side. A chain is a polyline with frames:
either a stroke spine or, in the later surfacing phases, a boundary loop
of the partial mesh. Candidates for each vertex are gathered by
geometric conditions (distance, probe cone, non-adjacency), then one
match per vertex is chosen by maximizing the product of vertex and
persistence scores along the chain with a Viterbi sweep. Vertices with
no candidates split the chain into independently solved segments.

All candidate ids are flat indices into the ChainSet arrays; ties are
broken toward the lowest (chain, vertex) pair, which equals flat-id
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

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
    """Per (chain, side) candidate lists of flat vertex ids."""

    chainset: ChainSet
    cone_deg: float
    radius_mode: str                      # "width" or "dmax"
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

    def match_of(self, chain, index, side):
        arr = self.matches.get((chain, int(side)))
        if arr is None or arr[index] < 0:
            return None
        return self.chainset.ref(arr[index])


class _UniformGrid:
    """Spatial hash over points with a fixed cell size. Pure lookup
    accelerator; all geometric filtering happens on the gathered ids."""

    def __init__(self, points, cell):
        self.cell = max(float(cell), 1e-12)
        keys = np.floor(points / self.cell).astype(np.int64)
        self.table = {}
        for i, k in enumerate(map(tuple, keys)):
            self.table.setdefault(k, []).append(i)
        for k in self.table:
            self.table[k] = np.asarray(self.table[k], dtype=np.int64)

    def nearby(self, point):
        cx, cy, cz = np.floor(point / self.cell).astype(np.int64)
        out = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    ids = self.table.get((cx + dx, cy + dy, cz + dz))
                    if ids is not None:
                        out.append(ids)
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)


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
                      color_cue=False, target_chains=None):
    """Shared candidate generation.

    target_chains: optional dict (chain, side_sign) -> set of allowed
    target chain ids; None allows every chain.
    """
    cos_cone = float(np.cos(np.radians(cone_deg)))
    radii = _query_radii(cs, config, radius_mode)
    ok_ids = np.nonzero(cs.ok)[0]
    grid = _UniformGrid(cs.pos[ok_ids], float(radii.max()))

    out = CandidateSet(cs, cone_deg, radius_mode)
    eps_len = 1e-12 * max(1.0, float(np.abs(cs.pos).max()))

    for ci, chain in enumerate(cs.chains):
        n = len(chain)
        base = int(cs.offsets[ci])
        for side in sides:
            allowed = None
            if target_chains is not None:
                allowed = target_chains.get((ci, int(side)))
            per_vertex = []
            for i in range(n):
                fp = base + i
                if not cs.ok[fp]:
                    per_vertex.append(np.empty(0, dtype=np.int64))
                    continue
                cand = ok_ids[grid.nearby(cs.pos[fp])]
                cand = cand[cand != fp]
                if allowed is not None:
                    keep = np.isin(cs.chain_id[cand],
                                   np.fromiter(allowed, dtype=np.int64))
                    cand = cand[keep]
                if color_cue and len(cand):
                    cand = cand[np.all(cs.col[cand] == cs.col[fp], axis=1)]
                if not len(cand):
                    per_vertex.append(cand)
                    continue

                d = cs.pos[cand] - cs.pos[fp]
                dist = np.linalg.norm(d, axis=1)
                if radius_mode == "dmax":
                    within = dist <= cs.dmax[fp]
                else:
                    within = dist <= config.width_factor * 0.5 * (
                        cs.w[fp] + cs.w[cand])
                keep = within & (dist > eps_len)

                # probe cone at p
                along = d @ (int(side) * cs.bin[fp])
                keep &= along >= cos_cone * dist

                # exclude the immediate polyline neighbors
                same = cs.chain_id[cand] == ci
                di = np.abs(cs.index[cand] - i)
                adj = same & (di == 1)
                if chain.cyclic and n > 2:
                    adj |= same & (di == n - 1)
                keep &= ~adj

                # near chain ends the cone must also hold seen from q
                cand_k = cand[keep]
                if len(cand_k):
                    p_end = (not chain.cyclic) and (i == 0 or i == n - 1)
                    tchain = cs.chain_id[cand_k]
                    tidx = cs.index[cand_k]
                    q_cyc = np.array(
                        [cs.chains[t].cyclic for t in tchain], dtype=bool)
                    q_n = np.array(
                        [len(cs.chains[t]) for t in tchain], dtype=np.int64)
                    q_end = (~q_cyc) & ((tidx == 0) | (tidx == q_n - 1))
                    need = q_end | p_end
                    if need.any():
                        dq = cs.pos[fp] - cs.pos[cand_k]
                        ndq = np.linalg.norm(dq, axis=1)
                        at_q = np.abs(
                            np.einsum("ij,ij->i", dq, cs.bin[cand_k]))
                        fails = need & (at_q < cos_cone * ndq)
                        cand_k = cand_k[~fails]
                per_vertex.append(np.sort(cand_k))
            out.lists[(ci, int(side))] = per_vertex
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
    targets = {}
    for ci in range(len(cs.chains)):
        for side in (Side.LEFT, Side.RIGHT):
            allowed = {ci}
            t = neighbors.neighbor_of(ci, side)
            if t is not None:
                allowed.add(t)
            targets[(ci, int(side))] = allowed
    return _build_candidates(cs, config, config.cone_angle_deg,
                             (Side.LEFT, Side.RIGHT), "width",
                             color_cue=color_cue, target_chains=targets)


def boundary_candidates(cs, config, phase, color_cue=False):
    """Candidates for boundary-loop chains. Matching runs on the side the
    binormal points to (away from the surface), so only LEFT is built.

    phase "extension" keeps candidates within each chain's own mesh
    component; phase "gap" searches all boundaries with a wider cone and
    the per-component acceptance radius carried in chain.dmax.
    """
    if phase == "extension":
        targets = {}
        for ci, chain in enumerate(cs.chains):
            allowed = {j for j, c in enumerate(cs.chains)
                       if c.component == chain.component}
            targets[(ci, int(Side.LEFT))] = allowed
        return _build_candidates(cs, config, config.cone_angle_deg,
                                 (Side.LEFT,), "width",
                                 color_cue=color_cue, target_chains=targets)
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


def viterbi_chain(cs, chain_id, side, cand_lists, config):
    """Solve one chain/side: per-vertex matches (-1 where unmatched),
    their log vertex scores, and the summed log score over segments."""
    chain = cs.chains[chain_id]
    n = len(chain)
    base = int(cs.offsets[chain_id])
    match = np.full(n, -1, dtype=np.int64)
    mlog = np.full(n, np.nan)
    total = 0.0

    i = 0
    while i < n:
        if len(cand_lists[i]) == 0:
            i += 1
            continue
        j = i
        while j + 1 < n and len(cand_lists[j + 1]) > 0:
            j += 1
        emissions = []
        for k in range(i, j + 1):
            fp = base + k
            qf = cand_lists[k]
            sig = pair_sigmas(cs, fp, qf, config)
            emissions.append(scoring.vertex_scores_log_arrays(
                cs.pos[fp], cs.tan[fp], cs.bin[fp], cs.w[fp], int(side),
                cs.pos[qf], cs.tan[qf], cs.bin[qf], cs.w[qf], sig))
        transitions = []
        for k in range(i, j):
            fp = base + k
            qf_i = cand_lists[k]
            qf_j = cand_lists[k + 1]
            sig_rows = pair_sigmas(cs, fp, qf_i, config)
            transitions.append(scoring.persistence_log_matrix(
                cs.pos[fp], cs.pos[fp + 1],
                cs.pos[qf_i], cs.pos[qf_j], sig_rows))
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

