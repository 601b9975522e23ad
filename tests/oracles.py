"""Brute-force reference implementations used by the tests.

These avoid the package's algorithmic code paths on purpose: the
fixed-radius pair reference is scipy's k-d tree, the chain matcher
reference enumerates full assignment products from score tables
built with scalar arithmetic, the candidate and Viterbi-scoring
references gather and score one source vertex at a time (a spatial hash
lookup per vertex instead of one pair search per phase) and sweep one
chain's segments one at a time, step by step, the clustering reference
solves max-weight set partitioning exactly with a bitmask dynamic
program, the greedy clustering reference contracts over every arc, hard
ones included, and sweeps every node, the boundary-loop reference scans
the live edge map, the incompatible-pair reference tests every candidate
pair one at a time with scalar float arithmetic, the point-to-mesh
reference tests one sample point at a time against its candidate
triangles, the cube sampler and OBJ reader references place one sample
and parse one token at a time, the mesh-topology references (manifold
audit, components, orientation, the repair net, undecided components,
Moebius strips) walk vertex fans and components one at a time with
hand-written union-finds, the angle references evaluate one triangle at
a time in Python floats, the strip-meshing reference inserts every
triangle the moment it is emitted, scoring each quad on its own, the
ribbon reference triangulates one stroke segment at a time, the
hole-filling references fill and insert one loop at a time, small holes
in rounds until one adds nothing, the
triangle table reference keeps corners and states in Python lists, the
OBJ writer reference formats one line and one number at a time, the
neighbourhood references (both smoothers with their move guard,
boundary chain frames, component stats, undecided classification) walk a
vertex -> triangle dict one vertex at a time, and the conflict graph
reference builds each component's graph arc by arc from the pair list
and an edge map when the component is solved, into a dict keyed by node
pair that the greedy clustering reference and the dict objective read.
"""

import heapq
import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

OUT_NODE = -1


def frozen_tids(mesh, frozen):
    """The frozen set the references take for the package's int
    `frozen`, a phase's first tid: the active tids below it."""
    return {t for t in mesh.active_ids() if t < frozen}


def boundary_phase(cs):
    """The phase_candidates name of a boundary chain set: only the gap
    phase's carries dmax."""
    return "extension" if cs.dmax is None else "gap"


# ---------------------------------------------------------------------------
# chain matching


def _vertex_log(cs, fp, fq, side, config):
    p = cs.pos[fp]
    q = cs.pos[fq]
    d = p - q
    d_a = math.sqrt(float(d @ d))
    d_t = 0.5 * (abs(float(d @ cs.tan[fp])) + abs(float(d @ cs.tan[fq])))
    p_c = p + side * cs.w[fp] * cs.bin[fp]
    q_l = q + cs.w[fq] * cs.bin[fq]
    q_r = q - cs.w[fq] * cs.bin[fq]
    dl = float(np.linalg.norm(q_l - p_c))
    dr = float(np.linalg.norm(q_r - p_c))
    # offsets within a relative 1e-9 of each other tie; ties take left
    if dl - dr <= 1e-9 * max(dl, dr):
        q_c = q_l
    else:
        q_c = q_r
    m = 0.5 * (p + q) - 0.5 * (p_c + q_c)
    d_n = math.sqrt(float(m @ m))
    sigma = config.width_factor * 0.5 * float(cs.w[fp] + cs.w[fq])
    tot = d_a + d_t + d_n
    return -(tot * tot) / (2.0 * sigma * sigma)


def _persistence_log(cs, fp, fq_i, fq_j, config):
    p_i = cs.pos[fp]
    p_j = cs.pos[fp + 1]
    q_i = cs.pos[fq_i]
    q_j = cs.pos[fq_j]
    t1 = np.linalg.norm((p_j - p_i) - (q_j - q_i))
    t2 = np.linalg.norm((p_j - q_i) - (q_j - p_i))
    t3 = np.linalg.norm((p_j - q_j) - (p_i - q_i))
    d_p = float(t1 + t2 + t3)
    sigma = config.width_factor * 0.5 * float(cs.w[fp] + cs.w[fq_i])
    return -(d_p * d_p) / (2.0 * sigma * sigma)


def vertex_score(p, q, side, config, sigma=None):
    """Reference for scoring.vertex_score: one pair of StrokeVertex
    views scored with scalar dot products and norms."""
    from strokesurf.scoring import (ScoreBreakdown, Side, _gauss_log,
                                    _takes_left, sigma_for)

    side = Side(side)
    fp = p.frame
    fq = q.frame
    if not (fp.ok and fq.ok):
        raise ValueError("vertex_score requires non-degenerate frames")
    pp = np.asarray(p.position, dtype=np.float64)
    qq = np.asarray(q.position, dtype=np.float64)
    d = pp - qq

    d_align = float(np.linalg.norm(d))
    d_tangent = 0.5 * (abs(float(np.dot(d, fp.tangent)))
                       + abs(float(np.dot(d, fq.tangent))))

    p_c = pp + side.sign * p.width * fp.binormal
    q_l = qq + q.width * fq.binormal
    q_r = qq - q.width * fq.binormal
    dl = float(np.linalg.norm(q_l - p_c))
    dr = float(np.linalg.norm(q_r - p_c))
    q_c = q_l if _takes_left(dl, dr) else q_r
    m_probe = 0.5 * (p_c + q_c)
    m = 0.5 * (pp + qq)
    d_normal = float(np.linalg.norm(m - m_probe))

    if sigma is None:
        sigma = sigma_for(p.width, q.width, config)
    total = d_align + d_tangent + d_normal
    return ScoreBreakdown(d_align, d_tangent, d_normal, float(sigma),
                          _gauss_log(total, float(sigma)))


def viterbi_reference(cs, chain_id, side, cand_lists, config):
    """Best total log score by exhaustive enumeration, segment by
    segment, plus the score of a given assignment evaluator."""
    base = int(cs.offsets[chain_id])
    n = int(cs.lengths[chain_id])
    total = 0.0
    i = 0
    while i < n:
        if len(cand_lists[i]) == 0:
            i += 1
            continue
        j = i
        while j + 1 < n and len(cand_lists[j + 1]) > 0:
            j += 1
        emis = [[_vertex_log(cs, base + k, int(f), side, config)
                 for f in cand_lists[k]] for k in range(i, j + 1)]
        trans = []
        for k in range(i, j):
            trans.append([[_persistence_log(cs, base + k, int(fi), int(fj),
                                            config)
                           for fj in cand_lists[k + 1]]
                          for fi in cand_lists[k]])
        best = -math.inf
        for combo in itertools.product(*(range(len(e)) for e in emis)):
            s = sum(emis[o][c] for o, c in enumerate(combo))
            s += sum(trans[o][combo[o]][combo[o + 1]]
                     for o in range(len(combo) - 1))
            if s > best:
                best = s
        total += best
        i = j + 1
    return total


def assignment_score(cs, chain_id, side, cand_lists, match, config):
    """Log score of a concrete per-vertex assignment under the same
    segment decomposition."""
    base = int(cs.offsets[chain_id])
    n = int(cs.lengths[chain_id])
    total = 0.0
    i = 0
    while i < n:
        if len(cand_lists[i]) == 0:
            i += 1
            continue
        j = i
        while j + 1 < n and len(cand_lists[j + 1]) > 0:
            j += 1
        for k in range(i, j + 1):
            total += _vertex_log(cs, base + k, int(match[k]), side, config)
        for k in range(i, j):
            total += _persistence_log(cs, base + k, int(match[k]),
                                      int(match[k + 1]), config)
        i = j + 1
    return total


# ---------------------------------------------------------------------------
# fixed-radius pairs


def query_pairs_reference(points, radius):
    """Reference for geometry.pairs_within: scipy's
    cKDTree.query_pairs, as a sorted (P, 2) int64 array of (i, j) rows
    with i < j."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        return np.empty((0, 2), dtype=np.int64)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    pairs = pairs.astype(np.int64).reshape(-1, 2)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


# ---------------------------------------------------------------------------
# candidate generation and Viterbi scoring, one vertex at a time


class _UniformGrid:
    """Spatial hash over points with a fixed cell size: lookups gather
    the 27 cells around a point."""

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


def build_candidates(cs, config, cone_deg, sides, radius_mode,
                     color_cue=False, target_chains=None):
    """Per-vertex reference for matcher._build_candidates: a grid lookup
    per source vertex and side, then the radius, cone, adjacency and
    end-cone tests on that vertex's gathered ids. target_chains maps
    (chain, side) to the set of allowed target chains (None: all).
    Returns per side the (R, 2) int64 array of (source, target) flat-id
    rows, vertex after vertex with each vertex's targets ascending."""
    cos_cone = float(np.cos(np.radians(cone_deg)))
    if radius_mode == "dmax":
        radii = cs.dmax
    else:
        w_max = float(cs.w[cs.ok].max()) if cs.ok.any() else \
            float(cs.w.max())
        radii = config.width_factor * 0.5 * (cs.w + w_max)
    ok_ids = np.nonzero(cs.ok)[0]
    grid = _UniformGrid(cs.pos[ok_ids], float(radii.max()))
    eps_len = 1e-12 * max(1.0, float(np.abs(cs.pos).max()))
    rows = {int(side): [] for side in sides}
    for ci in range(cs.chain_count()):
        n = int(cs.lengths[ci])
        cyclic = bool(cs.cyclic[ci])
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
                    cand = cand[np.isin(cs.chain_id[cand],
                                        np.fromiter(allowed, dtype=np.int64))]
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
                keep &= d @ (int(side) * cs.bin[fp]) >= cos_cone * dist
                same = cs.chain_id[cand] == ci
                di = np.abs(cs.index[cand] - i)
                adj = same & (di == 1)
                if cyclic and n > 2:
                    adj |= same & (di == n - 1)
                keep &= ~adj
                cand_k = cand[keep]
                if len(cand_k):
                    p_end = (not cyclic) and (i == 0 or i == n - 1)
                    tchain = cs.chain_id[cand_k]
                    tidx = cs.index[cand_k]
                    q_cyc = np.array([bool(cs.cyclic[t]) for t in tchain],
                                     dtype=bool)
                    q_n = np.array([int(cs.lengths[t]) for t in tchain],
                                   dtype=np.int64)
                    need = ((~q_cyc) & ((tidx == 0) | (tidx == q_n - 1))
                            | p_end)
                    if need.any():
                        dq = cs.pos[fp] - cs.pos[cand_k]
                        ndq = np.linalg.norm(dq, axis=1)
                        at_q = np.abs(np.einsum("ij,ij->i", dq,
                                                cs.bin[cand_k]))
                        cand_k = cand_k[~(need & (at_q < cos_cone * ndq))]
                per_vertex.append(np.sort(cand_k))
            rows[int(side)] += [(fp, int(t)) for fp, ts in enumerate(
                per_vertex, base) for t in ts]
    return {side: np.array(r, dtype=np.int64).reshape(-1, 2)
            for side, r in rows.items()}


def vertex_lists(rows, cs, chain_id):
    """The per-vertex candidate lists of one chain, as the references
    take them, from (source, target) candidate rows."""
    base = int(cs.offsets[chain_id])
    lists = [[] for _ in range(int(cs.lengths[chain_id]))]
    for src, tgt in rows.tolist():
        if 0 <= src - base < len(lists):
            lists[src - base].append(tgt)
    return [np.array(targets, dtype=np.int64) for targets in lists]


def phase_candidates(cs, config, phase, neighbors=None, color_cue=False):
    """Reference candidate lists of one matching phase: "baseline",
    "restricted" (the chain itself and its dominant neighbor per side,
    from neighbors[side], -1 for none),
    "extension" (chains of the same mesh component, LEFT only) or "gap"
    (dmax radius and the boundary cone, LEFT only)."""
    both = (1, -1)
    if phase == "baseline":
        return build_candidates(cs, config, config.cone_angle_deg, both,
                                "width", color_cue)
    if phase == "restricted":
        targets = {}
        for ci in range(cs.chain_count()):
            for side in both:
                t = int(neighbors[side][ci])
                targets[(ci, side)] = {ci} if t < 0 else {ci, t}
        return build_candidates(cs, config, config.cone_angle_deg, both,
                                "width", color_cue, targets)
    if phase == "extension":
        component = cs.component.tolist()
        targets = {(ci, 1): {j for j, c in enumerate(component) if c == own}
                   for ci, own in enumerate(component)}
        return build_candidates(cs, config, config.cone_angle_deg, (1,),
                                "width", color_cue, targets)
    assert phase == "gap"
    return build_candidates(cs, config, config.boundary_cone_angle_deg,
                            (1,), "dmax", color_cue)


def neighbor_statistics(table, config):
    """Reference for matcher.matching_frequencies and
    matcher.dominant_neighbors, one chain at a time with Python counts.
    Returns (shares, dominant): shares[side] maps (chain, target chain)
    to the share of the chain's vertices matched into the target, and
    dominant[side] holds each chain's dominant neighbor (-1 for none):
    the target with the largest share (ties to the lower id), if that
    share reaches dominant_freq and two consecutive vertices match
    consecutive vertices of it."""
    cs = table.chainset
    shares, dominant = {}, {}
    for side, match in table.matches.items():
        shares[side], best_of = {}, []
        for ci in range(cs.chain_count()):
            lo, n = int(cs.offsets[ci]), int(cs.lengths[ci])
            m = match[lo:lo + n].tolist()
            counts = {}
            for t in m:
                if t >= 0:
                    c = int(cs.chain_id[t])
                    counts[c] = counts.get(c, 0) + 1
            for c, k in counts.items():
                shares[side][(ci, c)] = k / n
            best = -1
            if counts:
                top = max(counts.values())
                t = min(c for c, k in counts.items() if k == top)
                if top / n >= config.dominant_freq and any(
                        a >= 0 and b >= 0 and cs.chain_id[a] == t
                        and cs.chain_id[b] == t
                        and abs(int(cs.index[a]) - int(cs.index[b])) == 1
                        for a, b in zip(m, m[1:])):
                    best = t
            best_of.append(best)
        dominant[side] = np.array(best_of, dtype=np.int64)
    return shares, dominant


def _vertex_scores_log(p_pos, p_tan, p_bin, p_w, side_sign,
                       q_pos, q_tan, q_bin, q_w, sigma):
    """Log vertex scores of one source vertex against k candidates."""
    d = p_pos[None, :] - q_pos
    d_align = np.linalg.norm(d, axis=1)
    d_tangent = 0.5 * (np.abs(d @ p_tan) +
                       np.abs(np.einsum("ij,ij->i", d, q_tan)))
    p_c = p_pos + side_sign * p_w * p_bin
    q_l = q_pos + q_w[:, None] * q_bin
    q_r = q_pos - q_w[:, None] * q_bin
    dl = np.linalg.norm(q_l - p_c[None, :], axis=1)
    dr = np.linalg.norm(q_r - p_c[None, :], axis=1)
    left = dl - dr <= 1e-9 * np.maximum(dl, dr)
    q_c = np.where(left[:, None], q_l, q_r)
    m_probe = 0.5 * (p_c[None, :] + q_c)
    m = 0.5 * (p_pos[None, :] + q_pos)
    d_normal = np.linalg.norm(m - m_probe, axis=1)
    total = d_align + d_tangent + d_normal
    return -(total * total) / (2.0 * sigma * sigma)


def _persistence_log_matrix(p_i, p_j, q_i_pos, q_j_pos, sigma_rows):
    """Log persistence scores of every (q_i, q_j) candidate choice, all
    three terms computed."""
    dp = p_j - p_i
    dq = q_j_pos[None, :, :] - q_i_pos[:, None, :]
    term1 = np.linalg.norm(dp[None, None, :] - dq, axis=2)
    qsum = q_i_pos[:, None, :] + q_j_pos[None, :, :]
    term2 = np.linalg.norm((p_i + p_j)[None, None, :] - qsum, axis=2)
    pd = p_j - p_i
    term3 = np.linalg.norm(pd[None, None, :] - dq, axis=2)
    d_p = term1 + term2 + term3
    return -(d_p * d_p) / (2.0 * sigma_rows[:, None] ** 2)


def _pair_sigmas(cs, p, q, config):
    if cs.dmax is not None:
        return 0.5 * (cs.dmax[p] + cs.dmax[q])
    return config.width_factor * 0.5 * (cs.w[p] + cs.w[q])


def viterbi_path(emissions, transitions):
    """Maximize sum(emissions) + sum(transitions) over one choice per
    position, sweeping the positions in order. emissions[i] is (k_i,),
    transitions[i] is (k_i, k_{i+1}). Ties resolve to the lowest
    candidate index at every step.

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
    """Reference for one chain of matcher.viterbi_chain that scores one
    vertex's candidates, and one pair of consecutive vertices'
    transitions, per kernel call, and solves each segment with
    viterbi_path."""
    n = int(cs.lengths[chain_id])
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
            emissions.append(_vertex_scores_log(
                cs.pos[fp], cs.tan[fp], cs.bin[fp], cs.w[fp], int(side),
                cs.pos[qf], cs.tan[qf], cs.bin[qf], cs.w[qf],
                _pair_sigmas(cs, fp, qf, config)))
        transitions = []
        for k in range(i, j):
            fp = base + k
            transitions.append(_persistence_log_matrix(
                cs.pos[fp], cs.pos[fp + 1], cs.pos[cand_lists[k]],
                cs.pos[cand_lists[k + 1]],
                _pair_sigmas(cs, fp, cand_lists[k], config)))
        choices, seg_total = viterbi_path(emissions, transitions)
        for off, c in enumerate(choices):
            match[i + off] = cand_lists[i + off][c]
            mlog[i + off] = emissions[off][c]
        total += seg_total
        i = j + 1
    return match, mlog, total


def emission_score(mesh, cs, config, tid):
    """M(t) of one triangle, scoring its two edge endpoints against its
    apex one kernel call each (consolidate._emission_scores batches
    them)."""
    _, _, fa, fb, fq, side = mesh.tri_prov[tid].tolist()
    if fq < 0 or not cs.ok[fq]:
        return 0.0
    total = 0.0
    for fp in (fa, fb):
        if cs.ok[fp]:
            log = _vertex_scores_log(
                cs.pos[fp], cs.tan[fp], cs.bin[fp], cs.w[fp], side,
                cs.pos[[fq]], cs.tan[[fq]], cs.bin[[fq]], cs.w[[fq]],
                _pair_sigmas(cs, fp, np.array([fq]), config))
            total += float(np.exp(log[0]))
    return total


def fan_split(cs, config, fa, fb, fan):
    """Position in fan of the apex a polygon fan gives the source edge
    (fa, fb): each fan vertex scores fa and fb one at a time, on the side
    of the fan vertex that faces them, and the split maximizes the fa
    scores before it plus the fb scores from it on."""
    def scores(p):
        out = []
        for q in fan:
            if not cs.ok[q]:
                out.append(0.0)
                continue
            sgn = 1 if np.dot(cs.pos[p] - cs.pos[q], cs.bin[q]) >= 0 else -1
            log = _vertex_scores_log(
                cs.pos[q], cs.tan[q], cs.bin[q], cs.w[q], sgn,
                cs.pos[[p]], cs.tan[[p]], cs.bin[[p]], cs.w[[p]],
                _pair_sigmas(cs, q, np.array([p]), config))
            out.append(float(np.exp(log[0])))
        return np.asarray(out)

    s_a, s_b = scores(fa), scores(fb)
    return int(np.argmax(np.cumsum(s_a) + np.cumsum(s_b[::-1])[::-1]))


# ---------------------------------------------------------------------------
# clustering


def partition_optimum(nodes, arcs, hard):
    """Exact maximum of sum(w_ij over same-cluster pairs) over all
    partitions separating every hard pair. O(3^n) subset DP."""
    nodes = sorted(nodes)
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    wrow = [[0.0] * n for _ in range(n)]
    hmask = [0] * n
    for (u, v), w in arcs.items():
        i, j = idx[u], idx[v]
        wrow[i][j] += w
        wrow[j][i] += w
    for (u, v) in hard:
        i, j = idx[u], idx[v]
        hmask[i] |= 1 << j
        hmask[j] |= 1 << i

    size = 1 << n
    neg = -math.inf
    w_in = [0.0] * size
    for s in range(1, size):
        i = (s & -s).bit_length() - 1
        rest = s ^ (1 << i)
        if hmask[i] & rest or w_in[rest] == neg:
            w_in[s] = neg
            continue
        add = 0.0
        t = rest
        row = wrow[i]
        while t:
            j = (t & -t).bit_length() - 1
            add += row[j]
            t &= t - 1
        w_in[s] = w_in[rest] + add

    best = [0.0] * size
    for s in range(1, size):
        low = s & -s
        b = neg
        t = s
        while t:
            if t & low and w_in[t] != neg:
                cand = best[s ^ t] + w_in[t]
                if cand > b:
                    b = cand
            t = (t - 1) & s
        best[s] = b
    return best[size - 1]


@dataclass
class ConflictGraph:
    """Dict form of consolidate.ConflictGraph: arc key (u, v), u < v ->
    summed weight, in insertion order, and the set of hard keys."""

    nodes: list
    arcs: dict = field(default_factory=dict)
    hard: set = field(default_factory=set)

    def add_arc(self, u, v, w, hard=False):
        key = (u, v) if u < v else (v, u)
        self.arcs[key] = self.arcs.get(key, 0.0) + w
        if hard:
            self.hard.add(key)

    @classmethod
    def of(cls, graph):
        """The dict form of a consolidate.ConflictGraph."""
        keys = list(zip(graph.u.tolist(), graph.v.tolist()))
        return cls(graph.nodes.tolist(), dict(zip(keys, graph.w.tolist())),
                   set(itertools.compress(keys, graph.hard.tolist())))

    def record(self):
        """The consolidate.ConflictGraph of these arcs, in dict order,
        the order in which the dict solvers add their weights."""
        from strokesurf.consolidate import ConflictGraph as Record

        keys = np.array(list(self.arcs), dtype=np.int64).reshape(-1, 2)
        return Record(np.array(sorted(self.nodes), dtype=np.int64),
                      keys[:, 0], keys[:, 1],
                      np.array(list(self.arcs.values()), dtype=np.float64),
                      np.array([k in self.hard for k in self.arcs],
                               dtype=bool))

    def clusters(self, labels):
        """node -> cluster id, its smallest member's id, from a
        consolidate.solve_clustering label array."""
        ids = [OUT_NODE] + sorted(self.nodes)
        return {ids[i]: ids[k] for i, k in enumerate(labels.tolist())}


def clustering_objective(graph, assign):
    """Reference for consolidate.clustering_objective: the weights of
    the arcs whose ends share a cluster, added one arc at a time."""
    total = 0.0
    for (u, v), w in graph.arcs.items():
        if assign[u] == assign[v]:
            total += w
    return total


def clustering_bound(graph):
    """Reference for consolidate.clustering_bound."""
    return sum(w for key, w in graph.arcs.items()
               if w > 0 and key not in graph.hard)


def solve_greedy(graph):
    """Reference for consolidate._solve_greedy: contraction over every
    arc, hard ones included, and full move sweeps that test each target
    against every hard partner."""
    nodes = [OUT_NODE] + list(graph.nodes)
    cluster = {n: n for n in nodes}
    members = {n: {n} for n in nodes}
    weight = dict(graph.arcs)
    adj = {n: set() for n in nodes}
    for (u, v) in weight:
        adj[u].add(v)
        adj[v].add(u)
    forbidden = {n: set() for n in nodes}
    for (u, v) in graph.hard:
        forbidden[u].add(v)
        forbidden[v].add(u)

    heap = [(-w, k) for k, w in weight.items() if w > 0]
    heapq.heapify(heap)
    while heap:
        negw, (a, b) = heapq.heappop(heap)
        if a not in members or b not in members:
            continue
        if weight.get((a, b)) != -negw or -negw <= 0:
            continue
        if b in forbidden[a]:
            continue
        # merge b into a (a < b by arc key construction)
        joined = members.pop(b)
        members[a] |= joined
        for n in joined:
            cluster[n] = a
        # hard sets are symmetric, so only b's own partners name b
        hard_b = forbidden.pop(b)
        forbidden[a] |= hard_b
        for c in hard_b:
            forbidden[c].discard(b)
            forbidden[c].add(a)
        for c in list(adj[b]):
            adj[c].discard(b)
            if c == a:
                continue
            wkey_b = (min(b, c), max(b, c))
            w_bc = weight.pop(wkey_b, 0.0)
            wkey_a = (min(a, c), max(a, c))
            weight[wkey_a] = weight.get(wkey_a, 0.0) + w_bc
            adj[a].add(c)
            adj[c].add(a)
            if weight[wkey_a] > 0:
                heapq.heappush(heap, (-weight[wkey_a], wkey_a))
        adj.pop(b, None)

    # local moves on the original graph until stable
    arcs_of = {n: [] for n in nodes}
    for (u, v), w in graph.arcs.items():
        arcs_of[u].append((v, w))
        arcs_of[v].append((u, w))
    hard_of = {n: set() for n in nodes}
    for (u, v) in graph.hard:
        hard_of[u].add(v)
        hard_of[v].add(u)

    for _ in range(100):
        moved = False
        for n in sorted(graph.nodes):
            cur = cluster[n]
            gain_cur = sum(w for (m, w) in arcs_of[n]
                           if cluster[m] == cur and m != n)
            options = {}
            for (m, w) in arcs_of[n]:
                tgt = cluster[m]
                if tgt == cur:
                    continue
                options[tgt] = options.get(tgt, 0.0) + w
            fresh = -10 - n  # label no renormalized cluster can carry
            options.setdefault(fresh, 0.0)
            best_tgt, best_delta = None, 1e-12
            for tgt in sorted(options):
                if tgt != fresh and any(cluster[h] == tgt
                                        for h in hard_of[n]):
                    continue
                delta = options[tgt] - gain_cur
                if delta > best_delta:
                    best_tgt, best_delta = tgt, delta
            if best_tgt is not None:
                _move_node(cluster, members, n, best_tgt)
                moved = True
        if not moved:
            break
    return cluster


def _move_node(cluster, members, n, tgt):
    """Move node n into cluster tgt, a new cluster if no node carries
    that id, re-labelling the two clusters involved so that every
    cluster id stays the minimum member id."""
    rest = members.pop(cluster[n])
    rest.discard(n)
    group = members.pop(tgt, set())
    group.add(n)
    for mem in (rest, group):
        if mem:
            cid = min(mem)
            members[cid] = mem
            for node in mem:
                cluster[node] = cid


# ---------------------------------------------------------------------------
# angles, one triangle at a time

EPS_DEGENERATE = 1e-9


def angle_between_deg(u, v):
    """Scalar reference for geometry.angle_between_deg_rows."""
    ux, uy, uz = float(u[0]), float(u[1]), float(u[2])
    vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
    nu = math.sqrt(ux * ux + uy * uy + uz * uz)
    nv = math.sqrt(vx * vx + vy * vy + vz * vz)
    if nu < EPS_DEGENERATE or nv < EPS_DEGENERATE:
        return 0.0
    c = (ux * vx + uy * vy + uz * vz) / (nu * nv)
    c = min(1.0, max(-1.0, c))
    return math.degrees(math.acos(c))


def min_interior_angle_deg(a, b, c):
    """Scalar reference for geometry.min_interior_angle_deg_rows."""
    angles = (
        angle_between_deg(b - a, c - a),
        angle_between_deg(a - b, c - b),
        angle_between_deg(a - c, b - c),
    )
    return min(angles)


def dihedral_deg(a, b, c, d):
    """Scalar reference for geometry.dihedral_deg_rows."""
    ax, ay, az = float(a[0]), float(a[1]), float(a[2])
    ex, ey, ez = float(b[0]) - ax, float(b[1]) - ay, float(b[2]) - az
    el = math.sqrt(ex * ex + ey * ey + ez * ez)
    if el < EPS_DEGENERATE:
        return 180.0
    ex, ey, ez = ex / el, ey / el, ez / el
    ux, uy, uz = float(c[0]) - ax, float(c[1]) - ay, float(c[2]) - az
    vx, vy, vz = float(d[0]) - ax, float(d[1]) - ay, float(d[2]) - az
    du = ux * ex + uy * ey + uz * ez
    dv = vx * ex + vy * ey + vz * ez
    ux, uy, uz = ux - du * ex, uy - du * ey, uz - du * ez
    vx, vy, vz = vx - dv * ex, vy - dv * ey, vz - dv * ez
    nu = math.sqrt(ux * ux + uy * uy + uz * uz)
    nv = math.sqrt(vx * vx + vy * vy + vz * vz)
    if nu < EPS_DEGENERATE or nv < EPS_DEGENERATE:
        return 180.0
    cang = (ux * vx + uy * vy + uz * vz) / (nu * nv)
    cang = min(1.0, max(-1.0, cang))
    return math.degrees(math.acos(cang))


def quad_fill(positions, loop):
    """Hole closing's quad split as it once had its own rule: of the
    4-loop (a, b, c, d), the diagonal (d, b) or (c, a) whose triangles
    have the larger minimum interior angle, then the flatter fold, then
    the smaller sorted diagonal, by an exact sort of key tuples. Returns
    the two triangles, wound against the loop."""
    a, b, c, d = loop
    p = np.asarray(positions, dtype=np.float64)
    splits = []
    for diag, tris in (((d, b), ((d, c, b), (d, b, a))),
                       ((c, a), ((c, b, a), (c, a, d)))):
        angle = min(min_interior_angle_deg(*p[list(t)]) for t in tris)
        wing1, wing2 = (_third_vertex(t, diag) for t in tris)
        fold = dihedral_deg(p[diag[0]], p[diag[1]], p[wing1], p[wing2])
        splits.append((angle, -abs(180.0 - fold),
                       tuple(-x for x in sorted(diag)), tris))
    return max(splits)[3]


# ---------------------------------------------------------------------------
# strip meshing, one triangle at a time


def _strip_apex_side(cs, fa, fb, apex_pos):
    off = (np.dot(apex_pos - cs.pos[fa], cs.bin[fa])
           + np.dot(apex_pos - cs.pos[fb], cs.bin[fb])) * 0.5
    if abs(off) < 1e-9 * max(1.0, float(cs.w[fa])):
        return 0
    return 1 if off > 0 else -1


def scalar_emitter(stats=None):
    """The class of the strip-meshing reference, in mesher._Emitter's
    place: the per-edge loop classifies one matched chain edge at a
    time, every triangle goes into the mesh through its own
    SurfaceMesh.add_triangles call as it is emitted, its provenance row
    written right after, every quad is scored on its own with the
    scalar angle references and every fan is vetoed and split on its own
    with fan_split. Patch it in for mesher._Emitter to run
    mesh_from_matches or mesh_with_creases as the reference. stats, a
    Counter, counts the cases the queued emitter must get right: fans
    capped and vetoed, cyclic fans whose two ways round tie, fans with
    an inside vertex past a side's match array, and one-step jumps
    across the seam of a cyclic target chain."""

    class ScalarEmitter:
        def __init__(self, mesh, table, config):
            self.mesh = mesh
            self.table = table
            self.cs = table.chainset
            self.config = config
            self.stats = Counter() if stats is None else stats

        def strips(self, jobs):
            for ci, side, match in jobs:
                self.emit_pairs(ci, side, match)

        def quads(self, fa, fb, qa, qb, side):
            for corners in zip(fa.tolist(), fb.tolist(), qa.tolist(),
                               qb.tolist()):
                self.quad(*corners, side)

        def flush(self):
            """Nothing is queued."""

        def emit_pairs(self, ci, side, match):
            """The strips of chain ci's side, match holding one flat
            target id per chain vertex (-1 where unmatched)."""
            cs = self.cs
            base = int(cs.offsets[ci])
            n = len(match)
            pairs = [(i, i + 1) for i in range(n - 1)]
            if cs.cyclic[ci] and n > 2:
                pairs.append((n - 1, 0))
            for ia, ib in pairs:
                a, b = int(match[ia]), int(match[ib])
                if a < 0 or b < 0:
                    continue
                ca, cb = cs.chain_id[a], cs.chain_id[b]
                if ca != cb:
                    continue
                fa, fb = base + ia, base + ib
                if a == b:
                    self.tri(fa, fb, a, side)
                    continue
                ja, jb = int(cs.index[a]), int(cs.index[b])
                nt = int(cs.lengths[ca])
                dj = abs(jb - ja)
                if cs.cyclic[ca] and nt > 2:
                    dj = min(dj, nt - dj)
                if dj == 1:
                    self.stats["seam_steps"] += abs(jb - ja) != 1
                    self.quad(fa, fb, a, b, side)
                else:
                    self.polygon(fa, fb, a, b, side)

        def tri(self, fa, fb, apex_flat, match_side):
            cs = self.cs
            ga, gb = int(cs.gid[fa]), int(cs.gid[fb])
            [tid] = self.mesh.add_triangles(
                [(ga, gb, cs.gid[apex_flat])]).tolist()
            if tid >= 0:
                side = _strip_apex_side(cs, fa, fb, cs.pos[apex_flat])
                if side == 0:
                    side = int(match_side)
                self.mesh.tri_prov[tid] = ga, gb, fa, fb, apex_flat, side

        def quad(self, fa, fb, qa_flat, qb_flat, match_side):
            cs = self.cs
            pa, pb = cs.pos[fa], cs.pos[fb]
            qa, qb = cs.pos[qa_flat], cs.pos[qb_flat]

            # diagonal 1: (p_ia, q_b) -> (pa, pb, qb) + (pa, qb, qa)
            min1 = min(min_interior_angle_deg(pa, pb, qb),
                       min_interior_angle_deg(pa, qb, qa))
            di1 = dihedral_deg(pa, qb, pb, qa)
            # diagonal 2: (p_ib, q_a) -> (pa, pb, qa) + (pb, qb, qa)
            min2 = min(min_interior_angle_deg(pa, pb, qa),
                       min_interior_angle_deg(pb, qb, qa))
            di2 = dihedral_deg(pb, qa, pa, qb)

            key1 = tuple(sorted((int(cs.gid[fa]), int(cs.gid[qb_flat]))))
            key2 = tuple(sorted((int(cs.gid[fb]), int(cs.gid[qa_flat]))))
            if abs(min1 - min2) > 1e-12:
                use1 = min1 > min2
            elif abs(abs(180.0 - di1) - abs(180.0 - di2)) > 1e-12:
                use1 = abs(180.0 - di1) < abs(180.0 - di2)
            else:
                use1 = key1 <= key2

            dihedral = di1 if use1 else di2
            if dihedral < self.config.dihedral_min_deg:
                self.mesh.quads_rejected += 1
                return
            if use1:
                self.tri(fa, fb, qb_flat, match_side)
                self.tri(qa_flat, qb_flat, fa, match_side)
            else:
                self.tri(fa, fb, qa_flat, match_side)
                self.tri(qa_flat, qb_flat, fb, match_side)

        def polygon(self, fa, fb, qa_flat, qb_flat, match_side):
            """Fan the section of the target chain between two
            non-consecutive matched vertices, the shorter way round a
            cyclic chain and forward on a tie, unless the section is
            longer than 6 acceptance radii of the source edge or has an
            internal match in the table."""
            cs = self.cs
            tci = int(cs.chain_id[qa_flat])
            nt, cyclic = int(cs.lengths[tci]), bool(cs.cyclic[tci])
            ja, jb = int(cs.index[qa_flat]), int(cs.index[qb_flat])
            delta = jb - ja
            if cyclic:
                fwd, bwd = delta % nt, (-delta) % nt
                self.stats["cyclic_ties"] += fwd == bwd
                steps, step = (fwd, 1) if fwd <= bwd else (bwd, -1)
            else:
                steps, step = abs(delta), 1 if delta > 0 else -1
            if steps < 2:
                return
            tbase = int(cs.offsets[tci])
            fan = [tbase + ((ja + step * k) % nt if cyclic else ja + step * k)
                   for k in range(steps + 1)]
            arc = 0.0
            for k in range(steps):
                dx, dy, dz = (cs.pos[fan[k + 1]] - cs.pos[fan[k]]).tolist()
                arc += math.sqrt(dx * dx + dy * dy + dz * dz)
            sigma = self.config.width_factor * 0.5 * (cs.w[fa] + cs.w[fb])
            if arc > 6.0 * sigma:
                self.mesh.fans_capped += 1
                self.stats["fans_capped"] += 1
                return
            self.mesh.fans += 1
            inside = fan[1:-1]
            matches = self.table.matches.values()
            self.stats["inside_past_match"] += any(
                max(inside) >= len(match) for match in matches)
            for match in matches:
                # chains appended after matching have no matches
                if any(v < len(match) and match[v] in inside
                       for v in inside):
                    self.mesh.fans_vetoed += 1
                    self.stats["fans_vetoed"] += 1
                    return
            m_pos = fan_split(cs, self.config, fa, fb, np.asarray(fan))
            for k in range(steps):
                self.tri(fan[k], fan[k + 1], fa if k < m_pos else fb,
                         match_side)
            self.tri(fa, fb, fan[m_pos], match_side)

    return ScalarEmitter


def ribbon_geometry(stroke):
    """Reference for stroke_model.ribbon_geometry, segment by segment:
    each kept segment names its four corners, a corner getting its id
    the first time a segment names it, and splits its quad on the
    diagonal lengths np.linalg.norm gives."""
    pts = stroke.points
    b = stroke.binormals
    ok = stroke.frames_ok
    half = 0.5 * stroke.widths[:, None]
    left = pts + half * b
    right = pts - half * b

    corners = []
    vertex = []
    corner_id = {}

    def cid(side, i):
        key = (side, i)
        if key not in corner_id:
            corner_id[key] = len(corners)
            corners.append(left[i] if side == 0 else right[i])
            vertex.append(i)
        return corner_id[key]

    tris = []
    for i in range(len(pts) - 1):
        if not (ok[i] and ok[i + 1]):
            continue
        l0, r0 = cid(0, i), cid(1, i)
        l1, r1 = cid(0, i + 1), cid(1, i + 1)
        d_main = np.linalg.norm(left[i] - right[i + 1])
        d_alt = np.linalg.norm(right[i] - left[i + 1])
        if d_main <= d_alt:
            tris.append((l0, r0, r1))
            tris.append((l0, r1, l1))
        else:
            tris.append((r0, r1, l1))
            tris.append((r0, l1, l0))
    return (np.asarray(corners).reshape(-1, 3),
            np.asarray(tris, dtype=np.int64).reshape(-1, 3),
            np.asarray(vertex, dtype=np.int64))


# ---------------------------------------------------------------------------
# incompatible triangle pairs


def crossing_plane(ta, tb, tc, eps_rel=1e-9):
    """The plane frame segment_crosses_triangle_interior projects onto:
    ((ax, ay, az), (fx, fy, fz), (vx, vy, vz), scale), corner a, unit
    axes u along ab and v = n x u and the longest edge, as floats; None
    for a triangle too thin (or with ab too short) to be crossed."""
    ax, ay, az = float(ta[0]), float(ta[1]), float(ta[2])
    ux, uy, uz = float(tb[0]) - ax, float(tb[1]) - ay, float(tb[2]) - az
    wx, wy, wz = float(tc[0]) - ax, float(tc[1]) - ay, float(tc[2]) - az
    nx = uy * wz - uz * wy
    ny = uz * wx - ux * wz
    nz = ux * wy - uy * wx
    nn = math.sqrt(nx * nx + ny * ny + nz * nz)
    lab = math.sqrt(ux * ux + uy * uy + uz * uz)
    lac = math.sqrt(wx * wx + wy * wy + wz * wz)
    bcx, bcy, bcz = wx - ux, wy - uy, wz - uz
    lbc = math.sqrt(bcx * bcx + bcy * bcy + bcz * bcz)
    scale = max(lab, lac, lbc)
    if scale == 0.0 or nn < (eps_rel * scale) ** 2 or lab < 1e-9:
        return None
    nx, ny, nz = nx / nn, ny / nn, nz / nn
    fx, fy, fz = ux / lab, uy / lab, uz / lab
    return ((ax, ay, az), (fx, fy, fz),
            (ny * fz - nz * fy, nz * fx - nx * fz, nx * fy - ny * fx), scale)


def segment_crosses_triangle_interior(p0, p1, ta, tb, tc, eps_rel=1e-9):
    """Scalar reference for geometry.segments_cross_triangles_interior:
    does segment (p0, p1), projected onto the triangle's plane, pass
    through the triangle's open interior?"""
    plane = crossing_plane(ta, tb, tc, eps_rel)
    if plane is None:
        return False
    (ax, ay, az), (fx, fy, fz), (vx, vy, vz), scale = plane

    def to2d(px, py, pz):
        dx, dy, dz = px - ax, py - ay, pz - az
        return (dx * fx + dy * fy + dz * fz, dx * vx + dy * vy + dz * vz)

    q0 = to2d(float(p0[0]), float(p0[1]), float(p0[2]))
    q1 = to2d(float(p1[0]), float(p1[1]), float(p1[2]))
    t2 = (to2d(ax, ay, az), to2d(float(tb[0]), float(tb[1]), float(tb[2])),
          to2d(float(tc[0]), float(tc[1]), float(tc[2])))

    lo, hi = 0.0, 1.0
    dx, dy = q1[0] - q0[0], q1[1] - q0[1]
    for i in range(3):
        e0 = t2[i]
        e1 = t2[(i + 1) % 3]
        nrx, nry = e0[1] - e1[1], e1[0] - e0[0]
        third = t2[(i + 2) % 3]
        if nrx * (third[0] - e0[0]) + nry * (third[1] - e0[1]) < 0:
            nrx, nry = -nrx, -nry
        f0 = nrx * (q0[0] - e0[0]) + nry * (q0[1] - e0[1])
        fd = nrx * dx + nry * dy
        if abs(fd) < 1e-300:
            if f0 < 0:
                return False
            continue
        tcross = -f0 / fd
        if fd > 0:
            if tcross > lo:
                lo = tcross
        else:
            if tcross < hi:
                hi = tcross
        if lo > hi:
            return False
    if hi - lo < eps_rel:
        return False
    mx = q0[0] + 0.5 * (lo + hi) * dx
    my = q0[1] + 0.5 * (lo + hi) * dy
    eps = eps_rel * scale
    for i in range(3):
        e0 = t2[i]
        e1 = t2[(i + 1) % 3]
        nrx, nry = e0[1] - e1[1], e1[0] - e0[0]
        third = t2[(i + 2) % 3]
        if nrx * (third[0] - e0[0]) + nry * (third[1] - e0[1]) < 0:
            nrx, nry = -nrx, -nry
        nlen = math.sqrt(nrx * nrx + nry * nry)
        if nlen < 1e-300:
            return False
        if (nrx * (mx - e0[0]) + nry * (my - e0[1])) / nlen <= eps:
            return False
    return True


def _apex_side(cs, gid2flat, edge, apex_pos, width_hint):
    fa = gid2flat.get(edge[0])
    fb = gid2flat.get(edge[1])
    if fa is None or fb is None:
        return 0
    off = 0.5 * (np.dot(apex_pos - cs.pos[fa], cs.bin[fa])
                 + np.dot(apex_pos - cs.pos[fb], cs.bin[fb]))
    if abs(off) < 1e-9 * max(1.0, width_hint):
        return 0
    return 1 if off > 0 else -1


def _third_vertex(tri, edge):
    for v in tri:
        if v not in edge:
            return v
    return None


def _crit1(mesh, cs, gid2flat, t1, t2):
    p1, p2 = mesh.tri_prov[[t1, t2]].tolist()
    if p1[0] < 0 or p2[0] < 0:
        return False
    e1 = tuple(sorted(p1[:2]))
    e2 = tuple(sorted(p2[:2]))
    if e1 != e2:
        return False
    a1 = _third_vertex(mesh.tri_verts[t1].tolist(), e1)
    a2 = _third_vertex(mesh.tri_verts[t2].tolist(), e2)
    if a1 is None or a2 is None:
        return False
    w = float(mesh.widths[e1[0]])
    s1 = _apex_side(cs, gid2flat, e1, mesh.positions[a1], w)
    s2 = _apex_side(cs, gid2flat, e1, mesh.positions[a2], w)
    return s1 != 0 and s1 == s2


def _crit2(mesh, cs, gid2flat, t1, t2, shared_gid):
    p1, p2 = mesh.tri_prov[[t1, t2]].tolist()
    if p1[0] < 0 or p2[0] < 0:
        return False
    if sorted(p1[:2]) == sorted(p2[:2]):
        return False
    fq = gid2flat.get(shared_gid)
    if fq is None or not cs.ok[fq]:
        return False
    b = cs.bin[fq]
    bx, by, bz = float(b[0]), float(b[1]), float(b[2])
    qpos = cs.pos[fq]
    qx, qy, qz = float(qpos[0]), float(qpos[1]), float(qpos[2])
    eps = 1e-9 * max(1.0, float(cs.w[fq]))
    pos = mesh.positions

    def side_of(tid):
        va, vb, vc = mesh.tri_verts[tid].tolist()
        cx = (pos[va, 0] + pos[vb, 0] + pos[vc, 0]) / 3.0
        cy = (pos[va, 1] + pos[vb, 1] + pos[vc, 1]) / 3.0
        cz = (pos[va, 2] + pos[vb, 2] + pos[vc, 2]) / 3.0
        off = (cx - qx) * bx + (cy - qy) * by + (cz - qz) * bz
        if abs(off) < eps:
            return 0
        return 1 if off > 0 else -1

    s1 = side_of(t1)
    s2 = side_of(t2)
    if s1 == 0 or s2 == 0 or s1 != s2:
        return False

    def crosses(ta, tb):
        pb = [pos[v] for v in mesh.tri_verts[tb].tolist()]
        return any(segment_crosses_triangle_interior(
            pos[shared_gid], pos[v], pb[0], pb[1], pb[2])
            for v in mesh.tri_verts[ta].tolist() if v != shared_gid)

    return crosses(t1, t2) or crosses(t2, t1)


def _crit3(mesh, config, t1, t2, edge):
    a, b = edge
    c = _third_vertex(mesh.tri_verts[t1].tolist(), edge)
    d = _third_vertex(mesh.tri_verts[t2].tolist(), edge)
    if c is None or d is None:
        return False
    di = dihedral_deg(mesh.positions[a], mesh.positions[b],
                      mesh.positions[c], mesh.positions[d])
    return di < config.dihedral_min_deg


def incompatible(mesh, cs, config, t1, t2, gid2flat):
    """Scalar reference for consolidate.incompatible."""
    corners1, corners2 = mesh.tri_verts[[t1, t2]].tolist()
    shared = sorted(set(corners1) & set(corners2))
    if len(shared) == 2:
        edge = (shared[0], shared[1])
        if (_crit1(mesh, cs, gid2flat, t1, t2)
                or _crit3(mesh, config, t1, t2, edge)):
            return True, edge
    elif len(shared) == 1:
        if _crit2(mesh, cs, gid2flat, t1, t2, shared[0]):
            return True, (shared[0], -1)
    return False, None


def find_incompatible_pairs(mesh, cs, config, frozen=frozenset()):
    """Scalar reference for consolidate.find_incompatible_pairs: every
    pair around every edge, then every pair around every vertex, tested
    one at a time. Returns the pair table's rows as lists [t1, t2, a,
    b]."""
    gid2flat = {int(g): i for i, g in enumerate(cs.gid)}
    pairs = []
    seen = set()

    def consider(t1, t2):
        if t1 > t2:
            t1, t2 = t2, t1
        if (t1, t2) in seen:
            return
        seen.add((t1, t2))
        flag, shared = incompatible(mesh, cs, config, t1, t2, gid2flat)
        if flag:
            pairs.append([t1, t2, *shared])

    for edge, tids in sorted(mesh.edge_map().items()):
        for i in range(len(tids)):
            for j in range(i + 1, len(tids)):
                if not (tids[i] in frozen and tids[j] in frozen):
                    consider(tids[i], tids[j])

    for gid, tids in sorted(mesh.vertex_tris().items()):
        for i in range(len(tids)):
            vi = set(mesh.tri_verts[tids[i]].tolist())
            for j in range(i + 1, len(tids)):
                if tids[i] in frozen and tids[j] in frozen:
                    continue
                if len(vi & set(mesh.tri_verts[tids[j]].tolist())) == 1:
                    consider(tids[i], tids[j])
    return pairs


# ---------------------------------------------------------------------------
# point-to-mesh distance


def point_to_triangles_distance(p, a, b, c):
    """One-point reference for geometry.point_triangle_pair_distances: exact
    distances from p to (m, 3)-arrays of triangle corners by Eberly's
    region classification, with p broadcast over the triangles."""
    p = np.asarray(p, dtype=np.float64).reshape(3)
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    e0 = np.atleast_2d(np.asarray(b, dtype=np.float64)) - a
    e1 = np.atleast_2d(np.asarray(c, dtype=np.float64)) - a
    dv = a - p[None, :]
    aa = np.einsum("ij,ij->i", e0, e0)
    bb = np.einsum("ij,ij->i", e0, e1)
    cc = np.einsum("ij,ij->i", e1, e1)
    dd = np.einsum("ij,ij->i", dv, e0)
    ee = np.einsum("ij,ij->i", dv, e1)
    det = np.maximum(aa * cc - bb * bb, 1e-300)

    s = bb * ee - cc * dd
    t = bb * dd - aa * ee
    inside = (s + t <= det) & (s >= 0) & (t >= 0)
    s_in = s / det
    t_in = t / det

    s0 = np.clip(-dd / np.maximum(aa, 1e-300), 0.0, 1.0)
    t0 = np.zeros_like(s0)
    t1 = np.clip(-ee / np.maximum(cc, 1e-300), 0.0, 1.0)
    s1 = np.zeros_like(t1)
    denom = np.maximum(aa - 2 * bb + cc, 1e-300)
    s2 = np.clip((cc + ee - bb - dd) / denom, 0.0, 1.0)
    t2 = 1.0 - s2

    best = None
    for sp, tp in ((s0, t0), (s1, t1), (s2, t2)):
        diff = dv + sp[:, None] * e0 + tp[:, None] * e1
        d2 = np.einsum("ij,ij->i", diff, diff)
        best = d2 if best is None else np.minimum(best, d2)
    diff_in = dv + s_in[:, None] * e0 + t_in[:, None] * e1
    d2_in = np.einsum("ij,ij->i", diff_in, diff_in)
    best = np.where(inside, np.minimum(best, d2_in), best)
    return np.sqrt(np.maximum(best, 0.0))


def mesh_candidates(points, positions, faces):
    """Per point, the nearest-vertex bound and the candidate triangles
    of synth_eval.points_to_mesh_distance's pruning, all points at once:
    (a, b, c, upper, balls). Each class of triangles with one binary
    exponent of spread gets its own centroid tree, queried at the bound
    plus the largest spread in the class; a point's candidates are its
    balls in every class, as triangle ids."""
    positions = np.asarray(positions, dtype=np.float64)
    tris = np.array([tuple(f) for f in faces], dtype=np.int64)
    a = positions[tris[:, 0]]
    b = positions[tris[:, 1]]
    c = positions[tris[:, 2]]
    centroids = (a + b + c) / 3.0
    spread = np.maximum(np.maximum(
        np.linalg.norm(a - centroids, axis=1),
        np.linalg.norm(b - centroids, axis=1)),
        np.linalg.norm(c - centroids, axis=1))
    vert_tree = cKDTree(positions[np.unique(tris)])
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    upper, _ = vert_tree.query(points)
    balls = [[] for _ in points]
    exponent = [math.frexp(r)[1] for r in spread.tolist()]
    for e in sorted(set(exponent)):
        ids = [t for t, x in enumerate(exponent) if x == e]
        r_class = max(spread[t] for t in ids)
        found = cKDTree(centroids[ids]).query_ball_point(
            points, upper + r_class + 1e-12)
        for ball, cand in zip(balls, found):
            ball += [ids[k] for k in cand]
    return a, b, c, upper, balls


def points_to_mesh_distance(points, positions, faces):
    """Per-point reference for synth_eval.points_to_mesh_distance: each
    sample point is tested alone against its candidate triangles, and a
    point without candidates keeps its nearest-vertex bound."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    a, b, c, upper, balls = mesh_candidates(points, positions, faces)
    out = np.empty(len(points))
    for i, cand in enumerate(balls):
        if not cand:
            out[i] = upper[i]
            continue
        cand = np.asarray(cand, dtype=np.int64)
        d = point_to_triangles_distance(points[i], a[cand], b[cand],
                                        c[cand])
        out[i] = min(float(d.min()), float(upper[i]))
    return out


# ---------------------------------------------------------------------------
# mesh topology


class ListTriangleTable:
    """Reference for SurfaceMesh's triangle table, kept as it once was:
    corners as a list of tuples, states as a list, and the key and edge
    maps updated one triangle at a time. Triangles over positions
    (n, 3) are added, removed and flipped one at a time under
    add_triangles' rules: three distinct corners, area at least
    (1e-12 * bounding-box diagonal) ** 2, and no active triangle on
    the same vertex set; duplicates_skipped counts the rows the last
    rule drops."""

    OUTPUT, REMOVED = 1, 2

    def __init__(self, positions):
        self.pos = np.asarray(positions, dtype=np.float64).tolist()
        diag = math.dist(np.max(positions, axis=0).tolist(),
                         np.min(positions, axis=0).tolist())
        self.floor = (1e-12 * max(diag, 1e-12)) ** 2
        self.tri_verts = []
        self.tri_state = []
        self.key_to_id = {}
        self.edges = {}
        self.duplicates_skipped = 0

    def add(self, a, b, c):
        a, b, c = int(a), int(b), int(c)
        if len({a, b, c}) < 3:
            return None
        pa, pb, pc = self.pos[a], self.pos[b], self.pos[c]
        u = [pb[k] - pa[k] for k in range(3)]
        v = [pc[k] - pa[k] for k in range(3)]
        n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0])
        if 0.5 * math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2]) \
                < self.floor:
            return None
        key = tuple(sorted((a, b, c)))
        old = self.key_to_id.get(key)
        if old is not None and self.tri_state[old] != self.REMOVED:
            self.duplicates_skipped += 1
            return None
        tid = len(self.tri_verts)
        self.tri_verts.append((a, b, c))
        self.tri_state.append(self.OUTPUT)
        self.key_to_id[key] = tid
        for u, v in ((a, b), (b, c), (c, a)):
            self.edges.setdefault((min(u, v), max(u, v)), []).append(tid)
        return tid

    def remove(self, tid):
        if self.tri_state[tid] == self.REMOVED:
            return
        self.tri_state[tid] = self.REMOVED
        a, b, c = self.tri_verts[tid]
        for u, v in ((a, b), (b, c), (c, a)):
            self.edges[(min(u, v), max(u, v))].remove(tid)

    def flip(self, tid):
        a, b, c = self.tri_verts[tid]
        self.tri_verts[tid] = (a, c, b)

    def active_ids(self):
        return [t for t, s in enumerate(self.tri_state)
                if s != self.REMOVED]

    def triangle_array(self):
        tids = self.active_ids()
        return (np.array(tids, dtype=np.int64),
                np.array([self.tri_verts[t] for t in tids],
                         dtype=np.int64).reshape(-1, 3))

    def vertex_tris(self):
        out = {}
        for t in self.active_ids():
            for v in self.tri_verts[t]:
                out.setdefault(v, []).append(t)
        return out


class _UnionFind:
    """Union-find over hashable ids whose roots are component minima."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)

    def groups(self):
        """Members grouped by root, groups ordered by their lowest
        member, members ascending."""
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return [sorted(out[r]) for r in sorted(out)]


def components(mesh):
    """Reference for SurfaceMesh.components: union-find over the live
    edge map."""
    active = mesh.active_ids()
    uf = _UnionFind(active)
    for tids in mesh.edge_map().values():
        for t in tids[1:]:
            uf.union(tids[0], t)
    comps = uf.groups()
    comp_of = {t: i for i, tids in enumerate(comps) for t in tids}
    return comp_of, comps


def vertex_fan_groups(mesh, v, tids=None):
    """Reference for mesh_ops.vertex_fan_groups: incident triangles of v
    joined when they share an opposite vertex."""
    if tids is None:
        tids = mesh.vertex_tris().get(v, [])
    tids = [t for t in tids if mesh.is_active(t)]
    if not tids:
        return []
    opposite = {}
    for t in tids:
        for u in mesh.tri_verts[t].tolist():
            if u != v:
                opposite.setdefault(u, []).append(t)
    uf = _UnionFind(tids)
    for group in opposite.values():
        for t in group[1:]:
            uf.union(group[0], t)
    return uf.groups()


def audit_manifold(mesh):
    """Reference for mesh_ops.audit_manifold: every edge list, then the
    fans of every vertex one at a time."""
    em = mesh.edge_map()
    bad_edges = sorted(e for e, tids in em.items() if len(tids) > 2)
    vmap = mesh.vertex_tris()
    bad_vertices = [v for v in sorted(vmap)
                    if len(vertex_fan_groups(mesh, v, vmap[v])) > 1]
    return bad_edges, bad_vertices


def _directed_edge_in(verts, edge):
    a, b, c = verts
    return edge in ((a, b), (b, c), (c, a))


def strip_edge_map(mesh, tids):
    """Undirected edge -> the triangles of tids on it, in tids order:
    the edge map of those triangles alone, removed ones included."""
    tids = list(tids)
    edges = {}
    for tid, (a, b, c) in zip(tids, mesh.tri_verts[tids].tolist()):
        for u, v in ((a, b), (b, c), (c, a)):
            edges.setdefault((u, v) if u < v else (v, u), []).append(tid)
    return edges


def orient_component(mesh, tids, em=None):
    """Reference for the walk of one part in mesh_ops.orient_parts: a
    queue walk breadth-first from the lowest tid over the component's
    own edge map, flipping each newly reached triangle that runs a
    shared edge in the same direction. Returns the first conflicting
    pair (t, other), or None when the component is orientable."""
    if em is None:
        em = strip_edge_map(mesh, tids)
    seed = min(tids)
    visited = {seed}
    queue = deque([seed])
    comp = set(tids)
    conflict = None
    while queue:
        t = queue.popleft()
        a, b, c = mesh.tri_verts[t].tolist()
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            for other in em.get(key, ()):
                if other == t or other not in comp:
                    continue
                same = _directed_edge_in(mesh.tri_verts[other].tolist(),
                                         (u, v))
                if other in visited:
                    if same and conflict is None:
                        conflict = (t, other)
                else:
                    if same:
                        mesh.flip(other)
                    visited.add(other)
                    queue.append(other)
    return conflict


def orient_all(mesh, align=True):
    """Reference for mesh_ops.orient_all: one breadth-first walk per
    component."""
    from strokesurf import mesh_ops

    _, comps = components(mesh)
    bad = []
    for tids in comps:
        if orient_component(mesh, tids, strip_edge_map(mesh, tids)) is None:
            if align:
                mesh_ops._align_with_source_normals(mesh, tids)
        else:
            bad.append(tids)
    return bad


def break_nonorientable(mesh, frozen=frozenset()):
    """Reference for mesh_ops.break_nonorientable over orient_all above:
    its own breadth-first walk per broken component, over the
    component's own edge map, stopped at the first conflict."""
    removed = []
    for _ in range(len(mesh.tri_verts)):
        bad = orient_all(mesh, align=False)
        if not bad:
            break
        for tids in bad:
            em = strip_edge_map(mesh, tids)
            victim = None
            seed = min(tids)
            visited = {seed}
            queue = deque([seed])
            comp = set(tids)
            while queue and victim is None:
                t = queue.popleft()
                a, b, c = mesh.tri_verts[t].tolist()
                for u, v in ((a, b), (b, c), (c, a)):
                    key = (u, v) if u < v else (v, u)
                    for other in em.get(key, ()):
                        if other == t or other not in comp:
                            continue
                        same = _directed_edge_in(
                            mesh.tri_verts[other].tolist(), (u, v))
                        if other in visited:
                            if same:
                                cands = [x for x in (t, other)
                                         if x not in frozen]
                                victim = max(cands) if cands else max(t,
                                                                      other)
                                break
                        else:
                            if same:
                                mesh.flip(other)
                            visited.add(other)
                            queue.append(other)
                    if victim is not None:
                        break
            if victim is not None:
                mesh.remove(victim)
                removed.append(victim)
    return removed


def repair_nonmanifold(mesh, frozen=frozenset()):
    """Reference for consolidate.repair_nonmanifold: every edge list in
    sorted order each pass, and each pinched vertex's fans from a fresh
    vertex map."""
    removed = []
    for _ in range(64):
        changed = False
        em = mesh.edge_map()
        for edge in sorted(em):
            tids = [t for t in em[edge] if mesh.is_active(t)]
            while len(tids) > 2:
                pick = max(t for t in tids if t not in frozen) \
                    if any(t not in frozen for t in tids) else max(tids)
                mesh.remove(pick)
                removed.append(pick)
                tids.remove(pick)
                changed = True
        nm_edges, nm_vertices = audit_manifold(mesh)
        if nm_edges:
            continue
        for v in nm_vertices:
            groups = vertex_fan_groups(mesh, v)
            if len(groups) <= 1:
                continue

            def group_key(g):
                has_frozen = any(t in frozen for t in g)
                return (not has_frozen, -len(g), min(g))
            keep = sorted(groups, key=group_key)[0]
            for g in groups:
                if g is keep:
                    continue
                for t in sorted(g):
                    mesh.remove(t)
                    removed.append(t)
                    changed = True
        if not changed:
            break
    return removed


def undecided_components(mesh, undecided):
    """Reference for consolidate.undecided_components: undecided
    triangles joined through any shared vertex."""
    by_vertex = {}
    for t in undecided:
        for v in mesh.tri_verts[t].tolist():
            by_vertex.setdefault(v, []).append(t)
    uf = _UnionFind(undecided)
    for tids in by_vertex.values():
        for t in tids[1:]:
            uf.union(tids[0], t)
    return uf.groups()


def moebius_strips(mesh, new_tids):
    """Reference for the strip grouping of mesh_ops.resolve_moebius: the
    active new triangles joined through shared edges."""
    new_set = {t for t in new_tids if mesh.is_active(t)}
    uf = _UnionFind(new_set)
    for tids in mesh.edge_map().values():
        inside = [t for t in tids if t in new_set]
        for t in inside[1:]:
            uf.union(inside[0], t)
    return uf.groups()


def resolve_moebius(mesh, new_tids):
    """Reference for mesh_ops.resolve_moebius over moebius_strips."""
    new_set = {t for t in new_tids if mesh.is_active(t)}
    if not new_set:
        return []
    em_all = mesh.edge_map()
    removed = []
    for strip in moebius_strips(mesh, new_tids):
        orient_component(mesh, strip, strip_edge_map(mesh, strip))
        aligned, inverted = [], []
        for t in strip:
            a, b, c = mesh.tri_verts[t].tolist()
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                for other in em_all.get(key, ()):
                    if other in new_set or not mesh.is_active(other):
                        continue
                    if _directed_edge_in(mesh.tri_verts[other].tolist(),
                                         (u, v)):
                        inverted.append(t)
                    else:
                        aligned.append(t)
        if not aligned and not inverted:
            continue
        minority = inverted if len(inverted) <= len(aligned) else aligned
        for t in sorted(set(minority)):
            if mesh.is_active(t):
                mesh.remove(t)
                removed.append(t)
    return removed


def path_edge_fraction(mesh, paths):
    """Reference for mesh_ops.path_edge_fraction: each path's pairs
    looked up one at a time in the edge map."""
    em = mesh.edge_map()
    total = present = 0
    for ids in paths:
        ids = np.asarray(ids, dtype=np.int64).tolist()
        total += max(len(ids) - 1, 0)
        present += sum(1 for u, v in zip(ids, ids[1:])
                       if u != v and em.get((u, v) if u < v else (v, u)))
    return present / total if total else 0.0


def boundary_loops(mesh):
    """Reference for mesh_ops.boundary_loops: border edges found by a
    scan of the live edge map."""
    em = mesh.edge_map()
    border = [(key, tids[0]) for key, tids in em.items() if len(tids) == 1]
    corners = mesh.tri_verts[[t for _, t in border]].tolist()
    outgoing = {}
    for (key, _), (a, b, c) in zip(border, corners):
        for u, v in ((a, b), (b, c), (c, a)):
            if (min(u, v), max(u, v)) == key:
                outgoing.setdefault(u, []).append(v)
                break
    for v in outgoing:
        outgoing[v].sort()

    loops = []
    used = set()
    for start in sorted(outgoing):
        for first in outgoing[start]:
            if (start, first) in used:
                continue
            loop = [start]
            used.add((start, first))
            cur = first
            broken = False
            for _ in range(len(used) + len(em) + 2):
                if cur == start:
                    break
                loop.append(cur)
                nxt = [w for w in outgoing.get(cur, ())
                       if (cur, w) not in used]
                if not nxt:
                    broken = True
                    break
                used.add((cur, nxt[0]))
                cur = nxt[0]
            if broken or len(loop) < 3:
                continue
            k = loop.index(min(loop))
            loops.append(loop[k:] + loop[:k])
    loops.sort(key=lambda lp: lp[0])
    return loops


# ---------------------------------------------------------------------------
# hole filling, one loop at a time


def _loop_spans_component(mesh, loop):
    """The pillow guard: whether every vertex of the component of the
    lowest active triangle at loop[0] lies on the loop."""
    comp_of, comps = components(mesh)
    tids = comps[comp_of[mesh.vertex_tris([loop[0]])[loop[0]][0]]]
    return set(mesh.tri_verts[tids].ravel().tolist()) <= set(loop)


def _edge_counts(mesh):
    return Counter({e: len(tids) for e, tids in mesh.edge_map().items()})


def close_small_holes(mesh, config):
    """Reference for mesh_ops.close_small_holes as it ran in rounds until
    one added nothing. A round takes the loops of up to
    small_hole_max_sides vertices that pass the pillow guard, splits
    quads by the rule of quad_fill and inserts each fill on its own,
    unless an edge would carry more than two triangles, counting those
    that earlier fills of the round inserted."""
    added = 0
    while True:
        loops = [lp for lp in boundary_loops(mesh)
                 if len(lp) <= config.small_hole_max_sides
                 and not _loop_spans_component(mesh, lp)]
        count = _edge_counts(mesh)
        added_now = 0
        for loop in loops:
            tris = ([tuple(loop[::-1])] if len(loop) == 3
                    else list(quad_fill(mesh.positions, loop)))
            sides = [[tuple(sorted(e)) for e in zip(t, t[1:] + t[:1])]
                     for t in tris]
            gain = Counter(e for r in sides for e in r)
            if any(count[e] + extra > 2 for e, extra in gain.items()):
                continue
            for tid, r in zip(mesh.add_triangles(tris).tolist(), sides):
                if tid >= 0:
                    added_now += 1
                    count.update(r)
        if not added_now:
            return added
        added += added_now


def fill_hole(mesh, loop):
    """The minimum-area triangulation of one loop by the interval DP,
    wound against the loop, against the live edge map: a loop edge may
    carry one triangle already, a chord none. Inserted at once; returns
    the number of triangles added."""
    from strokesurf.geometry import triangle_area

    n = len(loop)
    count = _edge_counts(mesh)
    pts = [mesh.positions[g] for g in loop]
    cost, pick = {}, {}
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            if span == 1:
                cost[i, j] = 0.0
                continue
            adjacent = i == 0 and j == n - 1
            cost[i, j], pick[i, j] = float("inf"), -1
            if count[tuple(sorted((loop[i], loop[j])))] > adjacent:
                continue
            for k in range(i + 1, j):
                c = (cost[i, k] + cost[k, j]
                     + triangle_area(pts[i], pts[k], pts[j]))
                if c < cost[i, j] - 1e-15:
                    cost[i, j], pick[i, j] = c, k
    if not math.isfinite(cost[0, n - 1]):
        return 0
    tris = []

    def emit(i, j):
        if j - i >= 2:
            k = pick[i, j]
            tris.append((loop[j], loop[k], loop[i]))
            emit(k, j)
            emit(i, k)

    emit(0, n - 1)
    return int((mesh.add_triangles(tris) >= 0).sum())


def fill_all_holes(mesh, config, max_sides):
    """Reference for mesh_ops.fill_all_holes as it filled one loop at a
    time: the loops of up to max_sides vertices that pass the pillow
    guard, all judged before the first fill, each by fill_hole."""
    loops = [lp for lp in boundary_loops(mesh) if len(lp) <= max_sides
             and not _loop_spans_component(mesh, lp)]
    return sum(fill_hole(mesh, loop) for loop in loops)


# ---------------------------------------------------------------------------
# mesh neighbourhoods: smoothing, boundary frames, component stats and
# undecided classification, one vertex or triangle at a time over
# vertex -> triangle dicts


def _unit(v, eps=1e-9):
    v = np.asarray(v, dtype=np.float64)
    n = math.sqrt(float(v[0]) ** 2 + float(v[1]) ** 2 + float(v[2]) ** 2)
    if n < eps:
        return np.zeros(3), False
    return v / n, True


def _triangle_normal(a, b, c):
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    return np.array((uy * vz - uz * vy, uz * vx - ux * vz,
                     ux * vy - uy * vx))


def move_keeps_normals(mesh, vmap, g, proposal, cos_guard):
    """A vertex may move only if no incident triangle flips or tilts
    past the guard angle, and none collapses."""
    for tid in vmap.get(g, ()):
        if not mesh.is_active(tid):
            continue
        a, b, c = mesh.tri_verts[tid].tolist()
        before = _triangle_normal(
            mesh.positions[a], mesh.positions[b], mesh.positions[c])
        pa, pb, pc = (proposal if x == g else mesh.positions[x]
                      for x in (a, b, c))
        after = _triangle_normal(pa, pb, pc)
        nb, ok_b = _unit(before)
        na, ok_a = _unit(after)
        if not ok_a:
            return False
        if ok_b and float(np.dot(nb, na)) < cos_guard:
            return False
    return True


def smooth_boundary(mesh, config, iterations=1, lam=0.5):
    """Reference for mesh_ops.smooth_boundary: one guard call per loop
    vertex."""
    from strokesurf.mesh_ops import boundary_loops

    cos_guard = float(np.cos(np.radians(config.smoothing_normal_guard_deg)))
    moved = 0
    for _ in range(iterations):
        loops = boundary_loops(mesh)
        vmap = mesh.vertex_tris()
        proposals = []
        for loop in loops:
            n = len(loop)
            for i, g in enumerate(loop):
                target = 0.5 * (mesh.positions[loop[(i - 1) % n]]
                                + mesh.positions[loop[(i + 1) % n]])
                prop = mesh.positions[g] + lam * (target - mesh.positions[g])
                if move_keeps_normals(mesh, vmap, g, prop, cos_guard):
                    proposals.append((g, prop))
        for g, prop in proposals:
            mesh.positions[g] = prop
            moved += 1
    return moved


def laplacian_smooth(mesh, config, iterations=1, lam=0.5):
    """Reference for mesh_ops.laplacian_smooth: rings from the live edge
    map, means with np.mean, one guard call per vertex."""
    cos_guard = float(np.cos(np.radians(config.smoothing_normal_guard_deg)))
    moved = 0
    for _ in range(iterations):
        em = mesh.edge_map()
        vmap = mesh.vertex_tris()
        boundary = set()
        neighbors = {}
        for (u, v), tids in em.items():
            if not tids:
                continue        # every triangle on this edge was removed
            if len(tids) == 1:
                boundary.add(u)
                boundary.add(v)
            neighbors.setdefault(u, set()).add(v)
            neighbors.setdefault(v, set()).add(u)
        proposals = []
        for g in sorted(neighbors):
            if g in boundary:
                continue
            ring = sorted(neighbors[g])
            target = np.mean(mesh.positions[ring], axis=0)
            prop = mesh.positions[g] + lam * (target - mesh.positions[g])
            if move_keeps_normals(mesh, vmap, g, prop, cos_guard):
                proposals.append((g, prop))
        for g, prop in proposals:
            mesh.positions[g] = prop
            moved += 1
    return moved


def _interpolation_dmax(mesh, comp_of, config):
    lengths = {}
    for key, tids in mesh.edge_map().items():
        u, v = key
        ou, ov = mesh.origin[u], mesh.origin[v]
        structural = (ou[0] == ov[0]
                      and mesh.origin_kind[u] == mesh.origin_kind[v]
                      and abs(int(ou[1]) - int(ov[1])) == 1)
        if structural:
            continue
        d = float(np.linalg.norm(mesh.positions[u] - mesh.positions[v]))
        for c in sorted({comp_of[t] for t in tids}):
            lengths.setdefault(c, []).append(d)
    return {c: float(np.mean(ls)) for c, ls in lengths.items()}


def boundary_chain_set(mesh, config, with_dmax=False):
    """Reference for mesh_ops.boundary_chain_set: each loop vertex framed
    on its own, its incident triangles summed one at a time."""
    from conftest import chain, chain_set
    from strokesurf.mesh_ops import boundary_loops

    loops = boundary_loops(mesh)
    if not loops:
        return None
    comp_of, _ = components(mesh)
    vmap = mesh.vertex_tris()
    dmax_comp = _interpolation_dmax(mesh, comp_of, config) if with_dmax \
        else {}

    chains = []
    for loop in loops:
        gids = np.asarray(loop, dtype=np.int64)
        pos = mesh.positions[gids]
        n = len(loop)
        tan = np.zeros((n, 3))
        nrm = np.zeros((n, 3))
        binorm = np.zeros((n, 3))
        ok = np.ones(n, dtype=bool)
        for i, g in enumerate(loop):
            t_vec, t_ok = _unit(pos[(i + 1) % n] - pos[(i - 1) % n])
            acc = np.zeros(3)
            centroid_acc = np.zeros(3)
            count = 0
            for tid in vmap.get(g, ()):
                if not mesh.is_active(tid):
                    continue
                a, b, c = mesh.tri_verts[tid].tolist()
                acc += _triangle_normal(
                    mesh.positions[a], mesh.positions[b], mesh.positions[c])
                centroid_acc += (mesh.positions[a] + mesh.positions[b]
                                 + mesh.positions[c]) / 3.0
                count += 1
            n_vec, n_ok = _unit(acc)
            if not n_ok:
                n_vec, n_ok = _unit(np.asarray(mesh.normals[g]))
            b_vec, b_ok = _unit(np.cross(t_vec, n_vec))
            if b_ok and count:
                inward = centroid_acc / count - pos[i]
                if float(np.dot(b_vec, inward)) > 0:
                    b_vec = -b_vec
            tan[i] = t_vec
            nrm[i] = n_vec
            binorm[i] = b_vec
            ok[i] = t_ok and n_ok and b_ok
        comp = comp_of[vmap[loop[0]][0]]
        dmax = None
        if with_dmax:
            fallback = config.width_factor * float(
                np.mean(mesh.widths[gids]))
            dmax = np.full(n, dmax_comp.get(comp, fallback))
        chains.append(chain(
            gid=gids, pos=pos, tan=tan, nrm=nrm, bin=binorm,
            w=mesh.widths[gids], col=mesh.colors[gids], ok=ok, cyclic=True,
            component=comp, dmax=dmax))
    return chain_set(chains)


def component_stats(mesh):
    """Reference for mesh_ops.component_stats: vertex and edge sets per
    component."""
    from strokesurf.mesh_ops import boundary_loops

    comp_of, comps = components(mesh)
    loop_count = {}
    vmap = mesh.vertex_tris()
    for loop in boundary_loops(mesh):
        comp = comp_of[vmap[loop[0]][0]]
        loop_count[comp] = loop_count.get(comp, 0) + 1
    stats = []
    for i, tids in enumerate(comps):
        verts = set()
        edges = set()
        for t in tids:
            a, b, c = mesh.tri_verts[t].tolist()
            verts.update((a, b, c))
            for u, v in ((a, b), (b, c), (c, a)):
                edges.add((u, v) if u < v else (v, u))
        loops = loop_count.get(i, 0)
        stats.append({
            "triangles": len(tids),
            "vertices": len(verts),
            "edges": len(edges),
            "euler": len(verts) - len(edges) + len(tids),
            "boundary_loops": loops,
            "closed": loops == 0,
        })
    return stats


def classify_undecided(mesh, pairs, frozen=frozenset()):
    """Reference for consolidate.classify_undecided: the participants and
    every triangle at a conflict's shared vertices, through a vertex
    map."""
    vmap = mesh.vertex_tris()
    undecided = set()
    for t1, t2, a, b in pairs.tolist():
        for t in (t1, t2):
            if t not in frozen:
                undecided.add(t)
        for v in (a, b) if b >= 0 else (a,):
            for t in vmap.get(v, ()):
                if t not in frozen:
                    undecided.add(t)
    return np.array(sorted(undecided), dtype=np.int64)


def build_conflict_graph(mesh, cs, config, component, pairs, incidence,
                         undecided):
    """Reference for consolidate.build_conflict_graph: one component's
    graph built arc by arc into a dict, reading the mesh as it stands
    when the component is solved. `pairs` is the pass's pair table; rows
    with no triangle in the component are skipped. `incidence` is the
    mesh.edge_map() taken after classification and `undecided` the
    classification's tids: a triangle is kept already when it is active
    and not undecided, and later removals are other components'
    triangles, which the activity test skips."""
    from strokesurf.consolidate import _emission_scores

    comp = set(component)
    graph = ConflictGraph(nodes=sorted(comp))

    for t1, t2 in pairs[:, :2].tolist():
        in1, in2 = t1 in comp, t2 in comp
        if in1 and in2:
            graph.add_arc(t1, t2, config.incompatible_weight, hard=True)
        elif in1 or in2:
            t_in = t1 if in1 else t2
            t_out = t2 if in1 else t1
            if mesh.is_active(t_out) and t_out not in comp:
                # conflicting with a kept triangle: may not join output
                graph.add_arc(OUT_NODE, t_in, config.incompatible_weight,
                              hard=True)

    edges = [[(u, v) if u < v else (v, u) for u, v in ((a, b), (b, c), (c, a))]
             for a, b, c in mesh.tri_verts[graph.nodes].tolist()]
    for key in dict.fromkeys(key for keys in edges for key in keys):
        for t1, t2 in itertools.combinations(incidence[key], 2):
            if t1 in comp and t2 in comp and (t1, t2) not in graph.hard:
                graph.add_arc(t1, t2, config.compatible_weight)

    m_scores = _emission_scores(mesh, cs, config, graph.nodes).tolist()
    undecided = set(undecided.tolist())
    for t, m_t, keys in zip(graph.nodes, m_scores, edges):
        graph.add_arc(OUT_NODE, t, m_t + sum(
            1 for key in keys for other in incidence[key]
            if other != t and mesh.is_active(other)
            and other not in undecided))
    return graph


# ---------------------------------------------------------------------------
# ground truth sampling and OBJ input and output


def cube_samples(n, rng):
    """Reference for GroundTruthSurface("cube").sample: the same three
    draws, then one sample placed at a time."""
    face = (rng.uniforms(n) * 6).astype(int).clip(0, 5)
    a = 2 * rng.uniforms(n) - 1.0
    b = 2 * rng.uniforms(n) - 1.0
    out = np.zeros((n, 3))
    for i in range(n):
        axis, sign = divmod(int(face[i]), 2)
        rest = [ax for ax in range(3) if ax != axis]
        out[i, axis] = 1.0 if sign == 0 else -1.0
        out[i, rest[0]] = a[i]
        out[i, rest[1]] = b[i]
    return out


def load_obj(path):
    """Reference for mesh_ops.load_obj: every coordinate through float(),
    every fan triangle appended on its own."""
    positions = []
    normals = []
    faces = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.strip().split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                positions.append([float(x) for x in parts[1:4]])
            elif parts[0] == "vn":
                normals.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                idx = []
                for tok in parts[1:]:
                    head = tok.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: face index "
                                         f"{head!r} is not an integer"
                                         ) from None
                    g = i - 1 if i > 0 else len(positions) + i
                    if not 0 <= g < len(positions):
                        raise ValueError(f"{path}:{lineno}: face index {i} "
                                         "names no vertex")
                    idx.append(g)
                for k in range(1, len(idx) - 1):
                    faces.append((idx[0], idx[k], idx[k + 1]))
    pos = np.asarray(positions, dtype=np.float64)
    nrm = np.asarray(normals, dtype=np.float64) if normals else None
    return pos, faces, nrm


def _fmt(x):
    x = float(x)
    if x == 0.0:
        x = 0.0
    return format(x, ".9g")


def _canonical_face(verts):
    """Rotate so the smallest vertex leads, preserving winding."""
    k = verts.index(min(verts))
    return verts[k:] + verts[:k]


def export_obj(mesh, path):
    """Reference for mesh_ops.export_obj: one line at a time, one _fmt
    call per number and one _canonical_face call per face, through a
    remap dict and the component lists of SurfaceMesh.components()."""
    from strokesurf import geometry
    from strokesurf.mesh_ops import _vertex_sums

    _, verts = mesh.triangle_array()
    _, comps = mesh.components()
    used = np.unique(verts)
    remap = dict(zip(used.tolist(), range(1, len(used) + 1)))

    pos = mesh.positions
    norms, ok = geometry.unit_rows_pow(_vertex_sums(
        verts, geometry.triangle_normals(pos, verts), len(pos))[used])
    norms[~ok] = (0.0, 0.0, 1.0)

    comp_faces = sorted((sorted(map(_canonical_face,
                                    mesh.tri_verts[tids].tolist()))
                         for tids in comps), key=lambda fs: fs[0])

    lines = []
    for p in pos[used]:
        lines.append(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}")
    for n in norms:
        lines.append(f"vn {_fmt(n[0])} {_fmt(n[1])} {_fmt(n[2])}")
    for ci, faces in enumerate(comp_faces):
        lines.append(f"g component_{ci:03d}")
        for f in faces:
            ids = [remap[g] for g in f]
            lines.append("f " + " ".join(f"{i}//{i}" for i in ids))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(used), sum(len(fs) for fs in comp_faces)
