"""Candidate generation, Viterbi matching, and neighbor statistics."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from strokesurf import matcher, stroke_model as sm
from strokesurf.scoring import Side

import oracles
from conftest import (chain, chain_set, flat, line_stroke,
                      random_frame_rows)


def parallel_drawing(ys, width=0.12, colors=None):
    strokes = []
    for k, y in enumerate(ys):
        color = (1, 1, 1) if colors is None else colors[k]
        strokes.append(line_stroke(y=y, width=width, color=color))
    return sm.Drawing(strokes=strokes)


def targets(cands, side, chain_id, index=None):
    """Candidate targets on one side of one chain vertex, or of every
    vertex of the chain."""
    cs = cands.chainset
    src, tgt = cands.lists[int(side)].T
    on = cs.chain_id[src] == chain_id
    if index is not None:
        on &= cs.index[src] == index
    return tgt[on]


def test_stroke_chains_layout(flat_pair):
    cs = matcher.stroke_chains(flat_pair)
    assert cs.chain_count() == 2 and len(cs) == 20
    assert list(cs.offsets) == [0, 10, 20]
    assert list(cs.lengths) == [10, 10]
    assert np.array_equal(cs.gid, np.arange(20))
    assert cs.chain_id[13] == 1 and cs.index[13] == 3
    assert not cs.cyclic.any() and list(cs.component) == [-1, -1]
    assert cs.dmax is None
    assert np.array_equal(cs.pos[10:], flat_pair.strokes[1].points)
    # line_stroke runs along +x with a +z normal, so binormals point -y
    assert np.allclose(cs.bin, np.tile([0.0, -1.0, 0.0], (20, 1)))


def test_append_chain_copies_rows_and_keeps_flat_ids(flat_pair):
    cs = matcher.stroke_chains(flat_pair)
    before = {name: getattr(cs, name).copy() for name in (
        "gid", "pos", "tan", "nrm", "bin", "w", "col", "ok", "chain_id",
        "index")}
    cs.ok[12] = False
    before["ok"][12] = False
    src = np.array([11, 12, 13])
    pos = np.ones((3, 3))
    assert cs.append_chain(src, np.array([40, 41, 42]), pos) == 2
    assert list(cs.offsets) == [0, 10, 20, 23]
    for name, rows in before.items():
        assert np.array_equal(getattr(cs, name)[:20], rows), name
    assert list(cs.gid[20:]) == [40, 41, 42]
    assert np.array_equal(cs.pos[20:], pos)
    for name in ("tan", "nrm", "bin", "w", "col", "ok"):
        assert np.array_equal(getattr(cs, name)[20:],
                              before[name][src]), name
    assert list(cs.chain_id[20:]) == [2, 2, 2]
    assert list(cs.index[20:]) == [0, 1, 2]
    assert list(cs.cyclic) == [False] * 3
    assert list(cs.component) == [-1] * 3


# ---------------------------------------------------------------------------
# candidate generation


def test_baseline_candidates_radius_and_side(config):
    # acceptance radius 1.5 * 0.12 = 0.18: y=0.1 is in, y=0.5 is out
    cs = matcher.stroke_chains(parallel_drawing([0.0, 0.1, 0.5]))
    cands = matcher.baseline_candidates(cs, config)

    # RIGHT of chain 0 faces +y
    assert flat(cs, 1, 5) in targets(cands, Side.RIGHT, 0, 5)
    assert (cs.chain_id[targets(cands, Side.RIGHT, 0)] == 1).all()
    assert len(targets(cands, Side.LEFT, 0)) == 0   # nothing below chain 0
    for side in (Side.LEFT, Side.RIGHT):  # chain 2 is isolated
        assert len(targets(cands, side, 2)) == 0


def test_baseline_candidates_exclude_self_and_adjacent(config):
    cs = matcher.stroke_chains(parallel_drawing([0.0, 0.1]))
    cands = matcher.baseline_candidates(cs, config)
    assert set(cands.lists) == {1, -1}
    for rows in cands.lists.values():
        assert rows.dtype == np.int64 and rows.shape[1] == 2
        src, tgt = rows.T
        assert (np.abs(tgt - src) > 1).all()
        assert np.array_equal(rows, rows[np.lexsort((tgt, src))])


def test_baseline_candidates_cone(config):
    # a stroke straight above (along +z) is inside the radius but at 90
    # degrees to both probe directions, outside the 60 degree cone
    cs = matcher.stroke_chains(parallel_drawing([0.0]))
    above = line_stroke(z=0.1)
    cs2 = matcher.stroke_chains(sm.Drawing(strokes=[line_stroke(), above]))
    cands = matcher.baseline_candidates(cs2, config)
    for side in (Side.LEFT, Side.RIGHT):
        assert len(targets(cands, side, 0)) == 0
    del cs


def test_baseline_candidates_color_cue(config):
    d = parallel_drawing([0.0, 0.1], colors=[(1, 0, 0), (0, 1, 0)])
    cs = matcher.stroke_chains(d)
    plain = matcher.baseline_candidates(cs, config)
    assert len(targets(plain, Side.RIGHT, 0)) > 0
    cued = matcher.baseline_candidates(cs, config, color_cue=True)
    assert len(targets(cued, Side.RIGHT, 0)) == 0


def test_degenerate_vertices_get_no_candidates(config):
    d = parallel_drawing([0.0, 0.1])
    cs = matcher.stroke_chains(d)
    cs.ok[3] = False
    cands = matcher.baseline_candidates(cs, config)
    assert len(targets(cands, Side.RIGHT, 0, 3)) == 0
    # nor do they appear as targets
    for rows in cands.lists.values():
        assert 3 not in rows


def random_chainset(rng, with_dmax):
    """1-7 chains of 1-12 vertices, some cyclic, clustered so that many
    pairs fall inside the acceptance radius; random frames, some
    degenerate, two colors, three mesh components."""
    chains = []
    for _ in range(int(rng.integers(1, 8))):
        n = int(rng.integers(1, 13))
        steps = rng.normal(size=(n, 3)) * rng.uniform(0.02, 0.08)
        pos = rng.uniform(-0.2, 0.2, size=3) + np.cumsum(steps, axis=0)
        tans, nrms, bins = random_frame_rows(rng, n)
        chains.append(chain(
            gid=np.arange(n), pos=pos, tan=tans, nrm=nrms, bin=bins,
            w=rng.uniform(0.03, 0.15, size=n),
            col=np.tile(rng.integers(0, 2, size=(1, 3)), (n, 1)),
            ok=rng.random(n) > 0.1, cyclic=bool(rng.random() < 0.3),
            component=int(rng.integers(0, 3)),
            dmax=rng.uniform(0.05, 0.3, size=n) if with_dmax else None))
    return chain_set(chains)


def assert_same_lists(cands, ref):
    assert set(cands.lists) == set(ref)
    for side, rows in ref.items():
        got = cands.lists[side]
        assert got.dtype == np.int64 and got.shape == rows.shape, side
        assert np.array_equal(got, rows), side


def test_candidates_equal_the_per_vertex_builder(config):
    rng = np.random.default_rng(2707)
    for _ in range(80):
        cs = random_chainset(rng, with_dmax=bool(rng.random() < 0.5))
        color_cue = bool(rng.random() < 0.5)
        nm = {side: np.full(cs.chain_count(), -1) for side in (1, -1)}
        for ci in range(cs.chain_count()):
            for side in (1, -1):
                if rng.random() < 0.6:
                    nm[side][ci] = rng.integers(0, cs.chain_count())
        base = matcher.baseline_candidates(cs, config, color_cue=color_cue)
        restricted = matcher.restricted_candidates(base, nm)
        assert restricted.pairs_tested == base.pairs_tested
        phases = [("baseline", base), ("restricted", restricted),
                  ("extension", matcher.boundary_candidates(
                      cs, config, "extension", color_cue=color_cue))]
        if cs.dmax is not None:
            phases.append(("gap", matcher.boundary_candidates(
                cs, config, "gap", color_cue=color_cue)))
        for phase, cands in phases:
            ref = oracles.phase_candidates(cs, config, phase, nm, color_cue)
            assert_same_lists(cands, ref)
            listed = sum(len(rows) for rows in ref.values())
            assert listed <= cands.pairs_tested


def single_vertex_chain(pos, width=0.1, dmax=None):
    return chain(
        gid=np.arange(1), pos=np.array([pos], dtype=float),
        tan=np.array([[1.0, 0, 0]]), nrm=np.array([[0, 0, 1.0]]),
        bin=np.array([[0, 1.0, 0]]), w=np.array([width]),
        col=np.ones((1, 3)), ok=np.ones(1, dtype=bool),
        dmax=None if dmax is None else np.array([dmax]))


def test_candidates_at_the_radius_and_cone_boundaries(config):
    # one-vertex chains, so the end cone applies at both ends; frames
    # are axis-aligned, so every dot product is exact
    r = config.width_factor * 0.5 * (0.1 + 0.1)
    c = float(np.cos(np.radians(config.cone_angle_deg)))
    x = 0.5 * r * np.sin(np.radians(config.cone_angle_deg))

    def off_cone(y):
        return y < c * np.linalg.norm([[x, y, 0.0]], axis=1)[0]

    # the largest y with (x, y) still off the cone, and the next float
    y = 0.5 * r * c
    while not off_cone(y):
        y = np.nextafter(y, 0.0)
    while off_cone(np.nextafter(y, 1.0)):
        y = np.nextafter(y, 1.0)
    on_cone = np.nextafter(y, 1.0)
    points = [(0, 0, 0), (0, r, 0), (0, np.nextafter(r, 1.0), 0),
              (x, on_cone, 0), (x, y, 0)]
    for dmax in (None, r):
        cs = chain_set([single_vertex_chain(p, dmax=dmax) for p in points])
        if dmax is None:
            phase = "baseline"
            cands = matcher.baseline_candidates(cs, config)
            assert list(targets(cands, Side.LEFT, 0)) == [1, 3]
        else:
            phase = "gap"
            cands = matcher.boundary_candidates(cs, config, "gap")
            assert 1 in targets(cands, Side.LEFT, 0)
            assert 2 not in targets(cands, Side.LEFT, 0)
        assert_same_lists(cands, oracles.phase_candidates(cs, config,
                                                          phase))


def test_candidates_next_to_the_cone_with_rotated_frames(config):
    # with rotated frames the dot products round, and the per-vertex
    # builder's BLAS dot can round a point exactly on the cone to the
    # other side; so points sit 1e-9 rad inside or outside it instead
    rng = np.random.default_rng(77)
    r = config.width_factor * 0.5 * (0.1 + 0.1)
    delta = 1e-9
    for trial in range(20):
        tans, nrms, bins = random_frame_rows(rng, 1)
        t, b = tans[0], bins[0]
        origin = rng.uniform(-1, 1, size=3)
        gap = trial % 2 == 1
        cone = np.radians(config.boundary_cone_angle_deg if gap
                          else config.cone_angle_deg)
        # targets' binormals point along the ray from the source, so
        # the end cone seen from them holds and the probe cone decides
        points, frames = [origin], [(t, nrms[0], b)]
        inside = {1: [], -1: []}
        for side in (1, -1):
            for _ in range(6):
                u = rng.normal(size=3)
                u -= (u @ b) * b
                u /= np.linalg.norm(u)
                for theta in (cone - delta, cone + delta):
                    if theta < cone:
                        inside[side].append(len(points))
                    ray = np.cos(theta) * side * b + np.sin(theta) * u
                    tq = np.cos(theta) * u - np.sin(theta) * side * b
                    points.append(origin + 0.5 * r * ray)
                    frames.append((tq, np.cross(ray, tq), ray))
        cs = chain_set([chain(
            gid=np.arange(1), pos=np.array([p]), tan=np.array([ft]),
            nrm=np.array([fn]), bin=np.array([fb]), w=np.array([0.1]),
            col=np.ones((1, 3)), ok=np.ones(1, dtype=bool),
            dmax=np.array([r]) if gap else None)
            for p, (ft, fn, fb) in zip(points, frames)])
        if gap:
            cands = matcher.boundary_candidates(cs, config, "gap")
            ref = oracles.phase_candidates(cs, config, "gap")
        else:
            cands = matcher.baseline_candidates(cs, config)
            ref = oracles.phase_candidates(cs, config, "baseline")
            assert list(targets(cands, Side.RIGHT, 0)) == inside[-1]
        assert list(targets(cands, Side.LEFT, 0)) == inside[1]
        assert_same_lists(cands, ref)


def test_restricted_candidates_limit_targets(config):
    cs = matcher.stroke_chains(parallel_drawing([0.0, 0.1, 0.2]))
    dominant = {side: np.full(3, -1) for side in (1, -1)}
    dominant[int(Side.LEFT)][1] = 0
    cands = matcher.restricted_candidates(
        matcher.baseline_candidates(cs, config), dominant)
    left = targets(cands, Side.LEFT, 1)
    assert len(left) and set(cs.chain_id[left]) == {0}
    # no dominant neighbor on the right leaves only the chain itself,
    # whose vertices are all excluded by radius or adjacency
    assert len(targets(cands, Side.RIGHT, 1)) == 0


def boundary_chain(y, component, n=10, dmax=None):
    pts = np.stack([np.linspace(0, 0.9, n), np.full(n, y),
                    np.zeros(n)], axis=1)
    tan = np.tile([1.0, 0, 0], (n, 1))
    nrm = np.tile([0.0, 0, 1.0], (n, 1))
    bno = np.tile([0.0, 1.0, 0], (n, 1))
    return chain(
        gid=np.arange(n), pos=pts, tan=tan, nrm=nrm, bin=bno,
        w=np.full(n, 0.12), col=np.ones((n, 3)), ok=np.ones(n, dtype=bool),
        component=component,
        dmax=None if dmax is None else np.full(n, float(dmax)))


def test_boundary_candidates_extension_stays_in_component(config):
    same = chain_set([boundary_chain(0.0, 0), boundary_chain(0.1, 0)])
    cands = matcher.boundary_candidates(same, config, "extension")
    assert set(cands.lists) == {1}   # LEFT only
    assert len(targets(cands, Side.LEFT, 0)) > 0

    split = chain_set([boundary_chain(0.0, 0), boundary_chain(0.1, 1)])
    cands = matcher.boundary_candidates(split, config, "extension")
    assert len(targets(cands, Side.LEFT, 0)) == 0


def test_boundary_candidates_gap_uses_dmax(config):
    cs = chain_set([boundary_chain(0.0, 0, dmax=0.5),
                    boundary_chain(0.4, 1, dmax=0.5)])
    cands = matcher.boundary_candidates(cs, config, "gap")
    assert len(targets(cands, Side.LEFT, 0)) > 0
    # the width rule alone reaches 0.18, not 0.4
    width = matcher.baseline_candidates(cs, config)
    assert len(targets(width, Side.LEFT, 0)) == 0
    tight = chain_set([boundary_chain(0.0, 0, dmax=0.2),
                       boundary_chain(0.4, 1, dmax=0.2)])
    cands = matcher.boundary_candidates(tight, config, "gap")
    assert len(targets(cands, Side.LEFT, 0)) == 0
    with pytest.raises(ValueError):
        matcher.boundary_candidates(cs, config, "nonsense")


def test_pair_sigmas_width_and_dmax_modes(config):
    cs = chain_set([boundary_chain(0.0, 0), boundary_chain(0.1, 0)])
    sig = matcher.pair_sigmas(cs, 0, np.array([10, 11]), config)
    assert np.allclose(sig, 1.5 * 0.12)
    gap = chain_set([boundary_chain(0.0, 0, dmax=0.2),
                     boundary_chain(0.1, 0, dmax=0.6)])
    sig = matcher.pair_sigmas(gap, 0, np.array([10, 11]), config)
    assert np.allclose(sig, 0.4)


# ---------------------------------------------------------------------------
# Viterbi


def random_viterbi_instance(rng, config):
    n_src = int(rng.integers(2, 7))
    n_pool = int(rng.integers(4, 13))
    chains = []
    for count in (n_src, n_pool):
        tans, nrms, bins = random_frame_rows(rng, count)
        chains.append(chain(
            gid=np.arange(count), pos=rng.normal(size=(count, 3)),
            tan=tans, nrm=nrms, bin=bins,
            w=rng.uniform(0.1, 1.0, size=count), col=np.ones((count, 3)),
            ok=np.ones(count, dtype=bool)))
    cs = chain_set(chains)
    pool_base = int(cs.offsets[1])
    cand_lists = []
    for _ in range(n_src):
        k = int(rng.integers(0, 5))
        ids = rng.choice(n_pool, size=min(k, n_pool), replace=False)
        cand_lists.append(np.sort(pool_base + ids).astype(np.int64))
    return cs, cand_lists


def candidate_rows(cand_lists):
    """The (source, target) rows of chain 0's per-vertex lists."""
    return np.array([(i, t) for i, ts in enumerate(cand_lists)
                     for t in ts], dtype=np.int64).reshape(-1, 2)


def test_viterbi_chain_matches_enumeration(config):
    rng = np.random.default_rng(404)
    for _ in range(250):
        cs, cand_lists = random_viterbi_instance(rng, config)
        side = int(rng.choice([1, -1]))
        match, mlog, totals = matcher.viterbi_chain(
            cs, side, candidate_rows(cand_lists), config)
        # chain 0 holds every source; the pool chain matches nothing
        assert (match[cs.offsets[1]:] == -1).all() and totals[1] == 0.0
        total = totals[0]
        best = oracles.viterbi_reference(cs, 0, side, cand_lists, config)
        assert total == pytest.approx(best, abs=1e-9)
        achieved = oracles.assignment_score(cs, 0, side, cand_lists,
                                            match, config)
        assert achieved == pytest.approx(total, abs=1e-9)
        for i, cl in enumerate(cand_lists):
            assert (match[i] >= 0) == (len(cl) > 0)
            if match[i] >= 0:
                assert match[i] in cl
                assert np.isfinite(mlog[i])


def random_chain_rows(rng):
    """A random ChainSet of 2-5 chains, chain 0 cyclic, and candidate
    rows over it. Each vertex has 0-3 targets anywhere in the set but
    itself, so vertices without any split segments; chain 0's first and
    last vertices both have some. The last flat vertex copies the
    position, frame and width of vertex 0, and one random source has
    exactly these two as targets. Returns (cs, rows, that source)."""
    lengths = [int(rng.integers(3, 9))] + [
        int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 5)))]
    chains = []
    for i, count in enumerate(lengths):
        tans, nrms, bins = random_frame_rows(rng, count)
        chains.append(chain(
            gid=np.arange(count), pos=rng.normal(size=(count, 3)),
            tan=tans, nrm=nrms, bin=bins,
            w=rng.uniform(0.1, 1.0, size=count), col=np.ones((count, 3)),
            ok=np.ones(count, dtype=bool), cyclic=i == 0))
    cs = chain_set(chains)
    last = len(cs) - 1
    for name in ("pos", "tan", "nrm", "bin", "w"):
        getattr(cs, name)[last] = getattr(cs, name)[0]
    tie = int(rng.integers(1, last))
    rows = []
    for v in range(len(cs)):
        k = int(rng.integers(0, 4))
        if v in (0, lengths[0] - 1):
            k = max(k, 1)
        others = np.delete(np.arange(len(cs)), v)
        targets = np.sort(rng.choice(others, size=min(k, len(others)),
                                     replace=False))
        if v == tie:
            targets = [0, last]
        rows.extend((v, int(t)) for t in targets)
    return cs, np.array(rows, dtype=np.int64), tie


def test_viterbi_chain_solves_every_chain_as_the_per_chain_reference(
        config):
    """One call solves every chain of a side as the per-chain reference
    does: a cyclic chain's first and last vertices stay two segment
    ends, and of two identical targets the lower flat id wins."""
    rng = np.random.default_rng(1717)
    for _ in range(200):
        cs, rows, tie = random_chain_rows(rng)
        for side in (1, -1):
            match, mlog, totals = matcher.viterbi_chain(cs, side, rows,
                                                        config)
            assert match[tie] == 0
            assert totals.shape == (cs.chain_count(),)
            for ci in range(cs.chain_count()):
                lo, hi = cs.offsets[ci], cs.offsets[ci + 1]
                want = oracles.viterbi_chain(
                    cs, ci, side, oracles.vertex_lists(rows, cs, ci), config)
                assert np.array_equal(match[lo:hi], want[0])
                np.testing.assert_allclose(mlog[lo:hi], want[1], rtol=1e-12)
                assert totals[ci] == pytest.approx(want[2], rel=1e-12)
        match, mlog, totals = matcher.viterbi_chain(cs, 1, rows[:0], config)
        assert (match == -1).all() and np.isnan(mlog).all()
        assert (totals == 0.0).all()


def test_match_all_solves_every_side(config):
    cs = matcher.stroke_chains(parallel_drawing([0.0, 0.1, 0.2]))
    cands = matcher.baseline_candidates(cs, config)
    table = matcher.match_all(cands, config)
    assert set(table.matches) == set(cands.lists)
    for match in table.matches.values():
        assert match.dtype == np.int64 and match.shape == (len(cs),)
    for side, target in ((Side.LEFT, 0), (Side.RIGHT, 2)):
        mid = table.matches[int(side)][flat(cs, 1, 5)]
        assert mid >= 0 and cs.chain_id[mid] == target
    # chain 0 has nothing to its LEFT and chain 2 nothing to its RIGHT
    assert (table.matches[int(Side.LEFT)][:10] == -1).all()
    assert (table.matches[int(Side.RIGHT)][20:] == -1).all()


def dominant_maps(rng, cands):
    """Three dominant maps over the chains of a baseline set: none at all,
    a random one, and each chain's first other target chain per side,
    which keeps every row where a chain reaches one other chain."""
    cs = cands.chainset
    count = cs.chain_count()
    none = {side: np.full(count, -1) for side in cands.lists}
    drawn = {side: np.where(rng.random(count) < 0.6,
                            rng.integers(0, count, size=count), -1)
             for side in cands.lists}
    first = {}
    for side, rows in cands.lists.items():
        src, tgt = cs.chain_id[rows[::-1]].T
        first[side] = np.full(count, -1)
        first[side][src[src != tgt]] = tgt[src != tgt]
    return none, drawn, first


def reused_rows(base_rows, kept):
    """The kept rows of a side that lost no row to the restriction: all
    of them, or none where some row is gone."""
    return len(kept) if len(kept) == len(base_rows) else 0


def test_restricted_match_reuses_the_baseline_pass(config):
    """A restricted set solved from its solved baseline set has the table
    of a fresh viterbi_chain over its rows, bit for bit, and counts as
    reused the rows of each side that lost no row to the restriction.
    The maps keep every row of some sets and some rows of others; some
    passes reuse every kept row and others walk sides again."""
    rng = np.random.default_rng(2727)
    kinds = Counter()
    for _ in range(100):
        cs = random_chainset(rng, with_dmax=bool(rng.random() < 0.5))
        base = matcher.baseline_candidates(
            cs, config, color_cue=bool(rng.random() < 0.5))
        maps = dominant_maps(rng, base)
        # before the baseline is solved there is no pass to reuse
        cold = matcher.match_all(
            matcher.restricted_candidates(base, maps[1]), config)
        assert cold.rows_reused == 0
        matcher.match_all(base, config)
        assert set(base.passes) == set(base.lists)
        for dominant in maps:
            cands = matcher.restricted_candidates(base, dominant)
            kept_rows = dict(cands.kept)
            table = matcher.match_all(cands, config)
            assert cands.base is None and cands.kept == {}
            kept = total = reused = 0
            for side, rows in cands.lists.items():
                fresh = matcher.viterbi_chain(cs, side, rows, config)[0]
                assert np.array_equal(table.matches[side], fresh)
                kept += len(rows)
                total += len(base.lists[side])
                reused += reused_rows(base.lists[side], kept_rows[side])
            assert 0 <= table.rows_reused == reused <= kept
            if dominant is maps[1]:
                for side, match in cold.matches.items():
                    assert np.array_equal(table.matches[side], match)
            if total:
                kinds["every" if kept == total else "some"] += 1
            if kept:
                kinds["all reused" if reused == kept else "walked"] += 1
    assert min(kinds.values()) >= 50 and len(kinds) == 4, kinds


def test_restricted_match_walks_every_segment_that_lost_rows(config):
    """Three parallel strokes closer than the radius: the outer ones keep
    only their rows into the middle one, which names the wrong neighbor
    on both sides. Both sides lost rows, so no row is reused, and the
    table is still a fresh pass's."""
    cs = matcher.stroke_chains(parallel_drawing([0.0, 0.08, 0.16]))
    base = matcher.baseline_candidates(cs, config)
    matcher.match_all(base, config)
    dominant = {int(Side.LEFT): np.array([-1, 2, 1]),
                int(Side.RIGHT): np.array([1, 0, -1])}
    cands = matcher.restricted_candidates(base, dominant)
    table = matcher.match_all(cands, config)
    assert table.rows_reused == 0
    for side, rows in cands.lists.items():
        assert 0 < len(rows) < len(base.lists[side])
        assert set(cs.chain_id[rows[:, 1]]) == {1}
        fresh = matcher.viterbi_chain(cs, side, rows, config)[0]
        assert np.array_equal(table.matches[side], fresh)


# ---------------------------------------------------------------------------
# neighbor statistics


def table_with_matches(cs, chain_id, side, pairs):
    """MatchTable whose one side matches chain_id's given (source index,
    flat target) pairs and nothing else."""
    table = matcher.MatchTable(cs)
    m = np.full(len(cs), -1, dtype=np.int64)
    for i, f in pairs:
        m[flat(cs, chain_id, i)] = f
    table.matches[int(side)] = m
    return table


def dominant(table, config):
    return matcher.dominant_neighbors(
        table, matcher.matching_frequencies(table), config)


def test_matching_frequencies(config):
    cs = matcher.stroke_chains(parallel_drawing([0.0, 0.1, 0.2]))
    pairs = [(0, flat(cs, 1, 0)), (1, flat(cs, 1, 1)), (2, flat(cs, 2, 0))]
    table = table_with_matches(cs, 0, Side.RIGHT, pairs)
    freqs = matcher.matching_frequencies(table)
    assert set(freqs) == {int(Side.RIGHT)}
    freq = freqs[int(Side.RIGHT)]
    assert freq[0].tolist() == [0.0, 0.2, 0.1]
    assert not freq[1:].any()


def test_dominant_needs_frequency_threshold(config):
    cs = matcher.stroke_chains(parallel_drawing([0.0, 0.1]))
    pairs = [(0, flat(cs, 1, 0)), (1, flat(cs, 1, 1))]   # 2 of 10 = 0.2
    table = table_with_matches(cs, 0, Side.RIGHT, pairs)
    assert dominant(table, config)[int(Side.RIGHT)].tolist() == [-1, -1]


def test_dominant_needs_consecutive_support(config):
    cs = matcher.stroke_chains(parallel_drawing([0.0, 0.1]))
    scattered = [(i, flat(cs, 1, 2 * i)) for i in range(4)]  # 0.4, strided
    table = table_with_matches(cs, 0, Side.RIGHT, scattered)
    assert dominant(table, config)[int(Side.RIGHT)].tolist() == [-1, -1]

    solid = [(i, flat(cs, 1, i)) for i in range(4)]
    table = table_with_matches(cs, 0, Side.RIGHT, solid)
    assert dominant(table, config)[int(Side.RIGHT)].tolist() == [1, -1]


def test_dominant_tie_goes_to_lower_chain_id(config):
    cs = matcher.stroke_chains(parallel_drawing([0.0, 0.1, 0.2]))
    pairs = ([(i, flat(cs, 1, i)) for i in range(3)]
             + [(i + 3, flat(cs, 2, i)) for i in range(3)])
    table = table_with_matches(cs, 0, Side.RIGHT, pairs)
    assert dominant(table, config)[int(Side.RIGHT)].tolist() == [1, -1, -1]


def test_neighbor_statistics_equal_the_per_chain_reference(config):
    """Frequencies and dominant neighbors over random tables whose
    matches often run along a target chain, at random thresholds."""
    rng = np.random.default_rng(3131)
    found = 0
    for _ in range(200):
        cs = random_chainset(rng, with_dmax=False)
        probe = dataclasses.replace(config,
                                    dominant_freq=rng.uniform(0.05, 0.6))
        table = matcher.MatchTable(cs)
        for side in (1, -1):
            match = rng.integers(-len(cs), len(cs), size=len(cs))
            match[match < 0] = -1
            for f in range(1, len(cs)):
                step = match[f - 1] + rng.choice([-1, 1])
                if (match[f - 1] >= 0 and rng.random() < 0.6
                        and 0 <= step < len(cs)
                        and cs.chain_id[step] == cs.chain_id[match[f - 1]]):
                    match[f] = step
            table.matches[side] = match
        shares, want = oracles.neighbor_statistics(table, probe)
        freqs = matcher.matching_frequencies(table)
        got = matcher.dominant_neighbors(table, freqs, probe)
        assert set(got) == set(want) == set(freqs) == {1, -1}
        for side in (1, -1):
            dense = np.zeros((cs.chain_count(), cs.chain_count()))
            for (ci, t), share in shares[side].items():
                dense[ci, t] = share
            assert freqs[side].tolist() == dense.tolist()
            assert got[side].dtype == np.int64
            assert got[side].tolist() == want[side].tolist()
            found += int((got[side] >= 0).sum())
    assert found > 0
