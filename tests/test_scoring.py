import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokesurf import scoring, stroke_model as sm

import oracles
from conftest import make_stroke


def vertex(points, i, normal=(0, 0, 1), width=0.5):
    s = make_stroke(np.asarray(points, dtype=float), normal=normal,
                    width=width)
    return sm.StrokeVertex(s, 0, i)


def canonical_pair(width=0.5):
    """p at the origin, q one unit along +x, both running along +y with
    +z normals, so the binormal points at +x and q sits on p's left."""
    p = vertex([[0, 0, 0], [0, 1, 0]], 0, width=width)
    q = vertex([[1, 0, 0], [1, 1, 0]], 0, width=width)
    return p, q


def test_sigma_for(config):
    assert scoring.sigma_for(0.5, 0.5, config) == pytest.approx(0.75)
    assert scoring.sigma_for(1.0, 3.0, config) == pytest.approx(3.0)
    cfg = sm.Config(width_factor=1.0)
    assert scoring.sigma_for(1.0, 1.0, cfg) == pytest.approx(1.0)


def test_vertex_score_left_reference_value(config):
    p, q = canonical_pair()
    br = scoring.vertex_score(p, q, scoring.Side.LEFT, config)
    assert br.d_align == pytest.approx(1.0)
    assert br.d_tangent == pytest.approx(0.0, abs=1e-15)
    assert br.d_normal == pytest.approx(0.0, abs=1e-15)
    assert br.sigma == pytest.approx(0.75)
    assert br.score == pytest.approx(0.411112, abs=1e-6)


def test_vertex_score_right_reference_value(config):
    p, q = canonical_pair()
    br = scoring.vertex_score(p, q, scoring.Side.RIGHT, config)
    assert br.d_normal == pytest.approx(0.5)
    assert br.score == pytest.approx(0.135335, abs=1e-6)
    assert br.score == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_probe_term_cancels_beside_and_charges_on_top(config):
    # q past one probe width on p's left: probes point at each other and
    # the normal term vanishes; a coincident q pays the full probe width
    p = vertex([[0, 0, 0], [0, 1, 0]], 0)
    beside = vertex([[0.51, 0, 0], [0.51, 1, 0]], 0)
    ontop = vertex([[1e-9, 0, 0], [1e-9, 1, 0]], 0)
    a = scoring.vertex_score(p, beside, scoring.Side.LEFT, config)
    b = scoring.vertex_score(p, ontop, scoring.Side.LEFT, config)
    assert a.d_normal == pytest.approx(0.0, abs=1e-12)
    assert a.score == pytest.approx(math.exp(-0.51**2 / 1.125), rel=1e-12)
    assert b.d_normal == pytest.approx(0.5)


def test_persistence_reference_value():
    score = scoring.persistence_score([0, 0, 0], [0, 1, 0],
                                      [1, 0, 0], [1, 1, 0], sigma=0.75)
    assert score == pytest.approx(0.028566, abs=1e-6)


def test_persistence_identical_edges_is_one():
    score = scoring.persistence_score([0, 0, 0], [0, 1, 0],
                                      [0, 0, 0], [0, 1, 0], sigma=0.75)
    assert score == pytest.approx(1.0)


def test_persistence_antiparallel_heavily_penalized():
    # swapping the q edge's endpoints triples the distance sum
    score = scoring.persistence_score([0, 0, 0], [0, 1, 0],
                                      [1, 1, 0], [1, 0, 0], sigma=0.75)
    assert score == pytest.approx(1.27e-14, rel=1e-2)
    assert score == pytest.approx(math.exp(-36 / 1.125), rel=1e-9)


def test_degenerate_frame_rejected(config):
    p = vertex([[0, 0, 0], [0, 1, 0]], 0, normal=(0, 1, 0))
    q = vertex([[1, 0, 0], [1, 1, 0]], 0)
    with pytest.raises(ValueError):
        scoring.vertex_score(p, q, scoring.Side.LEFT, config)


def test_flipping_p_normal_swaps_sides(config):
    p, q = canonical_pair()
    pf = vertex([[0, 0, 0], [0, 1, 0]], 0, normal=(0, 0, -1))
    left = scoring.vertex_score(p, q, scoring.Side.LEFT, config)
    right = scoring.vertex_score(p, q, scoring.Side.RIGHT, config)
    fleft = scoring.vertex_score(pf, q, scoring.Side.LEFT, config)
    fright = scoring.vertex_score(pf, q, scoring.Side.RIGHT, config)
    assert fleft.score == pytest.approx(right.score, rel=1e-12)
    assert fright.score == pytest.approx(left.score, rel=1e-12)


def test_flipping_q_normal_changes_nothing(config):
    p, q = canonical_pair()
    qf = vertex([[1, 0, 0], [1, 1, 0]], 0, normal=(0, 0, -1))
    for side in (scoring.Side.LEFT, scoring.Side.RIGHT):
        a = scoring.vertex_score(p, q, side, config)
        b = scoring.vertex_score(p, qf, side, config)
        assert a.score == pytest.approx(b.score, rel=1e-12)


coords = st.floats(-2.0, 2.0)
angles = st.floats(0.0, 2 * math.pi)


def rigid(points, axis, angle, shift):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = axis
    out = []
    for p in points:
        p = np.asarray(p, dtype=float)
        r = (p * math.cos(angle) + np.cross(k, p) * math.sin(angle)
             + k * float(np.dot(k, p)) * (1 - math.cos(angle)))
        out.append(r + shift)
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(coords, min_size=3, max_size=3), angles,
       st.lists(st.floats(-5, 5), min_size=3, max_size=3))
def test_score_rigid_motion_invariance(qpos, angle, shift):
    config = sm.Config()
    qpos = np.asarray(qpos)
    if np.linalg.norm(qpos) < 1e-3:
        qpos = qpos + 1.0
    p_pts = [[0, 0, 0], [0, 1, 0]]
    q_pts = [qpos, qpos + [0, 1, 0]]
    p = vertex(p_pts, 0)
    q = vertex(q_pts, 0)
    base = scoring.vertex_score(p, q, scoring.Side.LEFT, config)

    shift = np.asarray(shift)
    rp = rigid(p_pts, [1, 2, 3], angle, shift)
    rq = rigid(q_pts, [1, 2, 3], angle, shift)
    rn = rigid([[0, 0, 1]], [1, 2, 3], angle, [0, 0, 0])[0]
    pr = vertex(rp, 0, normal=rn)
    qr = vertex(rq, 0, normal=rn)
    moved = scoring.vertex_score(pr, qr, scoring.Side.LEFT, config)
    assert moved.score == pytest.approx(base.score, rel=1e-9, abs=1e-300)


def test_offset_tie_survives_rigid_motion(config):
    # the stored failing example of test_score_rigid_motion_invariance:
    # q one width beside p, so both of q's offsets are exactly one width
    # from p's probe, and rounding after the motion used to pick the
    # other one (score 0.8007 against 0.4111)
    angle, shift = 1.0, [0, 0, 1]
    p_pts = [[0, 0, 0], [0, 1, 0]]
    q_pts = [[0.5, 0, 0], [0.5, 1, 0]]
    base = scoring.vertex_score(vertex(p_pts, 0), vertex(q_pts, 0),
                                scoring.Side.LEFT, config)
    rn = rigid([[0, 0, 1]], [1, 2, 3], angle, [0, 0, 0])[0]
    pr = vertex(rigid(p_pts, [1, 2, 3], angle, shift), 0, normal=rn)
    qr = vertex(rigid(q_pts, [1, 2, 3], angle, shift), 0, normal=rn)
    moved = scoring.vertex_score(pr, qr, scoring.Side.LEFT, config)
    assert moved.d_normal == pytest.approx(base.d_normal, abs=1e-12)
    assert moved.score == pytest.approx(base.score, rel=1e-9)


@pytest.mark.parametrize("gap, d_normal", [(0.0, 0.5), (1e-12, 0.5),
                                            (-1e-12, 0.5), (1e-6, 0.0)])
def test_near_ties_take_the_left_offset_in_both_kernels(config, gap,
                                                        d_normal):
    # q on p's left probe, shifted by `gap` along it: q's offsets sit
    # 0.5 + gap (left) and 0.5 - gap (right) from the probe, a tie
    # unless the relative gap exceeds 1e-9. Left gives d_normal 0.5,
    # right gives 0
    p = vertex([[0, 0, 0], [0, 1, 0]], 0)
    q = vertex([[0.5 + gap, 0, 0], [0.5 + gap, 1, 0]], 0)
    br = scoring.vertex_score(p, q, scoring.Side.LEFT, config)
    assert br.d_normal == pytest.approx(d_normal, abs=1e-9)
    fp, fq = p.frame, q.frame
    got = scoring.vertex_scores_log_arrays(
        np.asarray(p.position), fp.tangent, fp.binormal, p.width,
        scoring.Side.LEFT.sign, np.asarray(q.position)[None],
        fq.tangent[None], fq.binormal[None], np.array([q.width]),
        np.array([br.sigma]))
    assert got[0] == pytest.approx(br.log_score, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 10.0))
def test_score_scale_covariance(k):
    config = sm.Config()
    p = vertex([[0, 0, 0], [0, 1, 0]], 0, width=0.5)
    q = vertex([[1, 0.2, 0.1], [1, 1.2, 0.1]], 0, width=0.7)
    base = scoring.vertex_score(p, q, scoring.Side.LEFT, config)
    ps = vertex([[0, 0, 0], [0, k, 0]], 0, width=0.5 * k)
    qs = vertex([[k, 0.2 * k, 0.1 * k], [k, (1 + 0.2) * k, 0.1 * k]], 0,
                width=0.7 * k)
    scaled = scoring.vertex_score(ps, qs, scoring.Side.LEFT, config)
    assert scaled.score == pytest.approx(base.score, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(coords, min_size=3, max_size=3),
       st.floats(0.05, 2.0), st.floats(0.05, 2.0))
def test_scores_in_unit_interval(qpos, wp, wq):
    config = sm.Config()
    qpos = np.asarray(qpos)
    if np.linalg.norm(qpos) < 1e-3:
        qpos = qpos + 1.0
    p = vertex([[0, 0, 0], [0, 1, 0]], 0, width=wp)
    q = vertex([qpos, qpos + [0, 1, 0]], 0, width=wq)
    br = scoring.vertex_score(p, q, scoring.Side.LEFT, config)
    # exp underflows to 0.0 once the pair is hundreds of sigmas apart
    assert 0.0 <= br.score <= 1.0
    assert np.isfinite(br.log_score) and br.log_score <= 0.0
    plog = scoring.persistence_log([0, 0, 0], [0, 1, 0], qpos,
                                   qpos + np.array([0, 1, 0]), sigma=wp)
    # the linear score may underflow to 0.0 for distant pairs; the log
    # stays finite, which is what the matcher consumes
    assert np.isfinite(plog) and plog <= 0.0
    ps = scoring.persistence_score([0, 0, 0], [0, 1, 0], qpos,
                                   qpos + np.array([0, 1, 0]), sigma=wp)
    assert 0.0 <= ps <= 1.0


def test_vectorized_scores_match_scalar(config):
    rng = np.random.default_rng(11)
    p = vertex([[0, 0, 0], [0.1, 1, 0]], 0, width=0.4)
    qs = []
    for _ in range(6):
        q0 = rng.normal(size=3)
        qs.append(vertex([q0, q0 + rng.normal(size=3)], 0,
                         width=float(rng.uniform(0.1, 1.0))))
    qs = [q for q in qs if q.frame.ok]
    q_pos = np.array([q.position for q in qs])
    q_tan = np.array([q.frame.tangent for q in qs])
    q_bin = np.array([q.frame.binormal for q in qs])
    q_w = np.array([q.width for q in qs])
    sig = np.array([scoring.sigma_for(p.width, w, config) for w in q_w])
    logs = scoring.vertex_scores_log_arrays(
        np.asarray(p.position), p.frame.tangent, p.frame.binormal, p.width,
        1, q_pos, q_tan, q_bin, q_w, sig)
    for i, q in enumerate(qs):
        ref = oracles.vertex_score(p, q, scoring.Side.LEFT, config)
        assert logs[i] == pytest.approx(ref.log_score, rel=1e-12)
        one = scoring.vertex_score(p, q, scoring.Side.LEFT, config)
        assert one.log_score == pytest.approx(ref.log_score, rel=1e-12)
