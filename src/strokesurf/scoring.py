"""Match quality scores between ribbon-stroke vertices.

A candidate match between vertices p and q is scored by a Gaussian of
three summed distances: the point distance, the mean tangential offset,
and a normal-consistency term comparing the midpoint of (p, q) with the
midpoint of their width-offset probes. The Gaussian width sigma equals
the acceptance radius for the pair, so scores die off by about three
sigma. A second score rates how well two consecutive matches persist
side by side; both are consumed in the log domain by the matcher.

Sides: LEFT probes along +binormal, RIGHT along -binormal. Flipping a
vertex normal flips the binormal and therefore swaps the two sides.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


# relative gap below which the two width offsets of q tie
TIE_REL = 1e-9


class Side(enum.IntEnum):
    LEFT = 1
    RIGHT = -1

    @property
    def sign(self):
        return int(self.value)

    @property
    def tag(self):
        return "L" if self is Side.LEFT else "R"


@dataclass(frozen=True)
class ScoreBreakdown:
    d_align: float
    d_tangent: float
    d_normal: float
    sigma: float
    log_score: float

    @property
    def score(self):
        return float(np.exp(self.log_score))


def sigma_for(w_p, w_q, config):
    """Acceptance radius (and Gaussian sigma) for pairs of widths."""
    return config.width_factor * 0.5 * (w_p + w_q)


def _gauss_log(d, sigma):
    return -(d * d) / (2.0 * sigma * sigma)


def _takes_left(dl, dr):
    """Offset choice for the normal term: the nearer of q's two width
    offsets to p's probe, at distances dl (left) and dr (right). Within
    a relative TIE_REL of each other they tie and the left one is taken,
    so that rounding after a rigid motion cannot flip the choice.
    Works on floats and on arrays."""
    return dl - dr <= TIE_REL * np.maximum(dl, dr)


def vertex_score(p, q, side, config, sigma=None):
    """Score q as the side-match of p. Both are StrokeVertex views with
    non-degenerate frames. Returns a ScoreBreakdown."""
    side = Side(side)
    fp = p.frame
    fq = q.frame
    if not (fp.ok and fq.ok):
        raise ValueError("vertex_score requires non-degenerate frames")
    d_align, d_tangent, d_normal = (float(d) for d in vertex_distance_rows(
        np.asarray(p.position, dtype=np.float64), fp.tangent, fp.binormal,
        p.width, side.sign, np.asarray(q.position, dtype=np.float64),
        fq.tangent, fq.binormal, np.float64(q.width)))
    if sigma is None:
        sigma = sigma_for(p.width, q.width, config)
    total = d_align + d_tangent + d_normal
    return ScoreBreakdown(d_align, d_tangent, d_normal, float(sigma),
                          _gauss_log(total, float(sigma)))


def persistence_score(p_i, p_j, q_i, q_j, sigma):
    """Score the persistence of matching (p_i -> q_i) and (p_j -> q_j)
    for consecutive vertices p_i, p_j. Positions only; returns the
    linear-domain score."""
    return float(np.exp(persistence_log(p_i, p_j, q_i, q_j, sigma)))


def persistence_log(p_i, p_j, q_i, q_j, sigma):
    """Log persistence score of one pair of consecutive matches."""
    p_i, p_j, q_i, q_j = (np.asarray(v, dtype=np.float64)
                          for v in (p_i, p_j, q_i, q_j))
    return float(persistence_log_rows(p_i, p_j, q_i, q_j, sigma))


# ---- vectorized kernels over raw arrays (used by the matcher) ----

def vertex_distance_rows(p_pos, p_tan, p_bin, p_w, side_sign,
                         q_pos, q_tan, q_bin, q_w):
    """The three distances of the vertex score, row by row: (d_align,
    d_tangent, d_normal). q_* are (..., 3) or (...) arrays; each p_*
    argument and side_sign is either one source vertex's value, shared
    by every row, or a per-row array."""
    d = p_pos - q_pos
    d_align = np.linalg.norm(d, axis=-1)
    d_tangent = 0.5 * (np.abs(np.einsum("...j,...j->...", d, p_tan)) +
                       np.abs(np.einsum("...j,...j->...", d, q_tan)))

    p_c = p_pos + np.multiply(side_sign, p_w)[..., None] * p_bin
    q_l = q_pos + q_w[..., None] * q_bin
    q_r = q_pos - q_w[..., None] * q_bin
    dl = np.linalg.norm(q_l - p_c, axis=-1)
    dr = np.linalg.norm(q_r - p_c, axis=-1)
    q_c = np.where(_takes_left(dl, dr)[..., None], q_l, q_r)
    m_probe = 0.5 * (p_c + q_c)
    m = 0.5 * (p_pos + q_pos)
    return d_align, d_tangent, np.linalg.norm(m - m_probe, axis=-1)


def vertex_scores_log_arrays(p_pos, p_tan, p_bin, p_w, side_sign,
                             q_pos, q_tan, q_bin, q_w, sigma):
    """Log vertex scores of source vertices against candidate rows.

    q_* are (k, ...) arrays and sigma is (k,). Each p_* argument and
    side_sign is either one source vertex's value, shared by every row,
    or a per-row (k, ...) array. Returns (k,) log scores.
    """
    d_align, d_tangent, d_normal = vertex_distance_rows(
        p_pos, p_tan, p_bin, p_w, side_sign, q_pos, q_tan, q_bin, q_w)
    total = d_align + d_tangent + d_normal
    return -(total * total) / (2.0 * sigma * sigma)


def persistence_log_rows(p_i, p_j, q_i, q_j, sigma):
    """Log persistence scores of matching p_i -> q_i and p_j -> q_j, row
    by row: positions are (..., 3) arrays, sigma (of the (p_i, q_i)
    pair) is (...). Returns (...) log scores.

    The paper's third term, |(p_j - q_j) - (p_i - q_i)|, is the first
    one regrouped; it is added as term1 itself.
    """
    term1 = np.linalg.norm((p_j - p_i) - (q_j - q_i), axis=-1)
    term2 = np.linalg.norm((p_i + p_j) - (q_i + q_j), axis=-1)
    d_p = term1 + term2 + term1
    return -(d_p * d_p) / (2.0 * sigma ** 2)
