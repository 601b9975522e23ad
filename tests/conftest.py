import numpy as np
import pytest

from strokesurf import matcher, stroke_model as sm


def make_stroke(points, normal=(0.0, 0.0, 1.0), width=0.12, color=(1, 1, 1)):
    """Stroke with one shared normal for every vertex."""
    points = np.asarray(points, dtype=np.float64)
    normals = np.tile(np.asarray(normal, dtype=np.float64), (len(points), 1))
    return sm.Stroke(points, normals, np.full(len(points), width), color)


def line_stroke(y=0.0, z=0.0, n=10, x0=0.0, x1=0.9, width=0.12,
                normal=(0.0, 0.0, 1.0), color=(1, 1, 1)):
    xs = np.linspace(x0, x1, n)
    pts = np.stack([xs, np.full(n, y), np.full(n, z)], axis=1)
    return make_stroke(pts, normal=normal, width=width, color=color)


@pytest.fixture
def config():
    return sm.Config()


@pytest.fixture
def flat_pair():
    """Two parallel strokes 0.1 apart; the smallest drawing that meshes
    into a single flat strip (9 quads, 18 triangles)."""
    return sm.Drawing(strokes=[line_stroke(y=0.0), line_stroke(y=0.1)])


def random_frame_rows(rng, n):
    """Random orthonormal (tangent, normal, binormal) triples."""
    tans = np.empty((n, 3))
    nrms = np.empty((n, 3))
    bins = np.empty((n, 3))
    for i in range(n):
        m = rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(m)
        t, nn = q[:, 0], q[:, 1]
        b = np.cross(t, nn)
        tans[i], nrms[i], bins[i] = t, nn, b
    return tans, nrms, bins


def chain(gid, pos, tan, nrm, bin, w, col, ok, cyclic=False, component=-1,
          dmax=None):
    """One chain's per-vertex arrays and per-chain values, for chain_set."""
    return dict(locals())


def flat(cs, chain_id, index):
    """The flat id of a chain vertex in ChainSet cs."""
    return int(cs.offsets[chain_id]) + index


def chain_set(chains):
    """A matcher.ChainSet over the given chains (dicts from chain), in
    order; it carries dmax only when every chain does."""
    fields = ("gid", "pos", "tan", "nrm", "bin", "w", "col", "ok")
    dmax = None
    if all(c["dmax"] is not None for c in chains):
        dmax = np.concatenate([c["dmax"] for c in chains])
    return matcher.ChainSet(
        offsets=np.cumsum([0] + [len(c["pos"]) for c in chains]),
        cyclic=np.array([c["cyclic"] for c in chains], dtype=bool),
        component=np.array([c["component"] for c in chains],
                           dtype=np.int64),
        dmax=dmax,
        **{f: np.concatenate([np.asarray(c[f]) for c in chains])
           for f in fields})
