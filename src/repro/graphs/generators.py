"""Deterministic synthetic graph generators.

These are the laptop-scale stand-ins for the paper's Table 3 inputs
(DESIGN.md §2, §4):

- :func:`rmat` — recursive-matrix scale-free graphs (social/web analogs);
- :func:`grid2d` — 2-D lattices (road-network analogs);
- :func:`knn_graph` — k-nearest-neighbour graphs over random points
  (the paper's k-NN class, optionally clustered).

Every generator returns a canonical undirected edge list as an
``(m, 2) int64`` numpy array with ``u < v``, deduplicated, no self loops
— the exact input shape :func:`repro.graphs.csr.build_csr` expects.
All are deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np


def _canonicalize(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Symmetrize + dedup + drop self loops; rows sorted for determinism."""
    lo = np.minimum(us, vs).astype(np.int64)
    hi = np.maximum(us, vs).astype(np.int64)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    key = lo * (hi.max() + 1 if hi.size else 1) + hi
    _, idx = np.unique(key, return_index=True)
    edges = np.stack([lo[idx], hi[idx]], axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order]


# RMAT quadrant probabilities (Chakrabarti et al.): top-left, top-right,
# bottom-left; bottom-right takes the rest.
_RMAT_A, _RMAT_B, _RMAT_C = 0.57, 0.19, 0.19


def rmat(n: int, m_target: int, *, seed: int) -> np.ndarray:
    """RMAT scale-free generator (Chakrabarti et al. parameters).

    ``n`` must be a power of two. Oversamples arcs by 15% to compensate for
    duplicate collapse, then canonicalizes; the returned edge count is
    therefore approximately (not exactly) ``m_target``.
    """
    if n & (n - 1):
        raise ValueError("rmat requires n to be a power of two")
    levels = int(np.log2(n))
    g = np.random.default_rng(seed)
    n_arcs = int(m_target * 1.15)
    us = np.zeros(n_arcs, dtype=np.int64)
    vs = np.zeros(n_arcs, dtype=np.int64)
    a, b, c = _RMAT_A, _RMAT_B, _RMAT_C
    p_u = a + b  # P(descend into top half for the source bit)
    for _ in range(levels):
        u_bit = g.random(n_arcs) >= p_u
        # Conditional distribution of the destination bit given the source bit.
        p_v_given = np.where(u_bit, c / (c + (1 - a - b - c)), a / (a + b))
        v_bit = g.random(n_arcs) >= p_v_given
        us = (us << 1) | u_bit
        vs = (vs << 1) | v_bit
    return _canonicalize(us, vs)


def grid2d(rows: int, cols: int) -> np.ndarray:
    """2-D lattice: vertex (i, j) -> id i*cols + j, 4-neighbourhood."""
    i, j = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    vid = (i * cols + j).ravel()
    right_src = vid[(j < cols - 1).ravel()]
    down_src = vid[(i < rows - 1).ravel()]
    us = np.concatenate([right_src, down_src])
    vs = np.concatenate([right_src + 1, down_src + cols])
    return _canonicalize(us, vs)


# Dimension of the points a k-NN graph is built over.
_KNN_DIM = 2


def knn_graph(n: int, k: int, *, seed: int, clusters: int = 0) -> np.ndarray:
    """k-NN graph over random points in the plane, symmetrized.

    With ``clusters > 0`` points are drawn around that many Gaussian
    centers (the paper's k-NN datasets — GeoLife, CHEM — are strongly
    clustered). Brute-force distance in blocks; fine for n <= ~50k.
    """
    g = np.random.default_rng(seed)
    if clusters > 0:
        centers = g.random((clusters, _KNN_DIM)) * 10.0
        assign = g.integers(0, clusters, n)
        pts = centers[assign] + g.normal(0, 0.3, (n, _KNN_DIM))
    else:
        pts = g.random((n, _KNN_DIM))
    us_list, vs_list = [], []
    block = 2048
    for start in range(0, n, block):
        d = ((pts[start : start + block, None, :] - pts[None, :, :]) ** 2).sum(-1)
        rows = np.arange(start, min(start + block, n))
        d[np.arange(len(rows)), rows] = np.inf  # mask self distance
        nbrs = np.argpartition(d, k, axis=1)[:, :k]
        us_list.append(np.repeat(rows, k))
        vs_list.append(nbrs.ravel())
    return _canonicalize(np.concatenate(us_list), np.concatenate(vs_list))


# ---------------------------------------------------------------------------
# The experiment suite (DESIGN.md §4): synthetic analogs of paper Tab. 3.
# Each entry: (class, generator thunk, Consistent-model p).
# ---------------------------------------------------------------------------
SUITE: dict[str, dict] = {
    "SF-A": dict(cls="scale-free", p=0.10,
                 gen=lambda: rmat(8192, 70_000, seed=11)),
    "SF-B": dict(cls="scale-free", p=0.10,
                 gen=lambda: rmat(16384, 130_000, seed=12)),
    "SF-C": dict(cls="scale-free", p=0.10,
                 gen=lambda: rmat(8192, 160_000, seed=13)),
    "SF-D": dict(cls="scale-free", p=0.10,
                 gen=lambda: rmat(32768, 260_000, seed=14)),
    "ROAD-A": dict(cls="sparse", p=0.20,
                   gen=lambda: grid2d(110, 110)),
    "ROAD-B": dict(cls="sparse", p=0.20,
                   gen=lambda: grid2d(155, 155)),
    "KNN-A": dict(cls="sparse", p=0.20,
                  gen=lambda: knn_graph(8192, 5, seed=21)),
    "KNN-B": dict(cls="sparse", p=0.30,
                  gen=lambda: knn_graph(16384, 5, seed=22, clusters=40)),
}
