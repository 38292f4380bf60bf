"""Edge-probability models for the IC diffusion process.

The paper evaluates three assignments (Sec. 5 + Appendix A):

- *Consistent*: one constant p per graph (main-body tables);
- *Uniform*: p_e ~ U(lo, hi), drawn once per edge (Tab. 6) — made
  deterministic here by hashing the edge key with a dedicated salt;
- *WIC*: p_uv = 2 / (d_u + d_v) (Tab. 7).

A probability model is materialized as a ``float64`` array aligned with
the CSR's *arc* order; both arcs of an edge get the same value (they
share the canonical edge key / degree sum), so sampling stays symmetric.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSR
from repro.hashing import SALT_PROB, u01


def check_probs(csr: CSR, probs) -> np.ndarray:
    """``probs`` as float64 if it holds one finite value in [0, 1] per arc
    of ``csr``, the same for both arcs of an edge; otherwise a
    ``ValueError``. The graph is undirected: an edge whose arcs differ
    would be live from one endpoint and dead from the other, so MC, the
    sketches and GetCenter would each read a different graph."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != csr.adj.shape:
        raise ValueError(
            f"probs must hold one value per arc ({len(csr.adj)}), "
            f"got shape {probs.shape}"
        )
    if not ((probs >= 0.0) & (probs <= 1.0)).all():  # NaN fails both
        raise ValueError("probs must be finite and in [0, 1]")
    # An edge's two arcs share its key, and distinct edges have distinct
    # keys, so sorting by key puts each edge's arcs side by side.
    pairs = probs[np.argsort(csr.arc_key)].reshape(-1, 2)
    if (pairs[:, 0] != pairs[:, 1]).any():
        raise ValueError("probs must be equal on both arcs of every edge")
    return probs


def consistent_probs(csr: CSR, p: float) -> np.ndarray:
    """Constant probability p for every arc."""
    return np.full(len(csr.adj), float(p))


def uniform_probs(csr: CSR, lo: float, hi: float) -> np.ndarray:
    """p_e ~ U(lo, hi), deterministic per undirected edge."""
    return lo + (hi - lo) * u01(csr.arc_key, SALT_PROB)


def wic_probs(csr: CSR) -> np.ndarray:
    """Weighted-IC analog for undirected graphs: p_uv = 2/(d_u + d_v)."""
    deg = csr.degrees().astype(np.float64)
    src = np.repeat(np.arange(csr.n), deg.astype(np.int64))
    return np.minimum(1.0, 2.0 / (deg[src] + deg[csr.adj]))


def make_probs(csr: CSR, model: str, *, p: float = 0.1,
               lo: float = 0.0, hi: float = 0.1) -> np.ndarray:
    """Dispatch by model name: 'consistent' | 'uniform' | 'wic'.

    ``p``, ``lo`` and ``hi`` must lie in [0, 1], with ``lo <= hi``.
    """
    if model == "consistent":
        if not 0.0 <= p <= 1.0:  # NaN fails both
            raise ValueError(f"p must be in [0, 1], got {p!r}")
        return consistent_probs(csr, p)
    if model == "uniform":
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"need 0 <= lo <= hi <= 1, got lo={lo!r}, hi={hi!r}")
        return uniform_probs(csr, lo, hi)
    if model == "wic":
        return wic_probs(csr)
    raise ValueError(f"unknown probability model: {model!r}")
