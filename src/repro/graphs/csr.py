"""CSR graph representation with per-arc canonical edge hashes.

The whole PaC-IM pipeline reconstructs sampled graphs on the fly from
hashes (fusion trick), so every directed arc carries the canonical
64-bit key of its undirected edge. Both arc directions of one edge share
the key, hence sample identically in every sketch — the property the
paper's undirected-CC memoization relies on.

A ``CSR`` is a plain picklable dataclass of numpy arrays: it is
broadcast with each Spark job that reads it in pandas-UDF tasks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hashing import edge_key


@dataclass(frozen=True)
class CSR:
    """Compressed-sparse-row undirected graph.

    ``indptr[v]..indptr[v+1]`` indexes ``adj``/``arc_key`` with the
    neighbours of ``v``. Every undirected edge appears as two arcs with
    the same ``arc_key``.
    """

    n: int
    indptr: np.ndarray  # int64, len n+1
    adj: np.ndarray  # int32, len 2m
    arc_key: np.ndarray  # uint64, len 2m

    @property
    def m(self) -> int:
        return len(self.adj) // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.adj[self.indptr[v] : self.indptr[v + 1]]


def build_csr(edges: np.ndarray, n: int | None = None) -> CSR:
    """Build a CSR from a canonical (u < v) undirected edge list."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size and (edges[:, 0] >= edges[:, 1]).any():
        raise ValueError("edge list must be canonical: u < v in every row")
    if n is None:
        n = int(edges.max()) + 1 if edges.size else 0
    us = np.concatenate([edges[:, 0], edges[:, 1]])
    vs = np.concatenate([edges[:, 1], edges[:, 0]])
    keys = edge_key(edges[:, 0], edges[:, 1])
    arc_keys = np.concatenate([keys, keys])
    order = np.argsort(us, kind="stable")
    us, vs, arc_keys = us[order], vs[order], arc_keys[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, us + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSR(n=n, indptr=indptr, adj=vs.astype(np.int32), arc_key=arc_keys)


def csr_bytes(csr: CSR) -> int:
    """Paper's 'CSR' space column: 8 bytes per vertex and per arc."""
    return 8 * (csr.n + len(csr.adj))
