"""Compressed sketch construction (paper Alg. 3, ``Sketch``).

A sketch Φ_r is the CC structure of the hash-sampled graph G'_r,
memoized **only for the ρ = αn centers**:

``cc[r, i]`` is one int32 per (sketch, center), union-find's
parent-or-negated-size convention (Tarjan 1975; ConnectIt uses it too).
The CC's *label* is the smallest center index j whose center c_j shares
center c_i's CC on sketch r. At the representative (i is the label)
``cc[r, i]`` is ``-size`` of the CC; anywhere else it is the label,
which is strictly below i, so the two never collide. Decoding is two
lookups: ``lab = i if cc[r, i] < 0 else cc[r, i]``, then
``size = -cc[r, lab]``. ``MarkSeed`` never writes it (see
``core.evaluate``).

Sketches are independent, so construction could parallelize across them
(Alg. 1 line 1) as one Spark job, but it runs on the driver for both
backends. A job only pays above the builds the repository runs: 4-core
box, α=0.1, medians over 4-5 runs, a job that shipped one int64 vector
per task took 0.12-0.26 s at 0.4M arc hashes (R × ``len(csr.adj)``)
against 0.01-0.02 s on the driver, was level with the driver at 3.1M
(the Tab. 4 grids at R=64, the largest build any table or benchmark
workload makes) and won from 6-9M on.

Per sketch, the build samples arcs by hashing, runs the local
min-label-propagation CC kernel and keeps the center arrays. Full CC
labels are in hand during construction, so the initial CELF scores
``Δ̄[v] = Marginal(∅, v)`` (the mean CC size of v over all sketches) are
harvested here for free instead of running nR BFS evaluations later.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.cc.local_cc import cc_labels
from repro.graphs.csr import CSR
from repro.hashing import SALT_SKETCH, u01


@dataclass
class Sketches:
    """R compressed sketches plus the center directory.

    ``center_index[v]`` is v's index into the center arrays, or -1.
    ``init_scores[v]`` is Marginal(∅, v) = mean CC size of v across
    sketches — the scores CELF seeds its priority queue with.
    """

    R: int
    alpha: float
    centers: np.ndarray  # int32, sorted, len ρ
    center_index: np.ndarray  # int32, len n, -1 for non-centers
    cc: np.ndarray  # int32, (R, ρ): label, or -size at the representative
    init_scores: np.ndarray  # float64, len n

    @property
    def rho(self) -> int:
        return len(self.centers)

    def aux_bytes(self) -> int:
        """Auxiliary sketch space: ``cc`` (4B per sketch and center) plus
        the center directory, ``center_index`` and ``centers`` (paper:
        O((1 + αR)n))."""
        return self.cc.nbytes + self.center_index.nbytes + self.centers.nbytes


def choose_centers(n: int, alpha: float, seed: int) -> np.ndarray:
    """ρ = αn centers, uniformly at random (paper Sec. 3), sorted int32."""
    rho = int(round(alpha * n))
    if rho >= n:
        return np.arange(n, dtype=np.int32)
    g = np.random.default_rng(seed)
    return np.sort(g.choice(n, size=rho, replace=False)).astype(np.int32)


def sampled_arcs(
    csr: CSR, probs: np.ndarray, salt: int
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of arcs alive in the sampled graph for ``salt``."""
    alive = u01(csr.arc_key, salt) < probs
    src = np.repeat(np.arange(csr.n, dtype=np.int64), np.diff(csr.indptr))
    return src[alive], csr.adj[alive].astype(np.int64)


def _one_sketch(
    csr: CSR, probs: np.ndarray, centers: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """(cc_r, per-vertex CC size) for sketch r."""
    us, vs = sampled_arcs(csr, probs, SALT_SKETCH + r)
    lab = cc_labels(csr.n, us, vs)
    comp_sizes = np.bincount(lab, minlength=csr.n)
    comp_of_center = lab[centers]
    uniq, inv = np.unique(comp_of_center, return_inverse=True)
    idx = np.arange(len(centers), dtype=np.int64)
    min_center_idx = np.full(len(uniq), len(centers), dtype=np.int64)
    np.minimum.at(min_center_idx, inv, idx)
    labels_r = min_center_idx[inv]
    cc_r = np.where(labels_r == idx, -comp_sizes[comp_of_center], labels_r)
    return cc_r.astype(np.int32), comp_sizes[lab]


def build_sketches_local(
    csr: CSR, probs: np.ndarray, *, R: int, alpha: float, center_seed: int = 0
) -> Sketches:
    """Driver-side construction of all R sketches."""
    centers = choose_centers(csr.n, alpha, center_seed)
    cc = np.empty((R, len(centers)), dtype=np.int32)
    vsum = np.zeros(csr.n, dtype=np.int64)
    for r in range(R):
        cc[r], vsize = _one_sketch(csr, probs, centers, r)
        vsum += vsize
    center_index = np.full(csr.n, -1, dtype=np.int32)
    center_index[centers] = np.arange(len(centers), dtype=np.int32)
    return Sketches(
        R=R,
        alpha=alpha,
        centers=centers,
        center_index=center_index,
        cc=cc,
        init_scores=vsum / R,
    )


def build_sketches(
    spark: SparkSession,
    csr: CSR,
    probs: np.ndarray,
    *,
    R: int,
    alpha: float,
    center_seed: int = 0,
) -> Sketches:
    """The Spark backend's sketch build: ``build_sketches_local`` on the
    driver (see the module docstring), so it submits no Spark job and
    makes no broadcast. ``spark`` is unused; the signature is the one
    Spark-backend callers share."""
    return build_sketches_local(
        csr, probs, R=R, alpha=alpha, center_seed=center_seed
    )
