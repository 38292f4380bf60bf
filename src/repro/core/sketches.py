"""Compressed sketch construction (paper Alg. 3, ``Sketch``).

A sketch Φ_r is the CC structure of the hash-sampled graph G'_r,
memoized **only for the ρ = αn centers**:

- ``labels[r, i]`` — the smallest center *index* j such that center c_j
  is in the same CC as center c_i on sketch r;
- ``sizes[r, i]`` — the CC size, stored only where ``labels[r, i] == i``
  (the representative), zeroed by ``MarkSeed`` once the CC contains a
  seed.

Construction parallelizes across sketches (Alg. 1 line 1): one Spark job
of ``min(R, defaultParallelism)`` tasks over blocks of sketch ids, the CSR
broadcast once. Per sketch, a task samples arcs by hashing, runs the local
min-label-propagation CC kernel and emits the center arrays. Full CC
labels are in hand during construction, so the initial CELF scores
``Δ̄[v] = Marginal(∅, v)`` (the mean CC size of v over all sketches) are
harvested here for free instead of running nR BFS evaluations later.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.cc.local_cc import cc_labels
from repro.graphs.csr import CSR
from repro.hashing import SALT_SKETCH, u01
from repro.spark_jobs import map_range


@dataclass
class Sketches:
    """R compressed sketches plus the center directory.

    ``center_index[v]`` is v's index into the center arrays, or -1.
    ``init_scores[v]`` is Marginal(∅, v) = mean CC size of v across
    sketches — the scores CELF seeds its priority queue with.
    """

    R: int
    alpha: float
    centers: np.ndarray  # int64, sorted, len ρ
    center_index: np.ndarray  # int32, len n, -1 for non-centers
    labels: np.ndarray  # int32, (R, ρ)
    sizes: np.ndarray  # int32, (R, ρ)
    init_scores: np.ndarray  # float64, len n

    @property
    def rho(self) -> int:
        return len(self.centers)

    def aux_bytes(self) -> int:
        """Auxiliary sketch space: labels + sizes (4B each) + the
        center flag array (paper: O((1 + αR)n))."""
        return self.labels.nbytes + self.sizes.nbytes + self.center_index.nbytes


def choose_centers(n: int, alpha: float, seed: int) -> np.ndarray:
    """ρ = αn centers, uniformly at random (paper Sec. 3), sorted."""
    rho = int(round(alpha * n))
    if rho >= n:
        return np.arange(n, dtype=np.int64)
    g = np.random.default_rng(seed)
    return np.sort(g.choice(n, size=rho, replace=False)).astype(np.int64)


def sampled_arcs(
    csr: CSR, probs: np.ndarray, salt: int
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of arcs alive in the sampled graph for ``salt``."""
    alive = u01(csr.arc_key, salt) < probs
    src = np.repeat(np.arange(csr.n, dtype=np.int64), np.diff(csr.indptr))
    return src[alive], csr.adj[alive].astype(np.int64)


def _one_sketch(
    csr: CSR, probs: np.ndarray, centers: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(labels_r, sizes_r, per-vertex CC size) for sketch r."""
    us, vs = sampled_arcs(csr, probs, SALT_SKETCH + r)
    lab = cc_labels(csr.n, us, vs)
    comp_sizes = np.bincount(lab, minlength=csr.n)
    comp_of_center = lab[centers]
    uniq, inv = np.unique(comp_of_center, return_inverse=True)
    min_center_idx = np.full(len(uniq), len(centers), dtype=np.int64)
    np.minimum.at(min_center_idx, inv, np.arange(len(centers), dtype=np.int64))
    labels_r = min_center_idx[inv].astype(np.int32)
    sizes_r = np.where(
        labels_r == np.arange(len(centers)),
        comp_sizes[comp_of_center],
        0,
    ).astype(np.int32)
    return labels_r, sizes_r, comp_sizes[lab]


def _assemble(
    csr: CSR,
    alpha: float,
    centers: np.ndarray,
    R: int,
    per_sketch: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]],
) -> Sketches:
    rho = len(centers)
    labels = np.zeros((R, rho), dtype=np.int32)
    sizes = np.zeros((R, rho), dtype=np.int32)
    init = np.zeros(csr.n, dtype=np.float64)
    seen = set()
    for r, lab_r, size_r, vsize_r in per_sketch:
        labels[r], sizes[r] = lab_r, size_r
        init += vsize_r
        seen.add(r)
    if len(seen) != R:
        raise RuntimeError(f"expected {R} sketches, got {len(seen)}")
    center_index = np.full(csr.n, -1, dtype=np.int32)
    center_index[centers] = np.arange(rho, dtype=np.int32)
    return Sketches(
        R=R,
        alpha=alpha,
        centers=centers,
        center_index=center_index,
        labels=labels,
        sizes=sizes,
        init_scores=init / R,
    )


def build_sketches_local(
    csr: CSR, probs: np.ndarray, *, R: int, alpha: float, center_seed: int = 0
) -> Sketches:
    """Driver-side construction — reference implementation for tests."""
    centers = choose_centers(csr.n, alpha, center_seed)
    per = [(r, *_one_sketch(csr, probs, centers, r)) for r in range(R)]
    return _assemble(csr, alpha, centers, R, per)


def build_sketches(
    spark: SparkSession,
    csr: CSR,
    probs: np.ndarray,
    *,
    R: int,
    alpha: float,
    center_seed: int = 0,
) -> Sketches:
    """Distributed construction: Spark tasks over blocks of sketch ids.

    The CSR + probabilities + centers are broadcast once (and released
    after the job); each task emits one row per sketch of its block, with
    the center arrays as list columns (Arrow).
    """
    centers = choose_centers(csr.n, alpha, center_seed)

    def task(shared, ids: np.ndarray) -> pd.DataFrame:
        csr_b, probs_b, centers_b = shared
        rows = []
        for r in ids.tolist():
            lab_r, size_r, vsize_r = _one_sketch(csr_b, probs_b, centers_b, r)
            rows.append(
                {
                    "r": r,
                    "labels": lab_r.tolist(),
                    "sizes": size_r.tolist(),
                    "vsizes": vsize_r.tolist(),
                }
            )
        return pd.DataFrame(rows)

    out = map_range(
        spark, R, (csr, probs, centers), task,
        "r long, labels array<int>, sizes array<int>, vsizes array<int>",
    )
    per = [
        (
            int(row.r),
            np.asarray(row.labels, dtype=np.int32),
            np.asarray(row.sizes, dtype=np.int32),
            np.asarray(row.vsizes, dtype=np.int64),
        )
        for row in out.itertuples()
    ]
    return _assemble(csr, alpha, centers, R, per)
