"""Monte-Carlo estimation of the influence spread σ(S) under the IC model.

Each simulation samples one live-edge graph (hash-deterministic, salt
stream ``SALT_SIM`` — disjoint from the sketch stream, so evaluating a
seed set never reuses the coins that selected it) and BFS-counts the
vertices reachable from S. On undirected graphs this is exactly the IC
process outcome: a vertex activates iff a live path connects it to a
seed.

``estimate_spread`` distributes the simulations (one Spark task per
range of simulation ids); ``estimate_spread_local`` is the driver-side
reference used by tests. Both traverse a few simulations at a time as
one batched BFS (:func:`repro.core.evaluate.block_levels`).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.evaluate import block_levels
from repro.graphs.csr import CSR
from repro.hashing import SALT_SIM
from repro.spark_jobs import map_range


# Simulations traversed together. Each one walks its seeds' whole
# component (the giant one on scale-free graphs), so a few already fill a
# level, and visited keys — block size × component size — stay small.
_SIM_BLOCK = 8


def _spreads(
    csr: CSR, probs: np.ndarray, seeds: np.ndarray, salts: np.ndarray
) -> np.ndarray:
    """#vertices activated from ``seeds`` in the sampled live-edge graph
    of each salt."""
    sources = np.unique(seeds)
    counts = np.zeros(len(salts), dtype=np.int64)
    for lo in range(0, len(salts), _SIM_BLOCK):
        block = salts[lo : lo + _SIM_BLOCK]
        tids = np.repeat(np.arange(len(block)), len(sources))
        verts = np.tile(sources, len(block))
        for t, _ in block_levels(csr, probs, tids, verts, block):
            counts[lo : lo + len(block)] += np.bincount(t, minlength=len(block))
    return counts


def _spread_once(
    csr: CSR, probs: np.ndarray, seeds: np.ndarray, salt: int
) -> int:
    """#vertices activated from ``seeds`` in one sampled live-edge graph."""
    return int(_spreads(csr, probs, seeds, np.array([salt]))[0])


def _seed_array(csr: CSR, seeds, n_sims: int) -> np.ndarray:
    """``seeds`` as int64 ids, once ``n_sims`` and every id are valid."""
    seeds = np.asarray(list(seeds), dtype=np.int64)
    if n_sims < 1:
        raise ValueError(f"n_sims must be >= 1, got {n_sims!r}")
    if not np.all((0 <= seeds) & (seeds < csr.n)):
        raise ValueError(f"seed ids must be in [0, {csr.n})")
    return seeds


def estimate_spread_local(
    csr: CSR,
    probs: np.ndarray,
    seeds,
    *,
    n_sims: int,
    sim_offset: int = 0,
) -> float:
    """Mean spread over ``n_sims`` simulations, driver-side."""
    seeds = _seed_array(csr, seeds, n_sims)
    if seeds.size == 0:
        return 0.0
    salts = SALT_SIM + sim_offset + np.arange(n_sims)
    return int(_spreads(csr, probs, seeds, salts).sum()) / n_sims


def estimate_spread(
    spark: SparkSession,
    csr: CSR,
    probs: np.ndarray,
    seeds,
    *,
    n_sims: int,
    sim_offset: int = 0,
) -> float:
    """Mean spread over ``n_sims`` simulations, one Spark job."""
    seeds = _seed_array(csr, seeds, n_sims)
    if seeds.size == 0:
        return 0.0

    def task(shared, ids: np.ndarray) -> pd.DataFrame:
        csr_b, probs_b = shared
        counts = _spreads(csr_b, probs_b, seeds, SALT_SIM + sim_offset + ids)
        return pd.DataFrame({"spread": counts})

    out = map_range(spark, n_sims, (csr, probs), task, "spread long")
    return float(out["spread"].mean())
