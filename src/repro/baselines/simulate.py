"""Monte-Carlo estimation of the influence spread σ(S) under the IC model.

Each simulation samples one live-edge graph (hash-deterministic, salt
stream ``SALT_SIM`` — disjoint from the sketch stream, so evaluating a
seed set never reuses the coins that selected it) and BFS-counts the
vertices reachable from S. On undirected graphs this is exactly the IC
process outcome: a vertex activates iff a live path connects it to a
seed.

``estimate_spread`` distributes the simulations (one Spark task per
block of simulation ids); ``estimate_spread_local`` is the driver-side
reference used by tests.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.evaluate import sampled_levels
from repro.graphs.csr import CSR
from repro.hashing import SALT_SIM
from repro.spark_jobs import map_range


def _spread_once(
    csr: CSR, probs: np.ndarray, seeds: np.ndarray, salt: int
) -> int:
    """#vertices activated from ``seeds`` in one sampled live-edge graph."""
    levels = sampled_levels(csr, probs, np.unique(seeds), salt)
    return sum(len(level) for level in levels)


def estimate_spread_local(
    csr: CSR,
    probs: np.ndarray,
    seeds,
    *,
    n_sims: int,
    sim_offset: int = 0,
) -> float:
    """Mean spread over ``n_sims`` simulations, driver-side."""
    seeds = np.asarray(list(seeds), dtype=np.int64)
    if seeds.size == 0:
        return 0.0
    total = sum(
        _spread_once(csr, probs, seeds, SALT_SIM + sim_offset + i)
        for i in range(n_sims)
    )
    return total / n_sims


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
    seeds = np.asarray(list(seeds), dtype=np.int64)
    if seeds.size == 0:
        return 0.0

    def task(shared, ids: np.ndarray) -> pd.DataFrame:
        csr_b, probs_b = shared
        counts = [
            _spread_once(csr_b, probs_b, seeds, SALT_SIM + sim_offset + i)
            for i in ids.tolist()
        ]
        return pd.DataFrame({"spread": counts})

    out = map_range(spark, n_sims, (csr, probs), task, "spread long")
    return float(out["spread"].mean())
