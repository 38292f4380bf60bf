"""Monte-Carlo estimation of the influence spread σ(S) under the IC model.

Each simulation samples one live-edge graph (hash-deterministic, salt
stream ``SALT_SIM`` — disjoint from the sketch stream, so evaluating a
seed set never reuses the coins that selected it) and counts the
vertices a live path connects to S. On undirected graphs this is exactly
the IC process outcome, and it is the total size of the sampled graph's
connected components that contain a seed — the quantity PaC-IM's
sketches memoize (paper Alg. 3 line 2).

Simulations run a block of ``_SIM_BLOCK`` at a time, each block one of
two ways that flip the same coins, so every per-simulation count is the
same either way:

- **BFS** (:func:`repro.core.evaluate.block_levels`): one batched BFS from
  the seeds over the block's sampled graphs. It hashes only the arcs it
  expands — the degree sum of the vertices it reaches — so it wins when
  the seeds reach little of the graph (subcritical grids, WIC);
- **sampled CC**: hash every undirected edge once per simulation, as
  its ``u < v`` arc, and label the disjoint union of the block's sampled
  graphs with :func:`repro.cc.cc_labels`. It hashes ``b·m`` coins for a
  block of ``b``, fewer than a BFS that reaches most of the graph, which
  expands most edges from both endpoints.

The first block of every call runs BFS and counts the arcs it expanded.
Once a BFS block has expanded at least the ``b·m`` coins a CC pass would
hash, the call's remaining blocks run as sampled CC. The CC pass reads
one probability per edge, so both arcs of an edge must carry the same one
(``graphs.probs.check_probs``).

``estimate_spread`` distributes the simulations (one Spark task per
range of simulation ids, each running the rule on its own range);
``estimate_spread_local`` runs them on the driver.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.cc.local_cc import cc_labels
from repro.core.evaluate import block_levels
from repro.graphs.csr import CSR
from repro.graphs.probs import check_probs
from repro.hashing import SALT_SIM, salt_mix, u01
from repro.spark_jobs import map_range


# Simulations traversed together. Each one walks its seeds' whole
# component (the giant one on scale-free graphs), so a few already fill a
# level, and visited keys — block size × component size — stay small. CC
# blocks are fastest near this size too: 500 simulations of 10 seeds on a
# 1024-vertex, 6.7k-edge RMAT graph at p=0.1 took 0.14 / 0.12 / 0.12 /
# 0.15 s in blocks of 4 / 8 / 16 / 32 (medians of 5, 4-core box).
_SIM_BLOCK = 8


def _edge_view(
    csr: CSR, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, arc_key, probability) of every edge, from its ``u < v`` arc."""
    src = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees())
    fwd = src < csr.adj
    return src[fwd], csr.adj[fwd].astype(np.int64), csr.arc_key[fwd], probs[fwd]


def _cc_block(
    n: int, edges: tuple, sources: np.ndarray, salts: np.ndarray
) -> np.ndarray:
    """Per salt, the total size of the sampled graph's components holding
    a source: one CC labelling of the block's disjoint union, simulation
    t's vertex v being ``t * n + v``."""
    us, vs, keys, p = edges
    b = len(salts)
    t, e = np.nonzero(u01(keys ^ salt_mix(salts)[:, None], 0) < p)
    lab = cc_labels(b * n, t * n + us[e], t * n + vs[e])
    reached = np.zeros(b * n, dtype=bool)
    reached[lab[(np.arange(b)[:, None] * n + sources).ravel()]] = True
    return reached[lab].reshape(b, n).sum(axis=1)


def _spreads(
    csr: CSR, probs: np.ndarray, seeds: np.ndarray, salts: np.ndarray
) -> np.ndarray:
    """#vertices activated from ``seeds`` in the sampled live-edge graph
    of each salt; BFS blocks until one expands ``b·m`` arcs, then CC."""
    sources = np.unique(seeds)
    counts = np.zeros(len(salts), dtype=np.int64)
    if sources.size == 0:
        return counts
    deg = csr.degrees()
    edges = None  # built when the call switches to CC
    for lo in range(0, len(salts), _SIM_BLOCK):
        block = salts[lo : lo + _SIM_BLOCK]
        if edges is not None:
            counts[lo : lo + len(block)] = _cc_block(csr.n, edges, sources, block)
            continue
        tids = np.repeat(np.arange(len(block)), len(sources))
        verts = np.tile(sources, len(block))
        levels = block_levels(csr, probs, tids, verts, block)
        t, v = (np.concatenate(a) for a in zip(*levels))
        counts[lo : lo + len(block)] = np.bincount(t, minlength=len(block))
        if deg[v].sum() >= len(block) * csr.m:  # arcs the BFS expanded
            edges = _edge_view(csr, probs)
    return counts


def _spread_once(
    csr: CSR, probs: np.ndarray, seeds: np.ndarray, salt: int
) -> int:
    """#vertices activated from ``seeds`` in one sampled live-edge graph."""
    return int(_spreads(csr, probs, seeds, np.array([salt]))[0])


def _check_args(
    csr: CSR, probs, seeds, n_sims: int
) -> tuple[np.ndarray, np.ndarray]:
    """(probs, seeds as int64 ids), once ``n_sims``, ``probs`` and every
    seed id are valid."""
    seeds = np.asarray(list(seeds), dtype=np.int64)
    if n_sims < 1:
        raise ValueError(f"n_sims must be >= 1, got {n_sims!r}")
    if not np.all((0 <= seeds) & (seeds < csr.n)):
        raise ValueError(f"seed ids must be in [0, {csr.n})")
    return check_probs(csr, probs), seeds


def estimate_spread_local(
    csr: CSR,
    probs: np.ndarray,
    seeds,
    *,
    n_sims: int,
    sim_offset: int = 0,
) -> float:
    """Mean spread over ``n_sims`` simulations, driver-side."""
    probs, seeds = _check_args(csr, probs, seeds, n_sims)
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
    probs, seeds = _check_args(csr, probs, seeds, n_sims)
    if seeds.size == 0:
        return 0.0

    def task(shared, ids: np.ndarray) -> pd.DataFrame:
        csr_b, probs_b = shared
        counts = _spreads(csr_b, probs_b, seeds, SALT_SIM + sim_offset + ids)
        return pd.DataFrame({"spread": counts})

    out = map_range(spark, n_sims, (csr, probs), task, "spread long")
    return float(out["spread"].mean())
