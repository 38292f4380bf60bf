"""Marginal-gain evaluation (paper Alg. 3: GetCenter / Marginal / MarkSeed).

Every traversal in the repo is :func:`sampled_levels`: a level-by-level
BFS on the hash-reconstructed sampled graph G'_salt. Its consumers differ
only in their stop rule and salt stream:

- ``get_center`` (sketch stream) stops at the first level holding a
  center and returns the memoized CC size for that center's label,
  returns 0 if the CC turns out to contain a seed, and otherwise returns
  the number of vertices it exhaustively visited (= the CC size).
  Expected visits are O(min(T, 1/α)) per sketch (Thm. 3.1);
- MC simulation (``baselines.simulate``) and RR sets
  (``baselines.ris``) walk the whole component.

``evaluate_batch`` is the one evaluation kernel — per-vertex mean δ over
the R sketches, with the α=1 pure array path — and runs in two places:

- :class:`LocalEvaluator` calls it on the driver; used where only
  *evaluation counts* matter (Table 5) and in unit tests;
- :class:`SparkEvaluator` calls it inside one ``mapInPandas`` job per
  evaluation **batch**: the job uploads the batch's vertex ids, each task
  evaluates its vertices on all R sketches against the broadcast CSR +
  sketches. A 1-vertex batch is still a job — that is exactly the
  sequential-CELF cost model of the baselines (DESIGN.md §2).

``MarkSeed`` always runs on the driver (it is O(R) tiny BFS runs) and
its effect is shipped to tasks as a small set of zeroed (sketch, label)
pairs, so the broadcast sketch arrays stay immutable.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.sketches import Sketches
from repro.graphs.csr import CSR
from repro.hashing import SALT_SKETCH, u01


def sampled_levels(
    csr: CSR, probs: np.ndarray, sources: np.ndarray, salt: int
) -> Iterator[np.ndarray]:
    """BFS levels of the sampled graph G'_salt, ``sources`` first.

    ``sources`` must hold distinct int64 vertex ids; every later level is
    sorted and disjoint from all earlier ones. An arc is alive iff
    ``u01(arc_key, salt) < probs`` — the same coin sketch construction
    flips for that salt.
    """
    visited = np.zeros(csr.n, dtype=bool)
    visited[sources] = True
    frontier = sources
    indptr, adj, arc_key = csr.indptr, csr.adj, csr.arc_key
    while frontier.size:
        yield frontier
        arc_idx = np.concatenate(
            [np.arange(indptr[f], indptr[f + 1]) for f in frontier]
        )
        if arc_idx.size == 0:
            return
        alive = u01(arc_key[arc_idx], salt) < probs[arc_idx]
        nbrs = adj[arc_idx[alive]]
        nbrs = nbrs[~visited[nbrs]]
        if nbrs.size == 0:
            return
        frontier = np.unique(nbrs).astype(np.int64)
        visited[frontier] = True


def get_center(
    csr: CSR,
    probs: np.ndarray,
    center_index: np.ndarray,
    labels: np.ndarray,
    sizes: np.ndarray,
    r: int,
    v: int,
    seeds_mask: np.ndarray,
    zeroed_r: set[int] | frozenset[int],
) -> tuple[int, int, int]:
    """(marginal δ of v on sketch r, CC label or -1, #BFS visits).

    ``sizes`` may already have zeroed entries (LocalEvaluator mutates its
    copy in place); ``zeroed_r`` additionally overrides labels zeroed
    since the arrays were broadcast (SparkEvaluator path).
    """
    ci = center_index[v]
    if ci >= 0:  # v itself memoizes its CC — O(1), the α=1 fast path
        lab = int(labels[r, ci])
        delta = 0 if lab in zeroed_r else int(sizes[r, lab])
        return delta, lab, 1
    levels = sampled_levels(
        csr, probs, np.array([v], dtype=np.int64), SALT_SKETCH + r
    )
    next(levels)  # level 0 is v: not a center, its seed bit read below
    n_visited = 1
    seed_seen = bool(seeds_mask[v])
    for fresh in levels:
        n_visited += len(fresh)
        cis = center_index[fresh]
        hits = cis[cis >= 0]
        if hits.size:  # a center is reached: adopt its memoized CC info
            lab = int(labels[r, hits[0]])
            delta = 0 if lab in zeroed_r else int(sizes[r, lab])
            return delta, lab, n_visited
        if not seed_seen and seeds_mask[fresh].any():
            seed_seen = True
    if seed_seen:  # whole CC traversed, a seed is inside: no gain
        return 0, -1, n_visited
    return n_visited, -1, n_visited  # CC size = #visited (no center, no seed)


def evaluate_batch(
    csr: CSR,
    probs: np.ndarray,
    center_index: np.ndarray,
    labels: np.ndarray,
    sizes: np.ndarray,
    vs: np.ndarray,
    seeds_mask: np.ndarray,
    zeroed: dict[int, frozenset[int]],
) -> tuple[np.ndarray, int]:
    """(per-vertex mean δ over the R sketches, total BFS visits).

    ``zeroed`` maps a sketch id to the labels zeroed since ``sizes`` was
    taken; those labels count as δ = 0 on every path.
    """
    R = labels.shape[0]
    if labels.shape[1] == csr.n:
        # α = 1: every vertex is a center; pure 2-D array lookup.
        labs = labels[:, vs]  # (R, |vs|)
        vals = sizes[np.arange(R)[:, None], labs]
        for r, zs in zeroed.items():
            vals[r, np.isin(labs[r], list(zs))] = 0
        return vals.mean(axis=0), vals.size
    deltas = np.zeros((len(vs), R), dtype=np.float64)
    visits = 0
    empty: frozenset[int] = frozenset()
    for i, v in enumerate(vs):
        for r in range(R):
            d, _, nv = get_center(
                csr, probs, center_index, labels, sizes,
                r, int(v), seeds_mask, zeroed.get(r, empty),
            )
            deltas[i, r] = d
            visits += nv
    return deltas.mean(axis=1), visits


class LocalEvaluator:
    """Driver-side evaluator; mutates its own copy of the size arrays.

    Counters: ``n_reevals`` (total vertices re-evaluated — the paper's
    Table 5 quantity), ``n_jobs`` (evaluation batches — the parallel-
    rounds / span proxy), ``n_visits`` (BFS visits — Thm. 3.1 quantity).
    """

    def __init__(self, csr: CSR, probs: np.ndarray, sketches: Sketches):
        self.csr = csr
        self.probs = probs
        self.sk = sketches
        self.sizes = sketches.sizes.copy()
        self.seeds: list[int] = []
        self.seeds_mask = np.zeros(csr.n, dtype=bool)
        self.zeroed: dict[int, set[int]] = {}
        self.n_reevals = 0
        self.n_jobs = 0
        self.n_visits = 0

    @property
    def n(self) -> int:
        return self.csr.n

    def init_scores(self) -> np.ndarray:
        """Marginal(∅, v) for all v — harvested at sketch construction."""
        return self.sk.init_scores.copy()

    def _full_memo(self) -> bool:
        return self.sk.rho == self.csr.n

    def evaluate(self, vs: np.ndarray) -> np.ndarray:
        """True marginal gains of a batch; one parallel round."""
        vs = np.asarray(vs, dtype=np.int64)
        self.n_reevals += len(vs)
        self.n_jobs += 1
        means, visits = evaluate_batch(
            self.csr, self.probs, self.sk.center_index, self.sk.labels,
            self.sizes, vs, self.seeds_mask, {},
        )
        self.n_visits += visits
        return means

    def mark_seed(self, v: int) -> None:
        """Paper's MarkSeed: zero the CC size of v's component on every
        sketch whose CC has a center; record the zeroed labels so Spark
        tasks (reading the immutable broadcast) can apply the override."""
        v = int(v)
        empty: frozenset[int] = frozenset()
        for r in range(self.sk.R):
            _, lab, nv = get_center(
                self.csr, self.probs, self.sk.center_index,
                self.sk.labels, self.sizes, r, v, self.seeds_mask, empty,
            )
            self.n_visits += nv
            if lab >= 0:
                self.sizes[r, lab] = 0
                self.zeroed.setdefault(r, set()).add(int(lab))
        self.seeds.append(v)
        self.seeds_mask[v] = True

    def close(self) -> None:
        """Release what the evaluator holds outside the driver (nothing)."""


class SparkEvaluator(LocalEvaluator):
    """Evaluation batches dispatched as Spark jobs over vertex ids.

    The CSR, probabilities, and pristine sketch arrays are broadcast at
    construction and released by :meth:`close`; per-call state (current
    seeds, zeroed labels) travels in the task closure — a few hundred
    integers at most.
    """

    def __init__(
        self, spark: SparkSession, csr: CSR, probs: np.ndarray, sketches: Sketches
    ):
        super().__init__(csr, probs, sketches)
        self.spark = spark
        self._bc = spark.sparkContext.broadcast(
            (csr, probs, sketches.center_index, sketches.labels, sketches.sizes)
        )

    def evaluate(self, vs: np.ndarray) -> np.ndarray:
        vs = np.asarray(vs, dtype=np.int64)
        self.n_reevals += len(vs)
        self.n_jobs += 1
        bc = self._bc
        seeds = np.array(self.seeds, dtype=np.int64)
        zeroed = {r: frozenset(ls) for r, ls in self.zeroed.items()}

        def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
            csr_b, probs_b, cidx_b, labels_b, sizes_b = bc.value
            mask = np.zeros(csr_b.n, dtype=bool)
            mask[seeds] = True
            for pdf in batches:
                means, visits = evaluate_batch(
                    csr_b, probs_b, cidx_b, labels_b, sizes_b,
                    pdf["v"].to_numpy(), mask, zeroed,
                )
                visits_col = np.zeros(len(means), dtype=np.int64)
                visits_col[0] = visits  # the batch total, on its first row
                yield pd.DataFrame({"delta": means, "visits": visits_col})

        # Arrow-based createDataFrame already splits the vertices across
        # defaultParallelism partitions and toPandas collects them in
        # partition order, so rows come back in the order of ``vs``; an
        # explicit repartition would add a shuffle stage and dominate
        # small-batch latency.
        out = (
            self.spark.createDataFrame(pd.DataFrame({"v": vs}))
            .mapInPandas(kernel, schema="delta double, visits long")
            .toPandas()
        )
        self.n_visits += int(out["visits"].sum())
        return out["delta"].to_numpy()

    def close(self) -> None:
        self._bc.destroy()
