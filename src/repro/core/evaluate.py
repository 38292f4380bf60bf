"""Marginal-gain evaluation (paper Alg. 3: GetCenter / Marginal / MarkSeed).

Every traversal in the repo is a level-synchronous BFS over a **block**
of traversals at once, each on its own hash-reconstructed sampled graph
G'_salt (the multi-source BFS of Then et al., "The More the Merrier"):
:func:`next_level` is the one step that expands a frontier of
(traversal id, vertex) pairs — one CSR gather and one ``u01`` call for
the whole block, each traversal's salt mixed once — and
:func:`block_levels` iterates it. The traversals differ only in their
sources, salt stream and stop rule:

- GetCenter (sketch stream) runs one traversal per (vertex, sketch)
  pair. A pair settles at the first level holding a center and takes the
  memoized CC size for that center's label; a pair that exhausts its CC
  gets 0 if the CC contains a seed, and otherwise the number of vertices
  it visited (= the CC size). Expected visits are O(min(T, 1/α)) per
  pair (Thm. 3.1);
- MC simulation (``baselines.simulate``) and RR sets
  (``baselines.ris``) walk whole components, a block of simulation or
  RR ids at a time.

``evaluate_batch`` is the one evaluation kernel — per-vertex mean δ over
the R sketches; pairs whose source is a center (every pair at α=1)
settle at level 0 without a traversal — and runs in two places:

- :class:`LocalEvaluator` calls it on the driver; used where only
  *evaluation counts* matter (Table 5) and in unit tests;
- :class:`SparkEvaluator` runs a **batch** predicted cheaper than a Spark
  job on the driver too (every 1-vertex CELF round), and a larger one as
  one Spark job through ``spark_jobs.map_range`` like every other job:
  ``spark.range`` over the batch positions, the batch in the task
  closure, each task evaluating its vertices on all R sketches against
  the CSR + sketches broadcast for that job alone. Either way it is one
  round (DESIGN.md §2).

Both read the pristine sketch arrays. ``MarkSeed`` always runs on the
driver (one GetCenter block of the seed's R pairs) and records its
effect in one (R, ρ) bool mask of zeroed labels, which
``evaluate_batch`` applies and Spark tasks rebuild from its flat indices.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.sketches import Sketches
from repro.graphs.csr import CSR
from repro.hashing import SALT_SKETCH, salt_mix, u01
from repro.spark_jobs import map_range

# (vertex, sketch) pairs traversed together. A block pays its numpy calls
# once per level for all its pairs, but merges each level into visited
# keys that grow with the block; without blocks, a batch of long (α=0)
# traversals ran slower than one pair at a time.
_PAIR_BLOCK = 256

# Predicted BFS visits (SparkEvaluator._predicted_visits) up to which
# SparkEvaluator runs a batch on the driver: the break-even c = floor·P/(P-1)
# of a P-task job. benchmarks/bench_spark_job.py times the batches of sf-spark
# selections (SF-A', R=32, α=0.1, 4 cores; medians of 3-5 runs): predicted
# 214k-222k, 50-110 ms on the driver vs 148-215 ms as a job; 321k, 108-150 vs
# 149-209 ms; 416k, 154-210 vs 150-261 ms (medians 178 vs 175). The prediction
# runs 1.3-1.9x above actual visits, hence its unit.
_DRIVER_VISITS = 400_000


def next_level(
    csr: CSR,
    probs: np.ndarray,
    tids: np.ndarray,
    verts: np.ndarray,
    mixes: np.ndarray,
    visited: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One BFS step of a block of traversals: (tids, verts, visited).

    ``(tids, verts)`` is the frontier, int64. Traversal t walks the sampled
    graph of the salt whose ``salt_mix`` is ``mixes[t]``: an arc is alive
    iff ``u01(arc_key ^ mixes[t], 0) < probs``, the coin sketch
    construction flips for that salt. ``visited`` is the sorted array of
    keys ``t * n + v`` of every vertex a traversal has reached. Returns
    the next level of every traversal, ordered the same way, and the
    visited keys grown by it.
    """
    n, indptr = csr.n, csr.indptr
    starts = indptr[verts]
    deg = indptr[verts + 1] - starts
    ends = np.cumsum(deg)
    arc = np.arange(ends[-1]) + np.repeat(starts - (ends - deg), deg)
    arc_t = np.repeat(tids, deg)
    alive = u01(csr.arc_key[arc] ^ mixes[arc_t], 0) < probs[arc]
    keys = np.unique(arc_t[alive] * n + csr.adj[arc[alive]])
    pos = np.searchsorted(visited, keys)
    old = visited[np.minimum(pos, len(visited) - 1)] == keys
    fresh, pos = keys[~old], pos[~old]
    return fresh // n, fresh % n, np.insert(visited, pos, fresh)


def block_levels(
    csr: CSR,
    probs: np.ndarray,
    tids: np.ndarray,
    verts: np.ndarray,
    salts: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """BFS levels ``(tids, verts)`` of a block of traversals, sources first.

    The sources are distinct (traversal id, vertex) pairs ordered by
    traversal id; every later level is ordered by traversal id, then
    vertex, and disjoint from the traversal's earlier levels.
    """
    mixes = salt_mix(salts)
    visited = np.sort(tids * csr.n + verts)
    while tids.size:
        yield tids, verts
        tids, verts, visited = next_level(csr, probs, tids, verts, mixes, visited)


def _label(cc: np.ndarray, rs: np.ndarray, ci: np.ndarray) -> np.ndarray:
    """CC label of center index ``ci[i]`` on sketch ``rs[i]``: ``ci`` itself
    at a representative (``cc`` holds -size), else the label ``cc`` holds."""
    p = cc[rs, ci]
    return np.where(p < 0, ci, p)


def _get_centers(
    csr: CSR,
    probs: np.ndarray,
    center_index: np.ndarray,
    cc: np.ndarray,
    seeds_mask: np.ndarray,
    vs: np.ndarray,
    rs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GetCenter for every pair (vertex ``vs[i]``, sketch ``rs[i]``).

    Returns per pair: the CC label of the first BFS level holding a
    center, or -1 if the CC has none; the vertices visited up to and
    including that level (the whole CC when there is no center); and
    whether a seed was among them.
    """
    # Level 0: a source that is a center memoizes its CC — the O(1) path
    # every pair takes at α=1.
    ci = center_index[vs]
    at_center = ci >= 0
    lab = np.full(len(vs), -1, dtype=np.int64)
    lab[at_center] = _label(cc, rs[at_center], ci[at_center])
    visits = np.ones(len(vs), dtype=np.int64)
    seen = seeds_mask[vs]

    def settle(tids, verts):
        """Count one level; settle the pairs it gives a center, keep the rest.

        All vertices of a pair's level share its CC, and every center of
        a CC carries the CC's label, so any center of the level will do.
        """
        first = np.flatnonzero(np.diff(tids, prepend=-1))
        t, counts = tids[first], np.diff(first, append=len(tids))
        visits[t] += counts
        seen[t] |= np.logical_or.reduceat(seeds_mask[verts], first)
        best = np.maximum.reduceat(center_index[verts], first)
        hit = best >= 0
        lab[t[hit]] = _label(cc, rs[t[hit]], best[hit])
        keep = np.repeat(~hit, counts)
        return tids[keep], verts[keep]

    todo = np.flatnonzero(~at_center)
    mixes = np.zeros(len(vs), dtype=np.uint64)
    for lo in range(0, len(todo), _PAIR_BLOCK):
        t = todo[lo : lo + _PAIR_BLOCK]
        mixes[t] = salt_mix(SALT_SKETCH + rs[t])
        v = vs[t]
        visited = t * csr.n + v
        while t.size:
            t, v, visited = next_level(csr, probs, t, v, mixes, visited)
            t, v = settle(t, v)
    return lab, visits, seen


def get_center(
    csr: CSR,
    probs: np.ndarray,
    center_index: np.ndarray,
    cc: np.ndarray,
    r: int | np.ndarray,
    v: int,
    seeds_mask: np.ndarray,
) -> tuple:
    """(marginal δ of v on sketch r, CC label or -1, #BFS visits).

    For an array ``r`` (MarkSeed's R sketches) the pairs run as one block
    and each of the three is an array. δ reads the CC size from ``cc`` as
    given: labels zeroed by MarkSeed are applied by :func:`evaluate_batch`,
    not here.
    """
    rs = np.atleast_1d(np.asarray(r, dtype=np.int64))
    lab, visits, seen = _get_centers(
        csr, probs, center_index, cc, seeds_mask,
        np.full(len(rs), v, dtype=np.int64), rs,
    )
    delta = np.where(seen, 0, visits)
    hit = lab >= 0
    delta[hit] = -cc[rs[hit], lab[hit]]
    out = delta, lab, visits
    return out if np.ndim(r) else tuple(int(a[0]) for a in out)


def evaluate_batch(
    csr: CSR,
    probs: np.ndarray,
    center_index: np.ndarray,
    cc: np.ndarray,
    vs: np.ndarray,
    seeds_mask: np.ndarray,
    zeroed: np.ndarray,
) -> tuple[np.ndarray, int]:
    """(per-vertex mean δ over the R sketches, total BFS visits).

    ``zeroed`` is the (R, ρ) mask of labels whose CC holds a seed; those
    labels count as δ = 0 whatever size ``cc`` holds.
    """
    R = cc.shape[0]
    rs = np.tile(np.arange(R), len(vs))
    lab, visits, seen = _get_centers(
        csr, probs, center_index, cc, seeds_mask, np.repeat(vs, R), rs
    )
    deltas = np.where(seen, 0, visits).astype(np.float64)
    hit = lab >= 0
    rs, lab = rs[hit], lab[hit]
    deltas[hit] = np.where(zeroed[rs, lab], 0, -cc[rs, lab])
    return deltas.reshape(len(vs), R).mean(axis=1), int(visits.sum())


class LocalEvaluator:
    """Driver-side evaluator over the pristine sketch arrays.

    MarkSeed state is ``seeds``/``seeds_mask`` and ``zeroed``, the (R, ρ)
    mask of labels whose CC holds a seed. Counters: ``n_reevals`` (total
    vertices re-evaluated — the paper's Table 5 quantity), ``n_jobs``
    (evaluation batches — the parallel-rounds / span proxy), ``n_visits``
    (BFS visits — Thm. 3.1 quantity); ``n_spark_jobs`` (batches run as
    Spark jobs) stays 0 here. :meth:`evaluate` counts and leaves the
    batch itself to :meth:`_batch`, which subclasses may place elsewhere.
    """

    n_spark_jobs = 0

    def __init__(self, csr: CSR, probs: np.ndarray, sketches: Sketches):
        self.csr = csr
        self.probs = probs
        self.sk = sketches
        self.seeds: list[int] = []
        self.seeds_mask = np.zeros(csr.n, dtype=bool)
        self.zeroed = np.zeros(sketches.cc.shape, dtype=bool)
        self.n_reevals = 0
        self.n_jobs = 0
        self.n_visits = 0

    def init_scores(self) -> np.ndarray:
        """Marginal(∅, v) for all v — harvested at sketch construction."""
        return self.sk.init_scores.copy()

    def evaluate(self, vs: np.ndarray) -> np.ndarray:
        """True marginal gains of a batch; one parallel round. Ids outside
        [0, n) raise ``ValueError`` before the batch is placed."""
        vs = np.asarray(vs, dtype=np.int64)
        if not np.all((0 <= vs) & (vs < self.csr.n)):
            raise ValueError(f"vertex ids must be in [0, {self.csr.n})")
        means, visits = self._batch(vs)
        self.n_reevals += len(vs)
        self.n_jobs += 1
        self.n_visits += visits
        return means

    def _batch(self, vs: np.ndarray) -> tuple[np.ndarray, int]:
        """:func:`evaluate_batch` of ``vs`` on the driver."""
        return evaluate_batch(
            self.csr, self.probs, self.sk.center_index, self.sk.cc,
            vs, self.seeds_mask, self.zeroed,
        )

    def mark_seed(self, v: int) -> None:
        """Paper's MarkSeed: zero the CC of v on every sketch whose CC has
        a center, by marking its label in ``zeroed``. One GetCenter block."""
        v = int(v)
        rs = np.arange(self.sk.R)
        _, lab, visits = get_center(
            self.csr, self.probs, self.sk.center_index, self.sk.cc,
            rs, v, self.seeds_mask,
        )
        self.n_visits += int(visits.sum())
        self.zeroed[rs[lab >= 0], lab[lab >= 0]] = True
        self.seeds.append(v)
        self.seeds_mask[v] = True


class SparkEvaluator(LocalEvaluator):
    """Evaluation batches run on the driver or as Spark jobs.

    A batch predicted at most ``_DRIVER_VISITS`` BFS visits (pairs × the
    visits per pair of the earlier batches, at least 1) runs
    :func:`evaluate_batch` on the driver; a larger one is one Spark job,
    counted in ``n_spark_jobs``. Placement changes no δ and no other count.

    Each job runs through :func:`repro.spark_jobs.map_range`, which
    broadcasts ``(csr, probs, sketches)`` for that job and destroys it
    after; its closure carries the batch, the seed ids and the flat
    indices of the zeroed labels — a few hundred integers at most.
    """

    # perfbench patches ``evaluate`` on each class body by name.
    evaluate = LocalEvaluator.evaluate

    def __init__(
        self, spark: SparkSession, csr: CSR, probs: np.ndarray, sketches: Sketches
    ):
        super().__init__(csr, probs, sketches)
        self.spark = spark
        self._visits = 0  # of evaluate calls, not MarkSeed

    def _batch(self, vs: np.ndarray) -> tuple[np.ndarray, int]:
        if self._predicted_visits(len(vs)) <= _DRIVER_VISITS:
            means, visits = super()._batch(vs)
        else:
            means, visits = self._spark_batch(vs)
            self.n_spark_jobs += 1
        self._visits += visits
        return means, visits

    def _predicted_visits(self, n: int) -> float:
        """Pairs of a batch of ``n`` × visits per pair so far (at least 1)."""
        per_pair = self._visits / max(self.n_reevals * self.sk.R, 1)
        return n * self.sk.R * max(1.0, per_pair)

    def _spark_batch(self, vs: np.ndarray) -> tuple[np.ndarray, int]:
        """:func:`evaluate_batch` of ``vs`` as one Spark job."""
        seeds = np.array(self.seeds, dtype=np.int64)
        zeroed = np.flatnonzero(self.zeroed)

        def task(shared, pos: np.ndarray) -> pd.DataFrame:
            csr, probs, sk = shared
            seeds_mask = np.zeros(csr.n, dtype=bool)
            seeds_mask[seeds] = True
            zmask = np.zeros(sk.cc.shape, dtype=bool)
            zmask.flat[zeroed] = True
            means, visits = evaluate_batch(
                csr, probs, sk.center_index, sk.cc,
                vs[pos], seeds_mask, zmask,
            )
            visits_col = np.zeros(len(pos), dtype=np.int64)
            visits_col[:1] = visits  # the block total, on its first row
            return pd.DataFrame({"delta": means, "visits": visits_col})

        out = map_range(self.spark, len(vs), (self.csr, self.probs, self.sk),
                        task, "delta double, visits long")
        return out["delta"].to_numpy(), int(out["visits"].sum())
