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

A batch is settled one of two ways, both exact and both on the driver:

- ``evaluate_batch``, the GetCenter kernel — per-vertex mean δ over the
  R sketches; pairs whose source is a center (every pair at α=1) settle
  at level 0 without a traversal;
- ``evaluate_batch_cc``, the **CC pass** — sketch r's sampled graph
  labelled once (:func:`repro.core.sketches.sketch_labels`, the build's
  own coins), δ read off the component sizes; the paper's sketch before
  compression (Alg. 3 line 2). It costs R·n vertex slots whatever the
  batch, so it wins once the batch's pairs would visit more.

:meth:`LocalEvaluator.evaluate` picks the way from counts alone. The
first batch of a round predicted above R·n BFS visits (its pairs × the
visits per pair of the earlier BFS batches, at least 1) runs the CC pass
for all n vertices; the seeds, so every δ, stay fixed until the next
MarkSeed, and every later batch of the round reads the kept δ. At α=1
no batch switches; in a selection, the large Win-Tree / P-tree waves
after the first seed do. Either way the batch is one round (DESIGN.md
§2). GetCenter reads the pristine sketch arrays. ``MarkSeed``
runs one GetCenter block of the seed's R pairs and records its effect in
one (R, ρ) bool mask of zeroed labels, which ``evaluate_batch`` applies;
the CC pass reads the seed ids instead.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.sketches import Sketches, _edge_view, sketch_labels
from repro.graphs.csr import CSR
from repro.hashing import SALT_SKETCH, salt_mix, u01

# (vertex, sketch) pairs traversed together. A block pays its numpy calls
# once per level for all its pairs, but merges each level into visited
# keys that grow with the block; without blocks, a batch of long (α=0)
# traversals ran slower than one pair at a time.
_PAIR_BLOCK = 256


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


def evaluate_batch_cc(
    csr: CSR, probs: np.ndarray, R: int, vs: np.ndarray, seeds: np.ndarray
) -> np.ndarray:
    """Per-vertex mean δ over the R sketches from one sampled-CC pass per
    sketch: :func:`evaluate_batch`'s result, bit for bit.

    Sketch r's sampled graph G'_r is labelled once (the build's coins,
    each edge hashed from its ``u < v`` arc); δ(v, r) is 0 if v's
    component holds a seed, otherwise the component's size. GetCenter
    gives the same: every center of a component carries its label, and
    MarkSeed zeroes exactly the labels of components holding a seed. The
    sums are integers, so dividing them by R rounds as the mean does.
    Sketches run one at a time: O(n + m) transient memory, none kept.
    """
    edges = _edge_view(csr, probs)
    total = np.zeros(len(vs), dtype=np.int64)
    for r in range(R):
        lab = sketch_labels(csr.n, edges, r)
        size = np.bincount(lab, minlength=csr.n)
        size[lab[seeds]] = 0
        total += size[lab[vs]]
    return total / R


class LocalEvaluator:
    """Driver-side evaluator over the pristine sketch arrays.

    MarkSeed state is ``seeds``/``seeds_mask`` and ``zeroed``, the (R, ρ)
    mask of labels whose CC holds a seed. Counters: ``n_reevals`` (total
    vertices re-evaluated — the paper's Table 5 quantity), ``n_jobs``
    (evaluation batches — the parallel-rounds / span proxy), ``n_visits``
    (GetCenter BFS visits — Thm. 3.1 quantity), ``n_cc_jobs`` (CC passes
    run) and ``n_cc_reevals`` (vertices read from a pass's δ, which
    ``_kept`` holds until the next MarkSeed: round-scoped scratch that
    ``pacim_bytes`` does not count). :meth:`evaluate` picks GetCenter or
    the kept δ per batch, then counts.
    """

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
        self.n_cc_jobs = 0
        self.n_cc_reevals = 0
        self._visits = 0  # of BFS batches, not MarkSeed
        self._kept: np.ndarray | None = None  # this round's CC-pass δ, all n

    def init_scores(self) -> np.ndarray:
        """Marginal(∅, v) for all v — harvested at sketch construction."""
        return self.sk.init_scores.copy()

    def evaluate(self, vs: np.ndarray) -> np.ndarray:
        """True marginal gains of a batch; one parallel round. Ids outside
        [0, n) raise ``ValueError`` before any work."""
        vs = np.asarray(vs, dtype=np.int64)
        if not np.all((0 <= vs) & (vs < self.csr.n)):
            raise ValueError(f"vertex ids must be in [0, {self.csr.n})")
        n = self.csr.n
        if self._kept is None and self._predicted_visits(len(vs)) > self.sk.R * n:
            self._kept = evaluate_batch_cc(
                self.csr, self.probs, self.sk.R, np.arange(n),
                np.flatnonzero(self.seeds_mask),
            )
            self.n_cc_jobs += 1
        if self._kept is not None:
            means = self._kept[vs]
            self.n_cc_reevals += len(vs)
        else:
            means, visits = evaluate_batch(
                self.csr, self.probs, self.sk.center_index, self.sk.cc,
                vs, self.seeds_mask, self.zeroed,
            )
            self.n_visits += visits
            self._visits += visits
        self.n_reevals += len(vs)
        self.n_jobs += 1
        return means

    def _predicted_visits(self, n: int) -> float:
        """BFS visits of a batch of ``n``: its pairs × the visits per pair of
        the earlier BFS batches (at least 1)."""
        pairs = (self.n_reevals - self.n_cc_reevals) * self.sk.R
        return n * self.sk.R * max(1.0, self._visits / max(pairs, 1))

    def mark_seed(self, v: int) -> None:
        """Paper's MarkSeed: zero the CC of v on every sketch whose CC has
        a center, by marking its label in ``zeroed``, and drop the round's
        kept CC-pass δ. One GetCenter block."""
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
        self._kept = None


# ``perfbench/tracing.py`` patches the evaluator under this name too.
SparkEvaluator = LocalEvaluator
