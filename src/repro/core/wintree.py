"""Win-Tree seed selection (paper Alg. 5, Sec. 4.2).

A tournament (winning) tree stored implicitly in an array: leaves hold
vertex ids, each internal node holds the id of the child with the
higher (stale) score. The paper's traversal is asynchronous fork-join;
our PySpark rendering is **wave-synchronous** (DESIGN.md §3): the
frontier at depth d is processed together — stale nodes whose stale key
loses to the best true key Δ* seen so far are pruned *with their whole
subtree*; the surviving stale ids form one evaluation batch (one
parallel round / Spark job); Δ* is then raised write-max-style and the
frontier descends. A final up-sweep over the visited internal nodes
restores the tournament invariant (Alg. 5 lines 12–13).

Same seeds as CELF (the Thm. 4.4 argument carries over — every
non-evaluated vertex was pruned under a stale upper bound strictly
below Δ* ≤ Δ_m); no worst-case evaluation bound, but O(n) construction
and 2n integers of space, the two practical advantages the paper
measures in Fig. 9.
"""
from __future__ import annotations

import numpy as np

from repro.core.celf import SelectionResult, _evaluate, greedy_select, key


class WinTree:
    """Implicit-array tournament tree over stale scores.

    ``ids[1]`` is the root; node t's children are 2t and 2t+1; leaves
    are ``ids[P .. P+n)`` for P = 2^ceil(log2 n). Padding leaves and
    removed seeds carry score -inf so they lose every comparison.
    """

    def __init__(self, scores: np.ndarray):
        self.n = len(scores)
        self.stale = scores.astype(np.float64).copy()
        P = 1
        while P < max(self.n, 2):
            P <<= 1
        self.P = P
        self.ids = np.full(2 * P, -1, dtype=np.int64)
        self.ids[P : P + self.n] = np.arange(self.n)
        for t in range(P - 1, 0, -1):
            self.ids[t] = self._winner(self.ids[2 * t], self.ids[2 * t + 1])

    def _key(self, vid: int) -> tuple[float, int]:
        if vid < 0:
            return (-np.inf, 0)
        return key(self.stale[vid], vid)

    def _winner(self, a: int, b: int) -> int:
        return a if self._key(a) >= self._key(b) else b

    def structure_bytes(self) -> int:
        return self.ids.nbytes  # 2P vertex ids — no pointers, no scores

    def remove(self, v: int) -> None:
        """Drop a selected seed: -inf score, fix its leaf-to-root path."""
        self.stale[v] = -np.inf
        t = self.P + v
        while t > 1:
            t //= 2
            self.ids[t] = self._winner(self.ids[2 * t], self.ids[2 * t + 1])

    def next_seed(self, evaluator, *, max_jobs: int | None = None) -> tuple[int, float, int]:
        """One NextSeed round; returns (seed, true score, #batches)."""
        best_key = (-np.inf, 0)
        # (node, stale?) — the root has no parent, so it is always stale.
        wave: list[tuple[int, bool]] = [(1, True)]
        visited: list[int] = []
        n_batches = 0
        while wave:
            survivors: list[int] = []
            to_eval: list[int] = []
            for t, is_stale in wave:
                vid = int(self.ids[t])
                if vid < 0:
                    continue
                if is_stale:
                    if self._key(vid) < best_key:
                        continue  # prune the whole subtree (Alg. 5 line 4)
                    to_eval.append(vid)
                survivors.append(t)
            if to_eval:
                vs = np.array(to_eval, dtype=np.int64)
                truths = _evaluate(evaluator, vs, max_jobs)
                n_batches += 1
                self.stale[to_eval] = truths
                for vid in to_eval:  # write-max on the best true key
                    if self._key(vid) > best_key:
                        best_key = self._key(vid)
            nxt: list[tuple[int, bool]] = []
            for t in survivors:
                if t < self.P:  # internal: descend into both children
                    visited.append(t)
                    vid = self.ids[t]
                    for c in (2 * t, 2 * t + 1):
                        nxt.append((c, self.ids[c] != vid))
            wave = nxt
        # Up-sweep: restore the tournament invariant on visited nodes.
        for t in reversed(visited):
            self.ids[t] = self._winner(self.ids[2 * t], self.ids[2 * t + 1])
        root = int(self.ids[1])
        return root, float(self.stale[root]), n_batches


def wintree_select(evaluator, k: int, *, max_jobs: int | None = None) -> SelectionResult:
    """k greedy rounds of Win-Tree NextSeed."""
    tree = WinTree(evaluator.init_scores())

    def next_seed() -> tuple[int, float]:
        s, gain, _ = tree.next_seed(evaluator, max_jobs=max_jobs)
        tree.remove(s)
        return s, gain

    return greedy_select(evaluator, k, next_seed, tree.structure_bytes())
