"""Win-Tree seed selection (paper Alg. 5, Sec. 4.2).

A tournament (winning) tree stored implicitly in an array: leaves hold
vertex ids, each internal node holds the id of the child with the
higher (stale) score. The paper's traversal is asynchronous fork-join;
our PySpark rendering is **wave-synchronous** (DESIGN.md §3). A wave
spans several depths below the frontier — the root alone, then two
depths, then three (``_WAVE_DEPTHS``) — and tests every stale node in
them against the best true key Δ* known when the wave starts: a stale
node whose stale key loses is pruned *with its whole subtree*, a
non-stale node always descends. The surviving stale ids form one
evaluation batch (one parallel round / Spark job); Δ* is then raised
write-max-style and the next wave starts below the span. Looking ahead
like this is the asynchrony of Alg. 5 in bulk — a thread descends
before its ancestors' Δ* arrives — and trades a few more evaluations
for fewer rounds. A final up-sweep over the expanded internal nodes
restores the tournament invariant (Alg. 5 lines 12–13).

Same seeds as CELF (the Thm. 4.4 argument carries over — every
non-evaluated vertex was pruned under a stale upper bound strictly
below a wave's Δ* ≤ the round's final Δ* ≤ Δ_m); no worst-case
evaluation bound, but O(n) construction and 2n integers of space, the
two practical advantages the paper measures in Fig. 9.
"""
from __future__ import annotations

import numpy as np

from repro.core.celf import SelectionResult, _evaluate, greedy_select, key

# Tree depths per evaluation wave: a round's first wave spans 1, its
# second 2, every later one this many.
_WAVE_DEPTHS = 3


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
        self.ids = np.full(2 * P, -1, dtype=np.int32)
        self.ids[P : P + self.n] = np.arange(self.n)
        for t in range(P - 1, 0, -1):
            self.ids[t] = self._winner(t)

    def _key(self, vid: int) -> tuple[float, int]:
        if vid < 0:
            return (-np.inf, 0)
        return key(self.stale[vid], vid)

    def _winner(self, t: int) -> int:
        """The id of internal node t's child with the higher key. Ids are
        read as Python ints: numpy 1.26 takes ~1.3-1.9 µs to compare an
        int32 scalar with an int, against ~0.05 µs for two ints."""
        a, b = int(self.ids[2 * t]), int(self.ids[2 * t + 1])
        return a if self._key(a) >= self._key(b) else b

    def structure_bytes(self) -> int:
        return self.ids.nbytes  # 2P vertex ids — no pointers, no scores

    def remove(self, v: int) -> None:
        """Drop a selected seed: -inf score, fix its leaf-to-root path."""
        self.stale[v] = -np.inf
        t = self.P + v
        while t > 1:
            t //= 2
            self.ids[t] = self._winner(t)

    def next_seed(self, evaluator, *, max_jobs: int | None = None) -> tuple[int, float, int]:
        """One NextSeed round; returns (seed, true score, #batches)."""
        best_key = (-np.inf, 0)
        # (node, stale?) — the root has no parent, so it is always stale.
        frontier: list[tuple[int, bool]] = [(1, True)]
        visited: list[int] = []
        n_batches = 0
        span = 1
        while frontier:
            # One wave: `span` depths below the frontier, every stale node
            # tested against the Δ* known when the wave starts.
            to_eval: list[int] = []
            for _ in range(span):
                nxt: list[tuple[int, bool]] = []
                for t, is_stale in frontier:
                    vid = int(self.ids[t])
                    if vid < 0:
                        continue
                    if is_stale:
                        if self._key(vid) < best_key:
                            continue  # prune the whole subtree (Alg. 5 line 4)
                        to_eval.append(vid)
                    if t < self.P:  # internal: descend into both children
                        visited.append(t)
                        for c in (2 * t, 2 * t + 1):
                            nxt.append((c, int(self.ids[c]) != vid))
                frontier = nxt
            span = min(span + 1, _WAVE_DEPTHS)
            if to_eval:
                vs = np.array(to_eval, dtype=np.int64)
                truths = _evaluate(evaluator, vs, max_jobs)
                n_batches += 1
                self.stale[to_eval] = truths
                for vid in to_eval:  # write-max on the best true key
                    if self._key(vid) > best_key:
                        best_key = self._key(vid)
        # Up-sweep: restore the tournament invariant on visited nodes,
        # deepest first (they were visited depth by depth).
        for t in reversed(visited):
            self.ids[t] = self._winner(t)
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
