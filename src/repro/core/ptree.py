"""P-tree seed selection (paper Alg. 4, Sec. 4.1).

The P-tree of the paper is a joinable balanced BST (PAM). We implement
the same interface with a size-augmented **treap**: ``split_top(k)``
(extract the k best-ranked keys — SplitAndRemove) and ``batch_insert``
(BatchInsert). Priorities are deterministic hashes of the vertex id, so
the tree shape — and therefore every count the tests assert — is
reproducible.

The selector extracts prefix-doubling batches of 1, 2, 4, … top stale
scores, re-evaluates each batch in parallel (one evaluation job), and
stops once the best true key beats the tree's maximum — evaluating at
most twice as many vertices as CELF (Thm. 4.2) while finishing each
round in O(log |F_i|) parallel batches instead of |F_i| sequential ones.
"""
from __future__ import annotations

import numpy as np

from repro.core.celf import SelectionResult, _evaluate, greedy_select, key
from repro.hashing import splitmix64


class _Node:
    __slots__ = ("score", "vid", "pri", "left", "right", "size")

    def __init__(self, score: float, vid: int):
        self.score = float(score)
        self.vid = int(vid)
        self.pri = int(splitmix64(np.uint64(vid)))
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.size = 1


def _sz(t: _Node | None) -> int:
    return t.size if t is not None else 0


def _pull(t: _Node) -> _Node:
    t.size = 1 + _sz(t.left) + _sz(t.right)
    return t


def _rank_key(t: _Node) -> tuple[float, int]:
    """Ascending rank order = descending score, ascending id."""
    return (-t.score, t.vid)


def _merge(a: _Node | None, b: _Node | None) -> _Node | None:
    """Merge treaps where every key in a precedes every key in b."""
    if a is None:
        return b
    if b is None:
        return a
    if a.pri > b.pri:
        a.right = _merge(a.right, b)
        return _pull(a)
    b.left = _merge(a, b.left)
    return _pull(b)


def _split_rank(t: _Node | None, k: int):
    """(first k nodes in rank order, the rest)."""
    if t is None:
        return None, None
    if _sz(t.left) >= k:
        l, r = _split_rank(t.left, k)
        t.left = r
        return l, _pull(t)
    l, r = _split_rank(t.right, k - _sz(t.left) - 1)
    t.right = l
    return _pull(t), r


def _split_key(t: _Node | None, rk: tuple[float, int]):
    """(nodes with rank key < rk, nodes with rank key >= rk)."""
    if t is None:
        return None, None
    if _rank_key(t) < rk:
        l, r = _split_key(t.right, rk)
        t.right = l
        return _pull(t), r
    l, r = _split_key(t.left, rk)
    t.left = r
    return l, _pull(t)


def _items(t: _Node | None, out: list[tuple[int, float]]) -> list[tuple[int, float]]:
    """``out`` extended by t's (vertex, score) pairs in rank order."""
    if t is not None:
        _items(t.left, out)
        out.append((t.vid, t.score))
        _items(t.right, out)
    return out


class PTree:
    """Ordered max-structure over (score, vertex-id) with batch ops."""

    def __init__(self, scores: np.ndarray):
        """O(n) Cartesian-tree construction over the sorted key sequence."""
        order = np.lexsort((np.arange(len(scores)), -scores))
        stack: list[_Node] = []  # right spine, increasing priority downward
        for v in order:
            node = _Node(scores[v], int(v))
            last: _Node | None = None
            while stack and stack[-1].pri < node.pri:
                last = stack.pop()
            node.left = last
            if stack:
                stack[-1].right = node
            stack.append(node)
        self.root: _Node | None = stack[0] if stack else None
        self._fix_sizes(self.root)

    def _fix_sizes(self, t: _Node | None) -> int:
        if t is None:
            return 0
        t.size = 1 + self._fix_sizes(t.left) + self._fix_sizes(t.right)
        return t.size

    def __len__(self) -> int:
        return _sz(self.root)

    def max_key(self) -> tuple[float, int]:
        """Key of the best-ranked element (leftmost node)."""
        t = self.root
        if t is None:
            raise IndexError("empty tree")
        while t.left is not None:
            t = t.left
        return key(t.score, t.vid)

    def split_top(self, k: int) -> list[tuple[int, float]]:
        """SplitAndRemove: extract the k best (vertex, stale score)."""
        top, self.root = _split_rank(self.root, k)
        return _items(top, [])

    def batch_insert(self, items: list[tuple[int, float]]) -> None:
        """BatchInsert: add (vertex, score) pairs."""
        for vid, score in items:
            node = _Node(score, vid)
            l, r = _split_key(self.root, _rank_key(node))
            self.root = _merge(_merge(l, node), r)


def ptree_select(evaluator, k: int, *, max_jobs: int | None = None) -> SelectionResult:
    """Alg. 4: prefix-doubling parallel CELF over a P-tree."""
    scores = evaluator.init_scores()
    tree = PTree(scores)

    def next_seed() -> tuple[int, float]:
        best_v, best_s = -1, -np.inf
        collected: list[tuple[int, float]] = []
        j = 0
        while True:
            batch = tree.split_top(1 << j)
            vs = np.array([v for v, _ in batch], dtype=np.int64)
            for (v, _), t in zip(batch, _evaluate(evaluator, vs, max_jobs)):
                collected.append((v, float(t)))
                if key(t, v) > key(best_s, best_v):
                    best_v, best_s = v, float(t)
            j += 1
            if len(tree) == 0 or key(best_s, best_v) > tree.max_key():
                break
        tree.batch_insert([(v, s) for v, s in collected if v != best_v])
        return best_v, best_s

    # score + id + priority + 2 pointers + size per node, 8B fields
    return greedy_select(evaluator, k, next_seed, 48 * len(scores))
