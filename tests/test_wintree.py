"""Unit tests for the Win-Tree (tournament tree) and its selector."""
import numpy as np
import pytest

from repro.core.celf import celf_select, key
from repro.core.evaluate import LocalEvaluator
from repro.core.sketches import build_sketches_local
from repro.core.wintree import WinTree, wintree_select


def _check_invariant(tree: WinTree):
    """Every internal node holds the winner of its children."""
    for t in range(1, tree.P):
        a, b = tree.ids[2 * t], tree.ids[2 * t + 1]
        want = a if tree._key(a) >= tree._key(b) else b
        assert tree.ids[t] == want


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 100])
def test_build_invariant_and_root(n):
    g = np.random.default_rng(n)
    scores = np.round(g.random(n) * 50, 1)
    tree = WinTree(scores)
    _check_invariant(tree)
    best = max(range(n), key=lambda v: key(scores[v], v))
    assert tree.ids[1] == best


def test_ties_resolve_to_smaller_id():
    tree = WinTree(np.array([5.0, 5.0, 5.0, 5.0]))
    assert tree.ids[1] == 0


def test_remove_restores_invariant():
    g = np.random.default_rng(1)
    scores = np.round(g.random(40) * 50, 1)
    tree = WinTree(scores)
    order = []
    for _ in range(40):
        v = int(tree.ids[1])
        order.append(v)
        tree.remove(v)
        _check_invariant(tree)
    want = sorted(range(40), key=lambda v: (-scores[v], v))
    assert order == want  # heapsort through the tournament tree


def test_structure_bytes_is_two_pow_ids():
    tree = WinTree(np.zeros(100))
    assert tree.structure_bytes() == 2 * tree.P * 4
    assert tree.P == 128


# --- selector -------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 5, 10])
def test_selector_matches_celf(small_case, k):
    _, csr, probs = small_case
    sk = build_sketches_local(csr, probs, R=8, alpha=0.4)
    r_celf = celf_select(LocalEvaluator(csr, probs, sk), k)
    r_wt = wintree_select(LocalEvaluator(csr, probs, sk), k)
    assert r_wt.seeds == r_celf.seeds
    assert r_wt.gains == r_celf.gains


def test_invariant_after_rounds(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    tree = WinTree(ev.init_scores())
    for _ in range(5):
        s, _, _ = tree.next_seed(ev)
        ev.mark_seed(s)
        tree.remove(s)
        _check_invariant(tree)


@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
def test_invariant_after_every_round_all_graphs(small_case, alpha):
    _, csr, probs = small_case
    ev = LocalEvaluator(csr, probs, build_sketches_local(csr, probs, R=8, alpha=alpha))
    tree = WinTree(ev.init_scores())
    for _ in range(10):
        s, _, _ = tree.next_seed(ev)
        _check_invariant(tree)  # the up-sweep covered every evaluated leaf
        ev.mark_seed(s)
        tree.remove(s)


# --- wave schedule ----------------------------------------------------------


class _FixedGains:
    """Stub evaluator: fixed true gains; records each batch's size."""

    def __init__(self, truths):
        self.truths = np.asarray(truths, dtype=np.float64)
        self.batches: list[int] = []

    def evaluate(self, vs):
        self.batches.append(len(vs))
        return self.truths[vs]


_STALE = np.arange(64, 0, -1).astype(np.float64)  # vertex 0 at the root


def test_waves_span_one_two_then_three_depths():
    """With every true gain 0 nothing is pruned: the waves take depth 0,
    depths 1–2, depths 3–5 and the leaves, and evaluate every stale node
    (half of each depth below the root)."""
    tree = WinTree(_STALE)
    stub = _FixedGains(np.zeros(64))
    s, gain, n_batches = tree.next_seed(stub)
    assert stub.batches == [1, 3, 28, 32]
    assert n_batches == 4
    assert (s, gain) == (0, 0.0)
    _check_invariant(tree)


def test_root_alone_when_its_stale_score_holds():
    """A root whose true gain equals its stale score prunes every stale
    node below it, so the round is one 1-vertex batch."""
    tree = WinTree(_STALE)
    stub = _FixedGains(_STALE)
    s, gain, n_batches = tree.next_seed(stub)
    assert stub.batches == [1]
    assert (s, gain, n_batches) == (0, 64.0, 1)


def test_waves_per_round_bounded_by_schedule(er_setup):
    """Waves of 1, 2, 3, 3 depths cover er_setup's 9-level tree."""
    csr, probs, sk = er_setup
    r_wt = wintree_select(LocalEvaluator(csr, probs, sk), 10)
    assert WinTree(np.zeros(csr.n)).P == 256  # depths 0..8
    assert max(r_wt.extra["batches_per_round"]) <= 4


def test_far_fewer_jobs_than_celf(er_setup):
    csr, probs, sk = er_setup
    r_celf = celf_select(LocalEvaluator(csr, probs, sk), 10)
    r_wt = wintree_select(LocalEvaluator(csr, probs, sk), 10)
    assert r_wt.n_jobs < r_celf.n_jobs
    # Each round needs at most ~tree-depth evaluation waves.
    assert max(r_wt.extra["batches_per_round"]) <= int(np.log2(csr.n)) + 2


def test_less_space_than_ptree(er_setup):
    from repro.core.ptree import ptree_select

    csr, probs, sk = er_setup
    r_wt = wintree_select(LocalEvaluator(csr, probs, sk), 3)
    r_pt = ptree_select(LocalEvaluator(csr, probs, sk), 3)
    assert r_wt.structure_bytes < r_pt.structure_bytes
