"""Property-based tests (hypothesis) for the core data structures.

These attack the data structures with random operation sequences and
compare against trivially correct models — the failure modes unit tests
with fixed inputs tend to miss (rotation bugs in the treap, stale-flag
bugs in the tournament tree, hook/compress bugs in CC, an MC block whose
sampled-CC count drifts from its BFS count).
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines.simulate import _cc_block, _edge_view, _spread_once
from repro.cc.local_cc import cc_labels
from repro.core.ptree import PTree
from repro.core.wintree import WinTree
from repro.graphs.csr import build_csr
from repro.graphs.generators import _canonicalize
from repro.hashing import SALT_SIM, _mix, edge_key, splitmix64, u01
from tests.conftest import u01_key


@st.composite
def score_arrays(draw, max_n=64):
    n = draw(st.integers(1, max_n))
    scores = draw(
        st.lists(
            st.floats(0, 100, allow_nan=False, width=32),
            min_size=n, max_size=n,
        )
    )
    return np.array(scores, dtype=np.float64)


def _rank(scores):
    return sorted(range(len(scores)), key=lambda v: (-scores[v], v))


@settings(max_examples=40, deadline=None)
@given(score_arrays())
def test_ptree_build_is_sorted(scores):
    tree = PTree(scores)
    assert [v for v, _ in tree.split_top(len(tree))] == _rank(scores)


@settings(max_examples=40, deadline=None)
@given(score_arrays(), st.data())
def test_ptree_random_ops_match_model(scores, data):
    """Interleaved split_top / batch_insert vs a sorted-list model."""
    tree = PTree(scores)
    model = [(v, float(scores[v])) for v in _rank(scores)]
    cur = scores.copy()
    for _ in range(data.draw(st.integers(1, 6))):
        k = data.draw(st.integers(1, max(1, len(model))))
        got = tree.split_top(k)
        assert got == model[:k]
        model = model[k:]
        # reinsert with fresh random scores
        back = []
        for v, _ in got:
            s = data.draw(st.floats(0, 100, allow_nan=False, width=32))
            cur[v] = s
            back.append((v, float(s)))
        tree.batch_insert(back)
        model = sorted(model + back, key=lambda t: (-t[1], t[0]))
    assert tree.split_top(len(tree)) == model


@settings(max_examples=40, deadline=None)
@given(score_arrays())
def test_wintree_drains_in_rank_order(scores):
    tree = WinTree(scores)
    order = []
    for _ in range(len(scores)):
        v = int(tree.ids[1])
        order.append(v)
        tree.remove(v)
    assert order == _rank(scores)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 40),
    st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120),
    st.randoms(use_true_random=False),
    st.integers(0, 39),
)
def test_cc_labels_vs_reference(n, pairs, rnd, path_len):
    """Arcs in either direction, self-loops and duplicates, plus a path
    of ``path_len`` vertices; all ids under a random permutation, so the
    path's ids may decrease along it."""
    pairs = pairs + [(i, i + 1) for i in range(min(path_len, n - 1))]
    perm = list(range(n))
    rnd.shuffle(perm)
    us = np.array([perm[a % n] for a, _ in pairs], dtype=np.int64)
    vs = np.array([perm[b % n] for _, b in pairs], dtype=np.int64)
    got = cc_labels(n, us, vs)
    # reference: union-find
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(us, vs):
        parent[find(int(u))] = find(int(v))
    groups = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    want = np.zeros(n, dtype=np.int64)
    for members in groups.values():
        want[members] = min(members)
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_edge_key_symmetry_property(u, v):
    assert edge_key(u, v) == edge_key(v, u)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.integers(0, 2**63 - 1),
        st.integers(2**64 - 1024, 2**64 - 1).map(lambda h: ("top", h)),
        st.integers(2**64 - 1100, 2**64 - 1025).map(lambda h: ("near", h)),
    ),
    st.integers(0, 2**20),
)
def test_u01_in_unit_interval(key, salt):
    """``u01`` is in [0, 1], and 1.0 exactly when its hash is at least
    2**64 - 1024; hashes at and just below that line come from inverted
    keys."""
    if isinstance(key, tuple):
        key = u01_key(key[1], salt)
    h = int(splitmix64(np.uint64(key) ^ _mix(salt)))
    x = float(u01(np.uint64(key), salt))
    assert 0.0 <= x <= 1.0
    assert (x == 1.0) == (h >= 2**64 - 1024)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=100))
def test_canonicalize_properties(pairs):
    us = np.array([a for a, _ in pairs], dtype=np.int64)
    vs = np.array([b for _, b in pairs], dtype=np.int64)
    edges = _canonicalize(us, vs)
    if len(edges):
        assert (edges[:, 0] < edges[:, 1]).all()
        keys = edges[:, 0] * 1000 + edges[:, 1]
        assert len(np.unique(keys)) == len(edges)
    # every non-loop input pair is represented
    want = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    assert {tuple(e) for e in edges} == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.data())
def test_mc_cc_block_equals_bfs_block(n, data):
    """An MC block counted as sampled CC gives every simulation the count
    of its own BFS, on random graphs with random per-edge probabilities
    (both arcs of an edge alike), seeds and salts."""
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=90))
    edges = _canonicalize(np.array([a for a, _ in pairs], dtype=np.int64),
                          np.array([b for _, b in pairs], dtype=np.int64))
    csr = build_csr(edges, n=n)
    edge_p = data.draw(st.lists(st.floats(0, 1), min_size=len(edges),
                                max_size=len(edges)))
    by_key = dict(zip(edge_key(edges[:, 0], edges[:, 1]).tolist(), edge_p))
    probs = np.array([by_key[k] for k in csr.arc_key.tolist()], dtype=np.float64)
    seeds = np.unique(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                         max_size=5)))
    salts = SALT_SIM + np.array(data.draw(st.lists(
        st.integers(0, 2**40), min_size=2, max_size=8)), dtype=np.int64)
    got = _cc_block(n, _edge_view(csr, probs), seeds, salts)
    want = [_spread_once(csr, probs, seeds, s) for s in salts]
    assert got.tolist() == want
