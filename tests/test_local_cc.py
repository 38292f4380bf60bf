"""Unit tests for the local connectivity kernels."""
import numpy as np
import pytest

from repro.cc.local_cc import cc_labels
from repro.core.evaluate import block_levels
from repro.core.sketches import _edge_view, _one_sketch
from repro.graphs.csr import build_csr
from repro.graphs.generators import grid2d
from tests.conftest import erdos_renyi


def _ref_labels(n, us, vs):
    """Reference CC via repeated BFS over an adjacency dict."""
    adj = {i: [] for i in range(n)}
    for u, v in zip(us, vs):
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    lab = np.full(n, -1, dtype=np.int64)
    for s in range(n):
        if lab[s] >= 0:
            continue
        stack, lab[s] = [s], s
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if lab[y] < 0:
                    lab[y] = s
                    stack.append(y)
    return lab


def test_empty():
    assert np.array_equal(cc_labels(5, np.array([]), np.array([])), np.arange(5))


def test_path():
    us, vs = np.array([0, 1, 2]), np.array([1, 2, 3])
    assert np.array_equal(cc_labels(5, us, vs), np.array([0, 0, 0, 0, 4]))


def test_cycle():
    us, vs = np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0])
    assert (cc_labels(4, us, vs) == 0).all()


def test_star_reversed_labels():
    # Hub has the largest id — min-label must still propagate.
    us = np.full(4, 4)
    vs = np.arange(4)
    assert (cc_labels(5, us, vs) == 0).all()


def test_two_components():
    us, vs = np.array([0, 2]), np.array([1, 3])
    assert np.array_equal(cc_labels(4, us, vs), np.array([0, 0, 2, 2]))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("m", [50, 150, 400])
def test_random_vs_reference(seed, m):
    edges = erdos_renyi(120, m, seed=seed)
    us, vs = edges[:, 0], edges[:, 1]
    assert np.array_equal(cc_labels(120, us, vs), _ref_labels(120, us, vs))


def test_duplicate_and_bidirectional_arcs_ok():
    us = np.array([0, 1, 0, 1, 1])
    vs = np.array([1, 0, 1, 2, 2])
    assert np.array_equal(cc_labels(3, us, vs), np.zeros(3, dtype=np.int64))
    # Self-loops too, on vertices alone and inside components.
    us = np.array([5, 5, 3, 3, 7, 2, 2, 6, 6, 0])
    vs = np.array([5, 3, 5, 5, 7, 6, 6, 2, 4, 0])
    assert np.array_equal(cc_labels(8, us, vs), _ref_labels(8, us, vs))
    assert cc_labels(8, us, vs).tolist() == [0, 1, 2, 3, 2, 3, 2, 7]


def test_cc_sizes():
    """The sketch build's CC sizes from cc_labels: per vertex, and -size at
    each CC's representative center (α=1, every arc alive)."""
    csr = build_csr(np.array([[0, 1], [1, 2], [3, 4]]), n=6)
    cc, sizes = _one_sketch(6, _edge_view(csr, np.ones(len(csr.adj))), np.arange(6), 0)
    assert sizes.tolist() == [3, 3, 3, 2, 2, 1]
    assert cc.tolist() == [-3, 0, 0, -2, 3, -1]


@pytest.mark.parametrize("source", [0, 17, 63, 99])
def test_bfs_component_matches_labels(source):
    edges = erdos_renyi(100, 200, seed=3)
    csr = build_csr(edges, n=100)
    lab = cc_labels(100, edges[:, 0], edges[:, 1])
    all_alive = np.ones(len(csr.adj))
    one = np.zeros(1, dtype=np.int64)  # a single traversal, id 0
    levels = block_levels(csr, all_alive, one, one + source, np.array([0]))
    comp = np.concatenate([v for _, v in levels])
    assert sorted(comp) == sorted(np.flatnonzero(lab == lab[source]))
    assert len(np.unique(comp)) == len(comp)


def test_path_with_decreasing_ids():
    # Id 0 at the far end from the largest id: the input on which label
    # propagation takes one round per hop.
    n = 300
    us, vs = np.arange(n - 1, 0, -1), np.arange(n - 2, -1, -1)
    assert np.array_equal(cc_labels(n, vs, us), _ref_labels(n, us, vs))
    assert (cc_labels(n, us, vs) == 0).all()


@pytest.mark.parametrize("seed", range(4))
def test_permuted_ids(seed):
    """Paths, a grid and a random graph, every id permuted."""
    g = np.random.default_rng(seed)
    e = np.concatenate([
        np.stack([np.arange(99), np.arange(1, 100)], axis=1),
        100 + grid2d(10, 12),
        220 + erdos_renyi(80, 90, seed=seed),
    ])
    perm = g.permutation(310)
    us, vs = perm[e[:, 0]], perm[e[:, 1]]
    assert np.array_equal(cc_labels(310, us, vs), _ref_labels(310, us, vs))


@pytest.mark.parametrize("seed", range(3))
def test_grid_sampled_at_half(seed):
    """A 60x60 grid at p=0.5, near its percolation threshold: long,
    winding components."""
    e = grid2d(60, 60)
    e = e[np.random.default_rng(seed).random(len(e)) < 0.5]
    us, vs = e[:, 0], e[:, 1]
    assert np.array_equal(cc_labels(3600, us, vs), _ref_labels(3600, us, vs))


def test_grid_single_component():
    e = grid2d(6, 7)
    assert (cc_labels(42, e[:, 0], e[:, 1]) == 0).all()
