"""Unit tests for the local connectivity kernels."""
import numpy as np
import pytest

from repro.cc.local_cc import cc_labels, cc_sizes
from repro.core.evaluate import sampled_levels
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi, grid2d


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


def test_cc_sizes():
    lab = np.array([0, 0, 0, 3, 3, 5])
    sizes = cc_sizes(lab)
    assert sizes[0] == 3 and sizes[3] == 2 and sizes[5] == 1
    assert sizes[1] == sizes[2] == sizes[4] == 0


@pytest.mark.parametrize("source", [0, 17, 63, 99])
def test_bfs_component_matches_labels(source):
    edges = erdos_renyi(100, 200, seed=3)
    csr = build_csr(edges, n=100)
    lab = cc_labels(100, edges[:, 0], edges[:, 1])
    all_alive = np.ones(len(csr.adj))
    source_level = np.array([source], dtype=np.int64)
    comp = np.concatenate(list(sampled_levels(csr, all_alive, source_level, 0)))
    assert sorted(comp) == sorted(np.flatnonzero(lab == lab[source]))
    assert len(np.unique(comp)) == len(comp)


def test_grid_single_component():
    e = grid2d(6, 7)
    assert (cc_labels(42, e[:, 0], e[:, 1]) == 0).all()
