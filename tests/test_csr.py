"""Unit tests for the CSR representation and per-arc edge hashing."""
import numpy as np
import pytest

from repro.graphs.csr import build_csr, csr_bytes
from repro.hashing import edge_key
from tests.conftest import erdos_renyi


@pytest.fixture
def tri_csr():
    # Triangle 0-1-2 plus pendant 3 and isolated 4.
    return build_csr(np.array([[0, 1], [0, 2], [1, 2], [2, 3]]), n=5)


def test_shapes(tri_csr):
    assert tri_csr.n == 5
    assert tri_csr.m == 4
    assert len(tri_csr.adj) == 8
    assert len(tri_csr.arc_key) == 8
    assert len(tri_csr.indptr) == 6


def _neighbors(csr, v):
    return csr.adj[csr.indptr[v] : csr.indptr[v + 1]]


def test_neighbors(tri_csr):
    assert sorted(_neighbors(tri_csr, 0)) == [1, 2]
    assert sorted(_neighbors(tri_csr, 2)) == [0, 1, 3]
    assert list(_neighbors(tri_csr, 4)) == []


def test_degrees(tri_csr):
    assert list(tri_csr.degrees()) == [2, 2, 3, 1, 0]
    assert tri_csr.degrees().sum() == 2 * tri_csr.m


def test_arc_keys_match_canonical_edge(tri_csr):
    # The arc 2->0 and the arc 0->2 carry the same canonical key.
    def key_of(u, v):
        s, e = tri_csr.indptr[u], tri_csr.indptr[u + 1]
        idx = s + list(tri_csr.adj[s:e]).index(v)
        return tri_csr.arc_key[idx]

    for u, v in [(0, 1), (0, 2), (1, 2), (2, 3)]:
        assert key_of(u, v) == key_of(v, u) == edge_key(u, v)


def test_rejects_non_canonical():
    with pytest.raises(ValueError):
        build_csr(np.array([[1, 0]]))
    with pytest.raises(ValueError):
        build_csr(np.array([[2, 2]]))


@pytest.mark.parametrize("edges, n", [
    ([[-1, 3], [0, 1]], None),
    ([[-1, 3]], 5),
    ([[0, 5]], 3),
    ([[0, 3], [1, 2]], 3),
    ([0, 1], None),
    ([[0, 1, 2]], None),
], ids=["negative", "negative-given-n", "id-past-n", "id-equal-n",
        "flat", "three-columns"])
def test_rejects_out_of_range_or_misshapen(edges, n):
    with pytest.raises(ValueError):
        build_csr(np.array(edges), n=n)


def test_infers_n():
    csr = build_csr(np.array([[0, 7]]))
    assert csr.n == 8


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_roundtrip_random(seed):
    edges = erdos_renyi(100, 300, seed=seed)
    csr = build_csr(edges, n=100)
    # Rebuild the canonical edge list from adjacency and compare.
    rebuilt = set()
    for u in range(100):
        for v in _neighbors(csr, u):
            rebuilt.add((min(u, int(v)), max(u, int(v))))
    assert rebuilt == {tuple(e) for e in edges}


def test_csr_bytes():
    csr = build_csr(np.array([[0, 1], [1, 2]]), n=3)
    assert csr_bytes(csr) == 8 * (3 + 4)


def test_empty_graph():
    csr = build_csr(np.empty((0, 2), dtype=np.int64), n=4)
    assert csr.n == 4 and csr.m == 0
    assert list(csr.degrees()) == [0, 0, 0, 0]
