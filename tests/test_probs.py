"""Unit tests for the edge-probability models."""
import numpy as np
import pytest

from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi
from repro.graphs.probs import (
    check_probs,
    consistent_probs,
    make_probs,
    uniform_probs,
    wic_probs,
)


@pytest.fixture
def csr():
    return build_csr(erdos_renyi(150, 450, seed=11), n=150)


def _arc_endpoints(csr):
    src = np.repeat(np.arange(csr.n), csr.degrees())
    return src, csr.adj


@pytest.mark.parametrize("p", [0.02, 0.2, 1.0])
def test_consistent(csr, p):
    probs = consistent_probs(csr, p)
    assert probs.shape == (len(csr.adj),)
    assert (probs == p).all()


def test_uniform_range(csr):
    probs = uniform_probs(csr, 0.1, 0.3)
    assert probs.min() >= 0.1 and probs.max() < 0.3
    assert abs(probs.mean() - 0.2) < 0.02


def test_uniform_deterministic(csr):
    assert np.array_equal(uniform_probs(csr, 0, 0.1), uniform_probs(csr, 0, 0.1))


def test_uniform_symmetric_per_edge(csr):
    # Both arcs of an undirected edge draw the same probability.
    probs = uniform_probs(csr, 0.0, 1.0)
    src, dst = _arc_endpoints(csr)
    lookup = {}
    for s, d, p in zip(src, dst, probs):
        e = (min(s, d), max(s, d))
        assert lookup.setdefault(e, p) == p


def test_wic_formula(csr):
    probs = wic_probs(csr)
    deg = csr.degrees()
    src, dst = _arc_endpoints(csr)
    want = np.minimum(1.0, 2.0 / (deg[src] + deg[dst]))
    assert np.allclose(probs, want)


def test_wic_symmetric(csr):
    probs = wic_probs(csr)
    src, dst = _arc_endpoints(csr)
    lookup = {}
    for s, d, p in zip(src, dst, probs):
        e = (min(s, d), max(s, d))
        assert lookup.setdefault(e, p) == p


def test_wic_clipped_at_one():
    # Two pendant vertices: d_u = d_v = 1 → 2/(1+1) = 1.0, not above.
    csr = build_csr(np.array([[0, 1]]), n=2)
    assert (wic_probs(csr) == 1.0).all()


@pytest.mark.parametrize(
    "model,kw",
    [("consistent", dict(p=0.3)), ("uniform", dict(lo=0.1, hi=0.2)), ("wic", {})],
)
def test_make_probs_dispatch(csr, model, kw):
    probs = make_probs(csr, model, **kw)
    assert probs.shape == (len(csr.adj),)
    assert (probs >= 0).all() and (probs <= 1).all()


def test_make_probs_unknown(csr):
    with pytest.raises(ValueError):
        make_probs(csr, "lognormal")


@pytest.mark.parametrize(
    "model,kw",
    [("consistent", dict(p=1.5)), ("consistent", dict(p=float("nan"))),
     ("uniform", dict(lo=0.3, hi=0.1)), ("uniform", dict(lo=0.1, hi=2.0))],
    ids=["p-above-1", "p-nan", "lo-above-hi", "hi-above-1"],
)
def test_make_probs_rejects_bad_parameters(csr, model, kw):
    with pytest.raises(ValueError):
        make_probs(csr, model, **kw)


def test_check_probs_rejects_asymmetric_arcs(csr):
    # One edge, live from vertex 0 and dead from vertex 1: MC, the sketches
    # and GetCenter would each read a different graph.
    one = build_csr(np.array([[0, 1]]), n=2)
    with pytest.raises(ValueError, match="both arcs"):
        check_probs(one, [1.0, 0.0])
    assert np.array_equal(check_probs(one, [0.5, 0.5]), [0.5, 0.5])
    probs = uniform_probs(csr, 0.0, 1.0)
    check_probs(csr, probs)
    probs[7] = 1.0 - probs[7]  # one arc of one edge
    with pytest.raises(ValueError, match="both arcs"):
        check_probs(csr, probs)
