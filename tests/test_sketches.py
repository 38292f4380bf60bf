"""Unit tests for compressed sketch construction (paper Alg. 3)."""
import numpy as np
import pytest

from repro.cc.local_cc import cc_labels
from repro.core.sketches import (
    _edge_view,
    build_sketches_local,
    choose_centers,
    sampled_arcs,
    sampled_edges,
)
from repro.graphs.csr import build_csr
from repro.graphs.probs import consistent_probs, make_probs
from repro.hashing import SALT_RR, SALT_SIM, SALT_SKETCH
from tests.conftest import erdos_renyi


@pytest.fixture
def setup():
    csr = build_csr(erdos_renyi(150, 350, seed=13), n=150)
    return csr, consistent_probs(csr, 0.2)


def test_choose_centers_count_and_determinism():
    c1 = choose_centers(1000, 0.1, seed=0)
    c2 = choose_centers(1000, 0.1, seed=0)
    assert np.array_equal(c1, c2)
    assert len(c1) == 100
    assert len(np.unique(c1)) == 100
    assert np.array_equal(c1, np.sort(c1))


def test_choose_centers_extremes():
    assert np.array_equal(choose_centers(50, 1.0, 0), np.arange(50))
    assert len(choose_centers(50, 0.0, 0)) == 0


def test_choose_centers_seed_matters():
    assert not np.array_equal(choose_centers(1000, 0.1, 0), choose_centers(1000, 0.1, 1))


def test_sampled_arcs_symmetric(setup):
    csr, probs = setup
    us, vs = sampled_arcs(csr, probs, SALT_SKETCH + 3)
    arcs = set(zip(us.tolist(), vs.tolist()))
    assert all((v, u) in arcs for u, v in arcs), "both arc directions survive"


def test_sampled_arcs_rate(setup):
    csr, probs = setup
    rates = [
        len(sampled_arcs(csr, probs, SALT_SKETCH + r)[0]) / len(csr.adj)
        for r in range(40)
    ]
    assert abs(np.mean(rates) - 0.2) < 0.02


def test_sampled_arcs_differ_across_sketches(setup):
    csr, probs = setup
    a = sampled_arcs(csr, probs, SALT_SKETCH + 0)
    b = sampled_arcs(csr, probs, SALT_SKETCH + 1)
    assert len(a[0]) != len(b[0]) or not np.array_equal(a[0], b[0])


@pytest.mark.parametrize(
    "model,kw",
    [("consistent", {"p": 0.2}), ("consistent", {"p": 1.0}),
     ("uniform", {"lo": 0.0, "hi": 0.2}), ("wic", {})],
)
def test_sampled_edges_equal_sampled_arcs(setup, model, kw):
    """The integer-threshold sampler keeps exactly the edges whose
    ``u < v`` arc the float coin keeps, salt by salt, in one call."""
    csr, _ = setup
    probs = make_probs(csr, model, **kw)
    salts = np.concatenate([s + np.arange(4) for s in (SALT_SKETCH, SALT_SIM, SALT_RR)])
    us, vs = sampled_edges(csr.n, _edge_view(csr, probs), salts)
    for t, salt in enumerate(salts):
        mine = us // csr.n == t
        a_us, a_vs = sampled_arcs(csr, probs, int(salt))
        fwd = a_us < a_vs
        assert np.array_equal(us[mine] - t * csr.n, a_us[fwd])
        assert np.array_equal(vs[mine] - t * csr.n, a_vs[fwd])


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.4, 1.0])
def test_sketch_invariants(setup, alpha):
    csr, probs = setup
    R = 10
    sk = build_sketches_local(csr, probs, R=R, alpha=alpha)
    rho = sk.rho
    assert rho == int(round(alpha * csr.n))
    assert sk.cc.shape == (R, rho) and sk.cc.dtype == np.int32
    assert sk.centers.dtype == sk.center_index.dtype == np.int32
    # center_index is the inverse of centers.
    for i, c in enumerate(sk.centers):
        assert sk.center_index[c] == i
    assert (sk.center_index >= 0).sum() == rho
    for r in range(R):
        us, vs = sampled_arcs(csr, probs, SALT_SKETCH + r)
        lab = cc_labels(csr.n, us, vs)
        comp_sizes = np.bincount(lab, minlength=csr.n)
        for i, c in enumerate(sk.centers):
            p = sk.cc[r, i]
            assert p != i  # a label never points at its own center
            j = i if p < 0 else p
            # Label is a center index in the same CC, minimal among them.
            assert lab[sk.centers[j]] == lab[c]
            same_cc = [
                x for x, cx in enumerate(sk.centers) if lab[cx] == lab[c]
            ]
            assert j == min(same_cc)
            # The representative holds -size; every other center its label.
            if j == i:
                assert p == -comp_sizes[lab[c]]
            else:
                assert 0 <= p < i
            assert -sk.cc[r, j] == comp_sizes[lab[c]]


def test_init_scores_equal_mean_cc_size(setup):
    csr, probs = setup
    R = 8
    sk = build_sketches_local(csr, probs, R=R, alpha=0.2)
    want = np.zeros(csr.n)
    for r in range(R):
        us, vs = sampled_arcs(csr, probs, SALT_SKETCH + r)
        lab = cc_labels(csr.n, us, vs)
        want += np.bincount(lab, minlength=csr.n)[lab]
    assert np.allclose(sk.init_scores, want / R)


def test_init_scores_independent_of_alpha(setup):
    csr, probs = setup
    a = build_sketches_local(csr, probs, R=6, alpha=0.1)
    b = build_sketches_local(csr, probs, R=6, alpha=1.0)
    assert np.allclose(a.init_scores, b.init_scores)


def test_aux_bytes_scales_with_alpha(setup):
    csr, probs = setup
    small = build_sketches_local(csr, probs, R=8, alpha=0.1).aux_bytes()
    big = build_sketches_local(csr, probs, R=8, alpha=1.0).aux_bytes()
    assert small < big
    # cc dominates: ratio close to alpha.
    assert big > 5 * small


def test_alpha_one_labels_are_cc_labels(setup):
    csr, probs = setup
    sk = build_sketches_local(csr, probs, R=4, alpha=1.0)
    for r in range(4):
        us, vs = sampled_arcs(csr, probs, SALT_SKETCH + r)
        lab = cc_labels(csr.n, us, vs)
        # centers == all vertices, so the decoded labels are exactly the
        # min-id CC labels.
        idx = np.arange(csr.n)
        assert np.array_equal(np.where(sk.cc[r] < 0, idx, sk.cc[r]), lab)


def test_alpha_zero_empty_memo(setup):
    csr, probs = setup
    sk = build_sketches_local(csr, probs, R=4, alpha=0.0)
    assert sk.rho == 0
    assert sk.cc.shape == (4, 0)
    assert (sk.center_index == -1).all()
    assert len(sk.init_scores) == csr.n
