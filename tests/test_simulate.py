"""Tests for the Monte-Carlo influence oracle."""
import numpy as np
import pytest

from repro.baselines import simulate
from repro.baselines.simulate import (
    _SIM_BLOCK,
    _spread_once,
    _spreads,
    estimate_spread,
    estimate_spread_local,
)
from repro.cc.local_cc import cc_labels
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi, grid2d, rmat
from repro.graphs.probs import consistent_probs, uniform_probs
from repro.hashing import SALT_SIM, u01


def test_spread_counts_seeds_themselves():
    csr = build_csr(np.array([[0, 1]]), n=3)
    probs = consistent_probs(csr, 0.0)  # no edge ever live
    assert estimate_spread_local(csr, probs, [0, 2], n_sims=10) == 2.0


def test_spread_full_probability():
    csr = build_csr(np.array([[0, 1], [1, 2], [2, 3]]), n=4)
    probs = consistent_probs(csr, 1.0)
    assert estimate_spread_local(csr, probs, [0], n_sims=5) == 4.0


def test_spread_empty_seed_set():
    csr = build_csr(np.array([[0, 1]]), n=2)
    assert estimate_spread_local(csr, consistent_probs(csr, 0.5), [], n_sims=3) == 0.0


def test_single_edge_matches_analytic():
    # σ({0}) on a single edge with prob p is 1 + p.
    csr = build_csr(np.array([[0, 1]]), n=2)
    p = 0.3
    probs = consistent_probs(csr, p)
    est = estimate_spread_local(csr, probs, [0], n_sims=4000)
    assert est == pytest.approx(1 + p, abs=0.03)


def test_path_matches_analytic():
    # σ({0}) on a path 0-1-2: 1 + p + p^2.
    csr = build_csr(np.array([[0, 1], [1, 2]]), n=3)
    p = 0.4
    probs = consistent_probs(csr, p)
    est = estimate_spread_local(csr, probs, [0], n_sims=6000)
    assert est == pytest.approx(1 + p + p * p, abs=0.05)


def test_triangle_matches_analytic():
    # σ({0}) on a triangle: 1 + 2(2p^2 - p^3 + p(1-p)^2)… compute by
    # enumeration over the 8 live-edge patterns instead.
    csr = build_csr(np.array([[0, 1], [0, 2], [1, 2]]), n=3)
    p = 0.5
    want = 0.0
    for bits in range(8):
        live = [(bits >> i) & 1 for i in range(3)]
        prob = np.prod([p if b else 1 - p for b in live])
        # reachable from 0: edges (0,1),(0,2),(1,2)
        reach = {0}
        for _ in range(2):
            if live[0] and 0 in reach:
                reach.add(1)
            if live[1] and 0 in reach:
                reach.add(2)
            if live[2] and (1 in reach or 2 in reach):
                reach.update({1, 2})
        want += prob * len(reach)
    probs = consistent_probs(csr, p)
    est = estimate_spread_local(csr, probs, [0], n_sims=8000)
    assert est == pytest.approx(want, abs=0.05)


def test_monotone_in_seed_set():
    csr = build_csr(erdos_renyi(120, 260, seed=4), n=120)
    probs = consistent_probs(csr, 0.2)
    s1 = estimate_spread_local(csr, probs, [3], n_sims=300)
    s2 = estimate_spread_local(csr, probs, [3, 50], n_sims=300)
    s3 = estimate_spread_local(csr, probs, [3, 50, 99], n_sims=300)
    # Same coin flips per simulation → monotone even sample-wise.
    assert s1 <= s2 <= s3


def test_sim_salts_disjoint_from_sketches():
    # The oracle never reuses the sketch coin flips.
    key = np.uint64(12345)
    from repro.hashing import SALT_SKETCH

    a = u01(key, SALT_SIM + 0)
    b = u01(key, SALT_SKETCH + 0)
    assert a != b


def test_spread_once_deterministic():
    csr = build_csr(erdos_renyi(80, 200, seed=5), n=80)
    probs = consistent_probs(csr, 0.3)
    seeds = np.array([1, 2])
    assert _spread_once(csr, probs, seeds, 7) == _spread_once(csr, probs, seeds, 7)


@pytest.mark.parametrize("sim_offset", [0, 5])
def test_blocked_simulations_equal_single_ones(sim_offset):
    # Simulations run a block at a time; a partial last block must not
    # change any of them.
    csr = build_csr(erdos_renyi(120, 300, seed=6), n=120)
    probs = consistent_probs(csr, 0.25)
    seeds = np.array([40, 3, 77])
    n_sims = 2 * _SIM_BLOCK + 3
    singles = [
        _spread_once(csr, probs, seeds, SALT_SIM + sim_offset + i)
        for i in range(n_sims)
    ]
    est = estimate_spread_local(csr, probs, seeds, n_sims=n_sims,
                                sim_offset=sim_offset)
    assert est == sum(singles) / n_sims
    assert len(set(singles)) > 1  # the simulations really differ


def _runner(request, backend):
    """The estimator of ``backend``, called like ``estimate_spread_local``."""
    if backend == "local":
        return estimate_spread_local
    spark = request.getfixturevalue("spark")

    def run(*args, **kwargs):
        return estimate_spread(spark, *args, **kwargs)

    return run


@pytest.mark.parametrize(
    "seeds,n_sims,match",
    [([0], 0, "n_sims"), ([0], -3, "n_sims"), ([], 0, "n_sims"),
     ([1, 30], 5, "seed ids"), ([-1], 5, "seed ids")],
    ids=["no-sims", "negative-sims", "empty-no-sims", "id-n", "id-minus-1"])
@pytest.mark.parametrize("backend", ["local", "spark"])
def test_rejects_bad_arguments(request, backend, seeds, n_sims, match):
    # Rejected at the boundary, before any simulation runs; the message
    # match keeps an unrelated numpy ValueError from passing.
    csr = build_csr(erdos_renyi(30, 60, seed=2), n=30)
    probs = consistent_probs(csr, 0.3)
    run = _runner(request, backend)
    with pytest.raises(ValueError, match=match):
        run(csr, probs, seeds, n_sims=n_sims)


@pytest.mark.parametrize("bad", ["short", "asymmetric", "above-1"])
@pytest.mark.parametrize("backend", ["local", "spark"])
def test_rejects_bad_probs(request, backend, bad):
    # Checked at the boundary: a short array used to fail deep in the BFS
    # with an IndexError, and asymmetric arcs made MC read a directed graph.
    csr = build_csr(erdos_renyi(30, 60, seed=2), n=30)
    probs = uniform_probs(csr, 0.1, 0.4)
    if bad == "short":
        probs = probs[:-1]
    elif bad == "asymmetric":
        probs[0] = 0.9
    else:
        probs[:] = 1.5
    run = _runner(request, backend)
    with pytest.raises(ValueError, match="probs"):
        run(csr, probs, [0, 1], n_sims=8)


@pytest.mark.parametrize(
    "gen,n,p,cc_blocks",
    [(lambda: rmat(1024, 8000, seed=11), 1024, 0.1, 7),
     (lambda: grid2d(110, 110), 110 * 110, 0.2, 0)],
    ids=["rmat-p0.1", "grid110-p0.2"])
def test_cc_path_taken_where_seeds_reach_most_edges(monkeypatch, gen, n, p,
                                                    cc_blocks):
    """Supercritical RMAT: the first BFS block expands more arcs than the
    b·m coins of a CC pass, so the other 7 of 8 blocks run as sampled CC.
    The subcritical grid stays on BFS. Either way every simulation's count
    equals its own one-simulation BFS."""
    csr = build_csr(gen(), n=n)
    probs = consistent_probs(csr, p)
    seeds = np.array([3, 40, 500, 999])
    salts = SALT_SIM + np.arange(8 * _SIM_BLOCK)
    calls = []

    def counted(*args):
        calls.append(args[0])
        return cc_labels(*args)

    monkeypatch.setattr(simulate, "cc_labels", counted)
    counts = _spreads(csr, probs, seeds, salts)
    assert calls == [_SIM_BLOCK * n] * cc_blocks
    singles = [_spread_once(csr, probs, seeds, s) for s in salts]
    assert counts.tolist() == singles
