"""Tests for the GeneralGreedy (MC simulation) baseline."""
import numpy as np
import pytest

from repro.baselines.general_greedy import general_greedy
from repro.baselines.simulate import estimate_spread_local
from repro.graphs.csr import build_csr
from repro.graphs.probs import consistent_probs
from tests.conftest import erdos_renyi


def test_star_picks_hub_first():
    # Star with hub 0: the hub dominates any leaf.
    edges = np.array([[0, i] for i in range(1, 8)])
    csr = build_csr(edges, n=8)
    probs = consistent_probs(csr, 0.5)
    seeds = general_greedy(csr, probs, k=1, n_sims=300)
    assert seeds == [0]


def test_two_stars_pick_both_hubs():
    edges = np.array([[0, i] for i in range(1, 6)] + [[6, i] for i in range(7, 12)])
    csr = build_csr(edges, n=12)
    probs = consistent_probs(csr, 0.5)
    seeds = general_greedy(csr, probs, k=2, n_sims=300)
    assert sorted(seeds) == [0, 6]


def test_seeds_distinct_and_k_long():
    csr = build_csr(erdos_renyi(30, 60, seed=2), n=30)
    probs = consistent_probs(csr, 0.3)
    seeds = general_greedy(csr, probs, k=5, n_sims=100)
    assert len(seeds) == 5 and len(set(seeds)) == 5


def test_agrees_with_sketch_greedy_quality():
    """MC greedy and sketch greedy influence within MC noise of each
    other (they optimize the same objective)."""
    from repro.core.pacim import run_pacim

    csr = build_csr(erdos_renyi(60, 150, seed=3), n=60)
    probs = consistent_probs(csr, 0.25)
    mc_seeds = general_greedy(csr, probs, k=3, n_sims=400)
    sk = run_pacim(None, csr, probs, R=64, alpha=1.0, k=3, backend="local")
    s_mc = estimate_spread_local(csr, probs, mc_seeds, n_sims=800, sim_offset=10_000)
    s_sk = estimate_spread_local(csr, probs, sk["seeds"], n_sims=800, sim_offset=10_000)
    assert abs(s_mc - s_sk) / max(s_mc, s_sk) < 0.1
