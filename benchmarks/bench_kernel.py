"""Micro-benchmarks of the evaluation kernel: one 256-vertex
``LocalEvaluator.evaluate`` (256 x R (vertex, sketch) GetCenter pairs), and
one ``LocalEvaluator.mark_seed`` (R pairs of the top-scoring vertex); and of
the MC kernel: 256 simulations of 10 seeds.

Two graph classes at three memoization levels: a scale-free RMAT graph
(n=8192, supercritical at p=0.1, so compressed sketches walk ~1/α
vertices per pair) and the 110x110 road grid (subcritical at p=0.2, so
most pairs exhaust a small component). α=1 is the pure array lookup. MC
runs as sampled CC on the RMAT graph and as BFS on the grid, one on each
side of ``baselines.simulate``'s rule.

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py -p no:cacheprovider
"""
import numpy as np
import pytest

from repro.baselines import simulate
from repro.cc.local_cc import cc_labels
from repro.core.evaluate import LocalEvaluator
from repro.core.sketches import build_sketches_local
from repro.graphs.csr import build_csr
from repro.graphs.generators import grid2d, rmat
from repro.graphs.probs import consistent_probs
from repro.hashing import SALT_SIM

R = 32
BATCH = 256
SIMS = 256
GRAPHS = {
    "rmat8k": (lambda: rmat(8192, 64000, seed=41), 8192, 0.1),
    "grid110": (lambda: grid2d(110, 110), 110 * 110, 0.2),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    gen, n, p = GRAPHS[request.param]
    csr = build_csr(gen(), n=n)
    return csr, consistent_probs(csr, p)


@pytest.mark.parametrize("alpha", [1.0, 0.1, 0.02])
def test_kernel_evaluate(benchmark, graph, alpha):
    csr, probs = graph
    sk = build_sketches_local(csr, probs, R=R, alpha=alpha)
    # Not seed 0: centers are drawn with default_rng(center_seed=0), and
    # the same draws would make the batch the centers themselves.
    vs = np.sort(np.random.default_rng(7).choice(csr.n, BATCH, replace=False))
    ev = LocalEvaluator(csr, probs, sk)
    means = benchmark.pedantic(ev.evaluate, args=(vs,), rounds=3, iterations=1)
    benchmark.extra_info["pairs"] = BATCH * R
    benchmark.extra_info["center_pairs"] = R * int((sk.center_index[vs] >= 0).sum())
    benchmark.extra_info["visits_per_round"] = ev.n_visits // 3
    assert np.allclose(means, sk.init_scores[vs])


@pytest.mark.parametrize("alpha", [0.1, 0.02])
def test_kernel_mark_seed(benchmark, graph, alpha):
    csr, probs = graph
    sk = build_sketches_local(csr, probs, R=R, alpha=alpha)
    v = int(np.argmax(sk.init_scores))  # the seed every selector picks first

    def fresh():
        return (LocalEvaluator(csr, probs, sk),), {}

    benchmark.pedantic(lambda ev: ev.mark_seed(v), setup=fresh, rounds=5)
    ev = LocalEvaluator(csr, probs, sk)
    ev.mark_seed(v)
    benchmark.extra_info["pairs"] = R
    benchmark.extra_info["visits"] = ev.n_visits
    assert ev.evaluate(np.array([v]))[0] == 0.0


def test_kernel_spread(benchmark, graph, monkeypatch):
    csr, probs = graph
    seeds = np.random.default_rng(7).choice(csr.n, 10, replace=False)
    salts = SALT_SIM + np.arange(SIMS)
    cc_blocks = []

    def counted(*args):
        cc_blocks.append(1)
        return cc_labels(*args)

    monkeypatch.setattr(simulate, "cc_labels", counted)
    counts = benchmark.pedantic(simulate._spreads,
                                args=(csr, probs, seeds, salts),
                                rounds=3, iterations=1)
    benchmark.extra_info["sims"] = SIMS
    benchmark.extra_info["cc_blocks"] = len(cc_blocks) // 3
    benchmark.extra_info["mean_spread"] = float(counts.mean())
    assert (counts >= len(seeds)).all()
