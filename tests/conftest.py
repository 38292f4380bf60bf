"""Shared non-Spark fixtures: small deterministic graphs + sketches.

The SparkSession fixture lives in the repo-root conftest; everything
here is driver-side so the bulk of the suite runs without touching the
JVM.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.sketches import build_sketches_local
from repro.graphs.csr import build_csr
from repro.graphs.generators import _canonicalize, grid2d, knn_graph, rmat
from repro.graphs.probs import consistent_probs
from repro.hashing import _mix


def erdos_renyi(n: int, m_target: int, *, seed: int) -> np.ndarray:
    """G(n, m)-style uniform random graph (approximate m after dedup)."""
    g = np.random.default_rng(seed)
    n_arcs = int(m_target * 1.1) + 8
    return _canonicalize(g.integers(0, n, n_arcs), g.integers(0, n, n_arcs))


def _unxorshift(x: int, s: int) -> int:
    y = x
    for _ in range(64 // s + 1):
        y = x ^ (y >> s)
    return y


def u01_key(h: int, salt: int) -> int:
    """The key whose ``u01(key, salt)`` hashes to ``h``: splitmix64
    inverted step by step (each xorshift undone by iterating it, each
    multiply by the odd constant's inverse mod 2**64), then the salt's
    mix XORed back out."""
    x = _unxorshift(h, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    x = _unxorshift(x, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return _unxorshift(x, 30) ^ int(_mix(salt))


GRAPH_CASES = {
    "er-small": (lambda: erdos_renyi(120, 260, seed=5), 120, 0.2),
    "er-dense": (lambda: erdos_renyi(80, 500, seed=6), 80, 0.15),
    "rmat": (lambda: rmat(128, 700, seed=7), 128, 0.12),
    "grid": (lambda: grid2d(12, 10), 120, 0.3),
    "knn": (lambda: knn_graph(100, 3, seed=8), 100, 0.25),
}


@pytest.fixture(params=sorted(GRAPH_CASES), ids=sorted(GRAPH_CASES))
def small_case(request):
    """(name, csr, probs) for each small test graph."""
    gen, n, p = GRAPH_CASES[request.param]
    csr = build_csr(gen(), n=n)
    return request.param, csr, consistent_probs(csr, p)


@pytest.fixture
def er_csr():
    """One fixed medium graph for non-parameterized tests."""
    csr = build_csr(erdos_renyi(200, 420, seed=9), n=200)
    return csr


@pytest.fixture
def er_setup(er_csr):
    """(csr, probs, sketches) — the standard evaluation fixture."""
    probs = consistent_probs(er_csr, 0.15)
    sk = build_sketches_local(er_csr, probs, R=12, alpha=0.3)
    return er_csr, probs, sk


def brute_marginal(csr, probs, R, v, seeds):
    """Reference Marginal(S, v): full CC computation on every sampled
    graph — the ground truth every evaluator path is tested against."""
    from repro.cc.local_cc import cc_labels
    from repro.core.sketches import sampled_arcs
    from repro.hashing import SALT_SKETCH

    total = 0.0
    for r in range(R):
        us, vs = sampled_arcs(csr, probs, SALT_SKETCH + r)
        lab = cc_labels(csr.n, us, vs)
        if any(lab[s] == lab[v] for s in seeds):
            continue
        total += int((lab == lab[v]).sum())
    return total / R


def exhaustive_greedy(csr, probs, R, k):
    """Reference greedy: evaluate *every* vertex each round with the
    brute marginal; ties to the smaller id. The selector oracle."""
    seeds: list[int] = []
    gains: list[float] = []
    for _ in range(k):
        best_v, best_g = -1, -np.inf
        for v in range(csr.n):
            if v in seeds:
                continue
            g = brute_marginal(csr, probs, R, v, seeds)
            if g > best_g:
                best_v, best_g = v, g
        seeds.append(best_v)
        gains.append(best_g)
    return seeds, gains
