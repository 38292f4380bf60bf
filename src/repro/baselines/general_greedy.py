"""GeneralGreedy (Kempe et al. [43]) — the original MC-simulation greedy.

For each candidate vertex it estimates Δ(v | S) by averaging R'
Monte-Carlo diffusion simulations of σ(S ∪ {v}) − σ(S), evaluating
*every* vertex each round (no CELF). O(n R' T) per seed — only feasible
on tiny graphs, which is exactly its role here: the quality ground
truth the sketch-based systems are tested against (paper Tab. 2 row 1).
"""
from __future__ import annotations

import numpy as np

from repro.baselines.simulate import _spreads
from repro.graphs.csr import CSR
from repro.hashing import SALT_SIM


def general_greedy(csr: CSR, probs: np.ndarray, *, k: int, n_sims: int) -> list[int]:
    """k seeds by MC greedy; ties broken by smaller vertex id."""
    seeds: list[int] = []
    salts = SALT_SIM + np.arange(n_sims)
    for _ in range(k):
        base = (
            int(_spreads(csr, probs, np.asarray(seeds, dtype=np.int64), salts).sum())
            if seeds
            else 0
        )
        best_v, best_gain = -1, -np.inf
        for v in range(csr.n):
            if v in seeds:
                continue
            cand = np.asarray(seeds + [v], dtype=np.int64)
            tot = int(_spreads(csr, probs, cand, salts).sum())
            gain = (tot - base) / n_sims
            if gain > best_gain:  # strict: first (smallest id) wins ties
                best_v, best_gain = v, gain
        seeds.append(best_v)
    return seeds
