"""Sequential CELF seed selection (paper Alg. 2) — the baseline that
InfuserMG/StaticGreedy use, and the yardstick for Thm. 4.2 — and the
greedy loop of Alg. 1 that all three selectors run
(:func:`greedy_select`); a selector is its priority structure plus one
NextSeed round.

All selectors in this package share one strict total order on
candidates: vertex a beats vertex b iff (score_a, -a) > (score_b, -b)
lexicographically — i.e. higher score first, ties broken by smaller
vertex id, the paper's tie-break convention. This makes every selector
deterministic and lets tests assert they all pick *identical* seed sets
(Thms. 4.1 / 4.4).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def key(score: float, v: int) -> tuple[float, int]:
    """Strict-total-order sort key: higher score, then smaller id."""
    return (float(score), -int(v))


@dataclass
class SelectionResult:
    """Outcome of a seed-selection run."""

    seeds: list[int]
    gains: list[float]  # marginal gain of each seed at selection time
    n_reevals: int  # re-evaluations (excludes the initial n scores)
    n_jobs: int  # evaluation batches = parallel rounds
    structure_bytes: int  # priority-structure space
    extra: dict = field(default_factory=dict)

    @property
    def est_influence(self) -> float:
        """Sketch-estimated σ(S): marginal gains telescope."""
        return float(sum(self.gains))


class EvalBudgetExceeded(RuntimeError):
    """Raised when a selector exceeds its evaluation-job budget — the
    analog of the paper's 3-hour '-' entries."""


def _evaluate(evaluator, vs: np.ndarray, max_jobs: int | None) -> np.ndarray:
    """True gains of ``vs`` in one evaluation job; raises
    :class:`EvalBudgetExceeded` once more than ``max_jobs`` jobs ran."""
    truths = evaluator.evaluate(vs)
    if max_jobs is not None and evaluator.n_jobs > max_jobs:
        raise EvalBudgetExceeded(f"exceeded {max_jobs} evaluation jobs")
    return truths


def greedy_select(
    evaluator, k: int, next_seed: Callable[[], tuple[int, float]], structure_bytes: int
) -> SelectionResult:
    """Paper Alg. 1: ``min(k, n)`` rounds of NextSeed, then MarkSeed.

    ``next_seed()`` runs one round on the selector's priority structure
    and returns (seed, true gain). A round's entry in
    ``extra["batches_per_round"]`` counts the evaluation jobs it issued,
    and in ``extra["cc_passes_per_round"]`` the CC passes they ran.
    """
    jobs0, evals0 = evaluator.n_jobs, evaluator.n_reevals
    seeds: list[int] = []
    gains: list[float] = []
    batches: list[int] = []
    passes: list[int] = []
    for _ in range(min(k, evaluator.csr.n)):
        jobs, cc_jobs = evaluator.n_jobs, evaluator.n_cc_jobs
        s, gain = next_seed()
        batches.append(evaluator.n_jobs - jobs)
        passes.append(evaluator.n_cc_jobs - cc_jobs)
        seeds.append(s)
        gains.append(gain)
        evaluator.mark_seed(s)
    return SelectionResult(
        seeds=seeds,
        gains=gains,
        n_reevals=evaluator.n_reevals - evals0,
        n_jobs=evaluator.n_jobs - jobs0,
        structure_bytes=structure_bytes,
        extra={"batches_per_round": batches, "cc_passes_per_round": passes},
    )


def celf_select(evaluator, k: int, *, max_jobs: int | None = None) -> SelectionResult:
    """Greedy seed selection with lazy (CELF) re-evaluation.

    Pops the stalest-top vertex, re-evaluates it (one 1-vertex batch =
    one evaluation job), and selects it iff its true key still beats the
    queue's top — otherwise reinserts with the fresh score.
    """
    scores = evaluator.init_scores()
    # heapq is a min-heap: negate the key so the best candidate pops first.
    heap = [(-scores[v], v) for v in range(len(scores))]
    heapq.heapify(heap)

    def next_seed() -> tuple[int, float]:
        while True:
            _, v = heapq.heappop(heap)
            true = float(_evaluate(evaluator, np.array([v]), max_jobs)[0])
            if not heap or key(true, v) > key(-heap[0][0], heap[0][1]):
                return v, true
            heapq.heappush(heap, (-true, v))

    # (score, id) pairs in the binary heap
    return greedy_select(evaluator, k, next_seed, 16 * len(scores))
