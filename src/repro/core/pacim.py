"""PaC-IM end-to-end driver (paper Alg. 1).

``run_pacim`` wires the two phases together — sketch construction
(Sec. 3) and seed selection (Sec. 4) — with per-phase timers, counters,
and analytic space accounting. The variant matrix of paper Tab. 2 is a
parameter choice here:

- ``alpha=1``  → InfuserMG-style full memoization;
- ``alpha=0``  → StaticGreedy-style pure simulation (with
  ``selector='celf'``, the StaticGreedy baseline itself);
- ``0<alpha<1`` → PaC-IM compressed sketches;
- ``selector`` ∈ {'celf', 'ptree', 'wintree'} — sequential vs parallel
  seed selection;
- ``backend`` ∈ {'local', 'spark'} — the same run either way: sketches
  build, and every evaluation batch is settled, on the driver (MC
  simulation and RR sets are the repo's Spark jobs).
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import SparkSession

from repro.core.celf import celf_select
# run_pacim calls neither the evaluator alias nor ``build_sketches``;
# ``perfbench/tracing.py`` patches both names on this module.
from repro.core.evaluate import LocalEvaluator, SparkEvaluator  # noqa: F401
from repro.core.ptree import ptree_select
from repro.core.sketches import build_sketches, build_sketches_local  # noqa: F401
from repro.core.wintree import wintree_select
from repro.eval.space import pacim_bytes
from repro.graphs.csr import CSR, build_csr
from repro.graphs.probs import check_probs

_SELECTORS = {
    "celf": celf_select,
    "ptree": ptree_select,
    "wintree": wintree_select,
}


def run_pacim(
    spark: SparkSession | None,
    graph: CSR | np.ndarray,
    probs: np.ndarray,
    *,
    R: int,
    alpha: float,
    k: int,
    selector: str = "wintree",
    backend: str = "spark",
    center_seed: int = 0,
    max_eval_jobs: int | None = None,
) -> dict:
    """Run PaC-IM and return seeds + full instrumentation.

    ``graph`` is a CSR or a canonical edge list. Both backends build the
    sketches and settle every evaluation batch on the driver, by GetCenter
    or from the CC pass (``n_cc_jobs`` passes, at most one per round, whose
    δ settles ``n_cc_reevals`` vertices), and return the same seeds and
    counts; ``backend='spark'`` still requires ``spark``.
    """
    csr = graph if isinstance(graph, CSR) else build_csr(graph)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")
    if R < 1:
        raise ValueError(f"R must be at least 1, got {R!r}")
    if not 1 <= k <= csr.n:
        raise ValueError(f"k must be in [1, n={csr.n}], got {k!r}")
    probs = check_probs(csr, probs)
    if selector not in _SELECTORS:
        raise ValueError(f"unknown selector {selector!r}")
    if backend not in ("local", "spark"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "spark" and spark is None:
        raise ValueError("backend='spark' needs a SparkSession")

    t0 = time.perf_counter()
    sketches = build_sketches_local(
        csr, probs, R=R, alpha=alpha, center_seed=center_seed
    )
    evaluator = LocalEvaluator(csr, probs, sketches)
    t1 = time.perf_counter()
    sel = _SELECTORS[selector](evaluator, k, max_jobs=max_eval_jobs)
    t2 = time.perf_counter()

    return {
        "seeds": sel.seeds,
        "gains": sel.gains,
        "est_influence": sel.est_influence,
        "sketch_time": t1 - t0,
        "select_time": t2 - t1,
        "total_time": t2 - t0,
        "n_reevals": sel.n_reevals,
        "n_eval_jobs": sel.n_jobs,
        "n_visits": evaluator.n_visits,
        "n_cc_jobs": evaluator.n_cc_jobs,
        "n_cc_reevals": evaluator.n_cc_reevals,
        "space": pacim_bytes(csr, evaluator, sel.structure_bytes),
        "selector": selector,
        "alpha": alpha,
        "R": R,
        "extra": sel.extra,
    }
