"""Harnesses that regenerate the paper's evaluation tables (DESIGN.md §5).

Each ``tableN_rows`` returns a list of dicts (one per graph row) which
the ``jobs/tableN_*.py`` entrypoints format and print. Parameters
default to the reproduction protocol recorded in EXPERIMENTS.md.

Timed tables (4, 6, 7) use the **timed suite**: the sparse graphs of
the main suite plus reduced scale-free instances, because the
sequential-CELF baselines pay one selection round per re-evaluation
(≈ 0.7·n rounds on scale-free graphs — the paper's Fig. 3 blow-up).
Count tables (3, 5) use the full suite.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.infusermg import run_infusermg
from repro.baselines.ris import RRBudgetExceeded, run_ris
from repro.baselines.simulate import estimate_spread, estimate_spread_local
from repro.core.celf import EvalBudgetExceeded, celf_select
from repro.core.evaluate import LocalEvaluator
from repro.core.pacim import run_pacim
from repro.core.ptree import ptree_select
from repro.core.sketches import build_sketches_local
from repro.core.wintree import wintree_select
from repro.graphs.csr import build_csr, csr_bytes
from repro.graphs.generators import SUITE, rmat
from repro.graphs.probs import make_probs

# Reduced scale-free instances for the timed tables; sparse graphs are
# cheap for sequential CELF and taken from the main suite unchanged.
TIMED_SUITE: dict[str, dict] = {
    "SF-A'": dict(cls="scale-free", p=0.10,
                  gen=lambda: rmat(1024, 8000, seed=31)),
    "SF-B'": dict(cls="scale-free", p=0.10,
                  gen=lambda: rmat(2048, 16000, seed=32)),
    "ROAD-A": SUITE["ROAD-A"],
    "KNN-A": SUITE["KNN-A"],
}


# Runs per system behind each time cell of Tabs. 4/6/7, whose median it
# reports; the paper averages 3. Seeds, space and jobs are deterministic.
_TIME_RUNS = 3


def _timed(run) -> dict:
    """The result of ``run()`` with each time the median of ``_TIME_RUNS``
    runs; everything else must come out equal in every run."""
    runs = [run() for _ in range(_TIME_RUNS)]
    for key in ("seeds", "space", "n_eval_jobs", "theta"):
        assert all(r.get(key) == runs[0].get(key) for r in runs), key
    return runs[0] | {
        key: float(np.median([r[key] for r in runs]))
        for key in ("sketch_time", "select_time", "total_time")
    }


def _graph(spec: dict):
    edges = spec["gen"]()
    return build_csr(edges), spec["p"], spec["cls"]


def _probs(csr, spec: dict, model: str) -> np.ndarray:
    """Probability array for a suite graph under a named model.

    Uniform ranges follow the paper's Appendix A, with the scale-free
    range rescaled U(0,0.1)→U(0,0.2) for our lower average degrees
    (same supercritical correction as the Consistent model, DESIGN.md §2).
    """
    if model == "consistent":
        return make_probs(csr, "consistent", p=spec["p"])
    if model == "uniform":
        lo, hi = (0.0, 0.2) if spec["cls"] == "scale-free" else (0.1, 0.3)
        return make_probs(csr, "uniform", lo=lo, hi=hi)
    if model == "wic":
        return make_probs(csr, "wic")
    raise ValueError(model)


# ---------------------------------------------------------------------------
# Table 3: graph information + influence of the selected seeds
# ---------------------------------------------------------------------------
def table3_rows(
    spark: SparkSession | None,
    *,
    names=None,
    R: int = 64,
    k: int = 100,
    n_sims: int = 2000,
) -> list[dict]:
    """|V|, |E|, and MC-estimated influence of PaC-IM's k seeds."""
    rows = []
    for name in names or SUITE:
        spec = SUITE[name] if name in SUITE else TIMED_SUITE[name]
        csr, _, cls = _graph(spec)
        probs = _probs(csr, spec, "consistent")
        # Counts/seeds are α- and backend-independent; use the fast path.
        res = run_pacim(
            None, csr, probs, R=R, alpha=1.0, k=k,
            selector="wintree", backend="local",
        )
        if spark is not None:
            infl = estimate_spread(spark, csr, probs, res["seeds"], n_sims=n_sims)
        else:
            infl = estimate_spread_local(csr, probs, res["seeds"], n_sims=n_sims)
        rows.append(
            {
                "graph": name,
                "class": cls,
                "n": csr.n,
                "m": csr.m,
                "p": spec["p"],
                "influence": infl,
                "sketch_estimate": res["est_influence"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Tables 4 / 6 / 7: time, memory, relative influence of the four systems
# ---------------------------------------------------------------------------
def table4_rows(
    spark: SparkSession,
    *,
    names=None,
    model: str = "consistent",
    R: int = 64,
    k: int = 25,
    n_sims: int = 1000,
    infusermg_budget: int = 2500,
    ris_entry_budget: int = 20_000_000,
    ris_theta_cap: int = 2_000_000,
) -> list[dict]:
    """One row per graph: Ours₁, Ours₀.₁, InfuserMG, Ripples.

    Every system runs with the Spark backend, ``_TIME_RUNS`` times per
    graph, and each time cell is the median; '-' entries mean the run
    exceeded its budget (evaluation jobs for InfuserMG, RR storage for
    Ripples) — the analog of the paper's 3 h / 1.5 TB '-' cells.
    """
    rows = []
    for i, name in enumerate(names or TIMED_SUITE):
        spec = TIMED_SUITE.get(name) or SUITE[name]
        csr, _, cls = _graph(spec)
        probs = _probs(csr, spec, model)
        if i == 0:  # untimed: a young session's first jobs run slow
            run_pacim(spark, csr, probs, R=R, alpha=0.1, k=k, backend="spark")

        ours1 = _timed(lambda: run_pacim(
            spark, csr, probs, R=R, alpha=1.0, k=k,
            selector="wintree", backend="spark",
        ))
        ours01 = _timed(lambda: run_pacim(
            spark, csr, probs, R=R, alpha=0.1, k=k,
            selector="wintree", backend="spark",
        ))
        try:
            inf = _timed(lambda: run_infusermg(
                spark, csr, probs, R=R, k=k,
                backend="spark", max_eval_jobs=infusermg_budget,
            ))
        except EvalBudgetExceeded:
            inf = None
        try:
            rip = _timed(lambda: run_ris(
                spark, csr, probs, k=k, eps=0.5,
                entry_budget=ris_entry_budget, theta_cap=ris_theta_cap,
                backend="spark",
            ))
        except RRBudgetExceeded:
            rip = None

        def spread(res):
            if res is None:
                return None
            return estimate_spread(spark, csr, probs, res["seeds"], n_sims=n_sims)

        infls = {
            "ours": spread(ours1),
            "infusermg": spread(inf),
            "ripples": spread(rip),
        }
        best = max(v for v in infls.values() if v is not None)
        rows.append(
            {
                "graph": name,
                "class": cls,
                "n": csr.n,
                "m": csr.m,
                "model": model,
                "rel_influence": {
                    s: (None if v is None else v / best) for s, v in infls.items()
                },
                "time_s": {
                    "ours1": ours1["total_time"],
                    "ours01": ours01["total_time"],
                    "infusermg": None if inf is None else inf["total_time"],
                    "ripples": None if rip is None else rip["total_time"],
                },
                "sketch_time_s": {
                    "ours1": ours1["sketch_time"],
                    "ours01": ours01["sketch_time"],
                },
                "select_time_s": {
                    "ours1": ours1["select_time"],
                    "ours01": ours01["select_time"],
                },
                "mem_mb": {
                    "csr": csr_bytes(csr) / 1e6,
                    "ours1": ours1["space"]["total_bytes"] / 1e6,
                    "ours01": ours01["space"]["total_bytes"] / 1e6,
                    "infusermg": None
                    if inf is None
                    else inf["space"]["total_bytes"] / 1e6,
                    "ripples": None
                    if rip is None
                    else rip["space"]["total_bytes"] / 1e6,
                },
                "eval_jobs": {
                    "ours1": ours1["n_eval_jobs"],
                    "ours01": ours01["n_eval_jobs"],
                    "infusermg": None if inf is None else inf["n_eval_jobs"],
                },
                "theta": None if rip is None else rip["theta"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 5: number of re-evaluations per selector
# ---------------------------------------------------------------------------
def table5_rows(
    *, names=None, R: int = 64, k: int = 100
) -> list[dict]:
    """Re-evaluation counts of CELF / P-tree / Win-Tree per graph.

    Counts are backend- and α-independent (the evaluators return the
    same scores), so this runs on the driver with the α=1 fast path.
    """
    rows = []
    for name in names or SUITE:
        spec = SUITE[name] if name in SUITE else TIMED_SUITE[name]
        csr, _, cls = _graph(spec)
        probs = _probs(csr, spec, "consistent")
        sk = build_sketches_local(csr, probs, R=R, alpha=1.0)
        counts, jobs, seeds = {}, {}, {}
        for sel, fn in (
            ("celf", celf_select),
            ("ptree", ptree_select),
            ("wintree", wintree_select),
        ):
            ev = LocalEvaluator(csr, probs, sk)
            res = fn(ev, k)
            counts[sel], jobs[sel], seeds[sel] = res.n_reevals, res.n_jobs, res.seeds
        assert seeds["celf"] == seeds["ptree"] == seeds["wintree"]
        rows.append(
            {
                "graph": name,
                "class": cls,
                "n": csr.n,
                "evals": counts,
                "jobs": jobs,
                "ptree_ratio": counts["ptree"] / counts["celf"],
                "wintree_ratio": counts["wintree"] / counts["celf"],
            }
        )
    return rows


def table6_rows(spark: SparkSession, **kw) -> list[dict]:
    """Table 4 under the Uniform edge-probability assignment."""
    return table4_rows(spark, model="uniform", **kw)


def table7_rows(spark: SparkSession, **kw) -> list[dict]:
    """Table 4 under the WIC (degree-weighted) assignment."""
    return table4_rows(spark, model="wic", **kw)
