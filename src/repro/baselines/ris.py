"""Ripples emulation: Reverse Influence Sampling (RIS / TIM-style).

Ripples [56, 57] and No-Singles [64] use *reverse-reachable (RR)
sketches*: sample θ random roots, record for each the set of vertices
that could have activated it, then pick the k seeds greedily covering
the most RR sets. On an undirected graph under IC, the RR set of a root
is simply its connected component in one live-edge sample — which is
what each distributed task computes here.

θ follows the TIM recipe θ = λ(ε)/OPT̂ with a pilot-phase OPT estimate.
RR storage is accounted per entry; when the projected storage exceeds
the budget the run aborts with :class:`RRBudgetExceeded` — the analog
of Ripples' out-of-memory '-' entries in paper Tab. 4.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.evaluate import sampled_levels
from repro.eval.space import ris_bytes
from repro.graphs.csr import CSR
from repro.hashing import SALT_RR, u01
from repro.spark_jobs import map_range


class RRBudgetExceeded(RuntimeError):
    """Projected RR-set storage exceeds the experiment's memory budget."""


def _rr_root(i: int, offset: int, n: int) -> int:
    """Deterministic uniform random root for RR set i."""
    return int(u01(np.uint64(i), SALT_RR + offset + 0xBEEF) * n)


def _rr_set(csr: CSR, probs: np.ndarray, salt: int, root: int) -> np.ndarray:
    """The RR set of ``root``: its CC in one live-edge sample."""
    root_level = np.array([root], dtype=np.int64)
    return np.concatenate(list(sampled_levels(csr, probs, root_level, salt)))


def generate_rr_sets_local(
    csr: CSR, probs: np.ndarray, theta: int, *, offset: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(rr_id, member) arrays for θ RR sets, driver-side."""
    ids, members = [], []
    for i in range(theta):
        rr = _rr_set(csr, probs, SALT_RR + offset + i, _rr_root(i, offset, csr.n))
        ids.append(np.full(len(rr), i, dtype=np.int64))
        members.append(rr)
    return np.concatenate(ids), np.concatenate(members)


def generate_rr_sets(
    spark: SparkSession, csr: CSR, probs: np.ndarray, theta: int, *, offset: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(rr_id, member) arrays for θ RR sets, one Spark job."""

    def task(shared, ids: np.ndarray) -> pd.DataFrame:
        csr_b, probs_b = shared
        rr_ids, members = [], []
        for i in ids.tolist():
            rr = _rr_set(
                csr_b, probs_b, SALT_RR + offset + i, _rr_root(i, offset, csr_b.n)
            )
            rr_ids.append(np.full(len(rr), i, dtype=np.int64))
            members.append(rr)
        return pd.DataFrame(
            {"rr": np.concatenate(rr_ids), "v": np.concatenate(members)}
        )

    out = map_range(spark, theta, (csr, probs), task, "rr long, v long")
    return out["rr"].to_numpy(), out["v"].to_numpy()


def greedy_max_cover(
    rr_ids: np.ndarray, members: np.ndarray, n: int, theta: int, k: int
) -> tuple[list[int], float]:
    """Greedy maximum coverage; returns (seeds, covered fraction).

    Ties break toward the smallest vertex id (np.argmax returns the
    first maximum), matching the selector convention elsewhere.
    """
    alive = np.ones(len(members), dtype=bool)
    cover_count = np.bincount(members, minlength=n)
    covered = np.zeros(theta, dtype=bool)
    seeds: list[int] = []
    for _ in range(min(k, n)):
        s = int(np.argmax(cover_count))
        seeds.append(s)
        rows_s = alive & (members == s)
        rrs = np.unique(rr_ids[rows_s])
        covered[rrs] = True
        kill = alive & np.isin(rr_ids, rrs)
        cover_count -= np.bincount(members[kill], minlength=n)
        alive &= ~kill
    return seeds, float(covered.mean()) if theta else 0.0


def choose_theta(n: int, k: int, eps: float, opt_hat: float) -> int:
    """TIM-style sample count θ = λ(ε)/OPT̂."""
    log_binom = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    lam = (8 + 2 * eps) * n * (math.log(n) + log_binom + math.log(2)) / eps**2
    return max(1, math.ceil(lam / max(opt_hat, 1.0)))


def run_ris(
    spark: SparkSession | None,
    csr: CSR,
    probs: np.ndarray,
    *,
    k: int,
    eps: float = 0.5,
    pilot_theta: int = 2048,
    theta_cap: int = 2_000_000,
    entry_budget: int = 20_000_000,
    backend: str = "spark",
    offset: int = 0,
) -> dict:
    """Two-phase RIS: pilot OPT estimate, then the full θ-sample run.

    Raises :class:`RRBudgetExceeded` if the projected RR storage blows
    the budget (the '-' entries of paper Tab. 4).
    """
    gen = (
        (lambda th, off: generate_rr_sets(spark, csr, probs, th, offset=off))
        if backend == "spark"
        else (lambda th, off: generate_rr_sets_local(csr, probs, th, offset=off))
    )
    t0 = time.perf_counter()
    pilot_ids, pilot_members = gen(pilot_theta, offset)
    _, pilot_cov = greedy_max_cover(pilot_ids, pilot_members, csr.n, pilot_theta, k)
    opt_hat = max(csr.n * pilot_cov, 1.0)
    theta = min(choose_theta(csr.n, k, eps, opt_hat), theta_cap)
    avg_rr = len(pilot_members) / pilot_theta
    projected = int(theta * avg_rr)
    if projected > entry_budget:
        raise RRBudgetExceeded(
            f"projected {projected} RR entries exceed budget {entry_budget}"
        )
    rr_ids, members = gen(theta, offset + pilot_theta)
    t1 = time.perf_counter()
    seeds, cov = greedy_max_cover(rr_ids, members, csr.n, theta, k)
    t2 = time.perf_counter()
    return {
        "seeds": seeds,
        "est_influence": csr.n * cov,
        "theta": theta,
        "rr_entries": len(members),
        "sketch_time": t1 - t0,
        "select_time": t2 - t1,
        "total_time": t2 - t0,
        "space": ris_bytes(csr, len(members)),
    }
