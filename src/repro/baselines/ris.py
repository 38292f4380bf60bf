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

from repro.core.evaluate import block_levels, sampled_levels
from repro.eval.space import ris_bytes
from repro.graphs.csr import CSR
from repro.graphs.probs import check_probs
from repro.hashing import SALT_RR, u01
from repro.spark_jobs import map_range


class RRBudgetExceeded(RuntimeError):
    """Projected RR-set storage exceeds the experiment's memory budget."""


# RR sets traversed together; the keys a block visits number block size
# × component size.
_RR_BLOCK = 256


def _rr_root(i: int | np.ndarray, offset: int, n: int) -> np.int64 | np.ndarray:
    """Deterministic uniform random root of RR set i (an id or an array)."""
    return (u01(i, SALT_RR + offset + 0xBEEF) * n).astype(np.int64)


def _rr_sets(
    csr: CSR, probs: np.ndarray, ids: np.ndarray, offset: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rr_id, member) arrays of the RR sets ``ids``, in that order; each
    set lists its root's CC in one live-edge sample level by level."""
    salts = SALT_RR + offset + ids
    roots = _rr_root(ids, offset, csr.n)
    out_t, out_v = [], []
    for lo in range(0, len(ids), _RR_BLOCK):
        tids = np.arange(lo, min(lo + _RR_BLOCK, len(ids)))
        levels = list(block_levels(csr, probs, tids, roots[tids], salts))
        t = np.concatenate([t for t, _ in levels])
        order = np.argsort(t, kind="stable")
        out_t.append(t[order])
        out_v.append(np.concatenate([v for _, v in levels])[order])
    return ids[np.concatenate(out_t)], np.concatenate(out_v)


def _rr_set(csr: CSR, probs: np.ndarray, salt: int, root: int) -> np.ndarray:
    """The RR set of ``root``: its CC in one live-edge sample."""
    root_level = np.array([root], dtype=np.int64)
    return np.concatenate(list(sampled_levels(csr, probs, root_level, salt)))


def generate_rr_sets_local(
    csr: CSR, probs: np.ndarray, theta: int, *, offset: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(rr_id, member) arrays for θ RR sets, driver-side."""
    return _rr_sets(csr, probs, np.arange(theta), offset)


def generate_rr_sets(
    spark: SparkSession, csr: CSR, probs: np.ndarray, theta: int, *, offset: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(rr_id, member) arrays for θ RR sets, one Spark job."""

    def task(shared, ids: np.ndarray) -> pd.DataFrame:
        csr_b, probs_b = shared
        rr_ids, members = _rr_sets(csr_b, probs_b, ids, offset)
        return pd.DataFrame({"rr": rr_ids, "v": members})

    out = map_range(spark, theta, (csr, probs), task, "rr long, v long")
    return out["rr"].to_numpy(), out["v"].to_numpy()


def greedy_max_cover(
    rr_ids: np.ndarray, members: np.ndarray, n: int, theta: int, k: int
) -> tuple[list[int], float]:
    """Greedy maximum coverage; returns (seeds, covered fraction).

    Ties break toward the smallest vertex id not chosen yet (np.argmax
    returns the first maximum, and a chosen seed's count drops to -1),
    matching the selector convention elsewhere.
    """
    alive = np.ones(len(members), dtype=bool)
    cover_count = np.bincount(members, minlength=n)
    covered = np.zeros(theta, dtype=bool)
    seeds: list[int] = []
    for _ in range(min(k, n)):
        s = int(np.argmax(cover_count))
        seeds.append(s)
        cover_count[s] = -1  # its rows die below, so it stays -1
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
) -> dict:
    """Two-phase RIS: pilot OPT estimate, then the full θ-sample run.

    Raises :class:`RRBudgetExceeded` if the projected RR storage blows
    the budget (the '-' entries of paper Tab. 4).
    """
    if not 1 <= k <= csr.n:
        raise ValueError(f"k must be in [1, n={csr.n}], got {k!r}")
    probs = check_probs(csr, probs)
    if not eps > 0:  # NaN fails too
        raise ValueError(f"eps must be positive, got {eps!r}")
    if pilot_theta < 1:
        raise ValueError(f"pilot_theta must be at least 1, got {pilot_theta!r}")
    if backend not in ("local", "spark"):
        raise ValueError(f"unknown backend {backend!r}")
    gen = (
        (lambda th, off: generate_rr_sets(spark, csr, probs, th, offset=off))
        if backend == "spark"
        else (lambda th, off: generate_rr_sets_local(csr, probs, th, offset=off))
    )
    t0 = time.perf_counter()
    pilot_ids, pilot_members = gen(pilot_theta, 0)
    _, pilot_cov = greedy_max_cover(pilot_ids, pilot_members, csr.n, pilot_theta, k)
    opt_hat = max(csr.n * pilot_cov, 1.0)
    theta = min(choose_theta(csr.n, k, eps, opt_hat), theta_cap)
    avg_rr = len(pilot_members) / pilot_theta
    projected = int(theta * avg_rr)
    if projected > entry_budget:
        raise RRBudgetExceeded(
            f"projected {projected} RR entries exceed budget {entry_budget}"
        )
    rr_ids, members = gen(theta, pilot_theta)
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
