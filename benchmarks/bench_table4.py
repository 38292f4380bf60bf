"""Benchmark for paper Table 4: the four systems, end-to-end, at bench
scale (one scale-free graph, R=16, k=5; Spark backend everywhere).

Full-scale rows: ``python jobs/table4_main.py`` (see EXPERIMENTS.md).
The paper's shape at this scale: Ours₁ fastest, Ours₀.₁ close with far
less auxiliary memory, InfuserMG pays one round per CELF
re-evaluation, Ripples pays θ RR-set generation + cover.
"""
import pytest

from repro.baselines.infusermg import run_infusermg
from repro.baselines.ris import run_ris
from repro.core.pacim import run_pacim
from repro.graphs.csr import build_csr
from repro.graphs.generators import rmat
from repro.graphs.probs import consistent_probs


@pytest.fixture(scope="module")
def graph():
    csr = build_csr(rmat(512, 4000, seed=43), n=512)
    return csr, consistent_probs(csr, 0.1)


def _record(benchmark, res):
    benchmark.extra_info["total_mb"] = round(res["space"]["total_bytes"] / 1e6, 2)
    if "n_eval_jobs" in res:
        benchmark.extra_info["eval_jobs"] = res["n_eval_jobs"]


def test_table4_ours1(benchmark, spark, graph):
    csr, probs = graph
    res = benchmark.pedantic(
        run_pacim, args=(spark, csr, probs),
        kwargs=dict(R=16, alpha=1.0, k=5, selector="wintree", backend="spark"),
        rounds=1, iterations=1,
    )
    _record(benchmark, res)
    assert len(res["seeds"]) == 5


def test_table4_ours01(benchmark, spark, graph):
    csr, probs = graph
    res = benchmark.pedantic(
        run_pacim, args=(spark, csr, probs),
        kwargs=dict(R=16, alpha=0.1, k=5, selector="wintree", backend="spark"),
        rounds=1, iterations=1,
    )
    _record(benchmark, res)
    assert len(res["seeds"]) == 5


def test_table4_infusermg(benchmark, spark, graph):
    csr, probs = graph
    res = benchmark.pedantic(
        run_infusermg, args=(spark, csr, probs),
        kwargs=dict(R=16, k=5, backend="spark", max_eval_jobs=2000),
        rounds=1, iterations=1,
    )
    _record(benchmark, res)
    assert len(res["seeds"]) == 5


def test_table4_ripples(benchmark, spark, graph):
    csr, probs = graph
    res = benchmark.pedantic(
        run_ris, args=(spark, csr, probs),
        kwargs=dict(k=5, eps=0.5, pilot_theta=512, theta_cap=8000,
                    backend="spark"),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["total_mb"] = round(res["space"]["total_bytes"] / 1e6, 2)
    benchmark.extra_info["theta"] = res["theta"]
    assert len(res["seeds"]) == 5
