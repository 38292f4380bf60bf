"""Benchmark for paper Table 7 (WIC edge probabilities): PaC-IM
variants under p_uv = 2/(d_u + d_v) at bench scale.

Full-scale rows: ``python jobs/table4_main.py --model wic`` (see
EXPERIMENTS.md).
"""
import pytest

from repro.core.pacim import run_pacim
from repro.graphs.csr import build_csr
from repro.graphs.generators import rmat
from repro.graphs.probs import wic_probs


@pytest.fixture(scope="module")
def graph():
    csr = build_csr(rmat(512, 4000, seed=49), n=512)
    return csr, wic_probs(csr)


@pytest.mark.parametrize("alpha", [1.0, 0.1])
def test_table7_wic(benchmark, spark, graph, alpha):
    csr, probs = graph
    res = benchmark.pedantic(
        run_pacim, args=(spark, csr, probs),
        kwargs=dict(R=16, alpha=alpha, k=5, selector="wintree", backend="spark"),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["total_mb"] = round(res["space"]["total_bytes"] / 1e6, 2)
    assert len(res["seeds"]) == 5
