"""Benchmark for paper Tables 4, 6 and 7: the four systems, end-to-end,
at bench scale (one scale-free graph, R=16, k=5). Ours₁ and Ours₀.₁ run
under each edge-probability model: Consistent (Tab. 4), Uniform U(0, 0.2)
(Tab. 6) and WIC (Tab. 7); InfuserMG and Ripples under Consistent.

Full-scale rows: ``python jobs/table4_main.py [--model MODEL]`` (see
EXPERIMENTS.md). The paper's shape at this scale: Ours₁ fastest, Ours₀.₁
close with far less auxiliary memory, InfuserMG pays one round per CELF
re-evaluation, Ripples pays θ RR-set generation + cover.
"""
import pytest

from repro.baselines.infusermg import run_infusermg
from repro.baselines.ris import run_ris
from repro.core.pacim import run_pacim
from repro.graphs.csr import build_csr
from repro.graphs.generators import rmat
from repro.graphs.probs import make_probs

# ``make_probs`` arguments of each table's model at bench scale.
MODELS = {
    "consistent": dict(p=0.1),
    "uniform": dict(lo=0.0, hi=0.2),
    "wic": {},
}


@pytest.fixture(scope="module")
def csr():
    return build_csr(rmat(512, 4000, seed=43), n=512)


def _record(benchmark, res):
    benchmark.extra_info["total_mb"] = round(res["space"]["total_bytes"] / 1e6, 2)
    if "n_eval_jobs" in res:
        benchmark.extra_info["eval_jobs"] = res["n_eval_jobs"]


@pytest.mark.parametrize("alpha", [1.0, 0.1])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_table4_ours(benchmark, spark, csr, model, alpha):
    probs = make_probs(csr, model, **MODELS[model])
    res = benchmark.pedantic(
        run_pacim, args=(spark, csr, probs),
        kwargs=dict(R=16, alpha=alpha, k=5, selector="wintree"),
        rounds=1, iterations=1,
    )
    _record(benchmark, res)
    assert len(res["seeds"]) == 5


def test_table4_infusermg(benchmark, csr):
    probs = make_probs(csr, "consistent", **MODELS["consistent"])
    res = benchmark.pedantic(
        run_infusermg, args=(csr, probs),
        kwargs=dict(R=16, k=5, max_eval_jobs=2000),
        rounds=1, iterations=1,
    )
    _record(benchmark, res)
    assert len(res["seeds"]) == 5


def test_table4_ripples(benchmark, spark, csr):
    probs = make_probs(csr, "consistent", **MODELS["consistent"])
    res = benchmark.pedantic(
        run_ris, args=(spark, csr, probs),
        kwargs=dict(k=5, eps=0.5, pilot_theta=512, theta_cap=8000),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["total_mb"] = round(res["space"]["total_bytes"] / 1e6, 2)
    benchmark.extra_info["theta"] = res["theta"]
    assert len(res["seeds"]) == 5
