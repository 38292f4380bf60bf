"""Benchmark for paper Table 5: CELF vs P-tree vs Win-Tree selection on
shared sketches (counts + wall time at bench scale, on the driver, where
every evaluation batch runs).

Full-scale rows: ``python jobs/table5_evals.py`` (see EXPERIMENTS.md).
"""
import pytest

from repro.core.celf import celf_select
from repro.core.evaluate import LocalEvaluator
from repro.core.ptree import ptree_select
from repro.core.sketches import build_sketches_local
from repro.core.wintree import wintree_select
from repro.graphs.csr import build_csr
from repro.graphs.generators import rmat
from repro.graphs.probs import consistent_probs


@pytest.fixture(scope="module")
def setup():
    csr = build_csr(rmat(4096, 33000, seed=45), n=4096)
    probs = consistent_probs(csr, 0.1)
    sk = build_sketches_local(csr, probs, R=32, alpha=1.0)
    return csr, probs, sk


_SELECTORS = {"celf": celf_select, "ptree": ptree_select, "wintree": wintree_select}


@pytest.mark.parametrize("name", sorted(_SELECTORS))
def test_table5_selector(benchmark, setup, name):
    csr, probs, sk = setup
    def run():
        return _SELECTORS[name](LocalEvaluator(csr, probs, sk), 50)
    res = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["n_reevals"] = res.n_reevals
    benchmark.extra_info["n_jobs"] = res.n_jobs
    assert len(res.seeds) == 50
