"""Spark runs must agree bit-for-bit with driver runs: MC simulation and
RR generation run as ``map_range`` jobs on Spark iff given a session; the
sketch build and every evaluation batch run on the driver either way."""
import collections

import numpy as np
import pytest

from repro.baselines.ris import generate_rr_sets
from repro.baselines.simulate import estimate_spread
from repro.core.pacim import run_pacim
from repro.core.sketches import build_sketches, build_sketches_local
from repro.graphs.csr import build_csr
from repro.graphs.generators import rmat
from repro.graphs.probs import consistent_probs, wic_probs
from tests.conftest import erdos_renyi


@pytest.fixture(scope="module")
def graph():
    csr = build_csr(rmat(256, 1400, seed=19), n=256)
    return csr, consistent_probs(csr, 0.12)


@pytest.mark.parametrize("alpha", [0.1, 1.0])
def test_sketch_build_parity(spark, graph, alpha):
    """The Spark backend's build is the driver build, bit for bit, and
    submits no Spark job."""
    csr, probs = graph
    sc = spark.sparkContext
    group = f"sketch-build-{alpha}"
    sc.setJobGroup(group, "sketch build")
    try:
        a = build_sketches(spark, csr, probs, R=8, alpha=alpha)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setJobDescription(None)
    assert sc.statusTracker().getJobIdsForGroup(group) == []
    b = build_sketches_local(csr, probs, R=8, alpha=alpha)
    for key in ("centers", "center_index", "cc", "init_scores"):
        x, y = getattr(a, key), getattr(b, key)
        assert x.dtype == y.dtype and np.array_equal(x, y), key


@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_evaluator_parity_through_seeding(spark, graph, alpha):
    """Every evaluation and MarkSeed count, and every gain bit, is the same
    on both backends."""
    csr, probs = graph
    kw = dict(R=8, alpha=alpha, k=5, selector="celf")
    r_s = run_pacim(spark, csr, probs, backend="spark", **kw)
    r_l = run_pacim(None, csr, probs, backend="local", **kw)
    for key in ("seeds", "n_reevals", "n_eval_jobs", "n_visits", "n_cc_jobs",
                "n_cc_reevals"):
        assert r_s[key] == r_l[key], key
    assert np.array_equal(np.array(r_s["gains"]).view(np.int64),
                          np.array(r_l["gains"]).view(np.int64))


def test_selection_parity(spark, graph):
    """Win-Tree on the Spark backend picks local CELF's seeds."""
    csr, probs = graph
    kw = dict(R=8, alpha=0.5, k=5)
    r_spark = run_pacim(spark, csr, probs, selector="wintree", backend="spark", **kw)
    r_local = run_pacim(None, csr, probs, selector="celf", backend="local", **kw)
    assert r_spark["seeds"] == r_local["seeds"]
    assert np.allclose(r_spark["gains"], r_local["gains"])


def test_run_pacim_spark_backend(spark, graph):
    csr, probs = graph
    r_s = run_pacim(spark, csr, probs, R=8, alpha=0.2, k=4,
                    selector="ptree", backend="spark")
    r_l = run_pacim(None, csr, probs, R=8, alpha=0.2, k=4,
                    selector="ptree", backend="local")
    assert r_s["seeds"] == r_l["seeds"]
    assert r_s["n_reevals"] == r_l["n_reevals"]
    assert r_s["space"] == r_l["space"]


def test_spread_parity(spark, graph):
    csr, probs = graph
    s1 = estimate_spread(spark, csr, probs, [5, 9, 30], n_sims=128)
    s2 = estimate_spread(None, csr, probs, [5, 9, 30], n_sims=128)
    assert s1 == s2


def test_spread_parity_wic(spark, graph):
    csr, _ = graph
    probs = wic_probs(csr)
    s1 = estimate_spread(spark, csr, probs, [1, 2], n_sims=64)
    s2 = estimate_spread(None, csr, probs, [1, 2], n_sims=64)
    assert s1 == s2


def test_rr_parity(spark):
    csr = build_csr(erdos_renyi(100, 250, seed=23), n=100)
    probs = consistent_probs(csr, 0.2)
    a = generate_rr_sets(spark, csr, probs, 48)
    b = generate_rr_sets(None, csr, probs, 48)

    def group(ids, members):
        d = collections.defaultdict(list)
        for i, v in zip(ids, members):
            d[int(i)].append(int(v))
        return {k: sorted(v) for k, v in d.items()}

    assert group(*a) == group(*b)
