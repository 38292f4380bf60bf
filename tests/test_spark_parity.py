"""Spark execution paths must agree bit-for-bit with the local kernels:
batch evaluation, MC simulation, RR generation, and the Spark backend's
sketch build, which runs on the driver."""
import collections

import numpy as np
import pytest

from repro.baselines.ris import generate_rr_sets, generate_rr_sets_local
from repro.baselines.simulate import estimate_spread, estimate_spread_local
from repro.core import evaluate as evaluate_mod
from repro.core.celf import celf_select
from repro.core.evaluate import LocalEvaluator, SparkEvaluator
from repro.core.pacim import run_pacim
from repro.core.sketches import build_sketches, build_sketches_local
from repro.core.wintree import wintree_select
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi, rmat
from repro.graphs.probs import consistent_probs, wic_probs


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
    csr, probs = graph
    sk = build_sketches_local(csr, probs, R=8, alpha=alpha)
    ev_s = SparkEvaluator(spark, csr, probs, sk)
    ev_l = LocalEvaluator(csr, probs, sk)
    vs = np.array([0, 3, 17, 200, 255])
    assert np.allclose(ev_s.evaluate(vs), ev_l.evaluate(vs))
    for s in (3, 100):
        ev_s.mark_seed(s)
        ev_l.mark_seed(s)
        assert np.allclose(ev_s.evaluate(vs), ev_l.evaluate(vs))
    assert ev_s.n_reevals == ev_l.n_reevals
    assert ev_s.n_jobs == ev_l.n_jobs
    assert ev_s.n_visits == ev_l.n_visits


def test_selection_parity(spark, graph):
    csr, probs = graph
    sk = build_sketches_local(csr, probs, R=8, alpha=0.5)
    r_spark = wintree_select(SparkEvaluator(spark, csr, probs, sk), 5)
    r_local = celf_select(LocalEvaluator(csr, probs, sk), 5)
    assert r_spark.seeds == r_local.seeds
    assert np.allclose(r_spark.gains, r_local.gains)


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
    s2 = estimate_spread_local(csr, probs, [5, 9, 30], n_sims=128)
    assert s1 == pytest.approx(s2)


def test_spread_parity_wic(spark, graph):
    csr, _ = graph
    probs = wic_probs(csr)
    s1 = estimate_spread(spark, csr, probs, [1, 2], n_sims=64)
    s2 = estimate_spread_local(csr, probs, [1, 2], n_sims=64)
    assert s1 == pytest.approx(s2)


def test_rr_parity(spark):
    csr = build_csr(erdos_renyi(100, 250, seed=23), n=100)
    probs = consistent_probs(csr, 0.2)
    a = generate_rr_sets(spark, csr, probs, 48)
    b = generate_rr_sets_local(csr, probs, 48)

    def group(ids, members):
        d = collections.defaultdict(list)
        for i, v in zip(ids, members):
            d[int(i)].append(int(v))
        return {k: sorted(v) for k, v in d.items()}

    assert group(*a) == group(*b)


@pytest.fixture
def on_spark(monkeypatch):
    """Every evaluation batch of a SparkEvaluator runs as a Spark job."""
    monkeypatch.setattr(evaluate_mod, "_DRIVER_VISITS", 0)


@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_evaluator_parity_through_seeding_as_spark_jobs(spark, graph, alpha, on_spark):
    csr, probs = graph
    sk = build_sketches_local(csr, probs, R=8, alpha=alpha)
    ev_s = SparkEvaluator(spark, csr, probs, sk)
    ev_l = LocalEvaluator(csr, probs, sk)
    vs = np.array([0, 3, 17, 200, 255])
    for s in (None, 3, 100):
        if s is not None:
            ev_s.mark_seed(s)
            ev_l.mark_seed(s)
        assert np.array_equal(ev_s.evaluate(vs), ev_l.evaluate(vs))
    assert (ev_s.n_reevals, ev_s.n_jobs, ev_s.n_visits) == (
        ev_l.n_reevals, ev_l.n_jobs, ev_l.n_visits)
    assert ev_s.n_spark_jobs == ev_s.n_jobs == 3


def test_selection_parity_as_spark_jobs(spark, graph, on_spark):
    csr, probs = graph
    sk = build_sketches_local(csr, probs, R=8, alpha=0.5)
    ev = SparkEvaluator(spark, csr, probs, sk)
    r_spark = wintree_select(ev, 5)
    r_local = celf_select(LocalEvaluator(csr, probs, sk), 5)
    assert r_spark.seeds == r_local.seeds
    assert r_spark.gains == r_local.gains
    assert ev.n_spark_jobs == r_spark.n_jobs - ev.n_cc_jobs


@pytest.mark.parametrize("selector", ["ptree", "wintree"])
def test_batch_placement_changes_no_count(spark, graph, monkeypatch, selector):
    """Below the constant every batch runs on the driver and submits no
    Spark job; at 0 every GetCenter batch is a job, and CC-pass batches
    still run on the driver. Seeds, gains and counts agree."""
    csr, probs = graph
    sc = spark.sparkContext
    evaluate = SparkEvaluator.__dict__["evaluate"]
    tracker = sc.statusTracker()

    def run(group):
        def in_group(ev, vs):
            sc.setJobGroup(group, "evaluation batch")
            try:
                return evaluate(ev, vs)
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
                sc.setJobDescription(None)

        with monkeypatch.context() as m:
            m.setattr(SparkEvaluator, "evaluate", in_group)
            res = run_pacim(spark, csr, probs, R=8, alpha=0.2, k=4,
                            selector=selector, backend="spark")
        return res, len(tracker.getJobIdsForGroup(group))

    driver, driver_jobs = run(f"placement-driver-{selector}")
    monkeypatch.setattr(evaluate_mod, "_DRIVER_VISITS", 0)
    jobs, spark_jobs = run(f"placement-spark-{selector}")
    assert driver["n_spark_jobs"] == driver_jobs == 0
    assert jobs["n_spark_jobs"] == spark_jobs == jobs["n_eval_jobs"] - jobs["n_cc_jobs"] > 0
    assert jobs["n_cc_jobs"] > 0
    for key in ("seeds", "n_reevals", "n_eval_jobs", "n_visits", "n_cc_jobs",
                "n_cc_reevals"):
        assert driver[key] == jobs[key]
    assert np.array_equal(np.array(driver["gains"]).view(np.int64),
                          np.array(jobs["gains"]).view(np.int64))
