"""Every broadcast a Spark entry point makes is destroyed before it returns."""
import numpy as np
import pytest
from pyspark import SparkContext
from pyspark.errors import PythonException

from repro.baselines.ris import generate_rr_sets
from repro.baselines.simulate import estimate_spread
from repro.core import evaluate as evaluate_mod
from repro.core.evaluate import SparkEvaluator
from repro.core.pacim import run_pacim
from repro.core.sketches import build_sketches, build_sketches_local
from repro.graphs.csr import build_csr
from repro.graphs.generators import rmat
from repro.graphs.probs import consistent_probs


@pytest.fixture
def made(monkeypatch):
    """The broadcasts made while the test runs."""
    out = []
    broadcast = SparkContext.broadcast

    def recorded(sc, value):
        out.append(broadcast(sc, value))
        return out[-1]

    monkeypatch.setattr(SparkContext, "broadcast", recorded)
    return out


def _entry_points(spark) -> dict:
    """Run every Spark entry point once; ``run_pacim``'s result."""
    csr = build_csr(rmat(128, 600, seed=5), n=128)
    probs = consistent_probs(csr, 0.12)
    build_sketches(spark, csr, probs, R=4, alpha=0.2)
    estimate_spread(spark, csr, probs, [1, 2], n_sims=16)
    generate_rr_sets(spark, csr, probs, 16)
    return run_pacim(spark, csr, probs, R=4, alpha=0.2, k=2, backend="spark")


def test_spark_entry_points_release_broadcasts(spark, made):
    res = _entry_points(spark)
    assert res["n_spark_jobs"] == 0
    assert len(made) == 2  # MC and RR; both sketch builds run on the driver
    assert not any(b._jbroadcast.isValid() for b in made)


def test_evaluation_jobs_release_broadcasts(spark, made, monkeypatch):
    monkeypatch.setattr(evaluate_mod, "_DRIVER_VISITS", 0)
    res = _entry_points(spark)
    assert res["n_spark_jobs"] > 0
    assert len(made) == 2 + res["n_spark_jobs"]  # one per evaluation job
    assert not any(b._jbroadcast.isValid() for b in made)


def test_failed_evaluation_job_releases_its_broadcast(spark, made, monkeypatch):
    monkeypatch.setattr(evaluate_mod, "_DRIVER_VISITS", 0)
    csr = build_csr(rmat(128, 600, seed=5), n=128)
    probs = consistent_probs(csr, 0.12)
    sk = build_sketches_local(csr, probs, R=4, alpha=0.2)
    ev = SparkEvaluator(spark, csr, probs, sk)
    # evaluate rejects bad vertex ids before placement, so the task fails
    # on a seed id instead: out of range only inside the task.
    ev.seeds.append(csr.n + 5)
    with pytest.raises(PythonException, match="IndexError"):
        ev.evaluate(np.array([3]))
    assert ev.n_spark_jobs == ev.n_jobs == 0
    assert len(made) == 1
    assert not made[0]._jbroadcast.isValid()
