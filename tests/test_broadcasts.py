"""Every broadcast a Spark entry point makes is destroyed before it
returns, and an entry point given no session makes none."""
import numpy as np
import pytest
from pyspark import SparkContext
from pyspark.errors import PythonException

from repro.baselines.ris import generate_rr_sets
from repro.baselines.simulate import estimate_spread
from repro.core.evaluate import evaluate_batch
from repro.core.pacim import run_pacim
from repro.core.sketches import build_sketches, build_sketches_local
from repro.graphs.csr import build_csr
from repro.graphs.generators import rmat
from repro.graphs.probs import consistent_probs
from repro.spark_jobs import map_range


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


def test_spark_entry_points_release_broadcasts(spark, made):
    """Every Spark entry point, run once, destroys the broadcasts it made."""
    csr = build_csr(rmat(128, 600, seed=5), n=128)
    probs = consistent_probs(csr, 0.12)
    build_sketches(spark, csr, probs, R=4, alpha=0.2)
    estimate_spread(spark, csr, probs, [1, 2], n_sims=16)
    generate_rr_sets(spark, csr, probs, 16)
    run_pacim(spark, csr, probs, R=4, alpha=0.2, k=2, backend="spark")
    # MC and RR; sketch builds and evaluation batches run on the driver
    assert len(made) == 2
    assert not any(b._jbroadcast.isValid() for b in made)


def test_driver_runs_make_no_broadcast(spark, made):
    """Given no session, MC and RR sets run on the driver: no broadcast,
    and the same spread and RR sets as their Spark jobs."""
    csr = build_csr(rmat(128, 600, seed=5), n=128)
    probs = consistent_probs(csr, 0.12)
    spread = estimate_spread(None, csr, probs, [1, 2], n_sims=16)
    rr = generate_rr_sets(None, csr, probs, 16)
    assert made == []
    assert spread == estimate_spread(spark, csr, probs, [1, 2], n_sims=16)
    for a, b in zip(rr, generate_rr_sets(spark, csr, probs, 16)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert len(made) == 2


def test_failed_evaluation_job_releases_its_broadcast(spark, made):
    """A ``map_range`` job whose evaluation task raises still destroys the
    broadcast it made."""
    csr = build_csr(rmat(128, 600, seed=5), n=128)
    probs = consistent_probs(csr, 0.12)
    sk = build_sketches_local(csr, probs, R=4, alpha=0.2)

    def task(shared, ids):
        csr, probs, sk = shared
        seeds_mask = np.zeros(csr.n, dtype=bool)
        zeroed = np.zeros(sk.cc.shape, dtype=bool)
        evaluate_batch(csr, probs, sk.center_index, sk.cc, ids + csr.n,
                       seeds_mask, zeroed)  # ids out of range: IndexError

    with pytest.raises(PythonException, match="IndexError"):
        map_range(spark, 1, (csr, probs, sk), task, "delta double")
    assert len(made) == 1
    assert not made[0]._jbroadcast.isValid()
