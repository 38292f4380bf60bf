"""Every broadcast a Spark entry point makes is destroyed before it returns."""
import pytest
from pyspark import SparkContext

from repro.baselines.ris import generate_rr_sets
from repro.baselines.simulate import estimate_spread
from repro.core.pacim import run_pacim
from repro.core.sketches import build_sketches
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


def test_spark_entry_points_release_broadcasts(spark, made):
    csr = build_csr(rmat(128, 600, seed=5), n=128)
    probs = consistent_probs(csr, 0.12)
    build_sketches(spark, csr, probs, R=4, alpha=0.2)
    estimate_spread(spark, csr, probs, [1, 2], n_sims=16)
    generate_rr_sets(spark, csr, probs, 16)
    run_pacim(spark, csr, probs, R=4, alpha=0.2, k=2, backend="spark")
    assert len(made) == 5  # three one-shot jobs, then sketches + evaluator
    assert not any(b._jbroadcast.isValid() for b in made)
