"""Micro-benchmarks of the Spark job floor and of batch placement.

``test_spark_job_floor`` times one ``map_range`` job whose task only
echoes its ids, over 1 id (one task) and 4 ids (up to four tasks, one per
id at ``defaultParallelism`` >= 4). An evaluation round run on Spark is
one such job plus its kernel, so the median here is the per-round cost
that no kernel speed-up removes. Warm-up rounds start the reused Python
workers first.

``test_evaluate_placement`` times ``SparkEvaluator``'s GetCenter batch
(``_batch``) on the batches of ``sf-spark`` selections (SF-A': RMAT
n=1024, p=0.1, R=32, α=0.1, Win-Tree, k=5) at three center seeds, whose
564-vertex waves span the crossover: each batch of 1 / 28 / 224 / 564
vertices, after the seeds marked before it, forced onto the driver or
into a Spark job. ``extra_info`` records the visits the placement rule
predicted for the batch in that selection (the unit of
``_DRIVER_VISITS``) and its actual GetCenter visits. In the selection
itself the 224- and 564-vertex waves are predicted above R·n and settled
by the driver's CC pass, which is never placed; the GetCenter timings
still set the constant for BFS batches.

Setting ``_DRIVER_VISITS`` takes several runs of this file: a job's
median moves between runs far more than the driver's, and drops once the
session has run other jobs. On a 4-core box, over 5 runs of
``test_evaluate_placement``, the 416k-visit batch took 150–261 ms as a
job, and within one run the three 1-vertex jobs read 104, 105 and 451 ms;
a single run can put the crossover anywhere from ~220k to ~420k.

    PYTHONPATH=src python -m pytest benchmarks/bench_spark_job.py -p no:cacheprovider
"""
import numpy as np
import pandas as pd
import pytest

from repro.core import evaluate
from repro.core.evaluate import SparkEvaluator
from repro.core.sketches import build_sketches_local
from repro.core.wintree import wintree_select
from repro.graphs.csr import build_csr
from repro.graphs.generators import rmat
from repro.graphs.probs import consistent_probs
from repro.spark_jobs import map_range


def _echo(shared, ids):
    return pd.DataFrame({"id": ids})


@pytest.mark.parametrize("n_ids", [1, 4])
def test_spark_job_floor(benchmark, spark, n_ids):
    out = benchmark.pedantic(
        map_range, args=(spark, n_ids, None, _echo, "id long"),
        rounds=10, iterations=1, warmup_rounds=2,
    )
    benchmark.extra_info["tasks"] = min(n_ids, spark.sparkContext.defaultParallelism)
    assert out["id"].tolist() == list(range(n_ids))


@pytest.fixture(scope="module", params=[710, 0, 700])
def sf_spark_batches(request, spark):
    """SF-A' inputs of ``sf-spark`` at one center seed, and the evaluation
    batches of its Win-Tree selection by size: (vertices, the seeds marked
    before it, predicted visits, actual visits)."""
    csr = build_csr(rmat(1024, 8000, seed=31), n=1024)
    probs = consistent_probs(csr, 0.1)
    sk = build_sketches_local(csr, probs, R=32, alpha=0.1, center_seed=request.param)
    batches = {}

    class Recorder(SparkEvaluator):
        def evaluate(self, vs):
            _, visits = evaluate.evaluate_batch(
                csr, probs, sk.center_index, sk.cc, vs, self.seeds_mask, self.zeroed)
            batches.setdefault(len(vs), (vs, list(self.seeds),
                                         self._predicted_visits(len(vs)), visits))
            return super().evaluate(vs)

    wintree_select(Recorder(spark, csr, probs, sk), 5)
    return csr, probs, sk, batches


@pytest.mark.parametrize("place", ["driver", "spark"])
@pytest.mark.parametrize("size", [1, 28, 224, 564])
def test_evaluate_placement(benchmark, spark, sf_spark_batches, monkeypatch, place, size):
    csr, probs, sk, batches = sf_spark_batches
    vs, seeds, predicted, visits = batches[size]
    monkeypatch.setattr(evaluate, "_DRIVER_VISITS", np.inf if place == "driver" else 0)
    ev = SparkEvaluator(spark, csr, probs, sk)
    for s in seeds:
        ev.mark_seed(s)
    calls = []

    def batch():
        # ``_batch`` is the GetCenter batch alone: the CC pass, which settles
        # the larger waves in a selection, is never placed.
        calls.append(1)
        return ev._batch(vs)

    benchmark.pedantic(batch, rounds=10, iterations=1, warmup_rounds=2)
    benchmark.extra_info.update(predicted_visits=int(predicted), visits=visits)
    assert ev.n_spark_jobs == (len(calls) if place == "spark" else 0)
