"""Micro-benchmark of the Spark job floor.

``test_spark_job_floor`` times one ``map_range`` job whose task only
echoes its ids, over 1 id (one task) and 4 ids (up to four tasks, one per
id at ``defaultParallelism`` >= 4). An MC or RR-set job is one such job
plus its kernel, so the median here is the per-job cost that no kernel
speed-up removes. Warm-up rounds start the reused Python workers first.

    PYTHONPATH=src python -m pytest benchmarks/bench_spark_job.py -p no:cacheprovider
"""
import pandas as pd
import pytest

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
