"""Spark jobs over a range of ids with one shared broadcast.

Every Spark job in the repo has one shape, :func:`map_ids`: map blocks of
ids through a numpy kernel in a pandas-UDF task against one broadcast,
collect. One-shot jobs (sketch construction, MC simulation, RR sets) go
through :func:`map_range`, which owns its broadcast and destroys it once
the rows are collected (or the job fails); ``SparkEvaluator`` keeps one
broadcast for its lifetime and runs one :func:`map_ids` per batch.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark import Broadcast
from pyspark.sql import SparkSession


def map_ids(
    spark: SparkSession,
    n: int,
    bc: Broadcast,
    task: Callable[[object, np.ndarray], pd.DataFrame],
    schema: str,
) -> pd.DataFrame:
    """Rows of ``task(bc.value, ids)`` over the id blocks of ``range(n)``,
    collected in id order, from ``min(n, defaultParallelism)`` partitions:
    ``spark.range`` alone always makes ``defaultParallelism``, and each
    empty one still costs a task that a small evaluation batch would pay."""

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        value = bc.value
        for pdf in batches:
            yield task(value, pdf["id"].to_numpy())

    parts = max(1, min(n, spark.sparkContext.defaultParallelism))
    return spark.range(0, n, 1, parts).mapInPandas(kernel, schema=schema).toPandas()


def map_range(
    spark: SparkSession,
    n: int,
    shared,
    task: Callable[[object, np.ndarray], pd.DataFrame],
    schema: str,
) -> pd.DataFrame:
    """:func:`map_ids` with ``shared`` broadcast for this one job."""
    bc = spark.sparkContext.broadcast(shared)
    try:
        return map_ids(spark, n, bc, task, schema)
    finally:
        bc.destroy()
