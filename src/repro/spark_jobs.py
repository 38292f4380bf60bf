"""Spark jobs over a range of ids with one shared broadcast.

Every Spark job in the repo has one shape, :func:`map_ids`: map blocks of
ids through a numpy kernel in a pandas-UDF task against one broadcast,
collect. One-shot jobs (sketch construction, MC simulation, RR sets) go
through :func:`map_range`, which owns its broadcast and destroys it once
the rows are collected (or the job fails); ``SparkEvaluator`` keeps one
broadcast for its lifetime and runs one :func:`map_ids` per batch. Each
task evicts its worker's cached zip importers, which halves a small job.
"""
from __future__ import annotations

import sys
import zipimport
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
    empty one still costs a task that a small evaluation batch would pay.

    A reused worker runs ``importlib.invalidate_caches()`` before each task
    (``pyspark/worker_util.py:144``), and in Python 3.11 every cached
    ``zipimporter`` then re-reads the whole ``pyspark.zip`` directory: over
    half of a one-task job. So the kernel first evicts them from
    ``sys.path_importer_cache``. Loaded modules stay in ``sys.modules``, and
    a later zip import reuses the directory ``zipimport`` already holds."""

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for path, finder in list(sys.path_importer_cache.items()):
            if isinstance(finder, zipimport.zipimporter):
                del sys.path_importer_cache[path]
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
