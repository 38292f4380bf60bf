"""Spark jobs over a range of ids with one shared broadcast.

Every Spark job in the repo has one shape, :func:`map_range`: broadcast
one shared value, map blocks of ids through a numpy kernel in a
pandas-UDF task against it, collect, and destroy the broadcast once the
rows are collected (or the job fails). Sketch construction, MC
simulation, RR sets and each evaluation batch large enough to pay for a
job run through it, so no Spark state outlives one call. Each task
evicts its worker's cached zip importers, which halves a small job.
"""
from __future__ import annotations

import sys
import zipimport
from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession


def map_range(
    spark: SparkSession,
    n: int,
    shared,
    task: Callable[[object, np.ndarray], pd.DataFrame],
    schema: str,
) -> pd.DataFrame:
    """Rows of ``task(shared, ids)`` over the id blocks of ``range(n)``,
    collected in id order, with ``shared`` broadcast for this one job, from
    ``min(n, defaultParallelism)`` partitions: ``spark.range`` alone always
    makes ``defaultParallelism``, and each empty one still costs a task
    that a small evaluation batch would pay.

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
    bc = spark.sparkContext.broadcast(shared)
    try:
        return spark.range(0, n, 1, parts).mapInPandas(kernel, schema=schema).toPandas()
    finally:
        bc.destroy()
