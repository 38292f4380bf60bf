"""Jobs over a range of ids with one shared value, on Spark or on the driver.

Every job in the repo that can run on Spark has one shape,
:func:`map_range`: map blocks of ids through a numpy kernel against one
shared value and collect the rows in id order. A job runs on Spark iff it
is given a session: then the shared value is broadcast, the kernel runs in
a pandas-UDF task, and the broadcast is destroyed once the rows are
collected (or the job fails), so no Spark state outlives one call. Given
``None``, the kernel runs once on the driver over every id. MC simulation
and RR sets run through it; sketch construction and every evaluation
batch run on the driver. Each Spark task evicts its worker's cached zip
importers, which halves a small job.
"""
from __future__ import annotations

import sys
import zipimport
from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession


def map_range(
    spark: SparkSession | None,
    n: int,
    shared,
    task: Callable[[object, np.ndarray], pd.DataFrame],
    schema: str,
) -> pd.DataFrame:
    """Rows of ``task(shared, ids)`` over the id blocks of ``range(n)``,
    collected in id order.

    With ``spark=None`` this is ``task(shared, np.arange(n))`` on the
    driver: no broadcast, no job. Otherwise ``shared`` is broadcast for
    this one job, over ``min(n, defaultParallelism)`` partitions:
    ``spark.range`` alone always makes ``defaultParallelism``, and each
    empty one still costs a task that a small job would pay.

    A reused worker runs ``importlib.invalidate_caches()`` before each task
    (``pyspark/worker_util.py:144``), and in Python 3.11 every cached
    ``zipimporter`` then re-reads the whole ``pyspark.zip`` directory: over
    half of a one-task job. So the kernel first evicts them from
    ``sys.path_importer_cache``. Loaded modules stay in ``sys.modules``, and
    a later zip import reuses the directory ``zipimport`` already holds."""
    if spark is None:
        return task(shared, np.arange(n))

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
