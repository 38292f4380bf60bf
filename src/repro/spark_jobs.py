"""One-shot Spark jobs over a range of ids with one shared broadcast.

Sketch construction, MC simulation and RR-set generation all have the
same shape: broadcast the graph once, map blocks of ids through a numpy
kernel inside ``mapInPandas``, collect. :func:`map_range` is that shape;
it owns the broadcast and destroys it once the rows are collected (or the
job fails), so a finished job holds no executor memory.
"""
from __future__ import annotations

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
    """Collected rows of ``task(shared, ids)`` over the id blocks of
    ``spark.range(n)``, with ``shared`` broadcast once."""
    bc = spark.sparkContext.broadcast(shared)

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        value = bc.value
        for pdf in batches:
            yield task(value, pdf["id"].to_numpy())

    try:
        # range already spreads ids over defaultParallelism partitions
        return spark.range(n).mapInPandas(kernel, schema=schema).toPandas()
    finally:
        bc.destroy()
