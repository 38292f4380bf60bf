"""Shared helpers for the table jobs: session bootstrap + formatting.

Each job is runnable both via ``spark-submit jobs/<name>.py`` and plain
``python jobs/<name>.py`` (the builder creates a local session with the
same settings the pytest fixture uses).
"""
from __future__ import annotations

import os
import sys


def get_spark():
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 8g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("repro-job")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        # Progress bars would fill the committed results/table*.err logs.
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def fmt(x, nd: int = 2) -> str:
    """'-' for budget-exceeded cells, fixed decimals otherwise."""
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.{nd}f}"
    return str(x)


def print_markdown(headers: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    line = lambda cells: "| " + " | ".join(
        c.ljust(w) for c, w in zip(cells, widths)
    ) + " |"
    print(line(headers))
    print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for r in rows:
        print(line(r))
    sys.stdout.flush()
