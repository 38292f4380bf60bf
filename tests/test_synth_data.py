"""Tests for the suite-graph DataFrame entrypoint."""
from pyspark.sql import functions as F

from repro import synth_data
from repro.oracle import assert_equivalent


def test_im_graph_canonical(spark):
    df = synth_data.im_graph(spark, "ROAD-A")
    assert df.columns == ["u", "v"]
    bad = df.where(F.col("u") >= F.col("v")).count()
    assert bad == 0
    assert df.count() == 23980


def test_im_graph_deterministic(spark):
    a = synth_data.im_graph(spark, "KNN-A").toPandas()
    b = synth_data.im_graph(spark, "KNN-A").toPandas()
    assert a.equals(b)


def test_im_graph_oracle_smoke(spark):
    """A Spark aggregation over a suite graph agrees with DuckDB."""
    edges = synth_data.im_graph(spark, "ROAD-A")
    agg = edges.groupBy("u").agg(
        F.sum("v").alias("sum_v"),
        F.count("*").alias("cnt"),
    )
    assert_equivalent(
        agg,
        "SELECT u, sum(v) AS sum_v, count(*) AS cnt FROM edges GROUP BY u",
        edges=edges,
    )
