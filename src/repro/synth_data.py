"""The reproduction's graph suite as Spark DataFrames."""
from pyspark.sql import DataFrame, SparkSession

from repro.graphs.generators import suite_graph, to_spark_edges


def im_graph(spark: SparkSession, name: str) -> DataFrame:
    """Undirected edge list (columns u, v; u < v) for a graph of the
    PaC-IM reproduction suite (see ``repro.graphs.generators.SUITE``)."""
    edges, _, _ = suite_graph(name)
    return to_spark_edges(spark, edges)
