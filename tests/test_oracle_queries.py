"""DuckDB oracle checks for every Spark aggregation a table consumes.

``assert_equivalent`` runs the same SQL on DuckDB over the identical
input and diffs sorted rows — catching wrong joins/aggregations rather
than just "it ran".
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.cc.local_cc import cc_labels
from repro.core.sketches import build_sketches_local, sampled_arcs
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi, to_spark_edges
from repro.graphs.probs import consistent_probs
from repro.hashing import SALT_SKETCH
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def gdata():
    edges = erdos_renyi(150, 400, seed=29)
    csr = build_csr(edges, n=150)
    return edges, csr, consistent_probs(csr, 0.2)


def test_degree_table(spark, gdata):
    edges, _, _ = gdata
    edf = to_spark_edges(spark, edges)
    deg = (
        edf.select(F.col("u").alias("vid"))
        .union(edf.select(F.col("v").alias("vid")))
        .groupBy("vid")
        .agg(F.count("*").alias("degree"))
    )
    assert_equivalent(
        deg,
        """
        SELECT vid, count(*) AS degree FROM (
            SELECT u AS vid FROM edges UNION ALL SELECT v FROM edges
        ) GROUP BY vid
        """,
        edges=pd.DataFrame({"u": edges[:, 0], "v": edges[:, 1]}),
    )


def test_degree_table_matches_csr(spark, gdata):
    edges, csr, _ = gdata
    edf = to_spark_edges(spark, edges)
    deg = (
        edf.select(F.col("u").alias("vid"))
        .union(edf.select(F.col("v").alias("vid")))
        .groupBy("vid")
        .agg(F.count("*").alias("degree"))
        .toPandas()
        .set_index("vid")["degree"]
    )
    want = csr.degrees()
    for vid, d in deg.items():
        assert want[vid] == d


def test_sampled_edge_counts_per_sketch(spark, gdata):
    """#live edges per sketch, computed in Spark, checked by DuckDB."""
    edges, csr, probs = gdata
    R = 6
    rows = []
    for r in range(R):
        us, vs = sampled_arcs(csr, probs, SALT_SKETCH + r)
        mask = us < vs  # one row per undirected live edge
        rows.append(pd.DataFrame({"r": r, "u": us[mask], "v": vs[mask]}))
    live = pd.concat(rows, ignore_index=True)
    sdf = spark.createDataFrame(live)
    counts = sdf.groupBy("r").agg(F.count("*").alias("m_live"))
    assert_equivalent(
        counts,
        "SELECT r, count(*) AS m_live FROM live GROUP BY r",
        live=live,
    )


def test_cc_size_histogram(spark, gdata):
    """CC-size histogram of a sampled graph: Spark group-by over the
    local CC labels vs DuckDB over the same labels."""
    edges, csr, probs = gdata
    us, vs = sampled_arcs(csr, probs, SALT_SKETCH + 2)
    lab_local = cc_labels(csr.n, us, vs)
    incident = np.unique(np.concatenate([us, vs]))
    local_pdf = pd.DataFrame({"label": lab_local[incident]})
    hist = (
        spark.createDataFrame(local_pdf)
        .groupBy("label")
        .agg(F.count("*").alias("cc_size"))
        .groupBy("cc_size")
        .agg(F.count("*").alias("n_components"))
    )
    assert_equivalent(
        hist,
        """
        SELECT cc_size, count(*) AS n_components FROM (
            SELECT label, count(*) AS cc_size FROM labels GROUP BY label
        ) GROUP BY cc_size
        """,
        labels=local_pdf,
    )


def test_topk_init_scores(spark, gdata):
    """Top-10 initial CELF scores as a Spark aggregation vs DuckDB."""
    edges, csr, probs = gdata
    R = 5
    sk = build_sketches_local(csr, probs, R=R, alpha=1.0)
    per_sketch = []
    for r in range(R):
        us, vs = sampled_arcs(csr, probs, SALT_SKETCH + r)
        lab = cc_labels(csr.n, us, vs)
        sizes = np.bincount(lab, minlength=csr.n)[lab]
        per_sketch.append(pd.DataFrame({"vid": np.arange(csr.n), "cc_size": sizes}))
    long = pd.concat(per_sketch, ignore_index=True)
    sdf = spark.createDataFrame(long)
    top = (
        sdf.groupBy("vid")
        .agg(F.avg("cc_size").alias("score"))
        .orderBy(F.desc("score"), F.asc("vid"))
        .limit(10)
    )
    assert_equivalent(
        top,
        """
        SELECT vid, avg(cc_size) AS score FROM long
        GROUP BY vid ORDER BY score DESC, vid ASC LIMIT 10
        """,
        long=long,
    )
    got = top.toPandas().sort_values(["score", "vid"], ascending=[False, True])
    want_order = np.lexsort((np.arange(csr.n), -sk.init_scores))[:10]
    assert got["vid"].tolist() == want_order.tolist()
