"""The one Spark job shape: ids in order, and no empty partition."""
import pandas as pd
import pytest
from pyspark import TaskContext

from repro.spark_jobs import map_range


@pytest.mark.parametrize("n", [1, 3, 9])
def test_map_range_uses_one_partition_per_id_up_to_parallelism(spark, n):
    sc = spark.sparkContext
    group = f"map-range-{n}"

    def task(shared, ids):
        return pd.DataFrame({"id": ids + shared,
                             "part": TaskContext.get().partitionId()})

    sc.setJobGroup(group, "partition count")
    try:
        out = map_range(spark, n, 100, task, "id long, part int")
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setJobDescription(None)
    want = min(n, sc.defaultParallelism)
    assert out["id"].tolist() == list(range(100, 100 + n))
    assert out["part"].nunique() == want
    tracker = sc.statusTracker()
    tasks = sum(tracker.getStageInfo(s).numTasks
                for j in tracker.getJobIdsForGroup(group)
                for s in tracker.getJobInfo(j).stageIds)
    assert tasks == want  # an empty partition would still be a task
