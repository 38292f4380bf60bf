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


def test_reused_worker_does_not_reread_zip_archives(spark):
    # A reused worker runs importlib.invalidate_caches() before each task
    # (pyspark's setup_spark_files); every zipimporter still cached then
    # re-reads its whole archive directory.
    def count_reads(shared, ids):
        import importlib
        import zipimport

        read = zipimport._read_directory
        calls = []

        def counted(path):
            calls.append(path)
            return read(path)

        zipimport._read_directory = counted
        try:
            importlib.invalidate_caches()
        finally:
            zipimport._read_directory = read
        return pd.DataFrame({"reads": [len(calls)] * len(ids)})

    n = spark.sparkContext.defaultParallelism
    map_range(spark, n, None, lambda _, ids: pd.DataFrame({"id": ids}), "id long")
    out = map_range(spark, n, None, count_reads, "reads long")  # workers reused
    assert out["reads"].tolist() == [0] * n
