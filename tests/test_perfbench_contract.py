"""The names ``perfbench/tracing.py`` patches from outside must stay put.

The benchmark times each layer by rebinding module globals and class
attributes of ``repro``; a rename there would break the benchmark without
failing any other test. This imports the tracing module as it is and
enters its patch contexts around tiny driver-local and Spark runs.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.pacim import run_pacim
from repro.graphs.csr import build_csr
from repro.graphs.generators import rmat
from repro.graphs.probs import consistent_probs

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_instrumented_counts_kernel_calls(tracing):
    csr = build_csr(rmat(128, 600, seed=3), n=128)
    probs = consistent_probs(csr, 0.15)
    tracer, probe = tracing.Tracer(), tracing.LayerProbe()
    with tracing.instrumented(tracer, probe):
        res = run_pacim(None, csr, probs, R=4, alpha=0.3, k=2,
                        selector="wintree", backend="local")
    assert len(res["seeds"]) == 2
    assert probe.get_center.calls > 0
    assert probe.u01.calls > 0
    assert probe.pairs > 0
    assert {s.name for s in tracer.spans} >= {
        "core.sketches.build", "core.selector.wintree",
        "core.evaluate.evaluate", "core.evaluate.mark_seed",
    }


def test_job_labels_patch_spark_evaluate(tracing):
    from repro.core.evaluate import SparkEvaluator

    evaluate = SparkEvaluator.__dict__["evaluate"]
    with tracing.JobLabels(None, "t", "wintree").installed():
        assert SparkEvaluator.__dict__["evaluate"] is not evaluate
    assert SparkEvaluator.__dict__["evaluate"] is evaluate


def test_instrumented_spark_run_labels_every_evaluation_job(tracing, spark):
    sc = spark.sparkContext
    csr = build_csr(rmat(128, 600, seed=3), n=128)
    probs = consistent_probs(csr, 0.15)
    tracer, probe = tracing.Tracer(), tracing.LayerProbe()
    try:
        with (tracing.instrumented(tracer, probe),
              tracing.JobLabels(sc, "t", "wintree").installed()):
            res = run_pacim(spark, csr, probs, R=4, alpha=0.3, k=2,
                            selector="wintree", backend="spark")
        last = sc.getLocalProperty("spark.job.description")
    finally:
        sc.setJobDescription(None)
    evaluations = [s for s in tracer.spans if s.name == "core.evaluate.evaluate"]
    assert len(evaluations) == res["n_eval_jobs"] > 0
    assert last.startswith("t:wintree:seed=")
