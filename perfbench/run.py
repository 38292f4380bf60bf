"""Time-to-seeds benchmark for PaC-IM.

Run from the repository root:

    python3 perfbench/run.py --workload sf-spark --seed 0 --seconds 40 --trace 0

One process runs one workload (see ``workloads.py``) as a closed loop with
one client: a selection (``run_pacim``: sketches, then k seeds), then a
Monte-Carlo influence estimate of the seeds, then the next selection, until
the next one would overrun ``--seconds``. Spark workloads run at
``local[N]``, N = min(4, cores).

Every selection is checked: its seeds and gains must equal, bit for bit, an
untimed alpha=1 driver-local reference on the same graph, probabilities and
R, and its MC influence must equal the driver-local MC estimate of the
reference seeds. A mismatch or an exception is a failed operation.

``--trace 0`` reports the end-to-end metrics. ``select_s``, ``seeds_s`` and
``mc_s`` are means over the run's selections, i.e. run time per completed
selection, the inverse of the closed loop's throughput: on a shared host
whose CPU speed flips between two levels every few seconds, a per-run
median jumps between the levels while the mean moves smoothly, so the mean
is the steadier figure (see ``calibration.json``). The report also prints
each one's median and high percentile. ``setup_s`` is the median of
several set-ups.

``--trace 1`` alternates untraced and traced selections and reports
per-layer metrics, medians over the traced selections: spans around every
layer call, call counters on the evaluation kernel, broadcast counts and
the Spark event log of the benchmark's own session. ``trace.overhead_s`` is
traced minus untraced ``seeds_s``. Spans are written to
``.perfbench/spans.jsonl``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
All scratch files (Spark local dirs, temp files, event logs) stay under
``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUPS = 5  # set-ups per run; setup_s is their median
WARMUP_JOBS = 3  # extra untimed sketch-build and MC jobs on Spark
SPARK_CORES = min(4, len(os.sched_getaffinity(0)))

E2E_UNITS = {
    "setup_s": "s", "select_s": "s", "seeds_s": "s", "mc_s": "s",
    "space_mb": "MB", "peak_rss_mb": "MB", "influence_mc": "vertices",
}


def prepare_process() -> None:
    """Point every scratch path of this process, the Spark JVM and its
    Python workers into ``WORK``, and make ``src`` importable everywhere."""
    shutil.rmtree(WORK, ignore_errors=True)
    for d in ("tmp", "local", "events"):
        (WORK / d).mkdir(parents=True)
    tmp = str(WORK / "tmp")
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "local")
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # spark-submit's launcher JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_CORES}] --driver-memory 2g "
        f"--driver-java-options {shlex.quote(java_opts)} pyspark-shell"
    )


def start_spark(trace: bool):
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.master(f"local[{SPARK_CORES}]")
        .appName("perfbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(WORK / "local"))
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .config("spark.sql.shuffle.partitions", str(4 * SPARK_CORES))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
    )
    if trace:
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", str(WORK / "events"))
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait for the JVM to exit (it
    exits when its stdin closes; its Python workers exit with it)."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def log(msg: str) -> None:
    print(f"perfbench [{time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)


def pctl(values: list[float], q: float) -> float:
    """q-th percentile, linear between closest ranks."""
    s = sorted(values)
    x = (len(s) - 1) * q / 100
    lo = int(x)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (x - lo)


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples above
    it; the maximum when there are too few samples for any of them."""
    for q in (99, 95, 90, 75, 50):
        if len(values) * (100 - q) / 100 >= 10:
            return f"p{q}", pctl(values, q)
    return "max", max(values)


class Reference:
    """Untimed alpha=1 driver-local selection and the driver-local MC
    influence of its seeds."""

    def __init__(self, w, csr, probs):
        from repro.baselines.simulate import estimate_spread_local
        from repro.core.pacim import run_pacim

        r = run_pacim(None, csr, probs, R=w.R, alpha=1.0, k=w.k,
                      selector=w.selector, backend="local")
        self.seeds, self.gains = r["seeds"], r["gains"]
        self.influence = estimate_spread_local(csr, probs, self.seeds,
                                               n_sims=w.n_sims)

    def mismatch(self, res: dict, influence: float) -> str | None:
        if res["seeds"] != self.seeds:
            return f"seeds {res['seeds']} != reference {self.seeds}"
        if res["gains"] != self.gains:
            return f"gains {res['gains']} != reference {self.gains}"
        if influence != self.influence:
            return f"influence {influence!r} != reference {self.influence!r}"
        return None


PER_LAYER_UNITS = {
    "core.evaluate.calls": "count",
    "core.evaluate.pairs": "count",
    "core.evaluate.busy_s": "s",
    "core.evaluate.us_per_pair": "us",
    "core.evaluate.visits": "count",
    "core.evaluate.visits_per_pair": "ratio",
    "core.evaluate.round_ms_p50": "ms",
    "core.evaluate.round_ms_p90": "ms",
    "core.evaluate.mark_seed_s": "s",
    "core.evaluate.init_s": "s",
    "core.evaluate.get_center_calls": "count",
    "core.evaluate.get_center_s": "s",
    "hashing.u01_calls": "count",
    "hashing.u01_s": "s",
    "core.selector.self_s": "s",
    "core.selector.rounds_per_seed": "ratio",
    "core.selector.evals_per_seed": "ratio",
    "core.selector.batch_mean": "ratio",
    "core.sketches.build_s": "s",
    "core.sketches.aux_bytes": "B",
    "baselines.simulate.sims": "count",
    "baselines.simulate.busy_s": "s",
    "spark.jobs": "count",
    "spark.job_s": "s",
    "spark.task_run_s": "s",
    "spark.sched_delay_s": "s",
    "spark.driver_gap_s": "s",
    "spark.result_bytes": "B",
    "spark.broadcasts": "count",
    "spark.broadcasts_live": "count",
    "trace.seeds_s": "s",
    "trace.overhead_s": "s",
}


class Bench:
    """One workload, one seed, one process."""

    def __init__(self, w, seed: int, trace: bool):
        from tracing import Broadcasts, LayerProbe, Tracer

        self.w, self.seed, self.trace = w, seed, trace
        self.spark = None
        self.labels = None
        self.setup_s: list[float] = []
        self.samples: dict[str, list[float]] = {
            m: [] for m in ("select_s", "seeds_s", "mc_s")
        }
        self.attempted = self.failed = 0
        self.last: tuple[dict, float] | None = None
        self.tracer = Tracer()
        self.probe = LayerProbe()
        self.broadcasts = Broadcasts()
        self.layer_rows: dict[int, dict[str, float]] = {}
        self.untraced_seeds_s: list[float] = []

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        """SETUPS times: (re)start the Spark session, generate the graph,
        build the CSR and the probability array. The first start launches
        the JVM; the later ones restart the session inside it."""
        from repro.baselines.simulate import estimate_spread
        from repro.core.sketches import build_sketches
        from tracing import JobLabels

        w = self.w
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            if w.spark:
                if self.spark is not None:
                    self.spark.stop()
                self.spark = start_spark(self.trace)
            self.csr, self.probs = w.inputs(self.seed)
            self.setup_s.append(time.perf_counter() - t0)
        log(f"{SETUPS} set-ups done")
        self.ref = Reference(w, self.csr, self.probs)
        log("reference done")
        if w.spark:
            self.labels = JobLabels(self.spark.sparkContext, w.name, w.selector)
        # Untimed warm-up. The first jobs of a Spark session run up to 2x
        # slower while Python workers start and the JVM compiles, so besides
        # one whole selection, sketch builds and MC jobs run a few more times.
        with self.labels.installed() if self.labels else contextlib.nullcontext():
            self.select(traced=False)
        if w.spark:
            for _ in range(WARMUP_JOBS):
                build_sketches(self.spark, self.csr, self.probs, R=w.R,
                               alpha=w.alpha, center_seed=self.seed)
                estimate_spread(self.spark, self.csr, self.probs,
                                self.ref.seeds, n_sims=w.n_sims)
        log("warm-up done")

    def close(self) -> None:
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None
        if self.trace:
            if self.w.spark:
                self._add_spark_rows()
            self.tracer.write(WORK / "spans.jsonl")

    # -- the closed loop ---------------------------------------------------
    def measure(self, seconds: float) -> None:
        """Selections back to back until the next would end after
        ``seconds``; at least one (two when tracing: untraced, traced)."""
        with contextlib.ExitStack() as stack:
            if self.labels is not None:
                stack.enter_context(self.labels.installed())
            t_start = time.perf_counter()
            took: list[float] = []
            while True:
                t0 = time.perf_counter()
                self.one(traced=self.trace and self.attempted % 2 == 1)
                took.append(time.perf_counter() - t0)
                if self.trace and self.attempted < 2:
                    continue
                if time.perf_counter() - t_start + statistics.median(took) > seconds:
                    break
            log(f"measured {len(took)} selections in "
                f"{time.perf_counter() - t_start:.1f} s")

    def one(self, traced: bool) -> None:
        from tracing import ITERATION_PROPERTY

        it = self.attempted
        self.attempted += 1
        sc = self.spark.sparkContext if self.spark is not None else None
        if sc is not None:
            sc.setLocalProperty(ITERATION_PROPERTY, str(it))
        self.probe.reset()
        self.tracer.run_id = f"{self.w.name}:seed={self.seed}:it={it}"
        made0 = len(self.broadcasts.made)
        try:
            res, influence, mc_s = self.select(traced)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        finally:
            if sc is not None:
                sc.setLocalProperty(ITERATION_PROPERTY, None)
        bad = self.ref.mismatch(res, influence)
        if bad is not None:
            print(f"perfbench: selection {it} failed its check: {bad}",
                  file=sys.stderr)
            self.failed += 1
            return
        seeds_s = res["sketch_time"] + res["select_time"]
        log(f"selection {it}: seeds_s={seeds_s:.3f} mc_s={mc_s:.3f}"
            + (" (traced)" if traced else ""))
        self.last = (res, influence)
        if traced:
            self.layer_rows[it] = self._layer_row(res, seeds_s, made0)
        elif self.trace:
            self.untraced_seeds_s.append(seeds_s)
        else:
            for m, v in (("select_s", res["select_time"]),
                         ("seeds_s", seeds_s), ("mc_s", mc_s)):
                self.samples[m].append(v)

    def select(self, traced: bool) -> tuple[dict, float, float]:
        """One selection and its MC influence; (run_pacim result, influence,
        MC seconds)."""
        from repro.baselines.simulate import estimate_spread, estimate_spread_local
        from repro.core.pacim import run_pacim
        from tracing import instrumented

        w = self.w
        with contextlib.ExitStack() as stack:
            span = self.tracer.span if traced else (
                lambda name: contextlib.nullcontext())
            if traced:
                stack.enter_context(instrumented(self.tracer, self.probe))
                if w.spark:
                    stack.enter_context(self.broadcasts.installed())
                stack.enter_context(span("iteration"))
            if self.labels is not None:
                self.labels.phase("sketch")
            with span("core.pacim.run_pacim"):
                res = run_pacim(self.spark, self.csr, self.probs, R=w.R,
                                alpha=w.alpha, k=w.k, selector=w.selector,
                                backend=w.backend, center_seed=self.seed)
            if self.labels is not None:
                self.labels.phase("mc")
            t0 = time.perf_counter()
            with span("baselines.simulate"):
                if w.spark:
                    influence = estimate_spread(self.spark, self.csr, self.probs,
                                                res["seeds"], n_sims=w.n_sims)
                else:
                    influence = estimate_spread_local(self.csr, self.probs,
                                                      res["seeds"], n_sims=w.n_sims)
            return res, influence, time.perf_counter() - t0

    # -- per-layer readings ------------------------------------------------
    def _layer_row(self, res: dict, seeds_s: float, made0: int) -> dict[str, float]:
        run_id = self.tracer.run_id
        spans = self.tracer.of_run(run_id)

        def busy(name: str) -> float:
            return sum(s.end - s.start for s in spans if s.name == name)

        own = self.tracer.self_times(run_id)
        pr = self.probe
        k = len(res["seeds"])
        calls = sum(s.name == "core.evaluate.evaluate" for s in spans)
        pairs = max(pr.pairs, 1)
        eval_s = busy("core.evaluate.evaluate")
        # Self times of every layer below run_pacim, run_pacim's own included.
        layers_self = sum(v for name, v in own.items()
                          if name not in ("iteration", "baselines.simulate"))
        return {
            "core.evaluate.calls": calls,
            "core.evaluate.pairs": pr.pairs,
            "core.evaluate.busy_s": eval_s,
            "core.evaluate.us_per_pair": 1e6 * eval_s / pairs,
            "core.evaluate.visits": pr.visits,
            "core.evaluate.visits_per_pair": pr.visits / pairs,
            "core.evaluate.round_ms_p50": pctl(pr.evaluate_ms, 50),
            "core.evaluate.round_ms_p90": pctl(pr.evaluate_ms, 90),
            "core.evaluate.mark_seed_s": busy("core.evaluate.mark_seed"),
            "core.evaluate.init_s": busy("core.evaluate.init"),
            "core.evaluate.get_center_calls": pr.get_center.calls,
            "core.evaluate.get_center_s": pr.get_center.seconds,
            "hashing.u01_calls": pr.u01.calls,
            "hashing.u01_s": pr.u01.seconds,
            "core.selector.self_s": own.get(f"core.selector.{self.w.selector}", 0.0),
            "core.selector.rounds_per_seed": calls / k,
            "core.selector.evals_per_seed": res["n_reevals"] / k,
            "core.selector.batch_mean": res["n_reevals"] / max(calls, 1),
            "core.sketches.build_s": busy("core.sketches.build"),
            "core.sketches.aux_bytes": pr.aux_bytes,
            "baselines.simulate.sims": self.w.n_sims,
            "baselines.simulate.busy_s": busy("baselines.simulate"),
            "spark.jobs": 0, "spark.job_s": 0.0, "spark.task_run_s": 0.0,
            "spark.sched_delay_s": 0.0, "spark.driver_gap_s": 0.0,
            "spark.result_bytes": 0,
            "spark.broadcasts": len(self.broadcasts.made) - made0,
            "spark.broadcasts_live": self.broadcasts.live(made0),
            "trace.seeds_s": seeds_s,
            "trace.self_sum_ratio": layers_self / seeds_s,
        }

    def _add_spark_rows(self) -> None:
        """Per-round Spark figures from the event log, once it is closed."""
        from tracing import read_event_log, spark_jobs

        jobs = spark_jobs(read_event_log(WORK / "events"))
        for it, row in self.layer_rows.items():
            rounds = [j for j in jobs
                      if j.iteration == str(it) and ":round=" in j.description]
            job_s = sum(j.end_ms - j.submit_ms for j in rounds) / 1e3
            row["spark.jobs"] = len(rounds)
            row["spark.job_s"] = job_s
            row["spark.task_run_s"] = sum(j.max_run_ms for j in rounds) / 1e3
            row["spark.sched_delay_s"] = sum(
                j.first_launch_ms - j.submit_ms for j in rounds
                if j.first_launch_ms is not None) / 1e3
            row["spark.driver_gap_s"] = row["core.evaluate.busy_s"] - job_s
            row["spark.result_bytes"] = sum(j.result_bytes for j in rounds)

    # -- results -----------------------------------------------------------
    def result(self) -> dict:
        correct = self.failed == 0 and self.attempted > 0 and self.last is not None
        out = {"correct": correct, "attempted": self.attempted,
               "failed": self.failed, "metrics": {}}
        if self.last is None:
            return out
        if self.trace:
            rows = list(self.layer_rows.values())
            values = {m: statistics.median(r[m] for r in rows)
                      for m in rows[0]} if rows else {}
            if rows and self.untraced_seeds_s:
                values["trace.overhead_s"] = (
                    values["trace.seeds_s"] - statistics.median(self.untraced_seeds_s))
            units = PER_LAYER_UNITS
        else:
            res, influence = self.last
            values = {m: statistics.fmean(v) for m, v in self.samples.items() if v}
            values["setup_s"] = statistics.median(self.setup_s)
            values["space_mb"] = res["space"]["total_bytes"] / 1e6
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            values["influence_mc"] = influence
            units = E2E_UNITS
        out["metrics"] = {m: {"value": values[m], "unit": u}
                          for m, u in units.items() if m in values}
        return out

    def report(self, result: dict) -> None:
        """Human-readable lines ahead of the JSON line."""
        import numpy
        import pyspark

        w = self.w
        print(f"perfbench workload={w.name} seed={self.seed} trace={int(self.trace)} "
              f"backend={w.backend} master=local[{SPARK_CORES}] "
              f"nproc={os.cpu_count()} numpy={numpy.__version__} "
              f"pyspark={pyspark.__version__}")
        print(f"  operations: {self.attempted - self.failed} ok / "
              f"{self.attempted} attempted ({self.failed} failed)")
        series = dict(self.samples, setup_s=self.setup_s)
        for m, v in result["metrics"].items():
            line = f"  {m:34s} {v['value']:>14.6g} {v['unit']}"
            s = series.get(m)
            if s:
                q, hi = high_percentile(s)
                line += f"   n={len(s)} median={statistics.median(s):.4g} {q}={hi:.4g}"
            print(line)
        if self.trace and self.layer_rows:
            ratio = statistics.median(r["trace.self_sum_ratio"]
                                      for r in self.layer_rows.values())
            print(f"  self times of run_pacim and the layers below it sum to "
                  f"{ratio:.4f} x seeds_s (median over traced selections)")
            last = max(self.layer_rows)
            own = self.tracer.self_times(f"{w.name}:seed={self.seed}:it={last}")
            print("  self time by span (last traced selection):")
            for name, v in sorted(own.items(), key=lambda kv: -kv[1]):
                print(f"    {name:32s} {v:10.4f} s")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        description="PaC-IM time-to-seeds benchmark (see module docstring).")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    prepare_process()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace))
    try:
        bench.setup()
        bench.measure(args.seconds)
    finally:
        bench.close()
    result = bench.result()
    bench.report(result)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
