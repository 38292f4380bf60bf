"""Layer instrumentation applied from outside the program.

Nothing under ``src/`` is edited: each layer is timed by rebinding the
public names the layer above calls through (module globals, class
attributes, the selector table) for the duration of a ``with`` block, and
putting the originals back on exit.

- :class:`Tracer` keeps spans (name, start, end, parent, run id) in memory
  and writes them out once, at the end of a run.
- :class:`Counter` accumulates calls and time for functions called far too
  often for a span each (``get_center``, ``u01``).
- :class:`JobLabels` names every Spark job after the selector round that
  issued it, so the event log maps back to the algorithm.
- :class:`Broadcasts` counts broadcasts made and released.
- :func:`spark_jobs` reads the event log of the benchmark's own session.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

ITERATION_PROPERTY = "perfbench.iteration"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run_id: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run_id = ""

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_exit=None):
        """``fn`` inside a span; ``on_exit(span, args, result)`` may add attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if on_exit is not None:
                    on_exit(s, args, out)
                return out

        return traced

    def of_run(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def self_times(self, run_id: str) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s.run_id == run_id:
                own = (s.end - s.start) - child_time[i]
                out[s.name] = out.get(s.name, 0.0) + own
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span; parents are indices into the file."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "run_id": s.run_id, **s.attrs}) + "\n")


class Counter:
    """Calls and total time of one function."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
                self.calls += 1

        return counted


class JobLabels:
    """Labels each evaluation round's Spark job
    ``<workload>:<selector>:seed=<i>:round=<j>``: i is the index of the
    seed being selected, j the round within it."""

    def __init__(self, sc, workload: str, selector: str) -> None:
        self.sc = sc
        self.prefix = f"{workload}:{selector}"
        self._seed = -1
        self._round = 0

    def phase(self, name: str) -> None:
        """Label the jobs issued outside evaluation rounds."""
        self.sc.setJobDescription(f"{self.prefix}:{name}")
        self._seed, self._round = -1, 0

    @contextlib.contextmanager
    def installed(self):
        from repro.core.evaluate import SparkEvaluator

        evaluate = SparkEvaluator.__dict__["evaluate"]

        @functools.wraps(evaluate)
        def labelled(ev, vs):
            i = len(ev.seeds)
            if i != self._seed:
                self._seed, self._round = i, 0
            self.sc.setJobDescription(f"{self.prefix}:seed={i}:round={self._round}")
            self._round += 1
            return evaluate(ev, vs)

        with mock.patch.object(SparkEvaluator, "evaluate", labelled):
            yield self


class Broadcasts:
    """Broadcasts made through ``SparkContext.broadcast`` and those released
    by ``Broadcast.destroy``/``unpersist``. The counter holds every
    broadcast it saw, so object ids stay unique while it lives."""

    def __init__(self) -> None:
        self.made: list = []
        self.released: set[int] = set()

    def live(self, since: int = 0) -> int:
        """Broadcasts made after the ``since``-th and not released yet."""
        return sum(id(b) not in self.released for b in self.made[since:])

    @contextlib.contextmanager
    def installed(self):
        from pyspark import Broadcast, SparkContext

        broadcast = SparkContext.__dict__["broadcast"]
        destroy = Broadcast.__dict__["destroy"]
        unpersist = Broadcast.__dict__["unpersist"]

        def counted_broadcast(sc, value):
            bc = broadcast(sc, value)
            self.made.append(bc)
            return bc

        def counted_destroy(bc, blocking=False):
            self.released.add(id(bc))
            return destroy(bc, blocking)

        def counted_unpersist(bc, blocking=False):
            self.released.add(id(bc))
            return unpersist(bc, blocking)

        with (mock.patch.object(SparkContext, "broadcast", counted_broadcast),
              mock.patch.object(Broadcast, "destroy", counted_destroy),
              mock.patch.object(Broadcast, "unpersist", counted_unpersist)):
            yield self


class LayerProbe:
    """Raw readings of the layers below ``run_pacim`` for one iteration;
    ``reset`` starts the next."""

    def __init__(self) -> None:
        self.get_center = Counter()
        self.u01 = Counter()
        self.reset()

    def reset(self) -> None:
        self.evaluate_ms: list[float] = []
        self.pairs = 0
        self.visits = 0
        self.aux_bytes = 0
        self.get_center.calls = self.u01.calls = 0
        self.get_center.seconds = self.u01.seconds = 0.0


@contextlib.contextmanager
def instrumented(tracer: Tracer, probe: LayerProbe):
    """Spans around every layer call made by ``run_pacim``, and counters on
    the evaluation kernel's ``get_center`` and ``u01``."""
    import repro.core.evaluate as ev_mod
    import repro.core.pacim as pacim_mod

    def sketch_done(span, args, sk):
        probe.aux_bytes = span.attrs["aux_bytes"] = sk.aux_bytes()

    def traced_init(cls):
        def make(*args, **kwargs):
            with tracer.span("core.evaluate.init"):
                return cls(*args, **kwargs)

        return make

    def traced_evaluate(fn):
        @functools.wraps(fn)
        def traced(ev, vs):
            visits0 = ev.n_visits
            with tracer.span("core.evaluate.evaluate") as s:
                out = fn(ev, vs)
            s.attrs["pairs"] = len(vs) * ev.sk.R
            s.attrs["visits"] = ev.n_visits - visits0
            probe.evaluate_ms.append(1e3 * (s.end - s.start))
            probe.pairs += s.attrs["pairs"]
            probe.visits += s.attrs["visits"]
            return out

        return traced

    patches = [
        (pacim_mod, name, tracer.wrap("core.sketches.build",
                                      getattr(pacim_mod, name), sketch_done))
        for name in ("build_sketches", "build_sketches_local")
    ] + [
        (pacim_mod, name, traced_init(getattr(pacim_mod, name)))
        for name in ("LocalEvaluator", "SparkEvaluator")
    ] + [
        (pacim_mod, "_SELECTORS", {
            name: tracer.wrap(f"core.selector.{name}", fn)
            for name, fn in pacim_mod._SELECTORS.items()
        }),
        (ev_mod.LocalEvaluator, "evaluate",
         traced_evaluate(ev_mod.LocalEvaluator.__dict__["evaluate"])),
        (ev_mod.SparkEvaluator, "evaluate",
         traced_evaluate(ev_mod.SparkEvaluator.__dict__["evaluate"])),
        (ev_mod.LocalEvaluator, "mark_seed",
         tracer.wrap("core.evaluate.mark_seed", ev_mod.LocalEvaluator.mark_seed)),
        (ev_mod, "get_center", probe.get_center.wrap(ev_mod.get_center)),
        (ev_mod, "u01", probe.u01.wrap(ev_mod.u01)),
    ]
    with contextlib.ExitStack() as stack:
        for obj, name, value in patches:
            stack.enter_context(mock.patch.object(obj, name, value))
        yield


def read_event_log(events_dir: Path) -> list[dict]:
    """All events of every application log in ``events_dir``."""
    out = []
    for f in sorted(events_dir.iterdir()):
        with open(f) as fh:
            out.extend(json.loads(line) for line in fh if line.strip())
    return out


@dataclass
class JobStats:
    description: str
    iteration: str
    submit_ms: int
    end_ms: int = 0
    stages: tuple = ()
    max_run_ms: int = 0
    first_launch_ms: int | None = None
    result_bytes: int = 0


def spark_jobs(events: list[dict]) -> list[JobStats]:
    """Per-job timings from an event log; only jobs the benchmark tagged
    with its iteration property."""
    jobs: dict[int, JobStats] = {}
    stage_job: dict[int, JobStats] = {}
    for e in events:
        kind = e.get("Event")
        if kind == "SparkListenerJobStart":
            props = e.get("Properties") or {}
            if ITERATION_PROPERTY not in props:
                continue
            j = JobStats(props.get("spark.job.description", ""),
                         props[ITERATION_PROPERTY], e["Submission Time"],
                         stages=tuple(e["Stage IDs"]))
            jobs[e["Job ID"]] = j
            for sid in j.stages:
                stage_job[sid] = j
        elif kind == "SparkListenerJobEnd" and e["Job ID"] in jobs:
            jobs[e["Job ID"]].end_ms = e["Completion Time"]
        elif kind == "SparkListenerTaskEnd" and e["Stage ID"] in stage_job:
            j = stage_job[e["Stage ID"]]
            info, metrics = e["Task Info"], e.get("Task Metrics") or {}
            j.max_run_ms = max(j.max_run_ms, metrics.get("Executor Run Time", 0))
            launch = info["Launch Time"]
            j.first_launch_ms = (launch if j.first_launch_ms is None
                                 else min(j.first_launch_ms, launch))
            j.result_bytes += metrics.get("Result Size", 0)
    return list(jobs.values())
