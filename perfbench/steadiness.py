"""Run-to-run steadiness of the benchmark.

Runs ``perfbench/run.py`` once per seed on each workload (untraced), then
prints for every end-to-end metric the median over the runs and the spread
(Q3 - Q1) / median, with the quartiles from ``statistics.quantiles(n=4)``,
next to the metric's bound in ``BENCHMARK.json``. Run from the repository
root:

    python3 perfbench/steadiness.py --workloads sf-spark road-spark --seeds 1 2 3 4 5

Every run's result line is appended to ``--out`` (JSON lines) as it ends.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--out", default=".perfbench_steadiness.jsonl")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed = False
    for w in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed={seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                failed = True
                continue
            res = json.loads(lines[-1])
            with open(ROOT / args.out, "a") as f:
                log = [ln for ln in out.stderr.splitlines() if ln.startswith("perfbench")]
                f.write(json.dumps({"workload": w, "seed": seed, "wall_s": wall,
                                    **res, "log": log}) + "\n")
            failed |= not res["correct"]
            for m, v in res["metrics"].items():
                values.setdefault(m, []).append(v["value"])
            print(f"{w} seed={seed} wall={wall:.1f}s attempted={res['attempted']} "
                  f"failed={res['failed']} "
                  + " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                  flush=True)
        for m, vs in values.items():
            if len(vs) < 2:
                continue
            s = spread(vs)
            b = bounds.get(m)
            flag = "" if b is None or s <= b / 3 else "  <-- above a third of the bound"
            print(f"  {w:10s} {m:14s} median={statistics.median(vs):.5g} "
                  f"spread={s:.4f} bound={b}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
