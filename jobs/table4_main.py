"""Reproduce paper Table 4: running time, memory, and relative influence
of Ours₁ (α=1), Ours₀.₁ (α=0.1), InfuserMG, and Ripples under the
Consistent edge-probability assignment.

Also supports --alpha-sweep (the paper's Fig. 8 tradeoff, recorded as
numbers rather than a figure).

Usage: python jobs/table4_main.py [--quick] [--alpha-sweep]
"""
import sys

sys.path.insert(0, "jobs")
from _common import fmt, get_spark, print_markdown  # noqa: E402


def print_table4(rows, title: str) -> None:
    print(f"\n## {title}\n")
    print_markdown(
        ["graph", "n", "m",
         "infl Ours", "infl InfMG", "infl Rip",
         "t Ours1", "t Ours0.1", "t InfMG", "t Rip",
         "MB CSR", "MB Ours1", "MB Ours0.1", "MB InfMG", "MB Rip",
         "jobs O1", "jobs O0.1", "jobs InfMG"],
        [
            [
                r["graph"], str(r["n"]), str(r["m"]),
                fmt(r["rel_influence"]["ours"], 3),
                fmt(r["rel_influence"]["infusermg"], 3),
                fmt(r["rel_influence"]["ripples"], 3),
                fmt(r["time_s"]["ours1"], 2), fmt(r["time_s"]["ours01"], 2),
                fmt(r["time_s"]["infusermg"], 2), fmt(r["time_s"]["ripples"], 2),
                fmt(r["mem_mb"]["csr"], 3), fmt(r["mem_mb"]["ours1"], 3),
                fmt(r["mem_mb"]["ours01"], 3), fmt(r["mem_mb"]["infusermg"], 3),
                fmt(r["mem_mb"]["ripples"], 3),
                fmt(r["eval_jobs"]["ours1"]), fmt(r["eval_jobs"]["ours01"]),
                fmt(r["eval_jobs"]["infusermg"]),
            ]
            for r in rows
        ],
    )


def main(quick: bool = False, alpha_sweep: bool = False) -> None:
    from repro.core.pacim import run_pacim
    from repro.eval.tables import TIMED_SUITE, _graph, _probs, table4_rows

    spark = get_spark()
    if alpha_sweep:
        # Fig. 8 analog: time/space across compression ratios. Uses the
        # local backend so wall-clock tracks algorithmic work (with the
        # Spark backend the fixed per-round cost hides the BFS work at
        # this scale); the space column is backend-independent.
        from repro.graphs.generators import SUITE

        spec = SUITE["SF-A"]
        csr, _, _ = _graph(spec)
        probs = _probs(csr, spec, "consistent")
        print("\n## Fig. 8 analog — alpha sweep on SF-A (local backend)\n")
        out = []
        for a in (1.0, 0.5, 0.2, 0.1, 0.05):
            res = run_pacim(
                None, csr, probs, R=32, alpha=a, k=25,
                selector="wintree", backend="local",
            )
            out.append(
                [fmt(a), fmt(res["sketch_time"], 1), fmt(res["select_time"], 1),
                 fmt(res["space"]["total_bytes"] / 1e6, 3),
                 fmt(res["n_visits"] / max(res["n_reevals"], 1) / res["R"], 2)]
            )
        print_markdown(
            ["alpha", "sketch s", "select s", "MB total", "visits/eval/sketch"], out
        )
        spark.stop()
        return
    kw = (
        dict(R=16, k=5, names=["SF-A'"], n_sims=100, infusermg_budget=1200)
        if quick
        else dict(R=64, k=25)
    )
    rows = table4_rows(spark, **kw)
    print_table4(rows, "Table 4 — time / memory / influence (Consistent)")
    spark.stop()


if __name__ == "__main__":
    main(quick="--quick" in sys.argv, alpha_sweep="--alpha-sweep" in sys.argv)
