"""Smoke tests for the table harnesses (tiny configurations)."""
from pathlib import Path

import pytest

from repro.baselines.infusermg import run_infusermg
from repro.core.pacim import run_pacim
from repro.eval.tables import (
    TIMED_SUITE,
    _graph,
    _probs,
    table3_rows,
    table4_rows,
    table5_rows,
)

TABLE4 = Path(__file__).resolve().parents[1] / "results" / "table4.md"


def test_table5_tiny():
    rows = table5_rows(names=["ROAD-A"], R=8, k=10)
    (r,) = rows
    assert r["graph"] == "ROAD-A"
    assert r["evals"]["ptree"] <= 2 * r["evals"]["celf"]
    assert r["ptree_ratio"] >= 1.0 or r["evals"]["ptree"] >= r["evals"]["celf"] - 1
    assert r["jobs"]["ptree"] <= r["evals"]["celf"] + 10


def test_table3_tiny_local():
    rows = table3_rows(None, names=["ROAD-A"], R=8, k=10, n_sims=50)
    (r,) = rows
    assert r["n"] == 12100
    assert r["influence"] >= 10  # at least the seeds themselves
    assert r["sketch_estimate"] > 0


@pytest.mark.slow
def test_table4_tiny_spark(spark):
    rows = table4_rows(
        spark, names=["SF-A'"], R=8, k=3, n_sims=50, infusermg_budget=2500
    )
    (r,) = rows
    t = r["time_s"]
    assert t["ours1"] > 0 and t["ours01"] > 0
    assert r["rel_influence"]["ours"] == pytest.approx(1.0, abs=0.2)
    mem = r["mem_mb"]
    assert mem["ours01"] < mem["ours1"]
    if mem["infusermg"] is not None:
        # Same sketches at α=1; selection structures differ by <5%
        # (Win-Tree pads its leaf array to a power of two).
        assert mem["ours1"] <= mem["infusermg"] * 1.05
    # batched selectors need far fewer parallel rounds than CELF
    if r["eval_jobs"]["infusermg"] is not None:
        assert r["eval_jobs"]["ours1"] < r["eval_jobs"]["infusermg"]


def test_timed_suite_contains_both_classes():
    classes = {TIMED_SUITE[g]["cls"] for g in TIMED_SUITE}
    assert classes == {"scale-free", "sparse"}


def test_table4_memory_cells_match_committed_row():
    """Space is deterministic and backend-independent, so SF-A′'s MB cells
    in the committed ``results/table4.md`` equal a fresh driver-local run
    at their printed precision; a change to the space accounting that
    leaves the table stale fails here."""
    spec = TIMED_SUITE["SF-A'"]
    csr, _, _ = _graph(spec)
    probs = _probs(csr, spec, "consistent")
    kw = dict(R=64, k=25, backend="local")
    runs = {
        "MB Ours1": run_pacim(None, csr, probs, alpha=1.0, selector="wintree", **kw),
        "MB Ours0.1": run_pacim(None, csr, probs, alpha=0.1, selector="wintree", **kw),
        "MB InfMG": run_infusermg(None, csr, probs, **kw),
    }
    rows = [
        [c.strip() for c in line.strip().strip("|").split("|")]
        for line in TABLE4.read_text().splitlines()
        if line.startswith("|") and not line.startswith("|-")
    ]
    header = rows[0]
    (row,) = [r for r in rows[1:] if r[0] == "SF-A'"]
    for col, res in runs.items():
        cell = row[header.index(col)]
        decimals = len(cell.partition(".")[2])
        assert f"{res['space']['total_bytes'] / 1e6:.{decimals}f}" == cell, col
