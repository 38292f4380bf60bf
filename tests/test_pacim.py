"""End-to-end tests of the PaC-IM driver (local backend) — the Tab. 2
mode matrix, the Thm. 3.1 time/space tradeoff, and space accounting."""
import numpy as np
import pytest

from repro.core.pacim import run_pacim
from repro.graphs.csr import build_csr, csr_bytes
from repro.graphs.generators import erdos_renyi, rmat
from repro.graphs.probs import consistent_probs


@pytest.fixture(scope="module")
def graph():
    csr = build_csr(erdos_renyi(250, 600, seed=21), n=250)
    return csr, consistent_probs(csr, 0.15)


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("selector", ["celf", "ptree", "wintree"])
def test_mode_matrix_same_seeds(graph, alpha, selector):
    """Paper Tab. 2: every (randomization, selection) combination here
    is a parameter choice and must produce identical greedy output."""
    csr, probs = graph
    res = run_pacim(
        None, csr, probs, R=8, alpha=alpha, k=6,
        selector=selector, backend="local",
    )
    base = run_pacim(
        None, csr, probs, R=8, alpha=1.0, k=6,
        selector="celf", backend="local",
    )
    assert res["seeds"] == base["seeds"]
    assert np.allclose(res["gains"], base["gains"])


def test_accepts_edge_list(graph):
    csr, probs = graph
    res_edges = run_pacim(
        None, erdos_renyi(250, 600, seed=21), probs, R=4, alpha=1.0, k=3,
        backend="local",
    )
    res_csr = run_pacim(None, csr, probs, R=4, alpha=1.0, k=3, backend="local")
    assert res_edges["seeds"] == res_csr["seeds"]


def test_space_monotone_in_alpha(graph):
    csr, probs = graph
    totals = [
        run_pacim(None, csr, probs, R=16, alpha=a, k=2, backend="local")[
            "space"
        ]["total_bytes"]
        for a in (0.0, 0.1, 0.5, 1.0)
    ]
    assert totals == sorted(totals)
    assert totals[0] >= csr_bytes(csr)


def test_space_formula(graph):
    """Thm. 3.1: sketch space is O((1 + αR)n) — one int32 per (sketch,
    center) in ``cc``, one bool per (sketch, center) in the zeroed mask,
    the int32 center directory, the seed mask, the Win-Tree's 2P int32
    ids and the float64 initial scores."""
    csr, probs = graph
    R, n = 16, csr.n
    res = run_pacim(None, csr, probs, R=R, alpha=0.5, k=1, backend="local")
    rho = int(round(0.5 * n))
    structure = 2 * 256 * 4  # P = 256 leaves for n = 250
    assert res["space"]["aux_bytes"] == (
        4 * rho * R + rho * R + 4 * n + n + 4 * rho + structure + 8 * n
    )


@pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("selector", ["celf", "ptree", "wintree"])
def test_space_counts_every_array(graph, monkeypatch, selector, alpha):
    """``aux_bytes`` is exactly the bytes of every array the evaluator and
    its sketches hold (bar the input probabilities) plus the selection
    structure: an array added to either without being counted fails here."""
    import repro.core.pacim as pacim_mod

    csr, probs = graph
    held = {}

    class Evaluator(pacim_mod.LocalEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            held["ev"] = self

    def select(*args, **kw):
        held["sel"] = pacim_mod._SELECTORS[selector](*args, **kw)
        return held["sel"]

    monkeypatch.setattr(pacim_mod, "LocalEvaluator", Evaluator)
    monkeypatch.setitem(pacim_mod._SELECTORS, "spy", select)
    res = run_pacim(None, csr, probs, R=8, alpha=alpha, k=3,
                    selector="spy", backend="local")
    ev = held["ev"]
    arrays = {
        name: a
        for obj in (ev, ev.sk)
        for name, a in vars(obj).items()
        if isinstance(a, np.ndarray) and a is not ev.probs
    }
    assert set(arrays) == {"cc", "center_index", "centers", "init_scores",
                           "zeroed", "seeds_mask"}
    assert res["space"]["aux_bytes"] == (
        sum(a.nbytes for a in arrays.values()) + held["sel"].structure_bytes
    )


def test_thm31_visits_tradeoff():
    """Compressing by α increases visits per (eval, sketch) toward
    min(T, 1/α): visits must grow as α shrinks, and stay ~bounded."""
    csr = build_csr(rmat(512, 4000, seed=23), n=512)
    probs = consistent_probs(csr, 0.1)
    per = {}
    for a in (1.0, 0.25, 0.05):
        res = run_pacim(
            None, csr, probs, R=8, alpha=a, k=5,
            selector="wintree", backend="local",
        )
        per[a] = res["n_visits"] / max(res["n_reevals"], 1) / res["R"]
    assert per[1.0] <= per[0.25] <= per[0.05]
    assert per[0.25] < 3 * (1 / 0.25)  # O(1/alpha) with slack
    assert per[0.05] < 3 * (1 / 0.05)


def test_counters_and_timers(graph):
    csr, probs = graph
    res = run_pacim(None, csr, probs, R=8, alpha=0.3, k=4, backend="local")
    assert res["sketch_time"] > 0 and res["select_time"] > 0
    assert res["n_eval_jobs"] >= 4
    assert res["n_reevals"] >= 4
    assert res["est_influence"] == pytest.approx(sum(res["gains"]))


def test_rejects_bad_args(graph):
    csr, probs = graph
    with pytest.raises(ValueError):
        run_pacim(None, csr, probs, R=4, alpha=1.0, k=2, selector="dijkstra")
    with pytest.raises(ValueError):
        run_pacim(None, csr, probs, R=4, alpha=1.0, k=2, backend="flink")
    with pytest.raises(ValueError):
        run_pacim(None, csr, probs, R=4, alpha=1.0, k=2, backend="spark")


def test_quality_beats_random_seeds(graph):
    """Greedy sketch influence must beat random seed sets on-sketch."""
    csr, probs = graph
    res = run_pacim(None, csr, probs, R=16, alpha=1.0, k=5, backend="local")
    from repro.core.evaluate import LocalEvaluator
    from repro.core.sketches import build_sketches_local

    sk = build_sketches_local(csr, probs, R=16, alpha=1.0)
    g = np.random.default_rng(0)
    for _ in range(5):
        ev = LocalEvaluator(csr, probs, sk)
        rand = g.choice(csr.n, 5, replace=False)
        total = 0.0
        for v in rand:
            total += ev.evaluate(np.array([v]))[0]
            ev.mark_seed(int(v))
        assert res["est_influence"] >= total



@pytest.mark.parametrize(
    "key, bad, match",
    [
        ("alpha", 1.5, "alpha"),
        ("alpha", -0.2, "alpha"),
        ("R", 0, "R must"),
        ("k", 0, "k must"),
        ("k", 251, "k must"),
        ("probs", lambda p: p[:-1], "one value per arc"),
        ("probs", 1.7, "one value per arc"),
        ("probs", lambda p: np.r_[np.nan, p[1:]], "finite"),
        ("probs", lambda p: np.full_like(p, 1.7), "finite"),
        ("probs", lambda p: np.full_like(p, -0.1), "finite"),
    ],
    ids=["alpha-high", "alpha-negative", "R-zero", "k-zero", "k-above-n",
         "probs-short", "probs-scalar", "probs-nan", "probs-above-1",
         "probs-negative"],
)
def test_rejects_bad_arguments(graph, key, bad, match):
    """Bad α / R / k / probabilities fail at the boundary with a clear
    message, not deep inside numpy or as NaN gains."""
    csr, probs = graph
    args = {"R": 4, "alpha": 0.5, "k": 2, "probs": probs}
    args[key] = bad(probs) if callable(bad) else bad
    with pytest.raises(ValueError, match=match):
        run_pacim(None, csr, backend="local", **args)
