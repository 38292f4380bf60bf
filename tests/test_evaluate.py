"""Unit tests for GetCenter / Marginal / MarkSeed (paper Alg. 3)."""
import numpy as np
import pytest

from repro.cc.local_cc import cc_labels
from repro.core.evaluate import (
    _PAIR_BLOCK,
    LocalEvaluator,
    get_center,
)
from repro.core.sketches import build_sketches_local, sampled_arcs
from repro.graphs.csr import build_csr
from repro.graphs.probs import consistent_probs
from repro.hashing import SALT_SKETCH
from tests.conftest import GRAPH_CASES, brute_marginal


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.3, 1.0])
def test_marginal_matches_brute_force(small_case, alpha):
    _, csr, probs = small_case
    R = 8
    sk = build_sketches_local(csr, probs, R=R, alpha=alpha)
    ev = LocalEvaluator(csr, probs, sk)
    for v in range(0, csr.n, max(1, csr.n // 17)):
        got = ev.evaluate(np.array([v]))[0]
        assert got == pytest.approx(brute_marginal(csr, probs, R, v, []))


@pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0])
def test_marginal_with_seeds_matches_brute_force(small_case, alpha):
    _, csr, probs = small_case
    R = 8
    sk = build_sketches_local(csr, probs, R=R, alpha=alpha)
    ev = LocalEvaluator(csr, probs, sk)
    seeds = [1, csr.n // 2]
    for s in seeds:
        ev.mark_seed(s)
    for v in range(0, csr.n, max(1, csr.n // 13)):
        got = ev.evaluate(np.array([v]))[0]
        assert got == pytest.approx(brute_marginal(csr, probs, R, v, seeds))


def test_seed_own_marginal_is_zero(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    ev.mark_seed(7)
    assert ev.evaluate(np.array([7]))[0] == 0.0


def test_same_cc_as_seed_is_zero(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    # Find a vertex sharing v=7's CC on every sketch it is non-trivial in.
    ev.mark_seed(7)
    for r in range(sk.R):
        us, vs = sampled_arcs(csr, probs, SALT_SKETCH + r)
        lab = cc_labels(csr.n, us, vs)
        mates = np.flatnonzero(lab == lab[7])
        for w in mates[:3]:
            d, l, _ = get_center(
                csr, probs, sk.center_index, sk.cc,
                r, int(w), ev.seeds_mask,
            )
            # A CC with a center is zeroed by its label, one without by
            # the seed its traversal meets.
            assert ev.zeroed[r, l] if l >= 0 else d == 0


def test_get_center_label_semantics(er_setup):
    csr, probs, sk = er_setup
    for r in range(4):
        us, vs = sampled_arcs(csr, probs, SALT_SKETCH + r)
        lab = cc_labels(csr.n, us, vs)
        centers_set = set(sk.centers.tolist())
        for v in range(0, csr.n, 23):
            d, l, visits = get_center(
                csr, probs, sk.center_index, sk.cc,
                r, v, np.zeros(csr.n, dtype=bool),
            )
            cc = np.flatnonzero(lab == lab[v])
            has_center = bool(centers_set & set(cc.tolist()))
            if has_center:
                assert l >= 0
                # l is the minimal center index within v's CC.
                in_cc = [i for i, c in enumerate(sk.centers) if lab[c] == lab[v]]
                assert l == min(in_cc)
            else:
                assert l == -1
            assert d == len(cc)
            assert visits <= len(cc)


def test_visits_bounded_by_cc_size(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    before = ev.n_visits
    ev.evaluate(np.arange(0, csr.n, 10))
    per_pair = (ev.n_visits - before) / (len(range(0, csr.n, 10)) * sk.R)
    # With alpha=0.3 expected visits per (v, sketch) is about 1/alpha.
    assert per_pair < 3 / sk.alpha


def test_mark_seed_zeroes_labels(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    cc = sk.cc.copy()
    ev.mark_seed(3)
    for r in range(sk.R):
        _, lab, _ = get_center(
            csr, probs, sk.center_index, sk.cc,
            r, 3, np.zeros(csr.n, dtype=bool),
        )
        # exactly the label of 3's CC is zeroed, where the CC has a center
        assert np.flatnonzero(ev.zeroed[r]).tolist() == ([lab] if lab >= 0 else [])
    assert ev.zeroed.any()
    assert np.array_equal(sk.cc, cc)  # pristine arrays untouched


def test_counters(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    ev.evaluate(np.array([1, 2, 3]))
    ev.evaluate(np.array([4]))
    assert ev.n_reevals == 4
    assert ev.n_jobs == 2


def test_batch_equals_singles(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    vs = np.array([0, 5, 9, 100, 199])
    batch = ev.evaluate(vs)
    singles = np.array([ev.evaluate(np.array([v]))[0] for v in vs])
    assert np.allclose(batch, singles)


def test_full_memo_fast_path_matches_general(er_csr):
    csr = er_csr
    probs = consistent_probs(csr, 0.15)
    sk = build_sketches_local(csr, probs, R=8, alpha=1.0)
    ev = LocalEvaluator(csr, probs, sk)
    assert sk.rho == csr.n
    vs = np.arange(csr.n)
    fast = ev.evaluate(vs)
    brute = np.array([brute_marginal(csr, probs, 8, v, []) for v in vs])
    assert np.allclose(fast, brute)


def test_init_scores_equal_first_evaluation(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    assert np.allclose(ev.init_scores(), ev.evaluate(np.arange(csr.n)))


def test_monotone_nonincreasing_under_seeding(er_setup):
    # Submodularity consequence: adding seeds never raises a marginal.
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    vs = np.arange(0, csr.n, 7)
    before = ev.evaluate(vs)
    ev.mark_seed(11)
    ev.mark_seed(42)
    after = ev.evaluate(vs)
    assert (after <= before + 1e-12).all()


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("graph", ["rmat", "grid"])
def test_blocked_batch_matches_singles_and_brute_force(graph, alpha):
    """One batch whose traversals span several blocks gives every vertex
    the δ and visits it gets alone, and the brute-force marginal."""
    gen, n, p = GRAPH_CASES[graph]
    csr = build_csr(gen(), n=n)
    probs = consistent_probs(csr, p)
    R = 24
    sk = build_sketches_local(csr, probs, R=R, alpha=alpha)
    ev = LocalEvaluator(csr, probs, sk)
    seeds = [1, n // 2]
    for s in seeds:
        ev.mark_seed(s)
    vs = np.arange(0, n, 3)
    assert R * (sk.center_index[vs] < 0).sum() > 2 * _PAIR_BLOCK  # >= 3 blocks

    visits0 = ev.n_visits
    batch = ev.evaluate(vs)
    batch_visits = ev.n_visits - visits0
    singles, single_visits = [], 0
    for v in vs:
        visits0 = ev.n_visits
        singles.append(ev.evaluate(np.array([v]))[0])
        single_visits += ev.n_visits - visits0
    assert batch.tolist() == singles
    assert batch_visits == single_visits
    assert batch.tolist() == [brute_marginal(csr, probs, R, v, seeds) for v in vs]


@pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("graph", ["rmat", "grid"])
def test_mark_seed_block_equals_single_get_centers(graph, alpha):
    """MarkSeed runs its R GetCenters as one block; it zeroes the labels
    and counts the visits of R scalar ``get_center`` calls, whose results
    the array form of ``get_center`` also returns."""
    gen, n, p = GRAPH_CASES[graph]
    csr = build_csr(gen(), n=n)
    probs = consistent_probs(csr, p)
    sk = build_sketches_local(csr, probs, R=16, alpha=alpha)
    ev = LocalEvaluator(csr, probs, sk)
    ev.mark_seed(1)
    # A vertex that is no center, so its pairs traverse (every vertex is
    # one at α=1, where all R pairs settle at level 0).
    v = int(np.argmin(sk.center_index[n // 2 :])) + n // 2
    args = (csr, probs, sk.center_index, sk.cc)
    singles = [get_center(*args, r, v, ev.seeds_mask) for r in range(sk.R)]
    zeroed = ev.zeroed.copy()
    for r, (_, lab, _) in enumerate(singles):
        if lab >= 0:
            zeroed[r, lab] = True

    block = get_center(*args, np.arange(sk.R), v, ev.seeds_mask)
    assert [a.tolist() for a in block] == [list(col) for col in zip(*singles)]
    visits0 = ev.n_visits
    ev.mark_seed(v)
    assert ev.n_visits - visits0 == sum(nv for _, _, nv in singles)
    assert np.array_equal(ev.zeroed, zeroed)


@pytest.mark.parametrize("ids", [[-1], [0, 200], [3, 250, 5]],
                         ids=["minus-1", "n", "above-n"])
@pytest.mark.parametrize("backend", ["local", "spark"])
def test_evaluate_rejects_bad_ids(request, monkeypatch, er_setup, backend, ids):
    """Ids outside [0, n) raise ValueError before the batch is placed: no
    Spark job is submitted and no counter moves. The message match keeps
    numpy's own errors from passing."""
    csr, probs, sk = er_setup
    assert csr.n == 200
    if backend == "local":
        ev = LocalEvaluator(csr, probs, sk)
        with pytest.raises(ValueError, match="vertex ids"):
            ev.evaluate(np.array(ids))
    else:
        from repro.core import evaluate as evaluate_mod
        from repro.core.evaluate import SparkEvaluator

        spark = request.getfixturevalue("spark")
        monkeypatch.setattr(evaluate_mod, "_DRIVER_VISITS", 0)  # every batch a job
        ev = SparkEvaluator(spark, csr, probs, sk)
        sc = spark.sparkContext
        group = f"bad-ids-{'-'.join(map(str, ids))}"
        sc.setJobGroup(group, "rejected evaluation batch")
        try:
            with pytest.raises(ValueError, match="vertex ids"):
                ev.evaluate(np.array(ids))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setJobDescription(None)
        assert sc.statusTracker().getJobIdsForGroup(group) == []
        assert ev.n_spark_jobs == 0
    assert (ev.n_reevals, ev.n_jobs, ev.n_visits) == (0, 0, 0)
