"""Tests for the Ripples (RIS) emulation."""
import numpy as np
import pytest

from repro.baselines.ris import (
    RRBudgetExceeded,
    _rr_root,
    choose_theta,
    generate_rr_sets,
    greedy_max_cover,
    run_ris,
)
from repro.cc.local_cc import cc_labels
from repro.core.sketches import sampled_arcs
from repro.graphs.csr import build_csr
from repro.graphs.probs import consistent_probs
from repro.hashing import SALT_RR
from tests.conftest import erdos_renyi, u01_key


@pytest.fixture(scope="module")
def graph():
    csr = build_csr(erdos_renyi(150, 400, seed=17), n=150)
    return csr, consistent_probs(csr, 0.2)


def test_rr_set_is_component_of_root(graph):
    csr, probs = graph
    ids, members = generate_rr_sets(None, csr, probs, 10)
    for i in range(10):
        root = _rr_root(i, 0, csr.n)
        rr = members[ids == i]
        us, vs = sampled_arcs(csr, probs, SALT_RR + i)
        lab = cc_labels(csr.n, us, vs)
        assert sorted(rr) == sorted(np.flatnonzero(lab == lab[root]))


def test_roots_roughly_uniform(graph):
    csr, _ = graph
    roots = np.array([_rr_root(i, 0, csr.n) for i in range(6000)])
    assert roots.min() >= 0 and roots.max() < csr.n
    counts = np.bincount(roots, minlength=csr.n)
    assert counts.max() < 6 * counts.mean()


def test_root_in_range_where_u01_is_one():
    """The 1,024 hashes whose ``u01`` is 1.0 give root n - 1, not n; keys
    found by inverting splitmix64."""
    salt = SALT_RR + 0xBEEF
    keys = [u01_key(h, salt) for h in (2**64 - 1, 2**64 - 512, 2**64 - 1024)]
    assert keys[0] == 7526050937030644245
    assert _rr_root(keys[0], 0, 100) == 99
    assert _rr_root(np.array(keys, dtype=np.uint64), 0, 100).tolist() == [99] * 3
    below = u01_key(2**64 - 1025, salt)
    assert _rr_root(below, 0, 100) == 99  # u01 < 1, already below n


def test_generate_local_shapes(graph):
    csr, probs = graph
    ids, members = generate_rr_sets(None, csr, probs, 32)
    assert len(ids) == len(members)
    assert set(ids.tolist()) == set(range(32))


def _brute_best_cover(sets, n, k):
    """Exhaustive greedy max-cover reference over explicit sets."""
    covered = set()
    seeds = []
    for _ in range(k):
        best_v, best_gain = 0, -1
        for v in range(n):
            gain = sum(1 for i, s in enumerate(sets) if i not in covered and v in s)
            if gain > best_gain:
                best_v, best_gain = v, gain
        seeds.append(best_v)
        covered |= {i for i, s in enumerate(sets) if best_v in s}
    return seeds, len(covered) / len(sets)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_greedy_max_cover_matches_reference(seed):
    g = np.random.default_rng(seed)
    sets = [set(g.choice(20, size=g.integers(1, 6), replace=False).tolist())
            for _ in range(30)]
    ids = np.concatenate([np.full(len(s), i) for i, s in enumerate(sets)])
    members = np.concatenate([np.array(sorted(s)) for s in sets])
    seeds, cov = greedy_max_cover(ids, members, 20, 30, 4)
    want_seeds, want_cov = _brute_best_cover(sets, 20, 4)
    assert seeds == want_seeds
    assert cov == pytest.approx(want_cov)


def test_greedy_max_cover_never_repeats_a_seed():
    # Both RR sets are covered by vertex 2; later picks are the smallest
    # ids not chosen yet, not vertex 0 again.
    seeds, cov = greedy_max_cover(np.array([0, 0, 1, 1]), np.array([2, 3, 2, 4]),
                                  5, 2, 3)
    assert seeds == [2, 0, 1]
    assert cov == 1.0


@pytest.mark.parametrize("p", [0.9, 1.0])
def test_run_ris_distinct_seeds_once_all_covered(p):
    csr = build_csr(erdos_renyi(60, 150, seed=1), n=60)
    res = run_ris(None, csr, consistent_probs(csr, p), k=5)
    assert len(set(res["seeds"])) == 5


def test_cover_fraction_monotone(graph):
    csr, probs = graph
    ids, members = generate_rr_sets(None, csr, probs, 64)
    covs = [
        greedy_max_cover(ids, members, csr.n, 64, k)[1] for k in (1, 3, 6, 10)
    ]
    assert covs == sorted(covs)


def test_choose_theta_monotonicity():
    assert choose_theta(1000, 10, 0.5, 100) > choose_theta(1000, 10, 0.5, 500)
    assert choose_theta(1000, 10, 0.2, 100) > choose_theta(1000, 10, 0.5, 100)
    assert choose_theta(2000, 10, 0.5, 100) > choose_theta(1000, 10, 0.5, 100)


def test_run_ris_local_quality(graph):
    """RIS seeds must be near the sketch-greedy seeds in MC influence."""
    from repro.baselines.simulate import estimate_spread_local
    from repro.core.pacim import run_pacim

    csr, probs = graph
    ris = run_ris(None, csr, probs, k=5, eps=0.5, pilot_theta=256,
                  theta_cap=4000)
    pac = run_pacim(None, csr, probs, R=32, alpha=1.0, k=5, backend="local")
    s_ris = estimate_spread_local(csr, probs, ris["seeds"], n_sims=400)
    s_pac = estimate_spread_local(csr, probs, pac["seeds"], n_sims=400)
    assert s_ris >= 0.85 * s_pac
    assert len(ris["seeds"]) == 5
    assert ris["space"]["total_bytes"] > 0


def test_run_ris_without_a_session_runs_on_the_driver(graph):
    """No session, default arguments: the RR sets are generated on the
    driver rather than failing inside the Spark job."""
    csr, probs = graph
    assert len(run_ris(None, csr, probs, k=3)["seeds"]) == 3


def test_run_ris_budget_exceeded(graph):
    csr, probs = graph
    with pytest.raises(RRBudgetExceeded):
        run_ris(None, csr, probs, k=5, eps=0.5, pilot_theta=64,
                entry_budget=10)


def test_rr_salts_disjoint_from_sketch_salts(graph):
    csr, probs = graph
    us_rr, _ = sampled_arcs(csr, probs, SALT_RR + 1)
    from repro.hashing import SALT_SKETCH

    us_sk, _ = sampled_arcs(csr, probs, SALT_SKETCH + 1)
    assert len(us_rr) != len(us_sk) or not np.array_equal(us_rr, us_sk)


@pytest.mark.parametrize(
    "key, bad, match",
    [
        ("k", 0, "k must"),
        ("k", 151, "k must"),
        ("probs", lambda p: p[:-1], "one value per arc"),
        ("probs", 1.7, "one value per arc"),
        ("probs", lambda p: np.r_[np.nan, p[1:]], "finite"),
        ("probs", lambda p: np.full_like(p, 1.7), "finite"),
        ("eps", -1.0, "eps must"),
        ("eps", 0.0, "eps must"),
        ("pilot_theta", 0, "pilot_theta must"),
    ],
    ids=["k-zero", "k-above-n", "probs-short", "probs-scalar", "probs-nan",
         "probs-above-1", "eps-negative", "eps-zero", "pilot-zero"],
)
def test_run_ris_rejects_bad_arguments(graph, key, bad, match):
    """Bad arguments fail at the boundary, not as a full θ run, a math
    domain error or deep inside numpy."""
    csr, probs = graph
    args = {"k": 3, "probs": probs, "pilot_theta": 64}
    args[key] = bad(probs) if callable(bad) else bad
    with pytest.raises(ValueError, match=match):
        run_ris(None, csr, **args)
