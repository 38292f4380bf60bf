"""Cross-cutting selector properties (Thms. 4.1, 4.2, 4.4 + α-independence).

The central correctness claims of Sec. 3 + 4 in one place:
- all three selectors pick *identical* seed sets and gains;
- the selected seeds do not depend on the compression ratio α (the
  compressed evaluation returns exactly the same marginals);
- P-tree's extra work is bounded (≤ 2× CELF).
"""
import pytest

from repro.core.celf import celf_select
from repro.core.evaluate import LocalEvaluator
from repro.core.ptree import ptree_select
from repro.core.sketches import build_sketches_local
from repro.core.wintree import wintree_select

SELECTORS = {"celf": celf_select, "ptree": ptree_select, "wintree": wintree_select}


def _run(csr, probs, alpha, selector, k, R=8):
    sk = build_sketches_local(csr, probs, R=R, alpha=alpha)
    ev = LocalEvaluator(csr, probs, sk)
    return SELECTORS[selector](ev, k)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
def test_all_selectors_identical(small_case, alpha):
    _, csr, probs = small_case
    rs = {s: _run(csr, probs, alpha, s, k=8) for s in SELECTORS}
    assert rs["celf"].seeds == rs["ptree"].seeds == rs["wintree"].seeds
    assert rs["celf"].gains == rs["ptree"].gains == rs["wintree"].gains


@pytest.mark.parametrize("selector", sorted(SELECTORS))
def test_alpha_independence(small_case, selector):
    _, csr, probs = small_case
    base = _run(csr, probs, 1.0, selector, k=6)
    for alpha in (0.0, 0.05, 0.3):
        res = _run(csr, probs, alpha, selector, k=6)
        assert res.seeds == base.seeds
        assert res.gains == base.gains


def test_ptree_eval_bound_all_graphs(small_case):
    _, csr, probs = small_case
    c = _run(csr, probs, 1.0, "celf", k=10)
    p = _run(csr, probs, 1.0, "ptree", k=10)
    assert p.n_reevals <= 2 * c.n_reevals


def test_parallel_rounds_far_below_evals(small_case):
    _, csr, probs = small_case
    c = _run(csr, probs, 1.0, "celf", k=10)
    for s in ("ptree", "wintree"):
        r = _run(csr, probs, 1.0, s, k=10)
        assert r.n_jobs <= c.n_jobs
        if c.n_reevals > 40:  # parallelism shows once rounds get big
            assert r.n_jobs < c.n_reevals / 2


@pytest.mark.parametrize("R", [1, 4, 16])
def test_agreement_across_sketch_counts(er_csr, R):
    from repro.graphs.probs import consistent_probs

    probs = consistent_probs(er_csr, 0.15)
    rs = {s: _run(er_csr, probs, 0.5, s, k=5, R=R) for s in SELECTORS}
    assert rs["celf"].seeds == rs["ptree"].seeds == rs["wintree"].seeds


@pytest.mark.parametrize("selector", sorted(SELECTORS))
def test_batches_per_round_count_every_job(er_csr, selector):
    """The shared Alg. 1 loop books each evaluation job to its round."""
    from repro.graphs.probs import consistent_probs

    res = _run(er_csr, consistent_probs(er_csr, 0.15), 0.3, selector, k=7)
    hist = res.extra["batches_per_round"]
    assert len(hist) == 7
    assert sum(hist) == res.n_jobs
    assert min(hist) >= 1
