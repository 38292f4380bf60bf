"""Unit tests for the deterministic hash sampler (fusion trick)."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing import (
    SALT_PROB,
    SALT_RR,
    SALT_SIM,
    SALT_SKETCH,
    coin_threshold,
    coins,
    edge_key,
    salt_mix,
    splitmix64,
    u01,
)
from tests.conftest import u01_key


def test_splitmix_deterministic():
    x = np.arange(1000, dtype=np.uint64)
    assert np.array_equal(splitmix64(x), splitmix64(x))


def test_splitmix_scalar_matches_vector():
    xs = np.array([0, 1, 2, 12345, 2**63], dtype=np.uint64)
    vec = splitmix64(xs)
    for i, x in enumerate(xs):
        assert splitmix64(int(x)) == vec[i]


def test_splitmix_no_collisions_small_range():
    out = splitmix64(np.arange(100_000, dtype=np.uint64))
    assert len(np.unique(out)) == 100_000


def test_splitmix_avalanche():
    # Flipping one input bit flips ~half the output bits on average.
    x = np.arange(1, 2049, dtype=np.uint64)
    a = splitmix64(x)
    b = splitmix64(x ^ np.uint64(1))
    flipped = np.array(
        [bin(int(av) ^ int(bv)).count("1") for av, bv in zip(a, b)]
    )
    assert 28 < flipped.mean() < 36


@pytest.mark.parametrize("u,v", [(0, 1), (5, 3), (1000, 17), (2**31, 7)])
def test_edge_key_symmetric(u, v):
    assert edge_key(u, v) == edge_key(v, u)


def test_edge_key_distinct_edges():
    us = np.repeat(np.arange(200), 200)
    vs = np.tile(np.arange(200), 200)
    mask = us < vs
    keys = edge_key(us[mask], vs[mask])
    assert len(np.unique(keys)) == mask.sum()


def test_u01_range_and_mean():
    keys = splitmix64(np.arange(50_000, dtype=np.uint64))
    x = u01(keys, 3)
    assert x.min() >= 0.0 and x.max() < 1.0
    assert abs(x.mean() - 0.5) < 0.01
    assert abs(x.std() - (1 / 12) ** 0.5) < 0.01


def test_u01_deterministic():
    keys = splitmix64(np.arange(100, dtype=np.uint64))
    assert np.array_equal(u01(keys, 42), u01(keys, 42))


@pytest.mark.parametrize("s1,s2", [(0, 1), (5, 6), (SALT_SKETCH, SALT_SIM)])
def test_u01_salts_independent(s1, s2):
    keys = splitmix64(np.arange(20_000, dtype=np.uint64))
    a, b = u01(keys, s1), u01(keys, s2)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.03


def test_salt_streams_disjoint():
    salts = [SALT_SKETCH, SALT_SIM, SALT_RR, SALT_PROB]
    assert len(set(salts)) == 4
    # A few thousand logical ids never cross streams.
    assert min(abs(a - b) for a in salts for b in salts if a != b) > 60_000


@pytest.mark.parametrize("p", [0.02, 0.1, 0.3, 0.5])
def test_sampling_rate_matches_p(p):
    keys = splitmix64(np.arange(40_000, dtype=np.uint64))
    rate = (u01(keys, 7) < p).mean()
    assert abs(rate - p) < 0.01


def test_sampling_independent_across_sketches():
    # The same edge is sampled independently in different sketches.
    keys = splitmix64(np.arange(40_000, dtype=np.uint64))
    a = u01(keys, SALT_SKETCH + 0) < 0.5
    b = u01(keys, SALT_SKETCH + 1) < 0.5
    joint = (a & b).mean()
    assert abs(joint - 0.25) < 0.01


@pytest.mark.parametrize("stream", [SALT_SKETCH, SALT_SIM, SALT_RR, SALT_PROB])
def test_premixed_u01_equals_u01(stream):
    # The BFS kernel's form: one mix per salt, XORed into each arc key.
    rng = np.random.default_rng(stream)
    keys = rng.integers(0, 2**64, 5000, dtype=np.uint64, endpoint=False)
    salts = stream + rng.integers(0, 4096, 5000)
    want = np.array([u01(k, int(s)) for k, s in zip(keys[:300], salts[:300])])
    got = u01(keys ^ salt_mix(salts), 0)
    assert np.array_equal(got[:300].view(np.uint64), want.view(np.uint64))
    for s in np.unique(salts)[:20]:
        mine = salts == s
        assert np.array_equal(got[mine], u01(keys[mine], int(s)))
    assert salt_mix(0).tolist() == [0]


SCALARS = [0, 1, 7, 12345, 2**32 + 5, 2**63, 2**64 - 1]


@pytest.mark.parametrize("x", SCALARS)
def test_scalar_inputs_raise_no_overflow_warning(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arg in (x, np.asarray(x, dtype=np.uint64)):
            splitmix64(arg)
            salt_mix(arg)
            edge_key(arg, 2**32 - 1)
            edge_key(3, arg % 2**32)
            u01(arg, SALT_SKETCH + 3)
            u01(7, x)


def test_array_results_equal_scalar_results():
    xs = np.array(SCALARS, dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert splitmix64(xs).tolist() == [int(splitmix64(int(x))) for x in xs]
        assert salt_mix(xs).tolist() == [int(salt_mix(int(x))[0]) for x in xs]
        assert u01(xs, 9).tolist() == [float(u01(int(x), 9)) for x in xs]
        assert u01(xs, 9).tolist() == [float(u01(np.asarray(x), 9)) for x in xs]
        vs = xs % np.uint64(2**32)
        assert edge_key(vs, vs[::-1]).tolist() == [
            int(edge_key(int(a), int(b))) for a, b in zip(vs, vs[::-1])
        ]


def test_u01_is_one_for_the_top_1024_hashes():
    """``u01`` rounds the 1,024 hashes ≥ 2**64 - 1024 up to exactly 1.0
    and every smaller hash below 1; keys found by inverting splitmix64."""
    for salt in (0, SALT_SKETCH + 5, SALT_RR + 0xBEEF):
        for h in (2**64 - 1, 2**64 - 1000, 2**64 - 1024):
            assert float(u01(u01_key(h, salt), salt)) == 1.0
        for h in (2**64 - 1025, 2**64 - 2048, 2**63):
            assert float(u01(u01_key(h, salt), salt)) < 1.0
    assert u01_key(2**64 - 1, 0) == 3295135839792029807
    assert float(u01(3295135839792029807, 0)) == 1.0


def _around_threshold(p: np.ndarray) -> tuple:
    """(x, p, T) for every x in {T-2, …, T+1} of each p's threshold T,
    within uint64."""
    t = coin_threshold(p)
    xs = [min(max(int(x) + d, 0), 2**64 - 1) for x in t for d in (-2, -1, 0, 1)]
    return np.array(xs, dtype=np.uint64), np.repeat(p, 4), np.repeat(t, 4)


# p = 0 and 1, multiples of 2**-53 (where P = p·2**64 crosses 2**11·k,
# the hashes that convert exactly) and the binade edges, each with its
# float neighbours.
_EDGE_PS = [0.0, 1.0, 2.0**-11, 2.0**-12, 0.5, 0.25, 3 * 2.0**-53,
            (2**52 + 1) * 2.0**-53, (2**53 - 1) * 2.0**-53, 5e-324, 1e-300]


@pytest.mark.parametrize("p", _EDGE_PS)
def test_coin_threshold_at_boundaries(p):
    near = np.array([np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)])
    near = near[(near >= 0) & (near <= 1)]
    x, pr, t = _around_threshold(near)
    assert ((x < t) == (x.astype(np.float64) / 2**64 < pr)).all()


def test_coin_threshold_of_one_and_zero():
    assert coin_threshold(np.array([0.0, 1.0])).tolist() == [0, 2**64 - 1024]


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.floats(0.0, 1.0),
    st.integers(0, 2**53).map(lambda k: k * 2.0**-53),
    st.integers(0, 2**53).map(lambda k: float(np.nextafter(k * 2.0**-53, 1.0))),
))
def test_coin_threshold_splits_hashes_like_the_float_coin(p):
    """``x < T(p)`` iff ``float64(x) / 2**64 < p``, for x from T - 2 to
    T + 1: T is exactly the first hash whose ``u01`` reaches p."""
    x, pr, t = _around_threshold(np.array([p]))
    assert ((x < t) == (x.astype(np.float64) / 2**64 < pr)).all()


@pytest.mark.parametrize("stream", [SALT_SKETCH, SALT_SIM, SALT_RR])
def test_coins_equal_u01_coins(stream):
    rng = np.random.default_rng(stream)
    keys = rng.integers(0, 2**64, 4000, dtype=np.uint64, endpoint=False)
    keys[:3] = [u01_key(2**64 - 1, stream + 2), u01_key(2**64 - 1024, stream),
                u01_key(2**64 - 1025, stream + 1)]
    p = rng.choice([0.0, 0.05, 0.3, 1.0, np.nextafter(1.0, 0.0)], 4000)
    salts = stream + np.arange(5)
    got = coins(keys, salts, coin_threshold(p))
    want = np.array([u01(keys, int(s)) < p for s in salts])
    assert np.array_equal(got, want)
