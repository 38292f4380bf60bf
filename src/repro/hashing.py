"""Deterministic vectorized hashing — the "fusion" trick.

InfuserMG [32] observed that a sampled graph never needs to be stored:
whether edge ``e`` survives in sketch ``r`` can be decided by a hash of
``(e, r)``, so the sketch id alone reconstructs the sampled graph. PaC-IM
adopts the same idea (paper Sec. 2, Alg. 3 ``Sample``). We implement it
with a splitmix64 finalizer over uint64 numpy arrays so the same bits are
produced on the driver and inside every pandas-UDF task.

An edge is alive iff ``u01(key, salt) < p``. Traversals flip that float
coin arc by arc; the sampled-CC layer flips the same coin for every edge
at once as an integer compare, ``coins(keys, salts, coin_threshold(p))``,
which skips numpy's slow uint64→float64 conversion.

All public functions are pure and vectorized; overflow wraps mod 2**64
(C semantics). Array ufuncs wrap silently but numpy scalars warn
(numpy 1.26.4), so :func:`splitmix64` runs 0-d input as a 1-element array
and no ``np.errstate`` is needed.
"""
from __future__ import annotations

import functools

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_TWO64 = float(2.0**64)


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """splitmix64 finalizer: a high-quality 64-bit mixing function."""
    x = np.asarray(x, dtype=np.uint64)
    if x.ndim == 0:
        return splitmix64(x.reshape(1))[0]
    x = (x ^ (x >> np.uint64(30))) * _M1
    x = (x ^ (x >> np.uint64(27))) * _M2
    return x ^ (x >> np.uint64(31))


def edge_key(u: np.ndarray | int, v: np.ndarray | int) -> np.ndarray:
    """Canonical 64-bit identity of an *undirected* edge.

    Both arc directions (u, v) and (v, u) map to the same key, so a
    sampled graph is consistent no matter which endpoint starts a BFS.
    """
    u = np.asarray(u, dtype=np.uint64)
    v = np.asarray(v, dtype=np.uint64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    return splitmix64((lo << np.uint64(32)) ^ hi)


_MIX0 = splitmix64(_GOLDEN)  # splitmix64(salt·G + G) of salt 0


def salt_mix(salts: np.ndarray) -> np.ndarray:
    """Each salt's share of :func:`u01`, 0 for salt 0:
    ``u01(key ^ salt_mix(salts)[i], 0) == u01(key, salts[i])`` bit for bit.
    The BFS kernel mixes a traversal's salt once and XORs the mix into the
    key of every arc the traversal expands."""
    salts = np.atleast_1d(np.asarray(salts, dtype=np.uint64))
    return splitmix64(salts * _GOLDEN + _GOLDEN) ^ _MIX0


def u01(key: np.ndarray | int, salt: int) -> np.ndarray:
    """Uniform [0, 1] double derived from ``key`` and a scalar ``salt``:
    the 64-bit hash rounded to a double and divided by 2**64.

    The result is 1.0 exactly when the hash is at least 2**64 - 1024 (the
    top 1,024 hashes round up to 2**64), otherwise below 1. ``salt`` is
    the sketch / simulation id (plus a stream offset chosen by the caller
    so sketches, RR sets, and MC simulations never share randomness).
    Many salts at once go through :func:`salt_mix`.
    """
    key = np.asarray(key, dtype=np.uint64)
    return splitmix64(key ^ _mix(int(salt))).astype(np.float64) / _TWO64


def coin_threshold(p: np.ndarray) -> np.ndarray:
    """The uint64 threshold T of each probability: for every hash h,
    ``h < T  ⟺  float64(h) / 2**64 < p``. So :func:`coins` flips
    ``u01(key, salt) < p`` bit for bit with no uint64→float64 conversion.

    The conversion rounds to nearest, ties to even, and is monotone, so the
    alive hashes are the prefix [0, T). With P = p·2**64 (exact): every
    h ≤ 2**53 converts exactly, so T = ceil(P) for P ≤ 2**53. Above, the
    double q just below P and the gap s = P - q bound the hashes that round
    to P or higher: those above the midpoint q + s/2, and the midpoint
    itself iff it rounds up, i.e. iff q's significand q/s is odd. At p = 1
    this gives 2**64 - 1024 (see :func:`u01`).
    """
    big = np.ldexp(np.atleast_1d(np.asarray(p, dtype=np.float64)), 64)
    thresh = np.ceil(np.minimum(big, 2.0**53)).astype(np.uint64)
    hi = big > 2.0**53
    q = np.nextafter(big[hi], 0.0)
    s = big[hi] - q
    thresh[hi] = q.astype(np.uint64) + (s / 2).astype(np.uint64) + (q / s % 2 == 0)
    return thresh


def coins(keys: np.ndarray, salts: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    """(len(salts), len(keys)) bool: ``u01(keys[e], salts[t]) < p[e]``
    bit for bit, where ``thresh`` is :func:`coin_threshold` of p — one XOR,
    one splitmix64 and one integer compare per coin. ``u01`` hashes
    ``key ^ salt_mix(salt) ^ splitmix64(G)``, and the last two terms are
    ``splitmix64(salt·G + G)``."""
    salts = np.atleast_1d(np.asarray(salts, dtype=np.uint64))
    mix = splitmix64(salts * _GOLDEN + _GOLDEN)
    return splitmix64(keys ^ mix[:, None]) < thresh


@functools.lru_cache(maxsize=4096)
def _mix(salt: int) -> np.uint64:  # tiny-array ufuncs cost µs: once per salt
    return salt_mix(salt)[0] ^ _MIX0


# Disjoint salt streams. Each consumer offsets its logical id by one of
# these so e.g. sketch 3 and MC simulation 3 see independent coin flips.
SALT_SKETCH = 0x10_0000
SALT_SIM = 0x20_0000
SALT_RR = 0x30_0000
SALT_PROB = 0x40_0000  # per-edge base probability (Uniform model)
