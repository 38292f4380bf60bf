"""Deterministic vectorized hashing — the "fusion" trick.

InfuserMG [32] observed that a sampled graph never needs to be stored:
whether edge ``e`` survives in sketch ``r`` can be decided by a hash of
``(e, r)``, so the sketch id alone reconstructs the sampled graph. PaC-IM
adopts the same idea (paper Sec. 2, Alg. 3 ``Sample``). We implement it
with a splitmix64 finalizer over uint64 numpy arrays so the same bits are
produced on the driver and inside every pandas-UDF task.

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
    """Uniform [0, 1) double derived from ``key`` and a scalar ``salt``.

    ``salt`` is the sketch / simulation id (plus a stream offset chosen by
    the caller so sketches, RR sets, and MC simulations never share
    randomness). Many salts at once go through :func:`salt_mix`.
    """
    key = np.asarray(key, dtype=np.uint64)
    return splitmix64(key ^ _mix(int(salt))).astype(np.float64) / _TWO64


@functools.lru_cache(maxsize=4096)
def _mix(salt: int) -> np.uint64:  # tiny-array ufuncs cost µs: once per salt
    return salt_mix(salt)[0] ^ _MIX0


# Disjoint salt streams. Each consumer offsets its logical id by one of
# these so e.g. sketch 3 and MC simulation 3 see independent coin flips.
SALT_SKETCH = 0x10_0000
SALT_SIM = 0x20_0000
SALT_RR = 0x30_0000
SALT_PROB = 0x40_0000  # per-edge base probability (Uniform model)
