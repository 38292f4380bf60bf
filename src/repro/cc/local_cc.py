"""Connected components, driver/task-local numpy kernels.

``cc_labels`` is min-label propagation with pointer jumping — fully
vectorized, converges in O(log n) rounds on typical inputs. It labels
each sketch's sampled graph in the driver sketch build (paper Alg. 3
line 2, where the authors use ConnectIt) and again in the evaluator's
CC pass, and each Monte-Carlo CC block, on the driver or in a Spark MC
task.
"""
from __future__ import annotations

import numpy as np


def cc_labels(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """CC labels for an n-vertex graph given arc endpoint arrays.

    The returned label of a component is the minimum vertex id in it —
    a canonical form every other CC implementation here is tested
    against.
    """
    lab = np.arange(n, dtype=np.int64)
    if len(us) == 0:
        return lab
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    while True:
        # Hook: every endpoint adopts the smaller of the two labels.
        new = lab.copy()
        np.minimum.at(new, us, lab[vs])
        np.minimum.at(new, vs, lab[us])
        # Compress: pointer-jump until labels are self-referential.
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, lab):
            return lab
        lab = new

