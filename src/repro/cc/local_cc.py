"""Connected components, driver/task-local numpy kernels.

``cc_labels`` hooks and contracts edges: each round maps the remaining
edges to their endpoints' current labels, drops those inside one label,
hooks every label onto the smallest label an edge joins it to, and
pointer-jumps to the roots. Rounds shrink the edge list as components
merge, so a long path costs a few rounds where min-label propagation
needs one per hop of its diameter. It labels each sketch's sampled graph
in the driver sketch build (paper Alg. 3 line 2, where the authors use
ConnectIt) and again in the evaluator's CC pass, and each Monte-Carlo CC
block, on the driver or in a Spark MC task.
"""
from __future__ import annotations

import numpy as np


def cc_labels(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """CC labels for an n-vertex graph given arc endpoint arrays.

    The returned label of a component is the minimum vertex id in it —
    a canonical form every other CC implementation here is tested
    against. A label only ever hooks onto a smaller one, so the minimum
    vertex of a component stays its root.
    """
    lab = np.arange(n, dtype=np.int64)
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    while True:
        a, b = lab[us], lab[vs]
        cross = a != b
        if not cross.any():
            return lab
        a, b = a[cross], b[cross]
        us, vs = np.maximum(a, b), np.minimum(a, b)
        # Hook: every larger root adopts the smallest root joined to it.
        np.minimum.at(lab, us, vs)
        # Compress: pointer-jump until every vertex points at a root.
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped
