"""InfuserMG [32] emulation (DESIGN.md §2).

InfuserMG memoizes per-vertex CC information for every sketch (O(Rn)
space) and selects seeds with sequential CELF — parallelism only
*within* one evaluation. In the variant matrix of paper Tab. 2 that is
exactly PaC-IM with α = 1 and the 'celf' selector, so the emulation is
a thin parameterization of :func:`repro.core.pacim.run_pacim`: every
re-evaluation is its own 1-vertex round, which reproduces the
baseline's selection-scalability wall (paper Fig. 7) in rounds. The
whole emulation runs on the driver, so it takes no Spark session.

The real InfuserMG also loses solution quality on sparse graphs through
internal shortcuts (paper Sec. 5: 38–92% of the best influence); our
emulation is quality-faithful and does not replicate that bug.
"""
from __future__ import annotations

import numpy as np

from repro.core.pacim import run_pacim
from repro.graphs.csr import CSR


def run_infusermg(
    csr: CSR, probs: np.ndarray, *, R: int, k: int, max_eval_jobs: int | None = None
) -> dict:
    """α = 1 full memoization + sequential CELF, on the driver."""
    return run_pacim(
        None, csr, probs, R=R, alpha=1.0, k=k,
        selector="celf", backend="local", max_eval_jobs=max_eval_jobs,
    )
