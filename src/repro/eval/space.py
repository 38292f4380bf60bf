"""Analytic auxiliary-space accounting (DESIGN.md §2).

All variants share one JVM, so per-variant RSS is meaningless; the
paper's space columns are reproduced from the data-structure sizes the
algorithms actually allocate:

- input graph: CSR at 8 bytes per vertex and per arc (paper Sec. 5.1);
- sketches: one int32 ``cc`` entry per (sketch, center) plus the center
  directory — O((1 + αR)n), Thm. 3.1;
- MarkSeed state: the (R, ρ) bool mask of zeroed labels and the n-byte
  seed mask every selection allocates;
- selection structure: heap / P-tree nodes / Win-Tree id array;
- initial scores: one float64 per vertex;
- RIS: one 8-byte entry per (RR-set, member) pair plus the cover state.
"""
from __future__ import annotations

from repro.graphs.csr import CSR, csr_bytes


def pacim_bytes(csr: CSR, evaluator, structure_bytes: int) -> dict:
    """Space breakdown for a PaC-IM run (any α, any selector): the arrays
    ``evaluator`` and its sketches hold, plus the selection structure."""
    sk = evaluator.sk
    aux = (sk.aux_bytes() + evaluator.zeroed.nbytes + evaluator.seeds_mask.nbytes
           + structure_bytes + sk.init_scores.nbytes)
    return {
        "csr_bytes": csr_bytes(csr),
        "aux_bytes": aux,
        "total_bytes": csr_bytes(csr) + aux,
    }


def ris_bytes(csr: CSR, total_rr_entries: int) -> dict:
    """Space breakdown for a Ripples-style RIS run."""
    aux = 8 * total_rr_entries + 8 * csr.n  # memberships + cover counters
    return {
        "csr_bytes": csr_bytes(csr),
        "aux_bytes": aux,
        "total_bytes": csr_bytes(csr) + aux,
    }
