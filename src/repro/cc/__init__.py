"""Parallel-connectivity substrate (the paper uses ConnectIt [27]).

``local_cc`` is the vectorized numpy kernel run inside each per-sketch
Spark task. Single-source traversals of a sampled graph are
:func:`repro.core.evaluate.sampled_levels`.
"""
from repro.cc.local_cc import cc_labels, cc_sizes  # noqa: F401
