"""Parallel-connectivity substrate (the paper uses ConnectIt [27]).

``local_cc`` is the vectorized numpy kernel run inside each per-sketch
Spark task. BFS traversals of a sampled graph, a block at a time, are
:func:`repro.core.evaluate.next_level`.
"""
from repro.cc.local_cc import cc_labels, cc_sizes  # noqa: F401
