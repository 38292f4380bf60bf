"""Parallel-connectivity substrate (the paper uses ConnectIt [27]).

``local_cc`` is the vectorized numpy kernel. It labels each sampled graph
of the driver sketch build, and the disjoint union of a block of sampled
graphs in a Monte-Carlo CC block (``baselines.simulate``). BFS
traversals of a sampled graph, a block at a time, are
:func:`repro.core.evaluate.next_level`.
"""
from repro.cc.local_cc import cc_labels, cc_sizes  # noqa: F401
