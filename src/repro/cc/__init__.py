"""Parallel-connectivity substrate (the paper uses ConnectIt [27]).

``local_cc.cc_labels`` is the one CC kernel, vectorized numpy. It labels
each sampled graph of the driver sketch build and of the evaluator's CC
pass (``core.evaluate``), and the disjoint union of a block of sampled
graphs in a Monte-Carlo CC block (``baselines.simulate``). BFS traversals of a sampled graph, a block at
a time, are :func:`repro.core.evaluate.next_level`.
"""
from repro.cc.local_cc import cc_labels  # noqa: F401
