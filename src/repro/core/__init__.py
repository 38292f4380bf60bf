"""PaC-IM core: compressed sketches, marginal-gain evaluation, and the
three seed-selection strategies (CELF, P-tree, Win-Tree)."""
from repro.core.sketches import Sketches, build_sketches, build_sketches_local  # noqa: F401
from repro.core.evaluate import LocalEvaluator  # noqa: F401
from repro.core.pacim import run_pacim  # noqa: F401
