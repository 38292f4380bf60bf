"""Baselines the paper compares against, plus the Monte-Carlo influence
oracle used by every "Influence" column."""
from repro.baselines.simulate import estimate_spread, estimate_spread_local  # noqa: F401
from repro.baselines.general_greedy import general_greedy  # noqa: F401
from repro.baselines.ris import run_ris, RRBudgetExceeded  # noqa: F401
from repro.baselines.infusermg import run_infusermg  # noqa: F401
