"""Analytical cost model (paper Section 6, Appendix A) and its empirical
parameter extraction."""

from .measure import MeasuredParameters, measure_a, observed_speedup
from .symbolic import (
    CostExpr,
    CostVector,
    ScriptCostModel,
    StepCost,
    card_symbol,
    diff_sizes_env,
)
from .model import (
    AggCosts,
    SpjCosts,
    agg_general_speedup_bound,
    agg_insert_speedup,
    agg_update_speedup,
    estimate_a_for_chain,
    estimate_p_for_chain,
    spj_general_speedup_bound,
    spj_update_speedup,
    tuple_based_break_even_a,
)

__all__ = [
    "AggCosts",
    "CostExpr",
    "CostVector",
    "MeasuredParameters",
    "ScriptCostModel",
    "SpjCosts",
    "StepCost",
    "card_symbol",
    "diff_sizes_env",
    "agg_general_speedup_bound",
    "agg_insert_speedup",
    "agg_update_speedup",
    "estimate_a_for_chain",
    "estimate_p_for_chain",
    "measure_a",
    "observed_speedup",
    "spj_general_speedup_bound",
    "spj_update_speedup",
    "tuple_based_break_even_a",
]
