"""Relational algebra: plans, full evaluation, and index-driven evaluation."""

from .builder import (
    difference,
    equi_join,
    group_by,
    natural_join,
    project_columns,
    rename,
    scan,
    where,
)
from .delta_eval import Bindings, fetch
from .explain import explain_plan
from .evaluate import aggregate_rows, evaluate_plan, materialize
from .plan import (
    AGG_FUNCS,
    ASSOCIATIVE_AGGS,
    AggSpec,
    AntiJoin,
    GroupBy,
    Join,
    PlanNode,
    Project,
    Scan,
    SemiJoin,
    Select,
    UnionAll,
    scans_of,
)
from .relation import Relation

__all__ = [
    "AGG_FUNCS",
    "ASSOCIATIVE_AGGS",
    "AggSpec",
    "AntiJoin",
    "Bindings",
    "GroupBy",
    "Join",
    "PlanNode",
    "Project",
    "Relation",
    "Scan",
    "Select",
    "SemiJoin",
    "UnionAll",
    "aggregate_rows",
    "difference",
    "equi_join",
    "evaluate_plan",
    "explain_plan",
    "fetch",
    "group_by",
    "materialize",
    "natural_join",
    "project_columns",
    "rename",
    "scan",
    "scans_of",
    "where",
]
