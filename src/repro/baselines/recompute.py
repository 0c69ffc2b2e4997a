"""Full-recomputation baseline: the correctness oracle and the IVM
break-even comparator (the paper notes IVM stops paying off around diff
sizes of ~15k tuples, Section 7.2 footnote 9)."""

from __future__ import annotations

from ..algebra.evaluate import materialize
from ..algebra.plan import PlanNode
from ..core.compile import LoweredPlan
from ..core.engine import (
    MaintenanceEngine,
    MaintenanceReport,
    counted_phase,
    counts_since,
)
from ..storage import Table


class RecomputeView:
    #: recomputation reads the post-state only
    pre_tables: frozenset[str] = frozenset()
    #: nothing to journal: a round swaps a fresh table in only on success
    written_tables: tuple[Table, ...] = ()

    def __init__(self, name: str, plan: PlanNode, table: Table, lowered: LoweredPlan):
        self.name = name
        self.plan = plan
        self.table = table
        #: the plan's generated operators, lowered at definition
        self.lowered = lowered


class RecomputeEngine(MaintenanceEngine):
    """Maintains views by recomputing them from scratch: the shared
    maintenance round with a rule that reads only the post-state."""

    def _define(self, name: str, annotated: PlanNode, stats) -> RecomputeView:
        """Materialize the plan and keep its generated operators;
        maintenance will re-run them from scratch."""
        table = materialize(annotated, self.db, name, stats)
        return RecomputeView(name, annotated, table, LoweredPlan(annotated, stats.kernel))

    def _maintain_view(self, view: RecomputeView, db_pre, entries, view_span) -> MaintenanceReport:
        """Re-evaluate the view over the current database (counted)."""
        counters = self.db.counters
        before = counters.mark()
        with counted_phase(counters, "recompute"):
            result = view.lowered.evaluate(view.plan, self.db)
            fresh = Table(view.table.schema, counters)
            for row in result.rows:
                fresh.insert(row)
        view.table = fresh
        return MaintenanceReport(
            view.name, phase_counts=counts_since(counters, before)
        )
