"""What an analysis pass reads, and the loop that runs a table of passes.

A pass is a callable ``(AnalysisContext) -> None`` that appends to
``ctx.report``.  The passes themselves are listed, in run order, in the
tables of :mod:`repro.analysis` (``PASSES`` and ``CATALOG_PASSES``);
passes declare what they need (a script, a database) by returning early
when the context lacks it, so one table serves plan-only,
post-generation and full-workload analyses alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..algebra.plan import PlanNode
from ..core.diffs import DiffSchema
from ..core.script import DeltaScript
from ..storage import Database
from .diagnostics import AnalysisReport

if TYPE_CHECKING:  # analysis.cost imports this module
    from .cost import PlanStats


@dataclass
class AnalysisContext:
    """Everything a pass may consult.  Only *plan* is mandatory."""

    plan: PlanNode
    script: Optional[DeltaScript] = None
    base_schemas: list[DiffSchema] = field(default_factory=list)
    #: the full GeneratedPlan when analyzing compiler output (duck-typed
    #: to avoid importing the generator from the analyzer)
    generated: object = None
    db: Optional[Database] = None
    #: the ``PlanStats`` of the definition being analyzed, when there is
    #: one: the cost pass prices its alternatives from it
    stats: Optional[PlanStats] = None
    report: AnalysisReport = field(default_factory=AnalysisReport)


@dataclass
class CatalogContext:
    """Input to catalog-scoped passes: facts about *all* defined views.

    ``views`` holds one :class:`~repro.analysis.sharing.CatalogViewFacts`
    per view (duck-typed here so this module does not import the pass
    modules).
    """

    views: list = field(default_factory=list)
    report: AnalysisReport = field(default_factory=AnalysisReport)


def run_table(
    table: Sequence[tuple[str, Callable]],
    ctx: "AnalysisContext | CatalogContext",
    names: Optional[Sequence[str]],
    scope: str,
) -> AnalysisReport:
    """Run the passes of *table* named in *names* (all, by default) over
    *ctx*, in the order *names* gives; an unknown name is a
    ``ValueError`` naming the *scope*."""
    passes = dict(table)
    for name in names if names is not None else passes:
        try:
            fn = passes[name]
        except KeyError:
            raise ValueError(
                f"unknown {scope} pass {name!r}; have {sorted(passes)}"
            ) from None
        fn(ctx)
    return ctx.report
