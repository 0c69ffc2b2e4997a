"""Static verifier + lint framework for plans, expressions and ∆-scripts.

Four per-view passes over a shared diagnostic model, run in the order
of the :data:`PASSES` table (see docs/ANALYSIS.md):

* ``typecheck`` — 3VL-aware type & nullability inference (TC1xx)
* ``keys``      — key/FD audit of the ID inference claims (KEY2xx)
* ``script``    — ∆-script IR read/write-set checker (SC3xx) and
  write-journal coverage of every counted writer (RACE604)
* ``cost``      — symbolic cost inference & minimality lints (COST5xx)

plus one catalog-scoped pass, in :data:`CATALOG_PASSES`, that sees
every defined view at once:

* ``sharing``   — cross-view sub-plan sharing detection (SHARE7xx)

Sharding is not linted: whether a round routes in parallel is decided
per round by :func:`repro.shard.router.plan_route`, whose veto walk is
the one static proof of shard disjointness, and reported on the round
(``ShardedMaintenanceReport.parallel`` / ``.broadcast_reason``);
``race_check=True`` on :class:`~repro.core.sharded.ShardedEngine` checks
the same claim at run time.

Entry points: :func:`analyze_plan` for a bare algebra plan,
:func:`analyze_generated` for compiler output (``repro lint`` and the
fuzzer reach it through :func:`repro.analysis.cost.lint_definition`,
the one gate a view's script passes), and :func:`analyze_catalog` for
the catalog scope.
``repro lint --cache-dir DIR`` replays reports through
:class:`AnalysisCache`, whose file is valid only for the code that
wrote it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.idinfer import annotate_plan
from .diagnostics import (
    ERROR,
    INFO,
    RULES,
    WARNING,
    AnalysisReport,
    Diagnostic,
    Rule,
)
from .registry import AnalysisContext, CatalogContext, run_table
from .typecheck import typecheck_pass
from .keys import keys_pass
from .script_check import script_pass
from .cost import cost_pass
from .sharing import CatalogViewFacts, sharing_pass, view_facts
from .fingerprint import (
    FingerprintError,
    generated_fingerprint,
    plan_fingerprint,
    plan_fingerprints,
    script_fingerprint,
)
from .cache import (
    AnalysisCache,
    entry_from_report,
    plan_cache_key,
    report_from_entry,
)

#: The per-view passes, in run order: cheap local checks first, pricing
#: last.  Adding a pass is adding a row.
PASSES = (
    ("typecheck", typecheck_pass),
    ("keys", keys_pass),
    ("script", script_pass),
    ("cost", cost_pass),
)

#: The catalog-scoped passes: each runs once over the facts of every
#: defined view (cross-view sharing needs the whole catalog), so they
#: are kept apart from :data:`PASSES`, which callers run per view.
CATALOG_PASSES = (("sharing", sharing_pass),)


def pass_names() -> tuple[str, ...]:
    return tuple(name for name, _ in PASSES)


def catalog_pass_names() -> tuple[str, ...]:
    return tuple(name for name, _ in CATALOG_PASSES)


def run_passes(
    ctx: AnalysisContext, names: Optional[Sequence[str]] = None
) -> AnalysisReport:
    """Run the selected per-view passes (all, by default) over *ctx*."""
    return run_table(PASSES, ctx, names, "analysis")


def analyze_plan(plan) -> AnalysisReport:
    """Run the plan-level passes over a (possibly un-annotated) plan."""
    if plan.node_id == -1:
        plan = annotate_plan(plan)
    return run_passes(AnalysisContext(plan=plan))


def analyze_generated(generated, db=None, names=None, stats=None) -> AnalysisReport:
    """Run every applicable pass over a :class:`GeneratedPlan`.

    Without *db* the cost pass skips itself (pricing needs the data);
    everything else runs.  The script analyzed is ``generated.script`` —
    the one object the engine executes under either backend.  *stats* is
    the ``PlanStats`` of the definition that produced it, if any.
    """
    ctx = AnalysisContext(
        plan=generated.plan,
        script=generated.script,
        base_schemas=list(generated.base_schemas),
        generated=generated,
        db=db,
        stats=stats,
    )
    return run_passes(ctx, names)


def analyze_catalog(views) -> AnalysisReport:
    """Run the catalog-scoped passes over per-view facts.

    *views* is an iterable of :class:`~repro.analysis.sharing.
    CatalogViewFacts` (build them with :func:`view_facts`, or replay
    them from the analysis cache).
    """
    return run_table(CATALOG_PASSES, CatalogContext(views=list(views)), None, "catalog")


__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "RULES",
    "Rule",
    "Diagnostic",
    "AnalysisReport",
    "AnalysisContext",
    "CatalogContext",
    "PASSES",
    "CATALOG_PASSES",
    "CatalogViewFacts",
    "pass_names",
    "catalog_pass_names",
    "run_passes",
    "analyze_plan",
    "analyze_generated",
    "analyze_catalog",
    "view_facts",
    "plan_fingerprint",
    "plan_fingerprints",
    "script_fingerprint",
    "generated_fingerprint",
    "FingerprintError",
    "AnalysisCache",
    "plan_cache_key",
    "entry_from_report",
    "report_from_entry",
]
