"""Static verifier + lint framework for plans, expressions and ∆-scripts.

Six per-view passes over a shared diagnostic model (see
docs/ANALYSIS.md):

* ``typecheck``    — 3VL-aware type & nullability inference (TC1xx)
* ``keys``         — key/FD audit of the ID inference claims (KEY2xx)
* ``script``       — ∆-script IR read/write-set checker (SC3xx)
* ``shard``        — shard routability classification (SH4xx)
* ``cost``         — symbolic cost inference & minimality lints (COST5xx)
* ``interference`` — shard write/read footprint disjointness (RACE6xx)

plus one catalog-scoped pass that sees every defined view at once:

* ``sharing``      — cross-view sub-plan sharing detection (SHARE7xx)

Entry points: :func:`analyze_plan` for a bare algebra plan,
:func:`analyze_generated` for compiler output, :func:`check_generated`
as the strict post-generation assertion (raises on error-severity
diagnostics), and :func:`analyze_catalog` for the catalog scope.
"""

from __future__ import annotations

from ..core.idinfer import annotate_plan
from ..errors import StaticAnalysisError
from .diagnostics import (
    ERROR,
    INFO,
    RULES,
    WARNING,
    AnalysisReport,
    Diagnostic,
    Rule,
)
from .registry import (
    AnalysisContext,
    CatalogContext,
    catalog_pass_names,
    pass_names,
    pass_versions,
    register_catalog_pass,
    register_pass,
    run_catalog_passes,
    run_passes,
)

# Importing the pass modules registers them (registration order = run
# order: cheap local checks first, router probing last).
from . import typecheck as _typecheck  # noqa: F401
from . import keys as _keys  # noqa: F401
from . import script_check as _script_check  # noqa: F401
from . import shard_check as _shard_check  # noqa: F401
from . import cost as _cost  # noqa: F401
from . import interference as _interference  # noqa: F401
from . import sharing as _sharing  # noqa: F401

from .fingerprint import (  # noqa: E402  (re-export)
    FINGERPRINT_VERSION,
    FingerprintError,
    generated_fingerprint,
    plan_fingerprint,
    plan_fingerprints,
    script_fingerprint,
)
from .cache import (  # noqa: E402  (re-export)
    AnalysisCache,
    entry_from_report,
    plan_cache_key,
    report_from_entry,
)
from .sharing import CatalogViewFacts, view_facts  # noqa: E402


def analyze_plan(plan, names=None) -> AnalysisReport:
    """Run the plan-level passes over a (possibly un-annotated) plan."""
    if plan.node_id == -1:
        plan = annotate_plan(plan)
    ctx = AnalysisContext(plan=plan)
    return run_passes(ctx, names)


def analyze_generated(
    generated, db=None, n_shards: int = 2, names=None, stats=None
) -> AnalysisReport:
    """Run every applicable pass over a :class:`GeneratedPlan`.

    Without *db* the shard, interference and cost passes skip themselves
    (routability needs the foreign-key graph, pricing the data);
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
        n_shards=n_shards,
        stats=stats,
    )
    return run_passes(ctx, names)


def check_generated(generated, db=None, stats=None) -> AnalysisReport:
    """Strict gate: analyze and raise on error-severity diagnostics."""
    report = analyze_generated(generated, db=db, stats=stats)
    if report.has_errors():
        lines = [d.render() for d in report.errors]
        raise StaticAnalysisError(
            f"static analysis rejected the generated plan for "
            f"{generated.view_name!r}:\n" + "\n".join(lines)
        )
    return report


def analyze_catalog(views, names=None) -> AnalysisReport:
    """Run the catalog-scoped passes over per-view facts.

    *views* is an iterable of :class:`~repro.analysis.sharing.
    CatalogViewFacts` (build them with :func:`view_facts`, or replay
    them from the analysis cache).
    """
    ctx = CatalogContext(views=list(views))
    return run_catalog_passes(ctx, names)


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
    "CatalogViewFacts",
    "register_pass",
    "register_catalog_pass",
    "pass_names",
    "catalog_pass_names",
    "pass_versions",
    "run_passes",
    "run_catalog_passes",
    "analyze_plan",
    "analyze_generated",
    "analyze_catalog",
    "check_generated",
    "view_facts",
    "plan_fingerprint",
    "plan_fingerprints",
    "script_fingerprint",
    "generated_fingerprint",
    "FingerprintError",
    "FINGERPRINT_VERSION",
    "AnalysisCache",
    "plan_cache_key",
    "entry_from_report",
    "report_from_entry",
]
