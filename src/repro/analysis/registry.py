"""Pluggable pass registry for the static analyzer.

A pass is a callable ``(AnalysisContext) -> None`` that appends to
``ctx.report``.  Registration order is execution order; passes declare
what they need (a script, a database) by returning early when the
context lacks it, so one registry serves plan-only, post-generation and
full-workload analyses alike.
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


PassFn = Callable[[AnalysisContext], None]

_PASSES: dict[str, PassFn] = {}
_PASS_VERSIONS: dict[str, int] = {}


def register_pass(name: str, version: int = 1) -> Callable[[PassFn], PassFn]:
    """Decorator: register a pass under *name* (registration order runs).

    *version* feeds the incremental analysis cache: bumping it when a
    pass's diagnostics change invalidates every persisted entry.
    """

    def deco(fn: PassFn) -> PassFn:
        if name in _PASSES:
            raise ValueError(f"analysis pass {name!r} already registered")
        _PASSES[name] = fn
        _PASS_VERSIONS[name] = version
        return fn

    return deco


def pass_names() -> tuple[str, ...]:
    return tuple(_PASSES)


@dataclass
class CatalogContext:
    """Input to catalog-scoped passes: facts about *all* defined views.

    ``views`` holds one :class:`~repro.analysis.sharing.CatalogViewFacts`
    per view (duck-typed here so the registry does not import the pass
    modules it hosts).
    """

    views: list = field(default_factory=list)
    report: AnalysisReport = field(default_factory=AnalysisReport)


CatalogPassFn = Callable[[CatalogContext], None]

_CATALOG_PASSES: dict[str, CatalogPassFn] = {}


def register_catalog_pass(
    name: str, version: int = 1
) -> Callable[[CatalogPassFn], CatalogPassFn]:
    """Decorator: register a catalog-scoped pass.

    Per-view passes see one view at a time; catalog passes run once over
    the facts of every defined view (cross-view sharing detection needs
    the whole catalog).  They live in a separate registry so
    :func:`pass_names` — and every caller that iterates it per view —
    is unaffected.
    """

    def deco(fn: CatalogPassFn) -> CatalogPassFn:
        if name in _CATALOG_PASSES:
            raise ValueError(f"catalog pass {name!r} already registered")
        _CATALOG_PASSES[name] = fn
        _PASS_VERSIONS[name] = version
        return fn

    return deco


def catalog_pass_names() -> tuple[str, ...]:
    return tuple(_CATALOG_PASSES)


def pass_versions() -> dict[str, int]:
    """Name -> version for every registered pass (both scopes), for the
    analysis cache header."""
    return dict(_PASS_VERSIONS)


def run_catalog_passes(
    ctx: CatalogContext, names: Optional[Sequence[str]] = None
) -> AnalysisReport:
    """Run the selected catalog passes (all, by default) over *ctx*."""
    for name in names if names is not None else _CATALOG_PASSES:
        try:
            fn = _CATALOG_PASSES[name]
        except KeyError:
            raise ValueError(
                f"unknown catalog pass {name!r}; have {sorted(_CATALOG_PASSES)}"
            ) from None
        fn(ctx)
    return ctx.report


def run_passes(
    ctx: AnalysisContext, names: Optional[Sequence[str]] = None
) -> AnalysisReport:
    """Run the selected passes (all, by default) over *ctx*."""
    for name in names if names is not None else _PASSES:
        try:
            fn = _PASSES[name]
        except KeyError:
            raise ValueError(
                f"unknown analysis pass {name!r}; have {sorted(_PASSES)}"
            ) from None
        fn(ctx)
    return ctx.report
