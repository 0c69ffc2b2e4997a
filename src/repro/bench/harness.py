"""Benchmark harness: run one maintenance round per system and collect
wall time + per-phase access counts (the paper's cost metric)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..algebra.evaluate import evaluate_plan
from ..core.engine import MaintenanceReport
from ..obs import spans as obs
from ..storage import AccessCounts, Database


@dataclass
class SystemResult:
    """One system's maintenance round on one workload configuration."""

    label: str
    total_cost: int
    phase_costs: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    correct: bool = True
    lookups: int = 0
    reads: int = 0
    writes: int = 0
    #: Full per-phase access breakdown (lookups/reads/writes per phase),
    #: not just the totals of :attr:`phase_costs`.
    phase_accesses: dict[str, AccessCounts] = field(default_factory=dict)
    #: Nested span tree of the maintenance round (dict form), captured
    #: when a span recorder was active during :func:`run_system`.
    trace: Optional[dict] = None

    def phase(self, name: str) -> int:
        return self.phase_costs.get(name, 0)


def run_system(
    label: str,
    db_factory: Callable[[], Database],
    make_engine: Callable[[Database], object],
    build_view: Callable[[Database], object],
    log_modifications: Callable[[object, Database], None],
) -> SystemResult:
    """Build a fresh database, define the view ``V``, log the
    modification batch, run one maintenance round and report its cost
    and whether ``V`` equals its recomputation.

    When tracing is enabled (``repro.obs``), the round runs inside a
    ``system:<label>`` span and the resulting span tree is attached to
    the returned :class:`SystemResult`.
    """
    db = db_factory()
    engine = make_engine(db)
    try:
        view = engine.define_view("V", build_view(db))
        log_modifications(engine, db)
        with obs.span(f"system:{label}", kind="system", system=label) as ssp:
            started = time.perf_counter()
            reports = engine.maintain()
            wall = time.perf_counter() - started
    finally:
        # Process-backend sharded engines own worker processes; release
        # them even when the round raises.
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    report: MaintenanceReport = reports["V"]
    phase_costs = {
        name: counts.total
        for name, counts in report.phase_counts.items()
        if name != "__total__"
    }
    phase_accesses = {
        name: counts.copy()
        for name, counts in report.phase_counts.items()
        if name != "__total__"
    }
    total = report.phase_counts.get("__total__")
    return SystemResult(
        label=label,
        total_cost=report.total_cost,
        phase_costs=phase_costs,
        wall_seconds=wall,
        correct=view.table.as_set() == evaluate_plan(view.plan, db).as_set(),
        lookups=total.index_lookups if total else 0,
        reads=total.tuple_reads if total else 0,
        writes=total.tuple_writes if total else 0,
        phase_accesses=phase_accesses,
        trace=ssp.tree_dict() if obs.enabled() else None,
    )


def speedup(baseline: SystemResult, contender: SystemResult) -> float:
    """baseline cost / contender cost (the paper's speedup ratio)."""
    if contender.total_cost == 0:
        return float("inf") if baseline.total_cost else 1.0
    return baseline.total_cost / contender.total_cost


@dataclass
class SweepPoint:
    """One x-axis value of a Figure 12 style sweep."""

    parameter: object
    results: dict[str, SystemResult]

    def speedup(self, baseline: str = "tuple", contender: str = "idIVM") -> float:
        return speedup(self.results[baseline], self.results[contender])
