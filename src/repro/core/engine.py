"""The idIVM engine facade — the Figure 3 architecture.

One definition and one maintenance *round* for every engine, split from
the *rules* the way the paper's Section 7 baseline is ("idIVM with
tuple-based diff propagation rules"): :class:`MaintenanceEngine` owns
``define_view`` and the round — modification log, ``Input_pre``
replica, spans, metrics, freshness — and an engine supplies
:meth:`_define` plus :meth:`_maintain_view`.  :class:`IdIvmEngine` ties
the ID-based rules together across the three times of the paper:

* **view definition time** — :meth:`IdIvmEngine._define` runs the
  definition pipeline (``repro.analysis.cost.define_script``: base-table
  i-diff schemas, the 4-pass ∆-script generator, pricing and cost
  selection) and materializes the view, the intermediate/output caches
  and the operator caches;
* **data modification time** — the engine's :attr:`log` records base
  table modifications (trigger-style) while applying them to the live
  database;
* **view maintenance time** — :meth:`IdIvmEngine.maintain` converts the
  log into effective i-diff instances, executes the stored ∆-script and
  reports per-phase access counts.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..algebra.evaluate import materialize
from ..algebra.plan import PlanNode
from ..errors import IntegrityError, ScriptError, UnknownTableError
from ..obs import metrics
from ..obs import spans as obs
from ..obs.drift import DriftMonitor
from ..obs.freshness import FreshnessTracker
from ..storage import AccessCounts, CounterSet, Database, Table
from .compile import EXEC_BACKENDS as EXEC_BACKENDS  # re-exported
from .compile import bind_kernels, check_backend
from .diffs import DELETE, INSERT
from .generator import GeneratedPlan
from .idinfer import annotate_plan, node_by_id
from .ir_exec import IrContext
from .modlog import InstanceLayout, ModificationLog, RoundEntries, populate_instances
from .script import DeltaScript, execute_script


@dataclass
class MaintenanceReport:
    """What one maintenance round did and what it cost."""

    view_name: str
    phase_counts: dict[str, AccessCounts] = field(default_factory=dict)
    diff_sizes: dict[str, int] = field(default_factory=dict)
    #: per-phase counts the symbolic cost model predicted for this round
    #: (``{phase: {metric: value}}``), bound to the observed diff sizes;
    #: None when no model could be inferred at define time.
    predicted_counts: Optional[dict] = None

    @property
    def total_cost(self) -> int:
        """Combined accesses (the paper's Section 6 metric)."""
        return sum(
            counts.total
            for name, counts in self.phase_counts.items()
            if name != "__total__"
        )

    def cost_of(self, phase: str) -> int:
        counts = self.phase_counts.get(phase)
        return counts.total if counts is not None else 0

    @property
    def counted_remotely(self) -> bool:
        """True when the counted work ran outside this process, so a
        trace of the round holds no phase spans for ``phase_counts``."""
        return False


class MaterializedView:
    """A defined view: its generated plan plus the materializations.

    The view has one ∆-script, ``generated.script`` — the object the
    router, the analysis passes and the cost model read is the object a
    round executes, under either backend.  Whoever builds the view (an
    engine's ``define_view``, a shard worker at boot) binds that
    script's kernels with :func:`repro.core.compile.bind_kernels`.
    """

    def __init__(
        self,
        generated: GeneratedPlan,
        table: Table,
        caches: dict[int, Table],
        operator_caches: dict[int, Table],
    ):
        self.generated = generated
        #: the base i-diff schemas as ``populate_instances`` takes them:
        #: names, empties and projectors resolved once for the view.
        self.instance_layout = InstanceLayout(generated.base_schemas)
        self.table = table
        self.caches = caches
        self.operator_caches = operator_caches

    @property
    def cost_model(self):
        """The script's symbolic per-phase cost model, priced once at
        definition (``generated.cost_model``); None when inference did
        not apply."""
        return self.generated.cost_model

    @property
    def name(self) -> str:
        return self.generated.view_name

    @property
    def plan(self) -> PlanNode:
        return self.generated.plan

    @property
    def script(self) -> DeltaScript:
        """The ∆-script maintenance executes: ``generated.script``."""
        return self.generated.script

    def describe_script(self) -> str:
        return self.script.describe()


def counts_since(
    counters: CounterSet, before: dict[str, AccessCounts]
) -> dict[str, AccessCounts]:
    """Per-phase accesses *counters* gained since the *before* snapshot:
    what a :class:`MaintenanceReport` carries as ``phase_counts``."""
    return {
        phase: counts - before[phase] if phase in before else counts
        for phase, counts in counters.snapshot().items()
    }


@contextmanager
def counted_phase(counters: CounterSet, phase: str, **attrs) -> Iterator[None]:
    """Attribute the block's accesses to *phase*, under a ``phase:`` span
    whose bucket delta reconciles with the round's ``phase_counts``."""
    with counters.phase(phase), obs.span(
        f"phase:{phase}", kind="phase", counters=counters,
        phase_of=phase, phase=phase, **attrs,
    ):
        yield


class MaintenanceEngine:
    """The definition and the maintenance round every engine shares: what
    is logged, when ``Input_pre`` is read, what is traced and what is
    reported.  A subclass supplies the rules — :meth:`_define` and
    :meth:`_maintain_view`."""

    #: whether the rules read ``Input_pre``; an engine that does not
    #: (recomputation) never pays for the replica.
    reads_pre_state = True

    def __init__(self, db: Database, strict: bool = False):
        self.db = db
        #: freshness + drift telemetry (repro.obs); the modlog reports
        #: every appended entry so staleness is queryable at any instant.
        self.freshness = FreshnessTracker()
        self.drift = DriftMonitor()
        self.log = ModificationLog(db, freshness=self.freshness)
        self._pre = PreState(strict)
        self.views: dict = {}
        #: most recent MaintenanceReport per view (dashboards read this).
        self.last_reports: dict[str, MaintenanceReport] = {}

    # ------------------------------------------------------------------
    # view definition time
    # ------------------------------------------------------------------
    def define_view(self, name: str, plan: PlanNode):
        """Register a view — from one evaluation of the plan: whatever
        the engine's :meth:`_define` evaluates or prices reads one
        ``PlanStats``, a local here, which dies with the call."""
        if name in self.views:
            raise ScriptError(f"view {name!r} already defined")
        from ..analysis.cost import PlanStats  # deferred: it imports core

        started = time.perf_counter()
        stats = PlanStats(self.db)
        with obs.span("define_view", kind="engine", view=name) as span:
            view = self._define(name, annotate_plan(plan), stats)
            span.set(plan_evaluations=stats.evaluations, memo_hits=stats.hits)
        metrics.loghist(f"view.define_seconds.{name}", unit="seconds").observe(
            time.perf_counter() - started
        )
        # Definition-time evaluation reads (including the cost model's
        # statistics probes) are not maintenance cost.
        self.db.counters.reset()
        self.views[name] = view
        # A just-materialized view reflects the current database state.
        self.freshness.note_view(name)
        return view

    def _define(self, name: str, annotated: PlanNode, stats):
        """Hook: build the view of the *annotated* plan, reading every
        sub-plan's rows and statistics from the definition's *stats*."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # data modification time: use engine.log.insert/update/delete
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # view maintenance time
    # ------------------------------------------------------------------
    def maintain(self, name: Optional[str] = None) -> dict[str, MaintenanceReport]:
        """Bring the named view (default: all) up to date.

        The live database already holds the post-state (deferred IVM);
        rules that need ``Input_pre`` read the :class:`PreState` replica,
        rolled forward by the round's log on the way out, failed or not.
        This is the only round loop: subclasses change what maintaining
        one view means (:meth:`_maintain_view`), never the round around
        it.
        """
        # Resolve every target before taking the log: an unknown name
        # must not cost the pending batch.
        if name is None:
            targets = list(self.views.values())
        elif name in self.views:
            targets = [self.views[name]]
        else:
            raise UnknownTableError(f"no view named {name!r}")
        entries = self.log.take()
        try:
            return self._round(targets, entries)
        finally:
            self._pre.roll_forward(entries)

    def _round(self, targets, entries) -> dict[str, MaintenanceReport]:
        counters = self.db.counters
        round_started = time.perf_counter()
        metrics.counter("engine.maintain_rounds").inc()
        metrics.histogram("engine.log_entries").observe(len(entries))
        with obs.span(
            "maintain",
            kind="engine",
            counters=counters,
            engine=type(self).__name__,
            n_log_entries=len(entries),
            views=",".join(view.name for view in targets),
        ) as round_span:
            self._begin_round(entries, round_span)
            db_pre = None
            if self.reads_pre_state:
                with obs.span("reconstruct_pre", kind="engine", counters=counters):
                    db_pre = self._pre.begin(self.db, entries)
            reports: dict[str, MaintenanceReport] = {}
            for view in targets:
                view_name = view.name
                view_started = time.perf_counter()
                with obs.span(
                    f"view:{view_name}", kind="view", counters=counters,
                    view=view_name,
                ) as vsp:
                    report = self._maintain_view(view, db_pre, entries, vsp)
                    reports[view_name] = report
                    stamped_phases = {
                        phase: counts.as_dict()
                        for phase, counts in report.phase_counts.items()
                        if phase != "__total__"
                    }
                    vsp.set(total_cost=report.total_cost)
                    if report.counted_remotely:
                        # No phase spans exist in this trace to reconcile
                        # against; stamp the merged counts under a
                        # different key so the validator stays honest.
                        vsp.set(phase_counts_remote=stamped_phases)
                    else:
                        vsp.set(phase_counts=stamped_phases)
                metrics.histogram("engine.round_cost").observe(report.total_cost)
                metrics.loghist(
                    f"view.round_seconds.{view_name}", unit="seconds"
                ).observe(time.perf_counter() - view_started)
        self._finish_round(reports, entries, round_started)
        return reports

    def _begin_round(self, entries, round_span) -> None:
        """Hook: runs once per round, after the log is taken and before
        the pre-state is read.  Nothing to do by default."""

    def _maintain_view(
        self, view, db_pre: Optional[Database], entries, view_span
    ) -> MaintenanceReport:
        """Hook: bring *view* up to date with this round's *entries*
        (``self.db`` already holds the post-state, *db_pre* the state
        before them) and report what it cost."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _finish_round(
        self,
        reports: dict[str, MaintenanceReport],
        entries,
        round_started: float,
    ) -> None:
        """Fold one finished round into the telemetry surfaces: round
        latency histograms, per-view freshness, and cost drift."""
        metrics.loghist("engine.round_seconds", unit="seconds").observe(
            time.perf_counter() - round_started
        )
        # The round absorbed everything it took; entries logged by
        # another thread after the take() stay pending.
        stamped = [e.seq for e in entries if e.seq]
        position = max(stamped) if stamped else self.log.position
        now = self.freshness.clock()
        # Observed once, merged into each view: O(entries + views).
        lags = self.freshness.round_lags((e.logged_at for e in entries if e.seq), now)
        for view_name, report in reports.items():
            self.freshness.note_maintained(view_name, position, lags, now=now)
            self.drift.update_from_report(report)
            self.last_reports[view_name] = report
            ratio = self.drift.worst_ratio(view_name)
            if ratio is not None:
                metrics.gauge(f"drift.worst_ratio.{view_name}").set(ratio)


class IdIvmEngine(MaintenanceEngine):
    """ID-based incremental view maintenance over a :class:`Database`."""

    def __init__(
        self,
        db: Database,
        optimize: bool = True,
        cache_policy: str = "equi",
        view_reuse: bool = False,
        strict: bool = False,
        exec_backend: str = "compiled",
        cost_select: bool = True,
    ):
        #: how stored ∆-scripts execute: "compiled" runs the kernels
        #: bound at define time, "interp" walks the IR per round
        #: (identical counts).
        self.exec_backend = check_backend(exec_backend)
        super().__init__(db, strict=strict)
        self.optimize = optimize
        self.cache_policy = cache_policy
        #: let the generator compare candidate scripts under the symbolic
        #: cost model and keep the cheapest (fixes COST501/COST502).
        #: Disable to study the un-selected pipeline (ablations, drift
        #: demos, the crosscheck "eager" strategy).
        self.cost_select = cost_select
        #: refuse view definitions whose generated plans fail the static
        #: analyzer (repro.analysis) with error-severity diagnostics
        self.strict = strict
        #: Section 9 extension: answer insert probes from the view when
        #: the probed tables are untouched in a batch.  Off by default to
        #: keep the paper's cost profile.
        self.view_reuse = view_reuse

    # ------------------------------------------------------------------
    # view definition time
    # ------------------------------------------------------------------
    def _define(self, name: str, annotated: PlanNode, stats) -> MaterializedView:
        """Decide the view's ∆-script and its cost model (the definition
        pipeline), then materialize the view, its caches and operator
        caches."""
        from ..analysis.cost import define_script  # deferred: it imports core

        generated = define_script(name, annotated, stats, optimize=self.optimize,
                                  cache_policy=self.cache_policy,
                                  view_reuse=self.view_reuse, strict=self.strict,
                                  cost_select=self.cost_select and self.optimize)
        annotated = generated.plan
        # Only requested sub-plans are kept, so the requests run
        # leaves-first — the cost walker (above), then the materialized
        # nodes innermost first — and each reads what the ones below it
        # stored instead of re-deriving it.
        wanted = {spec.node_id for spec in generated.cache_specs}
        wanted.update(op.gnode.child.node_id for op in generated.opcache_specs)
        for node in reversed(list(annotated.walk())):
            if node.node_id in wanted:
                stats.rows(node)
        view_table = materialize(annotated, self.db, name, stats)
        caches: dict[int, Table] = {annotated.node_id: view_table}
        for spec in generated.cache_specs:
            node = node_by_id(annotated, spec.node_id)
            caches[spec.node_id] = materialize(node, self.db, spec.name, stats)
        operator_caches: dict[int, Table] = {}
        for opspec in generated.opcache_specs:
            child_rows = stats.rows(opspec.gnode.child)
            operator_caches[opspec.gnode.node_id] = opspec.build(
                child_rows, self.db.counters
            )
        bind_kernels(generated.script, self.exec_backend)
        return MaterializedView(generated, view_table, caches, operator_caches)

    # ------------------------------------------------------------------
    # view maintenance time: the ID-based rules of one view's round
    # ------------------------------------------------------------------
    def _maintain_view(
        self, view: MaterializedView, db_pre: Database, entries, view_span
    ) -> MaintenanceReport:
        instances = populate_instances(view.instance_layout, entries, db_pre)
        if obs.current_recorder() is not None:
            script = view.script
            view_span.set(
                stmts_live=sum(script.reached(script.live_mask(instances))),
                stmts_total=len(script),
            )
        report = self._run_view(view, instances, db_pre, entries, view_span)
        if view.cost_model is not None:
            report.predicted_counts = view.cost_model.predict_from_diff_sizes(
                report.diff_sizes
            )
        return report

    def _run_view(
        self, view: MaterializedView, instances, db_pre: Database, entries, view_span
    ) -> MaintenanceReport:
        """Hook: run *view*'s ∆-script over this round's *instances* and
        report what it cost.  On one node that is one global execution."""
        report = MaintenanceReport(view.name)
        self._run_broadcast(report, view, instances, db_pre, entries)
        return report

    def _run_broadcast(
        self, report: MaintenanceReport, view: MaterializedView, instances,
        db_pre: Database, entries,
    ) -> None:
        """One global execution against the live counters; fills *report*
        with the per-phase delta and the diff sizes."""
        counters = self.db.counters
        ctx = round_context(
            db_pre, self.db, instances, view, {entry.table for entry in entries}
        )
        before = counters.snapshot()
        execute_script(view.script, ctx, counters)
        report.phase_counts = counts_since(counters, before)
        report.diff_sizes = ctx.diff_sizes


def round_context(db_pre: Database, db_post: Database, instances, view, modified) -> IrContext:
    """The context one execution of *view*'s ∆-script runs in: the two
    database states, the round's i-diff *instances* and the view's
    writable tables (*view* is the coordinator's
    :class:`MaterializedView` or a shard worker's replica of it);
    *modified* names the base tables this round's log touched."""
    ctx = IrContext(db_pre, db_post, diffs=instances, caches=view.caches)
    ctx.operator_caches = view.operator_caches
    ctx.unchanged_tables = set(db_post.table_names()) - modified
    return ctx


def _reconstruct_pre(db: Database, entries) -> Database:
    """Rebuild the pre-state database by reverse-applying the log to a
    copy of *db*: O(|DB|), uncounted (it is not part of the maintenance
    plan's accesses).  :class:`PreState` pays it once and then keeps the
    result current; tests use it as the replica's oracle.
    """
    # Reads of pre-state during maintenance must count, so the copy
    # shares the live counters.
    pre = db.copy(db.counters)
    for entry in reversed(entries):
        table = pre.table(entry.table)
        if entry.kind == INSERT:
            table.delete_uncounted(entry.key)
        elif entry.kind == DELETE:
            table.insert_uncounted(entry.row)
        else:  # UPDATE: restore the captured pre-state row
            table.delete_uncounted(entry.key)
            table.insert_uncounted(entry.row)
    return pre


def apply_log(db: Database, entries) -> None:
    """Bring *db* — at the state before *entries* — up to the state
    after them, uncounted: how a replica catches up with the live
    database in O(|entries|).  It reads the round's one fold (the net
    changes every view was maintained from) and makes one bulk write per
    modified table, not one per raw entry."""
    for name, changes in RoundEntries.of(entries).folded(db).items():
        db.table(name).roll_forward(
            [(key, change.post_row) for key, change in changes.items()]
        )


class PreState:
    """``Input_pre`` as a persistent replica of the base tables: built by
    the first round (:func:`_reconstruct_pre`, the one ``Database.copy``
    an engine pays), then rolled forward by every round's log, so between
    rounds it equals *live minus pending log* and a round costs O(|diff|).
    Readers see a plain :class:`Database` counting into the live counters.
    """

    def __init__(self, strict: bool = False):
        self.db: Optional[Database] = None
        self.strict = strict

    def begin(self, live: Database, entries) -> Database:
        """The database as it was before *entries*.  A replica that does
        not account for *live* — something changed behind the log's back
        — is never trusted: rebuilt and counted, or refused if strict."""
        if self.db is not None and not self._accounts_for(live, entries):
            self.db = None
            if self.strict:
                raise IntegrityError(
                    "pre-state replica is stale: the database changed outside the log"
                )
            metrics.counter("engine.prestate_rebuilds").inc()
        if self.db is None:
            self.db = _reconstruct_pre(live, entries)
        return self.db

    def _accounts_for(self, live: Database, entries) -> bool:
        # O(#tables + |entries|): same catalog and counters, and every
        # table as many rows behind *live* as *entries* insert net.
        pre = self.db
        if pre.counters is not live.counters or pre.tables.keys() != live.tables.keys():
            return False
        net = Counter(e.table for e in entries if e.kind == INSERT)
        net.subtract(e.table for e in entries if e.kind == DELETE)
        return all(len(pre.tables[t]) + net[t] == len(live.tables[t]) for t in live.tables)

    def roll_forward(self, entries) -> None:
        """Absorb a finished (or failed) round's *entries*.  A replica
        they do not apply to — or a log that does not fold — is dropped,
        and rebuilt by the next round."""
        pre, self.db = self.db, None
        if pre is not None:
            apply_log(pre, entries)
            self.db = pre
