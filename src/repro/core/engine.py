"""The idIVM engine facade — the Figure 3 architecture.

One definition and one maintenance *round* for every engine, split from
the *rules* the way the paper's Section 7 baseline is ("idIVM with
tuple-based diff propagation rules"): :class:`MaintenanceEngine` owns
``define_view`` and the round — modification log, ``Input_pre``
replica, spans, metrics, freshness — and an engine supplies
:meth:`_define` plus :meth:`_maintain_view`.  :class:`IdIvmEngine` ties
its rule set (:attr:`IdIvmEngine.rules`: the ID-based rules; the
tuple-based baseline's are ``repro.core.rules.tdiff.TUPLE_RULES``)
together across the three times of the paper:

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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from ..algebra.evaluate import materialize
from ..algebra.plan import PlanNode
from ..errors import DiffError, IntegrityError, ScriptError, UnknownTableError
from ..obs import metrics
from ..obs import spans as obs
from ..obs.drift import DriftMonitor
from ..obs.freshness import FreshnessTracker
from ..storage import AccessCounts, CounterSet, Database, Table
from .compile import EXEC_BACKENDS as EXEC_BACKENDS  # re-exported
from .compile import bind_kernels, check_backend, readers_of
from .diffs import DELETE, INSERT
from .generator import ID_RULES, GeneratedPlan
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
    #: (read-only ``{phase: {metric: value}}``), bound to the observed diff
    #: sizes; None when no model could be inferred at define time.
    predicted_counts: Optional[Mapping] = None

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
    script's kernels with :func:`repro.core.compile.bind_kernels`; the
    view binds its statements to its tables and to its subview readers
    (``Step.bind_tables``: a γ step generates its pass here, and every
    rule step the readers of its reads, not in a round).
    """

    #: what a view-round writes, journaled around it by the engine
    written_tables: tuple[Table, ...]

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
        #: the base tables the script's steps read in ``Input_pre``
        self.pre_tables = frozenset().union(*(s.pre_tables() for s in generated.script.steps))
        self.table = table
        self.caches = caches
        self.operator_caches = operator_caches
        self.written_tables = tuple(t for _, t in tagged_tables(caches, operator_caches))
        readers = readers_of(generated.script)
        for step in generated.script.steps:
            step.bind_tables(caches, operator_caches, readers)

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


def tagged_tables(
    caches: Mapping[int, Table], operator_caches: Mapping[int, Table]
) -> Iterator[tuple[str, Table]]:
    """(tag, table) for every table a view's ∆-script may write: the
    caches (including the view table at the plan root) and the hidden
    aggregate book-keeping tables.  A tag is a stable name shared by the
    coordinator and the shard workers, which key write-sets by it."""
    for node_id in sorted(caches):
        yield f"c{node_id}", caches[node_id]
    for node_id in sorted(operator_caches):
        yield f"o{node_id}", operator_caches[node_id]


def counts_since(
    counters: CounterSet, before: dict[str, AccessCounts]
) -> dict[str, AccessCounts]:
    """Per-phase accesses *counters* gained since the *before* snapshot:
    what a :class:`MaintenanceReport` carries as ``phase_counts`` — the
    keys of a snapshot, in one pass over the live buckets."""
    since = {
        phase: counts - before[phase] if phase in before else counts.copy()
        for phase, counts in counters.phases.items()
    }
    since["__total__"] = counters.total - before["__total__"]
    return since


@contextmanager
def counted_phase(counters: CounterSet, phase: str, **attrs) -> Iterator[None]:
    """Attribute the block's accesses to *phase*, under a ``phase:`` span
    whose bucket delta reconciles with the round's ``phase_counts``."""
    with counters.phase(phase), obs.span(
        f"phase:{phase}", kind="phase", counters=counters,
        phase_of=phase, phase=phase, **attrs,
    ):
        yield


_LOG_ENTRIES = metrics.Handle("histogram", "engine.log_entries")
_ROUND_COST = metrics.Handle("histogram", "engine.round_cost")
_ROUND_SECONDS = metrics.Handle("loghist", "engine.round_seconds", "seconds")
_VIEW_ROLLBACKS = metrics.Handle("counter", "engine.view_rollbacks")


class MaintenanceEngine:
    """The definition and the maintenance round every engine shares: what
    is logged, when ``Input_pre`` is read, what is traced and what is
    reported.  A subclass supplies the rules — :meth:`_define` and
    :meth:`_maintain_view` — and its views name the tables they read in
    ``Input_pre`` (``view.pre_tables``) and the tables its maintenance
    writes (``view.written_tables``)."""

    def __init__(self, db: Database, strict: bool = False):
        self.db = db
        self.log = ModificationLog(db)
        #: freshness + drift telemetry (repro.obs); freshness reads the
        #: log's cursors, so staleness is queryable at any instant.
        self.freshness = FreshnessTracker(self.log)
        self.drift = DriftMonitor()
        self._pre = PreState(db, strict=strict)
        self.views: dict = {}
        #: ``view.round_seconds.<view>``, held once per view
        self._view_seconds: dict[str, metrics.Handle] = {}
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
        self._pre.declare(view.pre_tables)
        self._view_seconds[name] = metrics.Handle("loghist", f"view.round_seconds.{name}", "seconds")
        # A just-materialized view reflects the whole log so far.
        self.log.advance(name, self.log.position)
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

        Each view absorbs the log from its own cursor: the groups of
        targets at one cursor run in ascending order over their ranges
        ``(cursor, head]``.  The live database already holds the
        post-state (deferred IVM); rules that need ``Input_pre`` read the
        :class:`PreState` replica, moved to each group's cursor.  A
        view-round commits or does nothing: its written tables are
        journaled around :meth:`_maintain_view`, a view that raises is
        rolled back to the rows it held before (``engine.view_rollbacks``)
        and keeps its entries, and a cursor moves once its view has
        returned.  This is the only round
        loop: subclasses change what maintaining one view means
        (:meth:`_maintain_view`), never the round around it.
        """
        # Resolve every target first: an unknown name starts no round.
        if name is None:
            targets = list(self.views.values())
        elif name in self.views:
            targets = [self.views[name]]
        else:
            raise UnknownTableError(f"no view named {name!r}")
        return self._round(targets)

    def _round(self, targets) -> dict[str, MaintenanceReport]:
        log, counters = self.log, self.db.counters
        round_started = time.perf_counter()
        retained = log.since(log.floor)
        groups: dict[int, list] = {}
        for view in targets:
            groups.setdefault(log.cursors[view.name], []).append(view)
        # The round's one lookup by name; everything else it records
        # goes through handles.
        metrics.counter("engine.maintain_rounds").inc()
        _LOG_ENTRIES().observe(len(retained))
        reports: dict[str, MaintenanceReport] = {}
        traced = obs.current_recorder() is not None
        with obs.span(
            "maintain",
            kind="engine",
            counters=counters,
            engine=type(self).__name__,
            n_log_entries=len(retained),
            views=",".join(view.name for view in targets) if traced else "",
        ) as round_span:
            with obs.span("reconstruct_pre", kind="engine", counters=counters):
                # back to the floor if a failed round left it ahead
                self._pre.move(retained, log.floor)
                try:
                    retained.folded(self.db)
                except DiffError:  # a log no view could ever absorb
                    log.discard()
                    self._pre.db = None
                    raise
                db_pre = self._pre.begin(retained)
            for cursor in sorted(groups):
                entries = retained.between(cursor, retained.end)
                self._begin_round(entries, round_span)
                self._pre.move(retained, cursor)
                for view in groups[cursor]:
                    view_name = view.name
                    view_started = time.perf_counter()
                    with obs.span(
                        f"view:{view_name}", kind="view", counters=counters,
                        view=view_name,
                    ) as vsp:
                        written = view.written_tables
                        for table in written:
                            table.begin_journal()
                        try:
                            report = self._maintain_view(view, db_pre, entries, vsp)
                        except BaseException:
                            for table in written:
                                table.end_journal(commit=False)
                            _VIEW_ROLLBACKS().inc()
                            raise
                        for table in written:
                            table.end_journal()
                        log.advance(view_name, entries.end)
                        reports[view_name] = report
                        if traced:
                            stamped_phases = {
                                phase: counts.as_dict()
                                for phase, counts in report.phase_counts.items()
                                if phase != "__total__"
                            }
                            vsp.set(total_cost=report.total_cost)
                            if report.counted_remotely:
                                # No phase spans exist in this trace to
                                # reconcile against; stamp the merged counts
                                # under a different key so the validator
                                # stays honest.
                                vsp.set(phase_counts_remote=stamped_phases)
                            else:
                                vsp.set(phase_counts=stamped_phases)
                    _ROUND_COST().observe(report.total_cost)
                    self._view_seconds[view_name]().observe(time.perf_counter() - view_started)
                floor = log.prune()
                # forward, or back to a view it passed
                self._pre.move(entries if floor >= cursor else retained, floor)
                self._finish_round([reports[v.name] for v in groups[cursor]], entries)
        _ROUND_SECONDS().observe(time.perf_counter() - round_started)
        return reports

    def _begin_round(self, entries, round_span) -> None:
        """Hook: runs once per group of views at one cursor, before the
        pre-state moves to the group's *entries*.  Nothing by default."""

    def _maintain_view(
        self, view, db_pre: Database, entries, view_span
    ) -> MaintenanceReport:
        """Hook: bring *view* up to date with this round's *entries*
        (``self.db`` already holds the post-state, *db_pre* the replicated
        tables before them) and report what it cost."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _finish_round(self, reports: list[MaintenanceReport], entries) -> None:
        """Fold the *reports* of the views that absorbed *entries* (a
        group of a round) into the telemetry surfaces: per-view freshness
        and cost drift."""
        # Observed once, merged into each view: O(entries + views).
        lags = self.freshness.round_lags(
            (e.logged_at for e in entries if e.seq), self.log.clock()
        )
        for report in reports:
            self.freshness.note_maintained(report.view_name, lags)
            self.drift.update_from_report(report)
            self.last_reports[report.view_name] = report


class IdIvmEngine(MaintenanceEngine):
    """ID-based incremental view maintenance over a :class:`Database`."""

    #: the diff propagation rules its ∆-scripts are generated with
    rules = ID_RULES

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
                                  cost_select=self.cost_select and self.optimize,
                                  rules=self.rules)
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
        instances = populate_instances(view.instance_layout, entries, self.db)
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
            db_pre, self.db, instances, view, RoundEntries.of(entries).unchanged(self.db)
        )
        before = counters.snapshot()
        execute_script(view.script, ctx, counters)
        report.phase_counts = counts_since(counters, before)
        report.diff_sizes = ctx.diff_sizes


def round_context(
    db_pre: Database, db_post: Database, instances, view, unchanged: frozenset[str]
) -> IrContext:
    """The context one execution of *view*'s ∆-script runs in: the two
    database states, the round's i-diff *instances* and the view's
    writable tables (*view* is the coordinator's
    :class:`MaterializedView` or a shard worker's replica of it);
    *unchanged* names the base tables this round's log leaves alone
    (``RoundEntries.unchanged``, once per round)."""
    ctx = IrContext(db_pre, db_post, diffs=instances, caches=view.caches)
    ctx.operator_caches = view.operator_caches
    ctx.unchanged_tables = unchanged
    return ctx


def _reconstruct_pre(db: Database, entries, tables=None) -> Database:
    """Rebuild the pre-state of *db*'s *tables* (default: all) by
    reverse-applying the log to a copy — O(|tables|), uncounted: not part
    of the maintenance plan's accesses.  The one ``Database.copy`` of the
    engine: :class:`PreState` pays it once; tests use it as the oracle.
    """
    # Reads of pre-state during maintenance must count, so the copy
    # shares the live counters.
    pre = db.copy(db.counters, tables)
    _unapply(pre, entries)
    return pre


def _unapply(db: Database, entries) -> None:
    """Take *db*'s tables from the state after *entries* back to the one
    before (entries on a table *db* does not hold are skipped)."""
    for entry in reversed([e for e in entries if e.table in db.tables]):
        table = db.tables[entry.table]
        if entry.kind == INSERT:
            table.delete_uncounted(entry.key)
        elif entry.kind == DELETE:
            table.insert_uncounted(entry.row)
        else:  # UPDATE: restore the captured pre-state row
            table.delete_uncounted(entry.key)
            table.insert_uncounted(entry.row)


def apply_log(db: Database, entries, live: Optional[Database] = None) -> None:
    """Bring *db*'s tables — at the state before *entries* — up to the
    state after them, uncounted, in O(|entries|): one bulk write per
    modified table *db* holds, from the round's one fold (made against
    the *live* catalog, default *db*), not one per raw entry."""
    for name, changes in RoundEntries.of(entries).folded(live or db).items():
        if name in db.tables:
            db.tables[name].roll_forward([(key, c.post_row) for key, c in changes.items()])


class PreState:
    """``Input_pre`` as a persistent replica of the :attr:`tables` the
    views read in pre-state, at a log :attr:`position`: built by the
    first round (:func:`_reconstruct_pre`), then moved along the log, so
    between rounds each table equals *live minus the retained log* and a
    round costs O(|diff|).  Readers see a plain :class:`Database`
    counting into the live counters; reading another table raises.
    """

    def __init__(self, live: Database, tables: frozenset[str] = frozenset(), strict: bool = False):
        self.live = live
        self.tables = frozenset(tables)
        self.db: Optional[Database] = None
        #: the log position the replica reflects
        self.position = 0
        self.strict = strict

    def declare(self, tables: frozenset[str]) -> None:
        """Replicate *tables* too: a replica lacking one is dropped, and
        the next :meth:`begin` builds the wider one, uncounted."""
        if not tables <= self.tables:
            self.tables |= tables
            self.db = None

    def begin(self, entries) -> Database:
        """The replicated tables as they were before *entries*.  A replica
        that does not account for the live tables — something changed
        behind the log's back — is rebuilt and counted, or refused if
        strict."""
        if self.db is not None and not self._accounts_for(entries):
            self.db = None
            if self.strict:
                raise IntegrityError(
                    "pre-state replica is stale: the database changed outside the log"
                )
            metrics.counter("engine.prestate_rebuilds").inc()
        if self.db is None:
            self.db = _reconstruct_pre(self.live, entries, self.tables)
        return self.db

    def _accounts_for(self, entries) -> bool:
        # O(#tables + the net changes to them), off the round's fold: the
        # live counters, and every table as many rows behind the live one
        # as *entries* insert net (a fold keeps each key's net insert or
        # delete, so it keeps the row count of the raw entries).
        pre, live = self.db, self.live
        if pre.counters is not live.counters:
            return False
        if not self.tables:
            return True
        net = RoundEntries.of(entries).folded(live)
        for t in self.tables:
            grown = 0
            for change in net.get(t, {}).values():
                if change.kind == INSERT:
                    grown += 1
                elif change.kind == DELETE:
                    grown -= 1
            if len(pre.tables[t]) + grown != len(live.tables[t]):
                return False
        return True

    def move(self, entries, position: int) -> None:
        """Move the replica to log *position* across *entries*, a range
        spanning both positions: forward with :func:`apply_log`, backward
        with :func:`_unapply`.  A failed move drops the replica."""
        pre, self.db = self.db, None
        if pre is not None and position != self.position:
            crossed = entries.between(*sorted((self.position, position)))
            if position > self.position:
                apply_log(pre, crossed, self.live)
            else:
                _unapply(pre, crossed)
        self.db, self.position = pre, position
