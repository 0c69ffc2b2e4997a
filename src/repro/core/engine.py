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

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from ..algebra.evaluate import materialize
from ..algebra.plan import PlanNode, base_tables
from ..errors import DiffError, ScriptError, UnknownTableError
from ..obs import metrics
from ..obs import spans as obs
from ..obs.drift import DriftMonitor
from ..obs.freshness import FreshnessTracker
from ..storage import AccessCounts, CounterSet, Database, Table, TableSchema
from .compile import EXEC_BACKENDS as EXEC_BACKENDS  # re-exported
from .compile import bind_kernels, check_backend, readers_of
from .diffs import DELETE, INSERT
from .generator import ID_RULES, GeneratedPlan
from .idinfer import annotate_plan, node_by_id
from .ir_exec import IrContext
from .modlog import (
    InstanceLayout,
    ModificationLog,
    RoundEntries,
    observe_population,
    populate_instances,
)
from .script import DeltaScript, ScriptSamples, execute_script


@dataclass
class MaintenanceReport:
    """What one maintenance round did and what it cost."""

    view_name: str
    phase_counts: dict[str, AccessCounts] = field(default_factory=dict)
    diff_sizes: dict[str, int] = field(default_factory=dict)
    #: per-phase counts the symbolic cost model predicted for this round
    #: (read-only ``{phase: {metric: value}}``), bound to the observed diff
    #: sizes, less the statements in :attr:`reused`; None for a script
    #: with no model (t-diff), an engine without scripts and an idle round.
    predicted_counts: Optional[Mapping] = None
    #: ``(statement, lender view)`` of every compute statement this round
    #: bound from rows another view computed (``core.share``)
    reused: list[tuple[str, str]] = field(default_factory=list)
    #: the view whose round maintained this one, a :class:`HostedView`
    #: answered from its cache; None for a view that keeps its own state
    host: Optional[str] = None

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
    rule step the readers of its reads, not in a round).  An engine that
    runs several views reads :attr:`share_keys`, the round-share keys of
    its statements, once at definition.
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

    @functools.cached_property
    def share_keys(self) -> dict[int, str]:
        """Script index -> round-share key of each compute statement
        whose rows depend on nothing the view owns
        (:func:`repro.core.share.share_keys`)."""
        from .share import share_keys  # deferred: it imports the analysis

        return share_keys(self.generated)

    @property
    def cost_model(self):
        """The script's symbolic per-phase cost model, priced once at
        definition (``generated.cost_model``); None on a t-diff script
        (the tuple rule set), which is not priced."""
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

    @functools.cached_property
    def materialized(self) -> dict[str, int]:
        """Exact fingerprint -> node id of every sub-plan the view
        materializes (:func:`repro.core.share.materialized`): what
        another view can be answered from."""
        from .share import materialized  # deferred: it imports the analysis

        return materialized(self.generated)

    def describe_script(self) -> str:
        return self.script.describe()


class HostedView:
    """A view answered from a cache another view — its :attr:`host` —
    materializes: its plan is a column-only π chain over that cache's
    sub-plan (:class:`repro.core.share.Hosting`).  It keeps no table,
    script, journal, ``Input_pre`` table, prediction or round-share key
    of its own: its :attr:`table` is the host's cache projected onto its
    columns, and the host's view-round maintains it."""

    written_tables: tuple[Table, ...] = ()
    pre_tables: frozenset[str] = frozenset()

    def __init__(self, name: str, plan: PlanNode, host: MaterializedView, fingerprint: str):
        from .share import host_chain, projected_columns  # deferred: it imports the analysis

        self.name = name
        self.plan = plan
        self.host = host
        cache = host.caches[host.materialized[fingerprint]]
        through = projected_columns(plan, host_chain(plan).index(fingerprint) + 1)
        self.table = ProjectedTable(
            TableSchema(name, plan.columns, plan.ids), cache,
            tuple(map(cache.schema.columns.index, through)),
        )


class ProjectedTable:
    """A read-only projection of a *source* table onto a *schema*: column
    ``i`` is the source's column ``at[i]``, row for row.  A
    :class:`HostedView`'s table, read when it is read; nothing writes it."""

    def __init__(self, schema: TableSchema, source: Table, at: tuple[int, ...]):
        self.schema = schema
        self.source = source
        self.at = at

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self.source)

    def rows_uncounted(self) -> list[tuple]:
        at = self.at
        return [tuple([row[i] for i in at]) for row in self.source.rows_uncounted()]

    def as_set(self) -> frozenset[tuple]:
        """Frozen set of rows, for order-insensitive comparisons in tests."""
        return frozenset(self.rows_uncounted())


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
    counters: CounterSet, before: dict[str, tuple[int, int, int, int]]
) -> dict[str, AccessCounts]:
    """Per-phase accesses *counters* gained since *before*, its
    :meth:`CounterSet.mark`: what a :class:`MaintenanceReport` carries
    as ``phase_counts`` — the keys of a snapshot, in one pass over the
    live buckets."""
    since = {}
    for phase, c in (*counters.phases.items(), ("__total__", counters.total)):
        b = before.get(phase)
        since[phase] = c.copy() if b is None else AccessCounts(
            c.index_lookups - b[0], c.tuple_reads - b[1],
            c.tuple_writes - b[2], c.index_maintenance - b[3],
        )
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
_SHARED_STATEMENTS = metrics.Handle("counter", "engine.shared_statements")


class MaintenanceEngine:
    """The definition and the maintenance round every engine shares: what
    is logged, when ``Input_pre`` is read, what is traced and what is
    reported.  A subclass supplies the rules — :meth:`_define` and
    :meth:`_maintain_view` — and its views name the tables they read in
    ``Input_pre`` (``view.pre_tables``) and the tables its maintenance
    may write (``view.written_tables``).  A :class:`HostedView` has no
    round of its own: its host's round maintains it, and its cursor moves
    when the host's does."""

    def __init__(self, db: Database):
        self.db = db
        self.log = ModificationLog(db)
        #: freshness + drift telemetry (repro.obs); freshness reads the
        #: log's cursors, so staleness is queryable at any instant.
        self.freshness = FreshnessTracker(self.log)
        self.drift = DriftMonitor()
        self._pre = PreState(db)
        #: every defined view by name, hosted ones included
        self.views: dict = {}
        #: the views that keep their own state: what ``maintain()`` runs
        self._own: dict = {}
        #: host name -> the :class:`HostedView` s its round maintains
        self._consumers: dict[str, list[HostedView]] = {}
        #: ``view.round_seconds.<view>``, held once per view
        self._view_seconds: dict[str, metrics.Handle] = {}
        #: the base tables each view reads: a range that changes none of
        #: them leaves the view an idle round
        self._reads: dict[str, frozenset[str]] = {}
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
        if isinstance(view, HostedView):
            self._host(view)
            return view
        self._own[name] = view
        self._view_seconds[name] = metrics.Handle("loghist", f"view.round_seconds.{name}", "seconds")
        self._reads[name] = base_tables(view.plan)
        # A just-materialized view reflects the whole log so far.
        self.log.advance(name, self.log.position)
        for consumer in self._bind(view):
            self._host(consumer)
        self._pre.declare(frozenset().union(*(v.pre_tables for v in self._own.values())))
        return view

    def _define(self, name: str, annotated: PlanNode, stats):
        """Hook: build the view of the *annotated* plan, reading every
        sub-plan's rows and statistics from the definition's *stats* —
        or a :class:`HostedView` when another view's cache answers it."""
        raise NotImplementedError

    def _bind(self, view) -> list[HostedView]:
        """Hook: runs once *view*, which keeps its own state, is
        registered; returns the views defined before it that its caches
        answer from now on.  None by default."""
        return []

    def _host(self, consumer: HostedView) -> None:
        """Answer *consumer* from its host from now on: whatever it kept
        of its own is released, and its cursor is the host's."""
        name, host = consumer.name, consumer.host.name
        self.views[name] = consumer
        self._own.pop(name, None)
        self._reads.pop(name, None)
        self._view_seconds.pop(name, None)
        self._consumers.setdefault(host, []).append(consumer)
        self.log.advance(name, self.log.cursors[host])

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
        ``(cursor, head]``.  A :class:`HostedView` is maintained by its
        host's view-round: naming it maintains the host, and its cursor
        moves when the host's commits.  The live database already holds the
        post-state (deferred IVM); rules that need ``Input_pre`` read the
        :class:`PreState` replica, moved to each group's cursor.  A
        view-round commits or does nothing: the tables its view owns are
        journaled around :meth:`_maintain_view`, a view that raises is
        rolled back to the rows it held before (``engine.view_rollbacks``)
        and keeps its entries, and a cursor moves once its view has
        returned.  A view whose range changes
        none of the base tables it reads has an idle round: nothing is
        journaled, populated, run, predicted or sampled, its cursor moves,
        its freshness is noted and its report costs 0.  This is the only
        round loop: subclasses change what maintaining one view means
        (:meth:`_maintain_view`), never the round around it.
        """
        # Resolve every target first: an unknown name starts no round.
        if name is None:
            targets = list(self._own.values())
        elif name in self.views:
            view = self.views[name]
            targets = [view.host if isinstance(view, HostedView) else view]
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
                changed = entries.changed(self.db)
                done: list[MaintenanceReport] = []
                try:
                    for view in groups[cursor]:
                        if changed.isdisjoint(self._reads[view.name]):
                            report = self._idle_round(view, traced)
                        else:
                            report = self._view_round(view, db_pre, entries, traced)
                        log.advance(view.name, entries.end)
                        reports[view.name] = report
                        done.append(report)
                        for consumer in self._consumers.get(view.name, ()):
                            log.advance(consumer.name, entries.end)
                            reports[consumer.name] = hosted = self._idle_report(
                                consumer, host=view.name
                            )
                            done.append(hosted)
                except BaseException:
                    # the views of the group that committed keep their
                    # telemetry
                    self._finish_round(done, entries)
                    raise
                floor = log.prune()
                # forward, or back to a view it passed
                self._pre.move(entries if floor >= cursor else retained, floor)
                self._finish_round(done, entries)
        _ROUND_SECONDS().observe(time.perf_counter() - round_started)
        return reports

    def _view_round(self, view, db_pre: Database, entries, traced: bool) -> MaintenanceReport:
        """One view's share of a round, commit or nothing: the tables the
        view owns (``view.written_tables``) are journaled around
        :meth:`_maintain_view` and rolled back if it raises
        (``engine.view_rollbacks``)."""
        view_name = view.name
        started = time.perf_counter()
        with obs.span(
            f"view:{view_name}", kind="view", counters=self.db.counters, view=view_name,
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
            if traced:
                stamped_phases = {
                    phase: counts.as_dict()
                    for phase, counts in report.phase_counts.items()
                    if phase != "__total__"
                }
                vsp.set(total_cost=report.total_cost)
                if report.counted_remotely:
                    # No phase spans exist in this trace to reconcile
                    # against; stamp the merged counts under a different
                    # key so the validator stays honest.
                    vsp.set(phase_counts_remote=stamped_phases)
                else:
                    vsp.set(phase_counts=stamped_phases)
        self._view_seconds[view_name]().observe(time.perf_counter() - started)
        return report

    def _idle_round(self, view, traced: bool) -> MaintenanceReport:
        """The round of a view its range leaves nothing to absorb: no
        journal, instance, statement, prediction or sample — an
        :meth:`_idle_report`, and a ``view:`` span saying so when traced."""
        if traced:
            with obs.span(f"view:{view.name}", kind="view", view=view.name) as vsp:
                vsp.set(idle=True, total_cost=0, phase_counts={})
        return self._idle_report(view)

    def _idle_report(self, view, host: Optional[str] = None) -> MaintenanceReport:
        """Hook: the report of a view-round that runs nothing of its own,
        of the type this engine's rounds report — no phase, no cost: an
        idle one, or a hosted view's, whose *host* maintained it."""
        return MaintenanceReport(view.name, host=host)

    def _begin_round(self, entries, round_span) -> None:
        """Hook: runs once per group of views at one cursor, before the
        pre-state moves to the group's *entries*.  Nothing by default."""

    def _maintain_view(self, view, db_pre: Database, entries, view_span) -> MaintenanceReport:
        """Hook: bring *view* up to date with this round's *entries*
        (``self.db`` already holds the post-state, *db_pre* the replicated
        tables before them) and report what it cost."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _finish_round(self, reports: list[MaintenanceReport], entries) -> None:
        """Fold the *reports* of the views that absorbed *entries* (a
        group of a round) into the telemetry surfaces: per-view freshness
        and cost drift, and — once for the group — the instances the
        views populated, what their scripts sampled and what their rounds
        cost."""
        observe_population(entries)
        entries.samples.observe()
        # Observed once, merged into each view: O(entries + views).
        lags = self.freshness.round_lags(
            (e.logged_at for e in entries if e.seq), self.log.clock()
        )
        costs: dict[int, int] = {}
        for report in reports:
            self.freshness.note_maintained(report.view_name, lags)
            self.last_reports[report.view_name] = report
            if not report.phase_counts:  # an idle view-round
                continue
            cost = report.total_cost
            costs[cost] = costs.get(cost, 0) + 1
            if report.predicted_counts is not None:
                self.drift.update_from_report(report)
        observe = _ROUND_COST().observe
        for cost, times in costs.items():
            observe(cost, times)


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
        exec_backend: str = "compiled",
        cost_select: bool = True,
    ):
        #: how stored ∆-scripts execute: "compiled" runs the kernels
        #: bound at define time, "interp" walks the IR per round
        #: (identical counts).
        self.exec_backend = check_backend(exec_backend)
        super().__init__(db)
        self.optimize = optimize
        self.cache_policy = cache_policy
        #: let the generator compare candidate scripts under the symbolic
        #: cost model and keep the cheapest (fixes COST501/COST502).
        #: Disable to study the un-selected pipeline (ablations, drift
        #: demos, the crosscheck "eager" strategy).
        self.cost_select = cost_select
        #: Section 9 extension: answer insert probes from the view when
        #: the probed tables are untouched in a batch.  Off by default to
        #: keep the paper's cost profile.
        self.view_reuse = view_reuse
        #: round-share key -> the views holding a statement under it
        #: (``core.share``); a key held by two views runs once per round
        self.share_holders: dict[str, list[MaterializedView]] = {}
        from .share import Hosting  # deferred: it imports the analysis

        #: which view answers which (``core.share.Hosting``): a view that
        #: is a column-only π over another view's cache is a HostedView
        self.hosting = Hosting()

    # ------------------------------------------------------------------
    # view definition time
    # ------------------------------------------------------------------
    def _define(self, name: str, annotated: PlanNode, stats):
        """A :class:`HostedView` when a view already materializes a
        sub-plan the view is a column-only π over (``self.hosting``);
        otherwise decide the view's ∆-script and its cost model (the
        definition pipeline), then materialize the view, its caches and
        operator caches."""
        from ..analysis.cost import define_script  # deferred: it imports core
        from .share import host_chain

        hosted = self.hosting.define(name, host_chain(annotated))
        if hosted is not None:
            host, fingerprint = hosted
            return HostedView(name, annotated, self.views[host], fingerprint)
        generated = define_script(name, annotated, stats, optimize=self.optimize,
                                  cache_policy=self.cache_policy,
                                  view_reuse=self.view_reuse,
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

    def _bind(self, view: MaterializedView) -> list[HostedView]:
        """Enter *view* in :attr:`hosting`: each earlier view that is a
        column-only π over a sub-plan it materializes becomes a
        :class:`HostedView` of it, and leaves :attr:`share_holders`;
        then enter *view*'s own round-share keys."""
        from .share import host_chain

        consumers = []
        for name, fingerprint in self.hosting.materialize(
            view.name, host_chain(view.plan), view.materialized
        ):
            released = self.views[name]
            self._release_shares(released)
            hosted = HostedView(name, released.plan, view, fingerprint)
            # The object define_view returned stays the view: a caller
            # holding it reads the projection, and its tables are released.
            released.__class__, released.__dict__ = HostedView, hosted.__dict__
            consumers.append(released)
        self._register_shares(view)
        return consumers

    def _register_shares(self, view: MaterializedView) -> None:
        """Enter *view*'s round-share keys in :attr:`share_holders`; the
        statements of every key now held by two views or more become
        shared (``DeltaScript.share``) in each of them."""
        holders = self.share_holders
        for key in dict.fromkeys(view.share_keys.values()):
            holders.setdefault(key, []).append(view)
        touched = {view.name: view}
        for key in view.share_keys.values():
            if len(holders[key]) > 1:
                touched.update((other.name, other) for other in holders[key])
        self._reshare(touched.values())

    def _release_shares(self, view: MaterializedView) -> None:
        """Take *view*'s round-share keys out of :attr:`share_holders`;
        the views it shared a key with share what is left."""
        holders = self.share_holders
        touched = {}
        for key in dict.fromkeys(view.share_keys.values()):
            holders[key].remove(view)
            touched.update((other.name, other) for other in holders[key])
            if not holders[key]:
                del holders[key]
        self._reshare(touched.values())

    def _reshare(self, views) -> None:
        """Share each statement of *views* whose key two views or more
        hold (``DeltaScript.share``)."""
        holders = self.share_holders
        for other in views:
            other.script.share(
                {i: key for i, key in other.share_keys.items() if len(holders[key]) > 1},
                other.name,
            )

    # ------------------------------------------------------------------
    # view maintenance time: the ID-based rules of one view's round
    # ------------------------------------------------------------------
    def _maintain_view(
        self, view: MaterializedView, db_pre: Database, entries, view_span
    ) -> MaintenanceReport:
        """Populate the round's i-diff instances of *view*, resolve the
        context its script runs in and the live slice they reach
        (``ctx.live``), run it (:meth:`_run_view`) and predict its cost."""
        instances = populate_instances(view.instance_layout, entries, self.db)
        ctx = round_context(
            db_pre, self.db, instances, view, entries.unchanged(self.db), entries.samples,
            entries.derived,
        )
        live = ctx.live
        if obs.current_recorder() is not None:
            total = len(view.script)
            view_span.set(stmts_live=total - live.skipped, stmts_total=total)
        report = self._run_view(view, ctx, db_pre, entries, view_span)
        reused = ()
        if report.reused:
            reused = tuple(name for name, _ in report.reused)
            _SHARED_STATEMENTS().inc(len(reused))
        if view.cost_model is not None:
            # the slice's sizes vary only in its varying names
            sizes = report.diff_sizes
            report.predicted_counts = view.cost_model.predict_from_diff_sizes(
                sizes, (live.mask, tuple(map(sizes.__getitem__, live.varying))), reused
            )
        return report

    def _run_view(
        self, view: MaterializedView, ctx: IrContext, db_pre: Database, entries, view_span
    ) -> MaintenanceReport:
        """Hook: run *view*'s ∆-script in the round's context *ctx* (its
        instances and live slice resolved) and report what it cost.  On
        one node that is one global execution."""
        report = MaintenanceReport(view.name)
        self._run_broadcast(report, view, ctx)
        return report

    def _run_broadcast(
        self, report: MaintenanceReport, view: MaterializedView, ctx: IrContext
    ) -> None:
        """One global execution in *ctx* against the live counters; fills
        *report* with the per-phase delta, the diff sizes and the
        statements bound from another view of the range."""
        counters = self.db.counters
        before = counters.mark()
        execute_script(view.script, ctx)
        report.phase_counts = counts_since(counters, before)
        report.diff_sizes = ctx.diff_sizes
        report.reused = ctx.reused


def round_context(
    db_pre: Database, db_post: Database, instances, view, unchanged: frozenset[str],
    samples: ScriptSamples, derived: Optional[dict] = None,
) -> IrContext:
    """The context one execution of *view*'s ∆-script runs in: the two
    database states, the round's i-diff *instances*, the view's
    writable tables (*view* is the coordinator's
    :class:`MaterializedView` or a shard worker's replica of it) and the
    live slice the instances reach (``ctx.live``); *unchanged* names the
    base tables this round's log leaves alone (``RoundEntries.unchanged``,
    once per round); the execution's samples go to *samples* (the
    range's ``RoundEntries.samples`` in the coordinator); *derived* is
    the range's ``RoundEntries.derived`` on the one-execution path, where
    shared statements run once across views — a shard's context gets
    none and computes them itself."""
    ctx = IrContext(db_pre, db_post, diffs=instances, caches=view.caches)
    ctx.operator_caches = view.operator_caches
    ctx.unchanged_tables = unchanged
    ctx.derived = derived
    ctx.samples = samples
    script = view.script
    ctx.live = script.live_plan(script.live_mask(instances), ctx)
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

    def __init__(self, live: Database, tables: frozenset[str] = frozenset()):
        self.live = live
        self.tables = frozenset(tables)
        self.db: Optional[Database] = None
        #: the log position the replica reflects
        self.position = 0

    def declare(self, tables: frozenset[str]) -> None:
        """Replicate exactly *tables*: a replica of other tables is
        dropped, and the next :meth:`begin` builds the new one, uncounted."""
        if tables != self.tables:
            self.tables = tables
            self.db = None

    def begin(self, entries) -> Database:
        """The replicated tables as they were before *entries*.  A replica
        that does not account for the live tables — something changed
        behind the log's back — is rebuilt and counted
        (``engine.prestate_rebuilds``)."""
        if self.db is not None and not self._accounts_for(entries):
            self.db = None
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
