"""Shard-parallel maintenance: :class:`ShardedEngine`.

A drop-in :class:`~repro.core.engine.IdIvmEngine` that runs a view's
∆-script across N shards when the round is provably shard-local (see
:mod:`repro.shard.router`), and falls back to a single global execution
(*broadcast* — the base engine's own step) otherwise.  The round loop
itself is :meth:`MaintenanceEngine.maintain`; this class only overrides
where one view's script runs.

The sharding model is **shared-database**: there is exactly one live
:class:`~repro.storage.Database`; what gets partitioned is the round's
i-diff *instance rows*, split by anchor key.  Every shard executes the
full ∆-script over its row subset in a private :class:`IrContext`.
Because the router proved every counted operation anchor-local, the
shards read and write disjoint rows of the caches and view, the union
of their outputs equals the single-shard result, and their access
counts — each shard measured, like a broadcast execution, by the delta
it adds to the database's one :class:`~repro.storage.CounterSet` — sum
*exactly* to the single-shard counts.

That disjointness claim has one static proof — the router's veto walk
(:func:`~repro.shard.router.plan_route`), which routes a round parallel
only when every counted operation is anchor-local — and one run-time
check: the **dynamic race detector**, ``race_check=True`` on this
engine, asserts pairwise key-disjointness of the shards' journaled
write-sets and records an overlap as the ``shard.race_overlaps``
metric and as the (table, key, shards) list on the round report.

Both backends speak one shard protocol —
:func:`repro.shard.workers.run_shard` produces (per-phase counts,
write-set, diff sizes, seconds) per shard,
:meth:`ShardedEngine._merge_shards` consumes them — and differ only in
where a shard runs:

* ``backend="inline"`` (default) — the N shard contexts run one after
  another in the coordinator, over the shared tables, counting straight
  into the database's counters.  Exact per-shard access counts and the
  critical-path model at no set-up cost; wall clock is the sum of the
  shards.
* ``backend="process"`` — long-lived worker processes, each owning a
  replica of the database and view caches (:mod:`repro.shard.workers`).
  Per-round inputs travel in the compact columnar wire format of
  :mod:`repro.core.wire`; the coordinator replays the merged write-set
  onto its own tables and broadcasts it back so replicas converge, and
  merges the counts each worker's replica gained into the database's
  counters.  Call :meth:`ShardedEngine.close` (or use the engine as a context
  manager) to shut the workers down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import SchemaError
from ..obs import metrics
from ..obs import spans as obs
from ..obs.hist import LogHistogram
from ..shard.router import EMPTY_BATCH, RoutePlan, describe_plan, plan_route, split_instances
from ..shard.workers import (
    ProcessShardPool,
    ShardResult,
    build_blueprint,
    captured_writes,
    run_shard,
)
from ..storage import Database
from . import wire
# _reconstruct_pre is unused here; benchmarks/e2e asserts it stays a module attribute.
from .engine import (
    IdIvmEngine,
    MaintenanceReport,
    MaterializedView,
    _reconstruct_pre,
    round_context,
    tagged_tables,
)
from .modlog import RoundEntries

BACKENDS = ("inline", "process")
_ROUNDS_PARALLEL = metrics.Handle("counter", "shard.rounds_parallel")
_ROUNDS_BROADCAST = metrics.Handle("counter", "shard.rounds_broadcast")


def _writeset_overlaps(
    per_shard: list[dict[str, list[tuple]]],
) -> list[tuple[str, tuple, tuple[int, ...]]]:
    """Pairwise key-disjointness check over per-shard write-sets.

    *per_shard* maps, per shard index, table tag -> replayable ops.
    Returns every (tag, key, shard indices) written by more than one
    shard.  Index builds (``"x"`` ops) are idempotent DDL, not row
    writes, and are excluded.
    """
    owners: dict[tuple[str, tuple], set[int]] = {}
    for shard, writes in enumerate(per_shard):
        for tag, ops in writes.items():
            for op in ops:
                if op[0] == "x":
                    continue
                owners.setdefault((tag, op[1]), set()).add(shard)
    overlaps = [
        (tag, key, tuple(sorted(shards)))
        for (tag, key), shards in owners.items()
        if len(shards) > 1
    ]
    overlaps.sort(key=lambda item: (item[0], repr(item[1])))
    return overlaps


@dataclass
class ShardedMaintenanceReport(MaintenanceReport):
    """A round report plus how it was routed.

    ``phase_counts`` holds the *merged* per-phase counts (shard sums in
    shard order for parallel rounds); ``shard_reports`` keeps each
    worker's own report for critical-path analysis.
    """

    parallel: bool = False
    anchor: Optional[str] = None
    broadcast_reason: Optional[str] = None
    backend: str = "inline"
    shard_reports: list[MaintenanceReport] = field(default_factory=list)
    #: distribution of per-worker wall clocks for parallel rounds (one
    #: observation per worker, seconds).  Durations are measured inside
    #: each worker (``perf_counter`` deltas), so they are comparable
    #: across processes — raw monotonic readings never cross the wire.
    shard_wall_hist: Optional[LogHistogram] = None
    #: (table tag, key, shard indices) triples the dynamic race detector
    #: found (``race_check`` rounds only; empty means the round's
    #: write-sets were pairwise disjoint, as the router's proof claims).
    race_overlaps: list = field(default_factory=list)
    #: untagged tables written during a checked round (the dynamic face
    #: of RACE604: neither write-sets nor a rollback see them); empty on
    #: healthy rounds.
    uncaptured_tables: list = field(default_factory=list)

    @property
    def counted_remotely(self) -> bool:
        return self.parallel and self.backend == "process"

    def critical_path(self) -> int:
        """The busiest shard's cost — the parallel wall-clock proxy.

        For broadcast rounds this is the whole round's cost (one worker
        did everything).
        """
        if not self.shard_reports:
            return self.total_cost
        return max(r.total_cost for r in self.shard_reports)


class ShardedEngine(IdIvmEngine):
    """ID-based IVM with hash-partitioned parallel ∆-script execution."""

    def __init__(
        self,
        db: Database,
        shards: int = 2,
        backend: str = "inline",
        race_check: bool = False,
        **kwargs,
    ):
        if shards < 1:
            raise SchemaError(f"need at least one shard, got {shards}")
        if backend not in BACKENDS:
            raise SchemaError(
                f"unknown shard backend {backend!r}; expected one of {BACKENDS}"
            )
        if not isinstance(race_check, bool):
            raise SchemaError(f"race_check must be a bool, got {race_check!r}")
        self.shards = shards
        self.backend = backend
        #: dynamic race detector: record overlaps as the
        #: ``shard.race_overlaps`` metric and on the round report.
        self.race_check = race_check
        #: lazily spawned process pool (``backend="process"`` only): the
        #: first provably-parallel round pays the spawn + bootstrap cost,
        #: broadcast-only workloads never do.
        self._pool: Optional[ProcessShardPool] = None
        super().__init__(db, **kwargs)

    # ------------------------------------------------------------------
    # worker-process lifecycle (backend="process")
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker processes (no-op for inline shards or
        before the first parallel round).  Idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def define_view(self, name: str, plan) -> MaterializedView:
        # A new view invalidates the workers' bootstrap blueprint; the
        # next parallel round respawns them with the full catalog.
        self.close()
        return super().define_view(name, plan)

    def _live_pool(self) -> Optional[ProcessShardPool]:
        pool = self._pool
        return pool if pool is not None and not pool.closed else None

    def _ensure_pool(self, entries) -> ProcessShardPool:
        """Spawn + bootstrap the workers on the first parallel round.

        The blueprint snapshots the coordinator's *current* state — base
        tables already at post-state (deferred IVM applies modifications
        at DML time) and cache tables as of this round's start — so the
        bootstrap round message passes ``sync=False``.
        """
        pool = self._live_pool()
        if pool is None:
            pool = ProcessShardPool(self.shards)
            try:
                pool.boot(build_blueprint(self.db, self._own, self.exec_backend, self._pre.tables))
                pool.begin_round(wire.encode_log_batch(entries), sync=False)
            except BaseException:
                pool.close()
                raise
            self._pool, self._pool_position = pool, entries.end  # replicas' position
        return pool

    # ------------------------------------------------------------------
    # the two steps of the shared round this engine overrides
    # ------------------------------------------------------------------
    def _begin_round(self, entries, round_span) -> None:
        round_span.set(shards=self.shards)
        pool = self._live_pool()
        if pool is not None and entries.start != self._pool_position:
            # Replicas at another log position (after a subset or failed
            # round): the next parallel group re-boots them at its cursor.
            metrics.counter("shard.pool_restarts").inc()
            self.close()
        elif pool is not None:
            # Workers already ran earlier rounds: bring their base-table
            # replicas to this group's post-state before anything else.
            pool.begin_round(wire.encode_log_batch(entries), sync=True)
            self._pool_position = entries.end

    def _idle_report(self, view, host: Optional[str] = None) -> ShardedMaintenanceReport:
        """A view-round that runs nothing of its own routes nothing: an
        idle one's instances are all empty, the router's "empty
        modification batch"; a hosted view's *host* ran the round."""
        return ShardedMaintenanceReport(
            view.name, host=host, parallel=False,
            broadcast_reason=None if host else EMPTY_BATCH, backend=self.backend,
        )

    def _run_view(
        self, view: MaterializedView, ctx, db_pre: Database, entries, view_span
    ) -> ShardedMaintenanceReport:
        """Route the round over the instances of *ctx*, then run it:
        parallel shards when provably safe, one global execution in *ctx*
        (broadcast) otherwise."""
        instances = ctx.diffs
        plan = plan_route(view.script, instances, self.db, self.shards)
        view_span.set(route=describe_plan(plan))
        if plan.parallel:
            _ROUNDS_PARALLEL().inc()
            return self._run_parallel(view, instances, db_pre, entries, plan)
        _ROUNDS_BROADCAST().inc()
        report = ShardedMaintenanceReport(
            view.name, parallel=False, broadcast_reason=plan.reason,
            backend=self.backend,
        )
        pool = self._live_pool()
        if pool is None:
            self._run_broadcast(report, view, ctx)
            return report
        # Live worker replicas: journal the coordinator's writes and
        # replay them on every worker so their view/cache replicas stay
        # current for the next parallel round.
        tables = list(tagged_tables(view.caches, view.operator_caches))
        with captured_writes(tables) as writes:
            self._run_broadcast(report, view, ctx)
        if writes:
            pool.apply_writes(view.name, wire.encode_writeset(writes))
        return report

    def _run_parallel(
        self, view: MaterializedView, instances, db_pre: Database, entries,
        plan: RoutePlan,
    ) -> ShardedMaintenanceReport:
        """Split instance rows by anchor key, run one shard per subset —
        one after another right here, or in the worker processes — and
        merge the per-shard results."""
        shard_instances = split_instances(plan, instances, self.shards)
        if self.backend == "inline":
            results, uncaptured = self._shards_inline(
                view, shard_instances, db_pre, entries, plan
            )
            return self._merge_shards(view, plan, results, uncaptured)
        pool = self._ensure_pool(entries)
        results = self._shards_in_workers(pool, view, shard_instances, plan)
        # Merging records the write-sets' overlaps (race_check) before
        # any of them reaches the coordinator's tables.
        report = self._merge_shards(view, plan, results, ())
        merged_writes: dict[str, list[tuple]] = {}
        for _, writes, _, _ in results:
            for tag, ops in writes.items():
                merged_writes.setdefault(tag, []).extend(ops)
        # The counted writes happened on the worker replicas; replay them
        # (uncounted — the cost is already in the merged counters) onto
        # the coordinator's authoritative tables, then onto every worker
        # so all replicas converge.  Replay is idempotent, so the merged
        # set going back to its originating shard is safe.
        coordinator_tables = dict(tagged_tables(view.caches, view.operator_caches))
        for tag, ops in merged_writes.items():
            coordinator_tables[tag].replay_writes(ops)
        if merged_writes:
            pool.apply_writes(view.name, wire.encode_writeset(merged_writes))
        return report

    def _shards_inline(
        self, view: MaterializedView, shard_instances, db_pre: Database, entries,
        plan: RoutePlan,
    ) -> tuple[list[ShardResult], list[str]]:
        """Run the shard contexts one after another over the shared
        tables; also returns the untagged tables they wrote (checked
        rounds only)."""
        tables = list(tagged_tables(view.caches, view.operator_caches))
        entries = RoundEntries.of(entries)
        unchanged = entries.unchanged(self.db)
        # Coverage check for checked rounds: a write landing on a catalog
        # table outside the tagged set would escape a process round's
        # write-set merge — dynamic RACE604.
        tagged = {id(table) for _, table in tables}
        audited = [t for t in self.db.tables.values() if id(t) not in tagged] if self.race_check else []
        for table in audited:
            table.begin_journal()
        results = []
        try:
            for i in range(self.shards):
                ctx = round_context(
                    db_pre, self.db, shard_instances[i], view, unchanged, entries.samples
                )
                with obs.span(
                    f"shard:{i}", kind="shard", counters=self.db.counters,
                    shard=i, view=view.name, anchor=plan.anchor,
                ):
                    results.append(run_shard(view.script, ctx, tables))
        finally:
            written = [table.name for table in audited if table.end_journal(write_set=True)]
        return results, sorted(written)

    def _shards_in_workers(
        self, pool: ProcessShardPool, view: MaterializedView, shard_instances,
        plan: RoutePlan,
    ) -> list[ShardResult]:
        """Ship each shard's rows to its worker process (see
        :mod:`repro.shard.workers` for the protocol) and decode what the
        workers' ``run_shard`` calls sent back."""
        docs = pool.exec_view(
            view.name,
            [wire.encode_instances(shard_instances[i]) for i in range(self.shards)],
        )
        results = []
        for i, doc in enumerate(docs):
            counts = wire.decode_counters(doc["counters"])
            with obs.span(
                f"shard:{i}", kind="shard",
                shard=i, view=view.name, anchor=plan.anchor,
                worker_seconds=doc["seconds"], cost=counts["__total__"].total,
            ):
                pass  # bookkeeping span: the work ran in the worker
            results.append((
                counts, wire.decode_writeset(doc["writes"]),
                doc["diff_sizes"], doc["seconds"],
            ))
        return results

    def _merge_shards(
        self, view: MaterializedView, plan: RoutePlan,
        results: list[ShardResult], uncaptured,
    ) -> ShardedMaintenanceReport:
        """Fold per-shard results into one round report: phase sums in
        shard order, per-shard reports and histograms, the counts of the
        process workers' replicas into the database's counters, and the
        dynamic race check over the write-sets."""
        report = ShardedMaintenanceReport(
            view.name, parallel=True, anchor=plan.anchor, backend=self.backend
        )
        report.shard_wall_hist = LogHistogram("shard.round_seconds", unit="seconds")
        apply_seconds = metrics.loghist("shard.apply_seconds", unit="seconds")
        shard_cost = metrics.loghist("shard.cost", unit="accesses")
        for i, (counts, _, diff_sizes, seconds) in enumerate(results):
            report.shard_wall_hist.observe(seconds)
            apply_seconds.observe(seconds)
            shard_cost.observe(counts["__total__"].total)
            shard_report = MaintenanceReport(f"{view.name}@shard{i}")
            shard_report.phase_counts = counts
            shard_report.diff_sizes = diff_sizes
            report.shard_reports.append(shard_report)
            for phase, phase_counts in counts.items():
                bucket = report.phase_counts.get(phase)
                if bucket is None:
                    report.phase_counts[phase] = phase_counts.copy()
                else:
                    bucket.add(phase_counts)
            # Shard counts sum exactly to the single-shard counts, so the
            # merged diff sizes reconcile against the same prediction.
            for k, v in diff_sizes.items():
                report.diff_sizes[k] = report.diff_sizes.get(k, 0) + v
            if self.backend == "process":
                # Inline shards counted into the database's counters; a
                # worker counted into its replica's, so its counts join
                # the database's totals here, once.
                self.db.counters.merge(counts)
        if self.race_check:
            self._handle_race(
                report, _writeset_overlaps([writes for _, writes, _, _ in results]), uncaptured
            )
        return report

    # ------------------------------------------------------------------
    def _handle_race(
        self,
        report: ShardedMaintenanceReport,
        overlaps: list[tuple[str, tuple, tuple[int, ...]]],
        uncaptured,
    ) -> None:
        """Surface what the dynamic detector found for one checked round."""
        if uncaptured:
            metrics.counter("shard.uncaptured_writes").inc(len(uncaptured))
            report.uncaptured_tables = list(uncaptured)
        if not overlaps:
            return
        metrics.counter("shard.race_overlaps").inc(len(overlaps))
        report.race_overlaps = overlaps
