"""Long-lived shard worker processes for :class:`ShardedEngine`.

The inline backend in :mod:`repro.core.sharded` runs the shards one
after another in the coordinator: exact per-shard costs, no overlap in
time.  This module supplies the process backend: each shard owns a
long-lived worker process (spawned once per engine, reused across
rounds) holding a full **replica** of the database and every view's
cache tables.  Both backends execute a shard through the same
:func:`run_shard`.

Round protocol (all per-round payloads use :mod:`repro.core.wire` —
columnar, interned, primitive-only; the one-time bootstrap blueprint
travels as a pickle over the pipe, which is fine for a single message):

1. ``("boot", blueprint)`` — build the replica: base tables, foreign
   keys, each view's :class:`GeneratedPlan` plus cache/op-cache tables
   as the same :class:`~repro.core.engine.MaterializedView` the
   coordinator holds, kernels re-bound onto its script locally, every
   table counting into the replica database's one counter set.
2. ``("round", log_batch, sync)`` — receive the round's modification
   log.  When *sync* is true the entries are applied (uncounted) to the
   replica's base tables first — a worker that was just booted already
   has them baked into its blueprint, so its first round passes
   ``sync=False``.  The pre-state comes from the worker's own
   :class:`~repro.core.engine.PreState` of the coordinator's tables.
3. ``("exec", view, instances)`` — :func:`run_shard` the view's full
   ∆-script over this shard's i-diff rows in a private ``IrContext``.
   Replies with the wire-encoded :data:`ShardResult`: the exact counts
   the execution added to the replica's counters, the journaled
   write-set, per-instance diff sizes and the wall-clock duration.
4. ``("apply", view, writeset)`` — replay a (merged) write-set onto the
   replica's view tables, uncounted and idempotently; this is how every
   worker learns the other shards' writes and how broadcast rounds
   executed on the coordinator reach the replicas.
5. ``("close",)`` — exit the loop.

Exactness: the router only parallelizes rounds whose counted reads and
writes are anchor-local, so during ``exec`` each replica's visible state
restricted to this shard's rows is identical to the shared database of
the inline backend — every counted access (including auto-index builds,
whose creations are journaled and replayed so index sets never drift)
costs the same, and the per-shard counts sum exactly to the
single-shard counts.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Optional, Sequence

from ..core import wire
from ..core.compile import bind_kernels, check_backend
from ..core.engine import (
    MaterializedView,
    PreState,
    apply_log,
    counts_since,
    round_context,
    tagged_tables,
)
from ..core.modlog import RoundEntries
from ..core.script import ScriptSamples
from ..storage import AccessCounts, Database, Table

#: Join grace before terminating a worker at close().
_CLOSE_TIMEOUT = 5.0


# ----------------------------------------------------------------------
# the shard protocol's one execution step, run by the inline backend in
# the coordinator and by every worker process
# ----------------------------------------------------------------------
#: What one shard hands the coordinator's merge: the per-phase counts it
#: added to its database's counters (``counts_since``), its journaled
#: write-set (tag -> net replayable ops), per-instance diff sizes and its
#: wall-clock duration (a ``perf_counter`` *delta* — never a raw
#: monotonic reading, which would not be comparable across processes).
ShardResult = tuple[dict[str, AccessCounts], dict[str, list[tuple]], dict[str, int], float]


@contextmanager
def captured_writes(
    tables: Sequence[tuple[str, Table]],
) -> Iterator[dict[str, list[tuple]]]:
    """Journal the tagged *tables* for the block (:meth:`Table.begin_journal`,
    nested in a view-round's journal where one is armed) and commit on the
    way out, failed or not.  Yields the write-set (tag -> net replayable
    ops), filled in when the block ends with the tables written."""
    for _, table in tables:
        table.begin_journal()
    writes: dict[str, list[tuple]] = {}
    try:
        yield writes
    finally:
        for tag, table in tables:
            ops = table.end_journal(write_set=True)
            if ops:
                writes[tag] = ops


def run_shard(
    script: Any, ctx: Any, tables: Sequence[tuple[str, Table]]
) -> ShardResult:
    """Execute *script* over one shard's context *ctx*, with the view's
    tagged *tables* journaled for the shard's write-set; the shard's
    counts are what it adds to its database's counters."""
    from ..core.script import execute_script

    counters = ctx.db_post.counters
    before = counters.mark()
    with captured_writes(tables) as writes:
        started = time.perf_counter()
        execute_script(script, ctx)
    seconds = time.perf_counter() - started
    return counts_since(counters, before), writes, ctx.diff_sizes, seconds


# ----------------------------------------------------------------------
# bootstrap blueprint (coordinator side)
# ----------------------------------------------------------------------
def _table_payload(table: Table) -> tuple:
    """(schema, rows, index column tuples) — enough to rebuild exactly."""
    return (
        table.schema,
        table.rows_uncounted(),
        table.index_columns(),
    )


def _restore_table(payload: tuple, counters) -> Table:
    schema, rows, indexes = payload
    table = Table(schema, counters=counters)
    table.load(rows)
    for columns in indexes:
        table.create_index(columns)
    return table


def build_blueprint(db: Database, views: Mapping[str, Any], exec_backend: str, pre_tables) -> dict:
    """Snapshot the engine's state for worker bootstrap.

    Taken lazily at first parallel round, so it reflects the current
    post-state base tables and the views' current (stale-for-this-round)
    cache contents — exactly what the coordinator itself sees.

    Kernels are not picklable — pickling a view's ``generated`` drops
    them from its script — so only ``exec_backend`` ships; each worker
    re-binds its views' scripts locally at boot.  *pre_tables* are the
    base tables the coordinator replicates in pre-state.
    """
    return {
        "exec_backend": check_backend(exec_backend),
        "pre_tables": sorted(pre_tables),
        "tables": [_table_payload(t) for _, t in sorted(db.tables.items())],
        "foreign_keys": [
            (fk.child_table, tuple(fk.child_columns), fk.parent_table)
            for fk in db.foreign_keys
        ],
        "views": [
            {
                "name": name,
                "generated": view.generated,
                "caches": [
                    (node_id, _table_payload(table))
                    for node_id, table in sorted(view.caches.items())
                ],
                "opcaches": [
                    (node_id, _table_payload(table))
                    for node_id, table in sorted(view.operator_caches.items())
                ],
            }
            for name, view in sorted(views.items())
        ],
    }


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _WorkerState:
    """Everything one worker process holds between messages."""

    def __init__(self, blueprint: dict):
        db = Database()
        for payload in blueprint["tables"]:
            table = _restore_table(payload, db.counters)
            db.tables[table.schema.name] = table
        for child_table, child_columns, parent_table in blueprint["foreign_keys"]:
            db.add_foreign_key(child_table, child_columns, parent_table)
        self.db = db
        exec_backend = blueprint["exec_backend"]
        self.views: dict[str, MaterializedView] = {}
        for entry in blueprint["views"]:
            caches = {
                node_id: _restore_table(payload, db.counters)
                for node_id, payload in entry["caches"]
            }
            opcaches = {
                node_id: _restore_table(payload, db.counters)
                for node_id, payload in entry["opcaches"]
            }
            generated = entry["generated"]
            bind_kernels(generated.script, exec_backend)
            self.views[entry["name"]] = MaterializedView(
                generated, caches[generated.plan.node_id], caches, opcaches
            )
        self._pre = PreState(db, frozenset(blueprint["pre_tables"]))
        self._entries = RoundEntries()
        self.unchanged_tables: frozenset[str] = frozenset()

    # ------------------------------------------------------------------
    def begin_round(self, log_doc: Mapping, sync: bool) -> None:
        # No message ends a round, so the pre-state replica absorbs the
        # previous round's log when the next one begins.
        previous = self._entries
        self._pre.move(previous, previous.end)
        # One fold serves the live tables' catch-up now and the replica's
        # when the next round begins.
        self._entries = entries = RoundEntries(wire.decode_log_batch(log_doc), previous.end)
        if sync:
            apply_log(self.db, entries)
        self._pre.begin(entries)
        self.unchanged_tables = entries.unchanged(self.db)

    def execute(self, view_name: str, instances_doc: Mapping) -> dict:
        view = self.views[view_name]
        instances = wire.decode_instances(instances_doc)
        # the worker's own registry: its samples are observed here
        samples = ScriptSamples()
        ctx = round_context(
            self._pre.db, self.db, instances, view, self.unchanged_tables, samples
        )
        tables = list(tagged_tables(view.caches, view.operator_caches))
        try:
            counts, writes, diff_sizes, seconds = run_shard(view.script, ctx, tables)
        finally:
            samples.observe()
        return {
            "counters": wire.encode_counters(counts),
            "writes": wire.encode_writeset(writes),
            "diff_sizes": diff_sizes,
            "seconds": seconds,
        }

    def apply_writes(self, view_name: str, writeset_doc: Mapping) -> None:
        view = self.views[view_name]
        tables = dict(tagged_tables(view.caches, view.operator_caches))
        for tag, ops in wire.decode_writeset(writeset_doc).items():
            tables[tag].replay_writes(ops)


def worker_main(conn) -> None:
    """Entry point of a shard worker process (module-level: the spawn
    start method imports this module fresh in the child)."""
    state: Optional[_WorkerState] = None
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            try:
                kind = msg[0]
                if kind == "boot":
                    state = _WorkerState(msg[1])
                    conn.send(("ok", None))
                elif kind in ("round", "exec", "apply") and state is None:
                    conn.send(("err", f"{kind!r} before boot"))
                elif kind == "round":
                    assert state is not None
                    state.begin_round(msg[1], msg[2])
                    conn.send(("ok", None))
                elif kind == "exec":
                    assert state is not None
                    conn.send(("ok", state.execute(msg[1], msg[2])))
                elif kind == "apply":
                    assert state is not None
                    state.apply_writes(msg[1], msg[2])
                    conn.send(("ok", None))
                elif kind == "close":
                    conn.send(("ok", None))
                    break
                else:
                    conn.send(("err", f"unknown message kind {kind!r}"))
            except BaseException:
                conn.send(("err", traceback.format_exc()))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
class WorkerError(RuntimeError):
    """A shard worker process failed; carries its traceback text."""


class ProcessShardPool:
    """Handles to the long-lived shard worker processes.

    Uses the ``spawn`` start method: forking a process that also runs a
    ``DemoLoop`` daemon thread or HTTP handler threads could inherit a
    lock in a held state.  Workers are daemonic, so an unclosed pool can
    never keep the interpreter alive; :meth:`close` shuts them down
    deterministically.
    """

    def __init__(self, n_shards: int):
        ctx = multiprocessing.get_context("spawn")
        self.n_shards = n_shards
        self._workers: list[tuple] = []
        for i in range(n_shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main,
                args=(child_conn,),
                daemon=True,
                name=f"repro-shard-{i}",
            )
            proc.start()
            child_conn.close()
            self._workers.append((proc, parent_conn))
        self._closed = False

    # ------------------------------------------------------------------
    def _recv(self, i: int):
        proc, conn = self._workers[i]
        try:
            status, payload = conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerError(
                f"shard worker {i} (pid {proc.pid}) died mid-request"
            ) from exc
        if status != "ok":
            raise WorkerError(f"shard worker {i} failed:\n{payload}")
        return payload

    def _broadcast(self, msg: tuple) -> list:
        for _, conn in self._workers:
            conn.send(msg)
        return [self._recv(i) for i in range(self.n_shards)]

    # ------------------------------------------------------------------
    def boot(self, blueprint: dict) -> None:
        self._broadcast(("boot", blueprint))

    def begin_round(self, log_doc: Mapping, sync: bool) -> None:
        """Ship the round's log to every worker (sync=False right after
        boot: the blueprint already contains those modifications)."""
        self._broadcast(("round", log_doc, sync))

    def exec_view(self, view_name: str, instance_docs: Sequence[Mapping]) -> list[dict]:
        """Run one view's ∆-script on all shards concurrently.

        All requests are sent before any reply is awaited — the workers
        genuinely run in parallel; replies come back in shard order.
        """
        for i, (_, conn) in enumerate(self._workers):
            conn.send(("exec", view_name, instance_docs[i]))
        return [self._recv(i) for i in range(self.n_shards)]

    def apply_writes(self, view_name: str, writeset_doc: Mapping) -> None:
        self._broadcast(("apply", view_name, writeset_doc))

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for _, conn in self._workers:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for i, (proc, conn) in enumerate(self._workers):
            try:
                if conn.poll(_CLOSE_TIMEOUT):
                    conn.recv()
            except (EOFError, OSError):
                pass
            proc.join(timeout=_CLOSE_TIMEOUT)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=_CLOSE_TIMEOUT)
            conn.close()
