"""Blocking i-diff rules for grouping γ — paper Tables 7, 9, 11 and 12.

Aggregation is where the paper's cache machinery earns its keep.  Two
strategies are implemented, both *blocking* (they see every diff branch
arriving at the operator before emitting output diffs, Example 4.4):

:class:`AssociativeAggregateStep` (sum / count / avg — Tables 9, 11, 12)
    Converts each incoming branch into row-level changes of the γ input —
    for free from ``UPDATE ... RETURNING`` expansions when an input cache
    exists (Appendix A) or off the rows of the tuple rule set's t-diffs,
    via counted ``Input_pre`` probes otherwise — then
    aggregates per-group deltas (the ∆1 ∪ ∆2 ∪ ∆3 union of Table 9),
    applies them to the operator's output materialization in a single
    read-modify-write pass per group, and re-emits the applied changes as
    effective diffs for the operators above.

    An *operator cache* (Table 12's ``Cache_sum`` / ``Cache_count``,
    generalized) tracks group cardinalities and per-aggregate non-null
    counts so group creation/deletion and NULL semantics are handled
    exactly — an extension over the paper, whose rules "do not handle
    group creation/deletion".  The operator cache is only touched when a
    cardinality actually changes, so pure-update workloads (the paper's
    experiments) pay nothing for it.

:class:`GeneralAggregateStep` (min / max, or any function via recompute —
    Table 7)
    Collects the affected group keys, recomputes those groups from
    ``Input_post`` and reconciles them against the output materialization.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...algebra.delta_eval import Bindings
from ...algebra.plan import GroupBy, base_tables
from ...algebra.relation import Relation
from ...errors import ScriptError
from ...storage import Table, TableSchema, sort_rows
from ..apply import EffectiveDiffs
from ..compile import lower_group_deltas, lower_group_values
from ..diffs import DELETE, INSERT, UPDATE, Diff
from ..ir_exec import IrContext
from ..script import Step
from .base import row_changes, state_mapping


class OpCacheSpec:
    """Schema of a γ node's operator cache (hidden bookkeeping table).

    Columns: the group keys, ``__n`` (group cardinality), and per
    aggregate ``__cnt_<name>`` (non-null argument count) plus
    ``__sum_<name>`` for avg.
    """

    def __init__(self, gnode: GroupBy, name: str):
        self.name = name
        self.gnode = gnode
        columns = list(gnode.keys) + ["__n"]
        for agg in gnode.aggs:
            if agg.func in ("sum", "avg"):
                columns.append(f"__cnt_{agg.name}")
            if agg.func == "avg":
                columns.append(f"__sum_{agg.name}")
        self.columns = tuple(columns)
        self.key = tuple(gnode.keys)

    def build(self, child_rows: Relation, counters) -> Table:
        """Materialize the operator cache from the child's current rows
        (view-definition time; uncounted): the γ-delta accumulation a
        round runs, fed every child row as an insert."""
        table = Table(TableSchema(self.name, self.columns, self.key), counters=counters)
        deltas = group_deltas_from_changes(self.gnode, [(None, row) for row in child_rows.rows])
        book = _Book(self.gnode, table)
        for g, delta in deltas.items():
            table.insert_uncounted(g + book.bumped(None, delta, delta.n))
        return table


class _GroupDelta:
    """Accumulated per-group deltas across all incoming branches."""

    __slots__ = ("n", "sums", "cnts")

    def __init__(self, n_aggs: int):
        self.n = 0
        self.sums = [0] * n_aggs
        self.cnts = [0] * n_aggs


#: sentinel distinguishing "not touched this round" from "deleted".
_UNTOUCHED = object()


class _ChangeCollector:
    """Turns incoming branches into (pre_row, post_row) child-row changes.

    Branches arriving from different base tables may describe the *same*
    child row — the join rules deliberately overestimate (∆+ ⋈ the other
    side's POST state sees rows another branch also inserts; two updates
    in one batch may touch two attributes of one row).  With an input
    cache the sequential APPLY absorbs that overlap: each branch applies
    against the state the previous branches left behind.  Without a
    cache this collector replays the same discipline in memory: an
    *overlay* of this round's changes (keyed by the child's own IDs)
    shadows the ``Input_pre`` probes, so each branch's changes are
    computed against the current state, not the round's start.  The
    counted probe traffic is exactly the historical per-branch
    ``Input_pre`` lookup — the overlay is pure bookkeeping.
    """

    def __init__(self, gnode: GroupBy, ctx: IrContext):
        self.gnode = gnode
        self.child = gnode.child
        self.ctx = ctx
        positions = {c: i for i, c in enumerate(self.child.columns)}
        self._child_id_idx = tuple(positions[a] for a in self.child.ids)
        #: child-ID -> current row (None = deleted) for rows changed by
        #: branches already collected this round.
        self._overlay: dict[tuple, Optional[tuple]] = {}

    def _child_id(self, row: tuple) -> tuple:
        return tuple(row[i] for i in self._child_id_idx)

    def _probe_current(self, diff: Diff) -> dict[tuple, list[tuple]]:
        """diff-ID -> current child rows: the counted ``Input_pre`` probe
        with this round's overlay folded in (earlier branches win)."""
        schema = diff.schema
        ids = schema.id_attrs
        bindings = Bindings(ids, [diff.id_of(r) for r in diff.rows])
        pre = self.ctx.resolve_subview(self.child, "pre", bindings)
        id_idx = [pre.position(a) for a in ids]
        by_id: dict[tuple, list[tuple]] = {}
        for row in pre.rows:
            if self._child_id(row) in self._overlay:
                continue  # superseded by an earlier branch this round
            by_id.setdefault(tuple(row[i] for i in id_idx), []).append(row)
        if self._overlay:
            # Rows created or rewritten by earlier branches are absent
            # from Input_pre; fold the live overlay rows matching the
            # diff's IDs back in (uncounted: they are in memory already).
            positions = {c: i for i, c in enumerate(self.child.columns)}
            o_idx = [positions[a] for a in ids]
            wanted = {diff.id_of(r) for r in diff.rows}
            for current in self._overlay.values():
                if current is None:
                    continue
                key = tuple(current[i] for i in o_idx)
                if key in wanted:
                    by_id.setdefault(key, []).append(current)
        return by_id

    def from_diff(self, diff: Diff) -> list[tuple]:
        """Row-level changes via counted Input_pre probes (Table 9's
        ∆ ⋈ Input_pre form; exact — dummy diff rows probe to nothing)."""
        schema = diff.schema
        if not diff.rows:
            return []
        if schema.kind == INSERT:
            return self._inserts(diff)
        by_id = self._probe_current(diff)
        changes: list[tuple] = []
        if schema.kind == DELETE:
            for diff_row in diff.rows:
                for row in by_id.get(diff.id_of(diff_row), ()):
                    changes.append((row, None))
                    self._overlay[self._child_id(row)] = None
            return changes
        # UPDATE: post rows are the current rows with updated attrs replaced.
        positions = {c: i for i, c in enumerate(self.child.columns)}
        for diff_row in diff.rows:
            overrides = {
                positions[a]: diff.post_value(diff_row, a) for a in schema.post_attrs
            }
            for row in by_id.get(diff.id_of(diff_row), ()):
                new = list(row)
                for i, v in overrides.items():
                    new[i] = v
                new = tuple(new)
                changes.append((row, new))
                self._overlay[self._child_id(row)] = new
        return changes

    def _inserts(self, diff: Diff) -> list[tuple]:
        """∆+ ▷ Input_pre (Table 9's ∆3): skip rows already present."""
        schema = diff.schema
        order = [
            (schema.id_attrs + schema.post_attrs).index(c)
            for c in self.child.columns
        ]
        bindings = Bindings(schema.id_attrs, [diff.id_of(r) for r in diff.rows])
        pre = self.ctx.resolve_subview(self.child, "pre", bindings)
        id_positions = [
            list(self.child.columns).index(a) for a in schema.id_attrs
        ]
        existing = {tuple(r[i] for i in id_positions) for r in pre.rows}
        changes: list[tuple] = []
        for diff_row in diff.rows:
            row = tuple(diff_row[i] for i in order)
            current = self._overlay.get(self._child_id(row), _UNTOUCHED)
            if current is _UNTOUCHED:
                if diff.id_of(diff_row) in existing:
                    continue
            elif current is not None:
                continue  # inserted or rewritten by an earlier branch
            # (current is None: deleted earlier this round — genuinely new)
            changes.append((None, row))
            self._overlay[self._child_id(row)] = row
        return changes


class _AggregateStep(Step):
    """What the two γ rules share: branches in, the applied changes of
    the γ output re-emitted as three effective diffs, and the output
    marked post-state."""

    def __init__(
        self,
        gnode: GroupBy,
        inputs: Sequence[tuple[str, str]],
        emit_prefix: str,
        phase: str,
        full_rows: bool = False,
    ):
        """*inputs* is a list of ("expansion"|"diff", name) pairs; with
        *full_rows* the diffs are t-diffs, whose rows are the changed
        child rows themselves (Appendix A: the tuple-based γ delta is
        free), so no ``Input`` probe derives them."""
        self.gnode = gnode
        self.inputs = list(inputs)
        self.emit_prefix = emit_prefix
        self.phase = phase
        self.full_rows = full_rows
        self.emitted: dict[str, str] = {
            INSERT: f"{emit_prefix}_ins",
            DELETE: f"{emit_prefix}_del",
            UPDATE: f"{emit_prefix}_upd",
        }
        #: what a round resolves of the output table, bound on the first
        #: run against it (:meth:`_bind`) and — not picklable — never
        #: shipped
        self._bound: Optional[_Bound] = None
        #: input name -> its t-diff's row extractors (``row_changes``)
        self._layouts: dict[str, tuple] = {}

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_bound": None}

    def _bind(self, ctx: IrContext) -> "_Bound":
        """The output materialization and operator cache of the γ node in
        *ctx*, with their round constants — resolved again only when
        either table is another object than the last run's."""
        node_id = self.gnode.node_id
        out_table = ctx.caches.get(node_id)
        if out_table is None:
            raise ScriptError(f"aggregate n{node_id} has no output materialization")
        opcache = ctx.operator_caches.get(node_id)
        bound = self._bound
        if bound is None or bound.output is not out_table or bound.opcache is not opcache:
            bound = self._bound = _Bound(
                out_table, opcache, EffectiveDiffs(out_table.schema, f"n{node_id}")
            )
        return bound

    def _emit(
        self,
        ctx: IrContext,
        bound: "_Bound",
        applied: Sequence[tuple] = (),
        kinds: Sequence[str] = (),
    ) -> None:
        """Re-express the applied changes as effective diffs for the
        operators above (and mark our output as post-state).  One change
        per group: the rows are unique on the output key as they are."""
        grouped: dict[str, list[tuple]] = {INSERT: [], DELETE: [], UPDATE: []}
        for change, kind in zip(applied, kinds):
            grouped[kind].append(change)
        emits = bound.emits
        for kind, name in self.emitted.items():
            ctx.diffs[name] = emits.trusted(kind, grouped[kind])
        self.settle(ctx)

    def _inputs(self, ctx: IrContext):
        """``(kind, name, input)`` per input: the applied changes of an
        expansion, or a diff."""
        diffs, expansions = ctx.diffs, ctx.expansions
        for source_kind, name in self.inputs:
            got = (expansions if source_kind == "expansion" else diffs).get(name)
            if got is None:
                raise ScriptError(f"{source_kind} {name!r} not available")
            yield source_kind, name, got

    # -- liveness: every input drives (an empty branch probes nothing,
    # an empty γ-delta writes nothing); skipped, the step still emits
    # its three (empty) diffs and still marks its output ----------------
    def reads(self) -> list[tuple[str, str]]:
        return self.inputs

    def binds(self) -> list[tuple[str, str]]:
        return [("diff", name) for name in self.emitted.values()]

    def pre_tables(self) -> frozenset[str]:
        # an i-diff input is completed by an Input_pre probe of the
        # child; an expansion or a t-diff carries the child rows
        if self.full_rows or all(kind == "expansion" for kind, _ in self.inputs):
            return frozenset()
        return base_tables(self.gnode.child)

    def idle(self, ctx: IrContext) -> None:
        self._emit(ctx, self._bind(ctx))

    def settle(self, ctx: IrContext) -> None:
        ctx.mark_cache_updated(self.gnode.node_id)


class AssociativeAggregateStep(_AggregateStep):
    """Delta maintenance for sum / count / avg (Tables 9, 11, 12)."""

    def __init__(
        self,
        gnode: GroupBy,
        inputs: Sequence[tuple[str, str]],
        opcache_name: str,
        emit_prefix: str,
        phase: str,
        full_rows: bool = False,
    ):
        super().__init__(gnode, inputs, emit_prefix, phase, full_rows)
        self.opcache_name = opcache_name
        #: the generated accumulation loop, built once per step
        #: (:meth:`prepare`) and — not picklable — never shipped
        self.accumulate = None

    def prepare(self) -> None:
        if self.accumulate is None:
            self.accumulate = group_accumulator(self.gnode)

    def __getstate__(self) -> dict:
        return {**super().__getstate__(), "accumulate": None}

    # ------------------------------------------------------------------
    def run(self, ctx: IrContext) -> None:
        gnode = self.gnode
        bound = self._bind(ctx)
        # built by the first i-diff input that needs its Input_pre probe
        collector: Optional[_ChangeCollector] = None
        changes: list[tuple] = []
        for source_kind, name, got in self._inputs(ctx):
            if source_kind == "expansion":
                changes.extend(got.changes)
            elif self.full_rows:
                changes.extend(row_changes(got, gnode.child.columns, self._layouts, name))
            elif got.rows:
                if collector is None:
                    collector = _ChangeCollector(gnode, ctx)
                changes.extend(collector.from_diff(got))
        self.prepare()
        deltas = self.accumulate(changes)
        writer = bound.writer
        if writer is None:
            if bound.opcache is None:
                raise ScriptError(f"aggregate n{gnode.node_id} has no operator cache")
            writer = bound.writer = GroupWriter(gnode, bound.output, bound.opcache)
        applied, kinds = apply_group_deltas(writer, deltas)
        self._emit(ctx, bound, applied, kinds)

    def describe(self) -> str:
        srcs = ", ".join(f"{k}:{n}" for k, n in self.inputs)
        return (
            f"γ-delta n{self.gnode.node_id} [{self.gnode.label()}] "
            f"from {srcs} -> {', '.join(self.emitted.values())}"
        )


class _Bound:
    """A γ step's round constants: its output table and operator cache,
    the effective diffs it emits, and the :class:`GroupWriter` of the
    delta rule (built by its first run)."""

    __slots__ = ("output", "opcache", "emits", "writer")

    def __init__(self, output: Table, opcache: Optional[Table], emits: EffectiveDiffs):
        self.output, self.opcache, self.emits = output, opcache, emits
        self.writer: Optional[GroupWriter] = None


class GroupWriter:
    """What :func:`apply_group_deltas` resolves of a γ node's output
    table and operator cache, once per pair of tables: the bookkeeping
    slots (:class:`_Book`), the aggregate columns and their extractor,
    and the generated new-values display of the node
    (:func:`repro.core.compile.lower_group_values`).  Holds generated
    code: whoever keeps one drops it from a pickle."""

    def __init__(self, gnode: GroupBy, out_table: Table, opcache: Table):
        self.out_table, self.opcache = out_table, opcache
        self.keys = tuple(gnode.keys)
        self.book = _Book(gnode, opcache)
        self.agg_names = tuple(a.name for a in gnode.aggs)
        self.aggs_of = out_table.schema.extractor(self.agg_names)
        self.by_key = self.keys == out_table.schema.key
        self.has_avg = any(a.func == "avg" for a in gnode.aggs)
        #: ``new_values(old values, delta, book) -> values`` of a live group
        self.new_values = lower_group_values(gnode, self.book.cnt_at, self.book.sum_at)


def apply_group_deltas(
    writer: GroupWriter, deltas: dict[tuple, _GroupDelta]
) -> tuple[list[tuple], list[str]]:
    """Fused read-modify-write of group deltas against the output table
    of *writer* (a γ node's output and operator cache, bound).

    Per affected group: one index lookup + one tuple access (the Output ⋈
    of Table 9 fused with the UPDATE — this is what makes the Table 3
    view-modification cost |D|pg rather than double).  The operator
    cache's bookkeeping is touched only when a cardinality / non-null
    count (or an avg's running sum) actually changes.  Groups it is not
    touched for — a live group whose aggregates move, the whole round
    of a pure-update workload — are read uncounted and queue into one
    ``update_many`` as ``key + values`` rows, flushed before any other
    write so the output sees today's write order.

    Returns ``(applied, kinds)``: the (pre, post) full output rows plus
    their change kinds, for re-emission as effective diffs.
    """
    out_table, book_of, keys = writer.out_table, writer.book, writer.keys
    agg_names, aggs_of, new_values = writer.agg_names, writer.aggs_of, writer.new_values
    has_avg, by_key, n_keys = writer.has_avg, writer.by_key, len(keys)
    output_row, book_row = out_table.get_uncounted, writer.opcache.get_uncounted
    applied: list[tuple] = []
    kinds: list[str] = []
    queued: list[tuple] = []

    def flush() -> None:
        if queued:
            written = out_table.update_many(keys, agg_names, queued)
            applied.extend(written)
            kinds.extend([UPDATE] * len(written))
            queued.clear()

    for g, delta in deltas.items():
        touch_opcache = (
            delta.n != 0 or any(delta.cnts) or (has_avg and any(delta.sums))
        )
        if not touch_opcache:
            if not any(delta.sums):
                continue  # a zero delta
            if by_key:
                old_row, book = output_row(g), book_row(g)
                if old_row is not None and book is not None and book[n_keys]:
                    old_values = aggs_of(old_row)
                    values = new_values(old_values, delta, book[n_keys:])
                    if values != old_values:
                        queued.append(g + values)
                        continue
        flush()
        book = book_of.read(g, touch_opcache)
        located = out_table.locate(keys, g)
        if located:
            old_row = out_table.get_uncounted(located[0])
            new_n = (book[0] if book is not None else 0) + delta.n
            if new_n == 0:
                out_table.delete_at(located[0])
                book_of.write(g, None, touch_opcache)
                applied.append((old_row, None))
                kinds.append(DELETE)
                continue
            new_book = book_of.bumped(book, delta, new_n)
            old_values = aggs_of(old_row)
            values = new_values(old_values, delta, new_book)
            if values != old_values:
                out_table.write_at(located[0], dict(zip(agg_names, values)))
                applied.append((old_row, out_table.get_uncounted(located[0])))
                kinds.append(UPDATE)
            book_of.write(g, new_book, touch_opcache)
        else:
            if delta.n <= 0:
                continue  # dummy deltas for a group that never existed
            new_book = book_of.bumped(None, delta, delta.n)
            row = g + book_of.insert_values(delta, new_book)
            out_table.insert_checked(row)
            book_of.write(g, new_book, True, inserting=True)
            applied.append((None, row))
            kinds.append(INSERT)
    flush()
    return applied, kinds


class _Book:
    """A γ node's operator-cache bookkeeping, read and written by
    position: a *book* is an opcache row past the group key — ``__n``
    first, then the ``__cnt_`` / ``__sum_`` slots — and the slot of every
    aggregate is resolved here, once per call."""

    def __init__(self, gnode: GroupBy, opcache: Table):
        self.aggs = gnode.aggs
        self.opcache = opcache
        self.columns = opcache.schema.columns[len(gnode.keys):]
        slot = {c: i for i, c in enumerate(self.columns)}
        self.cnt_at = [slot.get(f"__cnt_{a.name}") for a in self.aggs]
        self.sum_at = [slot.get(f"__sum_{a.name}") for a in self.aggs]

    def read(self, g: tuple, touch: bool) -> Optional[tuple]:
        """The book of group *g* (a counted lookup only when touched)."""
        if touch:
            rows = self.opcache.lookup(self.opcache.schema.key, g)
            row = rows[0] if rows else None
        else:
            row = self.opcache.get_uncounted(g)
        return row[len(g):] if row is not None else None

    def bumped(self, book: Optional[tuple], delta: _GroupDelta, new_n: int) -> tuple:
        new = list(book) if book is not None else [0] * len(self.columns)
        new[0] = new_n
        for i, (cnt, total) in enumerate(zip(self.cnt_at, self.sum_at)):
            if cnt is not None:
                new[cnt] += delta.cnts[i]
            if total is not None:
                new[total] += delta.sums[i]
        return tuple(new)

    def write(
        self, g: tuple, new_book: Optional[tuple], touch: bool, inserting: bool = False
    ) -> None:
        opcache = self.opcache
        if not touch:
            return
        if new_book is None:
            opcache.delete_at(g)
        elif inserting or opcache.get_uncounted(g) is None:
            opcache.insert_checked(g + new_book)
        else:
            opcache.write_at(g, dict(zip(self.columns, new_book)))

    def insert_values(self, delta: _GroupDelta, book: tuple) -> tuple:
        values = []
        for i, agg in enumerate(self.aggs):
            if agg.func == "count":
                values.append(delta.n if agg.arg is None else delta.cnts[i])
            elif agg.func == "sum":
                values.append(None if delta.cnts[i] == 0 else delta.sums[i])
            else:
                values.append(self._avg(i, agg, book))
        return tuple(values)

    def _avg(self, i: int, agg, book: tuple):
        if agg.func != "avg":  # pragma: no cover - generator routes min/max elsewhere
            raise ScriptError(f"associative step got {agg.func!r}")
        cnt = book[self.cnt_at[i]]
        return None if cnt == 0 else book[self.sum_at[i]] / cnt


def group_accumulator(gnode: GroupBy):
    """``accumulate(changes) -> {group: _GroupDelta}`` over ``(pre_row,
    post_row)`` child-row changes of *gnode*: one generated loop
    (:func:`repro.core.compile.lower_group_deltas`), for whoever holds
    the γ node across rounds to build once — the blocking γ step of
    either rule set, and the SDBT baseline."""
    return lower_group_deltas(gnode, _GroupDelta)


def group_deltas_from_changes(
    gnode: GroupBy, changes: list[tuple]
) -> dict[tuple, _GroupDelta]:
    """:func:`group_accumulator`, built for this one call."""
    return group_accumulator(gnode)(changes) if changes else {}


class GeneralAggregateStep(_AggregateStep):
    """Recompute-based maintenance for arbitrary aggregates (Table 7)."""

    def run(self, ctx: IrContext) -> None:
        gnode = self.gnode
        bound = self._bind(ctx)
        out_table = bound.output
        groups = self._affected_groups(ctx)
        if not groups:
            self._emit(ctx, bound)
            return
        # Recompute the affected groups from Input_post (Table 7's
        # γ(∆ ⋉Ḡ Input_post)).  sort_rows, not sorted: group keys may
        # contain NULLs or mixed types, which Python's < cannot order.
        ordered_groups = sort_rows(groups)
        recomputed = ctx.resolve_subview(
            gnode, "post", Bindings(gnode.keys, ordered_groups),
            cached=not self.full_rows,
        )
        key_idx = [recomputed.position(k) for k in gnode.keys]
        new_rows = {tuple(r[i] for i in key_idx): r for r in recomputed.rows}
        applied: list[tuple] = []
        kinds: list[str] = []
        for g in ordered_groups:
            keys = out_table.locate(gnode.keys, g)
            old_row = out_table.get_uncounted(keys[0]) if keys else None
            new_row = new_rows.get(g)
            if old_row is None and new_row is None:
                continue
            if old_row is None:
                out_table.insert_checked(new_row)
                applied.append((None, new_row))
                kinds.append(INSERT)
            elif new_row is None:
                out_table.delete_at(keys[0])
                applied.append((old_row, None))
                kinds.append(DELETE)
            elif old_row != new_row:
                changes = {
                    a.name: new_row[out_table.schema.position(a.name)]
                    for a in gnode.aggs
                }
                out_table.write_at(keys[0], changes)
                applied.append((old_row, new_row))
                kinds.append(UPDATE)
        self._emit(ctx, bound, applied, kinds)

    def _affected_groups(self, ctx: IrContext) -> set[tuple]:
        """Group keys whose membership may have changed, from both states."""
        gnode = self.gnode
        groups: set[tuple] = set()
        positions = {c: i for i, c in enumerate(gnode.child.columns)}
        key_idx = [positions[k] for k in gnode.keys]
        for source_kind, name, got in self._inputs(ctx):
            if source_kind == "expansion":
                # Cached child: the APPLY's RETURNING expansion already
                # carries full (pre, post) child rows — the group keys
                # are right there, no Input probes needed.
                changes = got.changes
            else:
                diff = got
                if not diff.rows:
                    continue
                if self.full_rows:  # a t-diff: its rows are the child rows
                    changes = row_changes(diff, gnode.child.columns, self._layouts, name)
                else:
                    ids = diff.schema.id_attrs
                    bindings = Bindings(ids, [diff.id_of(r) for r in diff.rows])
                    for state in ("pre", "post"):
                        rel = ctx.resolve_subview(gnode.child, state, bindings)
                        k_idx = [rel.position(k) for k in gnode.keys]
                        groups.update(tuple(r[i] for i in k_idx) for r in rel.rows)
                    # Insert diffs carry their group keys directly.
                    if diff.schema.kind == INSERT:
                        mapping = state_mapping(diff.schema, "post")
                        if all(k in mapping for k in gnode.keys):
                            pos = diff.schema.positions
                            groups.update(
                                tuple(r[pos[mapping[k]]] for k in gnode.keys)
                                for r in diff.rows
                            )
                    continue
            for pre_row, post_row in changes:
                for row in (pre_row, post_row):
                    if row is not None:
                        groups.add(tuple(row[i] for i in key_idx))
        return groups

    def describe(self) -> str:
        srcs = ", ".join(f"{k}:{n}" for k, n in self.inputs)
        return (
            f"γ-recompute n{self.gnode.node_id} [{self.gnode.label()}] "
            f"from {srcs} -> {', '.join(self.emitted.values())}"
        )
