"""Blocking i-diff rules for grouping γ — paper Tables 7, 9, 11 and 12.

Aggregation is where the paper's cache machinery earns its keep.  Two
strategies are implemented, both *blocking* (they see every diff branch
arriving at the operator before emitting output diffs, Example 4.4):

:class:`AssociativeAggregateStep` (sum / count / avg — Tables 9, 11, 12)
    Converts each incoming branch into row-level changes of the γ input —
    for free from ``UPDATE ... RETURNING`` expansions when an input cache
    exists (Appendix A), via counted ``Input_pre`` probes otherwise — then
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
from ...algebra.plan import GroupBy
from ...algebra.relation import Relation
from ...errors import ScriptError
from ...storage import Table, TableSchema, row_extractor, sort_rows
from ..apply import AppliedChanges, changes_to_diff
from ..compile import lower_group_deltas
from ..diffs import DELETE, INSERT, UPDATE, Diff
from ..ir_exec import IrContext
from ..script import Step


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

    def is_zero(self) -> bool:
        return self.n == 0 and not any(self.sums) and not any(self.cnts)


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

    def from_expansion(self, applied: AppliedChanges) -> list[tuple]:
        return list(applied.changes)

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
    ):
        """*inputs* is a list of ("expansion"|"diff", name) pairs."""
        self.gnode = gnode
        self.inputs = list(inputs)
        self.emit_prefix = emit_prefix
        self.phase = phase
        self.emitted: dict[str, str] = {
            INSERT: f"{emit_prefix}_ins",
            DELETE: f"{emit_prefix}_del",
            UPDATE: f"{emit_prefix}_upd",
        }

    def _output(self, ctx: IrContext) -> Table:
        out_table = ctx.caches.get(self.gnode.node_id)
        if out_table is None:
            raise ScriptError(
                f"aggregate n{self.gnode.node_id} has no output materialization"
            )
        return out_table

    def _emit(
        self,
        ctx: IrContext,
        out_table: Table,
        applied: Sequence[tuple] = (),
        kinds: Sequence[str] = (),
    ) -> None:
        """Re-express the applied changes as effective diffs for the
        operators above (and mark our output as post-state)."""
        grouped = {INSERT: [], DELETE: [], UPDATE: []}
        for change, kind in zip(applied, kinds):
            grouped[kind].append(change)
        for kind, name in self.emitted.items():
            ctx.diffs[name] = changes_to_diff(
                kind, grouped[kind], out_table.schema, f"n{self.gnode.node_id}"
            )
        self.settle(ctx)

    # -- liveness: every input drives (an empty branch probes nothing,
    # an empty γ-delta writes nothing); skipped, the step still emits
    # its three (empty) diffs and still marks its output ----------------
    def reads(self) -> list[tuple[str, str]]:
        return self.inputs

    def binds(self) -> list[tuple[str, str]]:
        return [("diff", name) for name in self.emitted.values()]

    def idle(self, ctx: IrContext) -> None:
        self._emit(ctx, self._output(ctx))

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
    ):
        super().__init__(gnode, inputs, emit_prefix, phase)
        self.opcache_name = opcache_name
        #: the generated accumulation loop, built once per step
        #: (:meth:`prepare`) and — not picklable — never shipped
        self.accumulate = None

    def prepare(self) -> None:
        if self.accumulate is None:
            self.accumulate = group_accumulator(self.gnode)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "accumulate": None}

    # ------------------------------------------------------------------
    def run(self, ctx: IrContext) -> None:
        gnode = self.gnode
        collector = _ChangeCollector(gnode, ctx)
        changes: list[tuple] = []
        for source_kind, name in self.inputs:
            if source_kind == "expansion":
                applied = ctx.expansions.get(name)
                if applied is None:
                    raise ScriptError(f"expansion {name!r} not available")
                changes.extend(collector.from_expansion(applied))
            else:
                diff = ctx.diffs.get(name)
                if diff is None:
                    raise ScriptError(f"diff {name!r} not available")
                changes.extend(collector.from_diff(diff))
        self.prepare()
        self._apply_deltas(ctx, self.accumulate(changes))

    # ------------------------------------------------------------------
    def _apply_deltas(self, ctx: IrContext, deltas: dict[tuple, _GroupDelta]) -> None:
        gnode = self.gnode
        out_table = self._output(ctx)
        opcache = ctx.operator_caches.get(gnode.node_id)
        if opcache is None:
            raise ScriptError(f"aggregate n{gnode.node_id} has no operator cache")
        applied, kinds = apply_group_deltas(gnode, deltas, out_table, opcache)
        self._emit(ctx, out_table, applied, kinds)

    def describe(self) -> str:
        srcs = ", ".join(f"{k}:{n}" for k, n in self.inputs)
        return (
            f"γ-delta n{self.gnode.node_id} [{self.gnode.label()}] "
            f"from {srcs} -> {', '.join(self.emitted.values())}"
        )


def apply_group_deltas(
    gnode: GroupBy,
    deltas: dict[tuple, _GroupDelta],
    out_table: Table,
    opcache: Table,
) -> tuple[list[tuple], list[str]]:
    """Fused read-modify-write of group deltas against *out_table*.

    Per affected group: one index lookup + one tuple access (the Output ⋈
    of Table 9 fused with the UPDATE — this is what makes the Table 3
    view-modification cost |D|pg rather than double).  The *opcache*
    bookkeeping is touched only when a cardinality / non-null count (or
    an avg's running sum) actually changes.  Groups it is not touched
    for — a live group whose aggregates move, the whole round of a
    pure-update workload — queue into one ``update_many``, flushed
    before any other write so *out_table* sees today's write order.

    Returns ``(applied, kinds)``: the (pre, post) full output rows plus
    their change kinds, for re-emission as effective diffs.
    """
    aggs = gnode.aggs
    book_of = _Book(gnode, opcache)
    agg_names = tuple(a.name for a in aggs)
    aggs_of = row_extractor(out_table.schema.positions(agg_names))
    by_key = tuple(gnode.keys) == out_table.schema.key
    applied: list[tuple] = []
    kinds: list[str] = []
    queued: list[tuple] = []

    def flush() -> None:
        if queued:
            written = out_table.update_many(gnode.keys, agg_names, queued)
            applied.extend(written)
            kinds.extend([UPDATE] * len(written))
            queued.clear()

    has_avg = any(a.func == "avg" for a in aggs)
    for g, delta in deltas.items():
        if delta.is_zero():
            continue
        touch_opcache = (
            delta.n != 0 or any(delta.cnts) or (has_avg and any(delta.sums))
        )
        if by_key and not touch_opcache:
            old_row = out_table.get_uncounted(g)
            book = book_of.read(g, False)
            if old_row is not None and book is not None and book[0]:
                old_values = aggs_of(old_row)
                values = book_of.new_values(old_values, delta, book)
                if values != old_values:
                    queued.append((g, values))
                    continue
        flush()
        book = book_of.read(g, touch_opcache)
        keys = out_table.locate(gnode.keys, g)
        if keys:
            old_row = out_table.get_uncounted(keys[0])
            new_n = (book[0] if book is not None else 0) + delta.n
            if new_n == 0:
                out_table.delete_at(keys[0])
                book_of.write(g, None, touch_opcache)
                applied.append((old_row, None))
                kinds.append(DELETE)
                continue
            new_book = book_of.bumped(book, delta, new_n)
            old_values = aggs_of(old_row)
            values = book_of.new_values(old_values, delta, new_book)
            if values != old_values:
                out_table.write_at(keys[0], dict(zip(agg_names, values)))
                applied.append((old_row, out_table.get_uncounted(keys[0])))
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

    def new_values(self, old_values: tuple, delta: _GroupDelta, book: tuple) -> tuple:
        values = []
        for i, (agg, old) in enumerate(zip(self.aggs, old_values)):
            if agg.func == "count":
                values.append((old or 0) + (delta.n if agg.arg is None else delta.cnts[i]))
            elif agg.func == "sum":
                values.append(
                    None if book[self.cnt_at[i]] == 0 else (old or 0) + delta.sums[i]
                )
            else:
                values.append(self._avg(i, agg, book))
        return tuple(values)

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
    the γ node across rounds to build once — the ID engine's blocking
    step, and the tuple-based and SDBT baselines, whose t-diffs carry
    the full rows already."""
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
        out_table = self._output(ctx)
        groups = self._affected_groups(ctx)
        if not groups:
            self._emit(ctx, out_table)
            return
        # Recompute the affected groups from Input_post (Table 7's
        # γ(∆ ⋉Ḡ Input_post)).  sort_rows, not sorted: group keys may
        # contain NULLs or mixed types, which Python's < cannot order.
        ordered_groups = sort_rows(groups)
        recomputed = ctx.resolve_subview(
            gnode, "post", Bindings(gnode.keys, ordered_groups)
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
        self._emit(ctx, out_table, applied, kinds)

    def _affected_groups(self, ctx: IrContext) -> set[tuple]:
        """Group keys whose membership may have changed, from both states."""
        gnode = self.gnode
        groups: set[tuple] = set()
        positions = {c: i for i, c in enumerate(gnode.child.columns)}
        key_idx = [positions[k] for k in gnode.keys]
        for source_kind, name in self.inputs:
            if source_kind == "expansion":
                # Cached child: the APPLY's RETURNING expansion already
                # carries full (pre, post) child rows — the group keys
                # are right there, no Input probes needed.
                applied = ctx.expansions.get(name)
                if applied is None:
                    raise ScriptError(f"expansion {name!r} not available")
                for pre_row, post_row in applied.changes:
                    for row in (pre_row, post_row):
                        if row is not None:
                            groups.add(tuple(row[i] for i in key_idx))
                continue
            diff = ctx.diffs.get(name)
            if diff is None:
                raise ScriptError(f"diff {name!r} not available")
            if not diff.rows:
                continue
            ids = diff.schema.id_attrs
            bindings = Bindings(ids, [diff.id_of(r) for r in diff.rows])
            for state in ("pre", "post"):
                rel = ctx.resolve_subview(gnode.child, state, bindings)
                k_idx = [rel.position(k) for k in gnode.keys]
                groups.update(tuple(r[i] for i in k_idx) for r in rel.rows)
            # Insert diffs carry their group keys directly.
            if diff.schema.kind == INSERT:
                from .base import state_mapping

                mapping = state_mapping(diff.schema, "post")
                if all(k in mapping for k in gnode.keys):
                    pos = diff.schema.positions
                    groups.update(
                        tuple(r[pos[mapping[k]]] for k in gnode.keys)
                        for r in diff.rows
                    )
        return groups

    def describe(self) -> str:
        srcs = ", ".join(f"{k}:{n}" for k, n in self.inputs)
        return (
            f"γ-recompute n{self.gnode.node_id} [{self.gnode.label()}] "
            f"from {srcs} -> {', '.join(self.emitted.values())}"
        )
