"""Blocking i-diff rules for grouping γ — paper Tables 7, 9, 11 and 12.

Aggregation is where the paper's cache machinery earns its keep.  Two
strategies are implemented, both *blocking* (they see every diff branch
arriving at the operator before emitting output diffs, Example 4.4):

:class:`AssociativeAggregateStep` (sum / count / avg — Tables 9, 11, 12)
    Converts each incoming branch into row-level changes of the γ input —
    for free from ``UPDATE ... RETURNING`` expansions when an input cache
    exists (Appendix A) or off the rows of the tuple rule set's t-diffs,
    via counted ``Input_pre`` probes otherwise — then runs the node's one
    generated pass (:func:`repro.core.compile.lower_group_pass`): it
    folds them into per-group payloads (the ∆1 ∪ ∆2 ∪ ∆3 union of
    Table 9), applies each to the operator's output materialization in a
    single read-modify-write, and builds the effective rows re-emitted
    for the operators above.

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

from typing import Callable, Mapping, Optional, Sequence

from ...algebra.plan import GroupBy, base_tables
from ...algebra.relation import Relation
from ...errors import ScriptError
from ...storage import Table, TableSchema, sort_rows
from ..apply import EffectiveDiffs
from ..compile import SubviewReaders, group_slots, lower_group_pass
from ..diffs import DELETE, INSERT, UPDATE, Diff
from ..ir import POST, PRE
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
        (view-definition time; uncounted): the accumulation half of the
        γ-delta pass a round runs, fed every child row as an insert."""
        table = Table(TableSchema(self.name, self.columns, self.key), counters=counters)
        if child_rows.rows:
            accumulate = lower_group_pass(self.gnode)
            width = group_slots(self.gnode)[0]
            for g, payload in accumulate([(None, row) for row in child_rows.rows]).items():
                table.insert_uncounted(g + tuple(payload[:width]))
        return table


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
    ``Input_pre`` lookup — the overlay is pure bookkeeping.  The probes
    go through the view's readers of the child in ``pre`` (*readers*).
    """

    def __init__(self, gnode: GroupBy, ctx: IrContext, readers: SubviewReaders):
        self.gnode = gnode
        self.child = gnode.child
        self.ctx = ctx
        self.readers = readers
        self._positions = positions = {c: i for i, c in enumerate(self.child.columns)}
        self._child_id_idx = tuple(positions[a] for a in self.child.ids)
        #: child-ID -> current row (None = deleted) for rows changed by
        #: branches already collected this round.
        self._overlay: dict[tuple, Optional[tuple]] = {}

    def _child_id(self, row: tuple) -> tuple:
        return tuple(row[i] for i in self._child_id_idx)

    def _input_pre(self, diff: Diff) -> list[tuple]:
        """The child's ``Input_pre`` rows matching *diff*'s IDs: one
        counted probe, bound to them."""
        read = self.readers(self.child, PRE, diff.schema.id_attrs)
        return read(self.ctx, [diff.id_of(r) for r in diff.rows])

    def _probe_current(self, diff: Diff) -> dict[tuple, list[tuple]]:
        """diff-ID -> current child rows: the counted ``Input_pre`` probe
        with this round's overlay folded in (earlier branches win)."""
        ids = diff.schema.id_attrs
        positions = self._positions
        id_idx = [positions[a] for a in ids]
        by_id: dict[tuple, list[tuple]] = {}
        for row in self._input_pre(diff):
            if self._child_id(row) in self._overlay:
                continue  # superseded by an earlier branch this round
            by_id.setdefault(tuple(row[i] for i in id_idx), []).append(row)
        if self._overlay:
            # Rows created or rewritten by earlier branches are absent
            # from Input_pre; fold the live overlay rows matching the
            # diff's IDs back in (uncounted: they are in memory already).
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
        positions = self._positions
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
        id_positions = [self._positions[a] for a in schema.id_attrs]
        existing = {tuple(r[i] for i in id_positions) for r in self._input_pre(diff)}
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
        input_ids: Optional[Mapping[str, tuple]] = None,
    ):
        """*inputs* is a list of ("expansion"|"diff", name) pairs, and
        *input_ids* the ID attributes of each diff's schema; with
        *full_rows* the diffs are t-diffs, whose rows are the changed
        child rows themselves (Appendix A: the tuple-based γ delta is
        free), so no ``Input`` probe derives them."""
        self.gnode = gnode
        self.inputs = list(inputs)
        self.input_ids = dict(input_ids or {})
        self.emit_prefix = emit_prefix
        self.phase = phase
        self.full_rows = full_rows
        self.emitted: dict[str, str] = {
            INSERT: f"{emit_prefix}_ins",
            DELETE: f"{emit_prefix}_del",
            UPDATE: f"{emit_prefix}_upd",
        }
        #: what a round resolves of the output table, bound at definition
        #: (:meth:`bind_tables`) or on the first run against another
        #: table (:meth:`_bind`) and — not picklable — never shipped
        self._bound: Optional[_Bound] = None
        #: the view's subview readers, bound with the tables
        self._readers: Optional[SubviewReaders] = None
        #: input name -> its t-diff's row extractors (``row_changes``)
        self._layouts: dict[str, tuple] = {}

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_bound": None, "_readers": None}

    #: the states an i-diff input is completed in (``Input`` probes of
    #: the child, bound to its IDs)
    _completed_in: tuple[str, ...] = (PRE,)

    def subview_reads(self) -> list[tuple]:
        if self.full_rows:
            return []
        child = self.gnode.child
        return list(dict.fromkeys(
            (child, state, self.input_ids[name], True)
            for kind, name in self.inputs if kind == "diff" and name in self.input_ids
            for state in self._completed_in
        ))

    def bind_tables(self, caches, operator_caches, readers: SubviewReaders) -> "_Bound":
        """Bind the γ node's output materialization and operator cache
        in *caches* / *operator_caches* with their round constants, and
        generate the *readers* of its subview reads."""
        self._readers = readers
        for key in self.subview_reads():
            readers(*key)
        node_id = self.gnode.node_id
        out_table = caches.get(node_id)
        if out_table is None:
            raise ScriptError(f"aggregate n{node_id} has no output materialization")
        self._bound = _Bound(
            out_table, operator_caches.get(node_id),
            EffectiveDiffs(out_table.schema, f"n{node_id}"),
        )
        return self._bound

    def _bind(self, ctx: IrContext) -> "_Bound":
        """:meth:`bind_tables` of *ctx*'s tables — again only when either
        table is another object than the bound one (a shard worker's
        replica, a replaced table)."""
        node_id = self.gnode.node_id
        bound = self._bound
        if (
            bound is None or bound.output is not ctx.caches.get(node_id)
            or bound.opcache is not ctx.operator_caches.get(node_id)
        ):
            readers = self._readers if self._readers is not None else SubviewReaders()
            bound = self.bind_tables(ctx.caches, ctx.operator_caches, readers)
        return bound

    def _emit(
        self,
        ctx: IrContext,
        bound: "_Bound",
        ins: Sequence[tuple] = (),
        dels: Sequence[tuple] = (),
        upd: Sequence[tuple] = (),
    ) -> None:
        """Bind the effective rows of the applied changes as the diffs
        the operators above read (and mark our output as post-state).
        One change per group: the rows are unique on the output key as
        they are."""
        adopt, diffs, emitted = bound.emits.adopt, ctx.diffs, self.emitted
        diffs[emitted[INSERT]] = adopt(INSERT, ins)
        diffs[emitted[DELETE]] = adopt(DELETE, dels)
        diffs[emitted[UPDATE]] = adopt(UPDATE, upd)
        self.settle(ctx)

    # -- liveness: every input drives (an empty branch probes nothing,
    # an empty γ-delta writes nothing); skipped, the step still emits
    # its three (empty) diffs and still marks its output ----------------
    def reads(self) -> list[tuple[str, str]]:
        return self.inputs

    def binds(self) -> list[tuple[str, str]]:
        return [("diff", name) for name in self.emitted.values()]

    def writes(self) -> tuple[tuple[str, int], ...]:
        return (("cache", self.gnode.node_id),)

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
        input_ids: Optional[Mapping[str, tuple]] = None,
    ):
        super().__init__(gnode, inputs, emit_prefix, phase, full_rows, input_ids)
        self.opcache_name = opcache_name

    def bind_tables(self, caches, operator_caches, readers: SubviewReaders) -> "_Bound":
        """Also generates the node's γ pass, bound to the output table
        and operator cache."""
        bound = super().bind_tables(caches, operator_caches, readers)
        if bound.opcache is None:
            raise ScriptError(f"aggregate n{self.gnode.node_id} has no operator cache")
        bound.group_pass = lower_group_pass(self.gnode, bound.output, bound.opcache)
        return bound

    def writes(self) -> tuple[tuple[str, int], ...]:
        # the γ pass writes the output and the operator cache
        return (("cache", self.gnode.node_id), ("opcache", self.gnode.node_id))

    @property
    def group_pass(self):
        """The generated pass bound at definition (None before)."""
        return self._bound.group_pass if self._bound is not None else None

    # ------------------------------------------------------------------
    def run(self, ctx: IrContext) -> None:
        gnode = self.gnode
        bound = self._bind(ctx)
        # built by the first i-diff input that needs its Input_pre probe
        collector: Optional[_ChangeCollector] = None
        changes: list[tuple] = []
        diffs, expansions = ctx.diffs, ctx.expansions
        # each input: the applied changes of an expansion, or a diff
        for source_kind, name in self.inputs:
            got = (expansions if source_kind == "expansion" else diffs).get(name)
            if got is None:
                raise ScriptError(f"{source_kind} {name!r} not available")
            if source_kind == "expansion":
                changes.extend(got.changes)
            elif self.full_rows:
                changes.extend(row_changes(got, gnode.child.columns, self._layouts, name))
            elif got.rows:
                if collector is None:
                    collector = _ChangeCollector(gnode, ctx, self._readers)
                changes.extend(collector.from_diff(got))
        self._emit(ctx, bound, *bound.group_pass(changes))

    def describe(self) -> str:
        srcs = ", ".join(f"{k}:{n}" for k, n in self.inputs)
        return (
            f"γ-delta n{self.gnode.node_id} [{self.gnode.label()}] "
            f"from {srcs} -> {', '.join(self.emitted.values())}"
        )


class _Bound:
    """A γ step's round constants: its output table and operator cache,
    the effective diffs it emits, and the delta rule's generated pass
    (:func:`repro.core.compile.lower_group_pass`).  Holds generated
    code: the step drops it from a pickle."""

    __slots__ = ("output", "opcache", "emits", "group_pass")

    def __init__(self, output: Table, opcache: Optional[Table], emits: EffectiveDiffs):
        self.output, self.opcache, self.emits = output, opcache, emits
        self.group_pass: Optional[Callable] = None


class GeneralAggregateStep(_AggregateStep):
    """Recompute-based maintenance for arbitrary aggregates (Table 7)."""

    _completed_in = (PRE, POST)

    def subview_reads(self) -> list[tuple]:
        # and the recompute of the affected groups
        gnode = self.gnode
        return [*super().subview_reads(), (gnode, POST, gnode.keys, not self.full_rows)]

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
        recompute = self._readers(gnode, POST, gnode.keys, not self.full_rows)
        key_idx = [gnode.columns.index(k) for k in gnode.keys]
        new_rows = {tuple(r[i] for i in key_idx): r for r in recompute(ctx, ordered_groups)}
        emits = bound.emits
        key_of, values_of = emits.key_of, emits.values_of
        ins: list[tuple] = []
        dels: list[tuple] = []
        upd: list[tuple] = []
        for g in ordered_groups:
            keys = out_table.locate(gnode.keys, g)
            old_row = out_table.get_uncounted(keys[0]) if keys else None
            new_row = new_rows.get(g)
            if old_row is None and new_row is None:
                continue
            if old_row is None:
                out_table.insert_checked(new_row)
                ins.append(key_of(new_row) + values_of(new_row))
            elif new_row is None:
                out_table.delete_at(keys[0])
                dels.append(key_of(old_row) + values_of(old_row))
            elif old_row != new_row:
                changes = {
                    a.name: new_row[out_table.schema.position(a.name)]
                    for a in gnode.aggs
                }
                out_table.write_at(keys[0], changes)
                upd.append(key_of(new_row) + values_of(old_row) + values_of(new_row))
        self._emit(ctx, bound, ins, dels, upd)

    def _affected_groups(self, ctx: IrContext) -> set[tuple]:
        """Group keys whose membership may have changed, from both states."""
        gnode = self.gnode
        groups: set[tuple] = set()
        positions = {c: i for i, c in enumerate(gnode.child.columns)}
        key_idx = [positions[k] for k in gnode.keys]
        diffs, expansions = ctx.diffs, ctx.expansions
        for source_kind, name in self.inputs:
            got = (expansions if source_kind == "expansion" else diffs).get(name)
            if got is None:
                raise ScriptError(f"{source_kind} {name!r} not available")
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
                    values = [diff.id_of(r) for r in diff.rows]
                    for state in self._completed_in:
                        read = self._readers(gnode.child, state, ids)
                        groups.update(tuple(r[i] for i in key_idx) for r in read(ctx, values))
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
