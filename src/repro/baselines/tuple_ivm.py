"""Tuple-based IVM — the paper's baseline (Section 7: "produced using our
implementation of idIVM with tuple-based diff propagation rules").

A tuple-based diff (t-diff) carries one *full view tuple* per modified
row: ``D+`` holds inserted rows, ``D−`` deleted rows, ``Du`` (pre, post)
row pairs.  Computing them requires reconstructing entire subview tuples,
which is exactly what forces the baseline to join through the base tables
(the cost parameter *a* of Section 6) where ID-based diffs just pass IDs
along.

The propagation below follows the classic algebraic delta rules
(Qian/Wiederhold, Griffin/Libkin) with keyed update diffs:

* σ: filter by φ in the matching state; updates crossing the condition
  split into inserts/deletes;
* π: map rows;
* ⋈: ``ΔL+ ⋈ R_post ∪ (L_post \\ ΔL+) ⋈ ΔR+`` (inserts), ``ΔL− ⋈ R_pre ∪
  (L_pre \\ ΔL−) ⋈ ΔR−`` (deletes), with updates lowered to delete+insert pairs
  and re-paired into updates by output key — all other-side accesses go
  through counted index probes (diff-driven loop plans);
* γ: group deltas from the full child t-diff rows (pipelined, free —
  Appendix A) applied read-modify-write per affected group;
* ∪, ▷: by analogy.

No intermediate caches are used ("the tuple-based approach does not use a
cache, since it cannot benefit from it", Section 6.2) except hidden
materializations of *non-root* aggregate outputs, without which deltas
cannot be re-expressed upward at all (the paper never benchmarks nested
aggregates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..algebra.delta_eval import Bindings, fetch
from ..algebra.evaluate import materialize
from ..algebra.plan import (
    AntiJoin,
    GroupBy,
    Join,
    PlanNode,
    Project,
    Scan,
    SemiJoin,
    Select,
    UnionAll,
)
from ..core.diffs import DELETE, INSERT
from ..core.engine import (
    MaintenanceEngine,
    MaintenanceReport,
    counted_phase,
    counts_since,
)
from ..core.rules.aggregate import OpCacheSpec, apply_group_deltas, group_accumulator
from ..errors import PlanError
from ..expr import columns_of, equi_join_pairs, evaluate as eval_expr, matches
from ..storage import Database, Table, sort_rows


@dataclass
class TDelta:
    """Full-tuple changes of one subview: the three t-diff tables."""

    inserts: list[tuple] = field(default_factory=list)
    deletes: list[tuple] = field(default_factory=list)
    updates: list[tuple[tuple, tuple]] = field(default_factory=list)
    #: set when a γ node already applied this delta to its own
    #: materialization (which may be the view itself)
    already_applied: Optional[Table] = None

    def is_empty(self) -> bool:
        return not (self.inserts or self.deletes or self.updates)

    def as_changes(self) -> list[tuple]:
        """(pre_row, post_row) normal form."""
        out: list[tuple] = [(None, r) for r in self.inserts]
        out += [(r, None) for r in self.deletes]
        out += list(self.updates)
        return out


def repair_updates(delta: TDelta, id_positions: list[int]) -> TDelta:
    """Re-pair delete+insert rows sharing an output key into updates."""
    def key(row: tuple) -> tuple:
        return tuple(row[i] for i in id_positions)

    deleted = {key(r): r for r in delta.deletes}
    out = TDelta(updates=list(delta.updates))
    for row in delta.inserts:
        k = key(row)
        if k in deleted:
            pre = deleted.pop(k)
            if pre != row:
                out.updates.append((pre, row))
        else:
            out.inserts.append(row)
    out.deletes.extend(deleted.values())
    return out


class TupleView:
    """A view maintained with tuple-based diffs."""

    def __init__(self, name: str, plan: PlanNode, table: Table):
        self.name = name
        self.plan = plan
        self.table = table
        #: hidden materializations of non-root aggregate outputs
        self.agg_outputs: dict[int, Table] = {}
        #: group bookkeeping, same policy as the ID engine's op caches
        self.opcaches: dict[int, Table] = {}
        #: γ node id -> its generated delta accumulation loop
        self.accumulate: dict[int, Callable] = {}


class TupleIvmEngine(MaintenanceEngine):
    """Counterpart of :class:`IdIvmEngine` using t-diffs: the same
    maintenance round, tuple-based propagation rules."""

    # ------------------------------------------------------------------
    def _define(self, name: str, annotated: PlanNode, stats) -> TupleView:
        """Materialize the plan (plus γ bookkeeping) for t-diff maintenance."""
        accumulate, opcaches, agg_outputs = {}, {}, {}
        # Innermost γ first, the view last: each request stores its rows
        # and the ones above it read them instead of re-deriving them.
        for node in reversed(list(annotated.walk())):
            if isinstance(node, GroupBy):
                # Bookkeeping is only consulted (and maintained) by the
                # associative delta path; the min/max recompute path
                # would leave it stale.
                if all(a.func in ("sum", "count", "avg") for a in node.aggs):
                    accumulate[node.node_id] = group_accumulator(node)
                    spec = OpCacheSpec(node, f"{name}__tuple_opc_n{node.node_id}")
                    child_rows = stats.rows(node.child)
                    opcaches[node.node_id] = spec.build(
                        child_rows, self.db.counters
                    )
                if node.node_id != annotated.node_id:
                    out_name = f"{name}__tuple_out_n{node.node_id}"
                    agg_outputs[node.node_id] = materialize(node, self.db, out_name, stats)
        table = materialize(annotated, self.db, name, stats)
        view = TupleView(name, annotated, table)
        view.accumulate, view.opcaches, view.agg_outputs = accumulate, opcaches, agg_outputs
        return view

    # ------------------------------------------------------------------
    def _maintain_view(
        self, view: TupleView, db_pre: Database, entries, view_span
    ) -> MaintenanceReport:
        """Propagate the round's net changes (its one fold) as full-tuple
        diffs and apply."""
        counters = self.db.counters
        before = counters.snapshot()
        net = entries.folded(self.db)
        with counted_phase(counters, "view_diff"):
            delta = _t_delta(view.plan, view, net, db_pre, self.db)
        with counted_phase(counters, "view_update"):
            _apply_delta(view.table, view.plan, delta)
        return MaintenanceReport(
            view.name,
            phase_counts=counts_since(counters, before),
            diff_sizes={
                "D+": len(delta.inserts),
                "D-": len(delta.deletes),
                "Du": len(delta.updates),
            },
        )


def _apply_delta(table: Table, plan: PlanNode, delta: TDelta) -> None:
    """APPLY the view t-diffs: one index lookup + one access per row."""
    if delta.already_applied is table:
        return
    schema = table.schema
    for row in delta.deletes:
        for key in table.locate(schema.key, schema.key_of(row)):
            table.delete_at(key)
    for pre, post in delta.updates:
        if schema.key_of(pre) != schema.key_of(post):
            # The update moved the row across the view key (e.g. a base
            # attribute serving as a union-merged ID): delete + insert.
            for key in table.locate(schema.key, schema.key_of(pre)):
                table.delete_at(key)
            table.insert_checked(post)
            continue
        changes = {
            c: post[schema.position(c)]
            for c in schema.non_key_columns
            if post[schema.position(c)] != pre[schema.position(c)]
        }
        if not changes:
            continue
        for key in table.locate(schema.key, schema.key_of(post)):
            table.write_at(key, changes)
    for row in delta.inserts:
        table.insert_checked(row)


# ----------------------------------------------------------------------
# t-diff propagation
# ----------------------------------------------------------------------
def _t_delta(
    node: PlanNode,
    view: TupleView,
    net: dict,
    db_pre: Database,
    db_post: Database,
) -> TDelta:
    if isinstance(node, Scan):
        return _scan_delta(node, net)
    if isinstance(node, Select):
        return _select_delta(node, view, net, db_pre, db_post)
    if isinstance(node, Project):
        return _project_delta(node, view, net, db_pre, db_post)
    if isinstance(node, Join):
        return _join_delta(node, view, net, db_pre, db_post)
    if isinstance(node, UnionAll):
        return _union_delta(node, view, net, db_pre, db_post)
    if isinstance(node, AntiJoin):
        return _semi_like_delta(node, view, net, db_pre, db_post, negated=True)
    if isinstance(node, SemiJoin):
        return _semi_like_delta(node, view, net, db_pre, db_post, negated=False)
    if isinstance(node, GroupBy):
        return _groupby_delta(node, view, net, db_pre, db_post)
    raise PlanError(f"tuple-based IVM cannot handle {node!r}")


def _scan_delta(node: Scan, net: dict) -> TDelta:
    delta = TDelta()
    for change in net.get(node.table, {}).values():
        if change.kind == INSERT:
            delta.inserts.append(change.post_row)
        elif change.kind == DELETE:
            delta.deletes.append(change.pre_row)
        else:
            delta.updates.append((change.pre_row, change.post_row))
    return delta


def _select_delta(node: Select, view, net, db_pre, db_post) -> TDelta:
    child = _t_delta(node.child, view, net, db_pre, db_post)
    positions = {c: i for i, c in enumerate(node.child.columns)}
    out = TDelta()
    out.inserts = [r for r in child.inserts if matches(node.predicate, positions, r)]
    out.deletes = [r for r in child.deletes if matches(node.predicate, positions, r)]
    for pre, post in child.updates:
        before = matches(node.predicate, positions, pre)
        after = matches(node.predicate, positions, post)
        if before and after:
            out.updates.append((pre, post))
        elif before:
            out.deletes.append(pre)
        elif after:
            out.inserts.append(post)
    return out


def _project_delta(node: Project, view, net, db_pre, db_post) -> TDelta:
    child = _t_delta(node.child, view, net, db_pre, db_post)
    positions = {c: i for i, c in enumerate(node.child.columns)}
    exprs = [e for _, e in node.items]

    def out_row(row: tuple) -> tuple:
        return tuple(eval_expr(e, positions, row) for e in exprs)

    out = TDelta()
    out.inserts = [out_row(r) for r in child.inserts]
    out.deletes = [out_row(r) for r in child.deletes]
    for pre, post in child.updates:
        a, b = out_row(pre), out_row(post)
        if a != b:
            out.updates.append((a, b))
    return out


def _join_delta(node: Join, view, net, db_pre, db_post) -> TDelta:
    left = _t_delta(node.left, view, net, db_pre, db_post)
    right = _t_delta(node.right, view, net, db_pre, db_post)
    if left.is_empty() and right.is_empty():
        return TDelta()
    pairs, _residual = (
        equi_join_pairs(node.condition, node.left.columns, node.right.columns)
        if node.condition is not None
        else ([], None)
    )
    out_positions = {c: i for i, c in enumerate(node.columns)}

    def combine(lr: tuple, rr: tuple) -> Optional[tuple]:
        combined = lr + rr
        if node.condition is None or matches(node.condition, out_positions, combined):
            return combined
        return None

    def probe(side_node: PlanNode, db: Database, probe_cols, rows, row_cols):
        """Fetch matching rows of *side_node* for the join values of *rows*."""
        if not rows:
            return {}
        if not pairs:
            rel = fetch(side_node, db)
            return {(): rel.rows}
        idx = [row_cols.index(c) for c in probe_cols[0]]
        values = [tuple(r[i] for i in idx) for r in rows]
        rel = fetch(side_node, db, Bindings(probe_cols[1], values))
        spos = [rel.position(c) for c in probe_cols[1]]
        buckets: dict[tuple, list[tuple]] = {}
        for r in rel.rows:
            key = tuple(r[i] for i in spos)
            if None in key:
                continue  # SQL: NULL never equi-joins
            buckets.setdefault(key, []).append(r)
        return buckets

    lcols = list(node.left.columns)
    rcols = list(node.right.columns)
    lpair = tuple(l for l, _ in pairs)
    rpair = tuple(r for _, r in pairs)

    def l_key(row):
        return tuple(row[lcols.index(c)] for c in lpair)

    def r_key(row):
        return tuple(row[rcols.index(c)] for c in rpair)

    condition_cols = (
        columns_of(node.condition) if node.condition is not None else frozenset()
    )

    def condition_preserved(pre: tuple, post: tuple, cols: list[str]) -> bool:
        return all(
            pre[cols.index(c)] == post[cols.index(c)]
            for c in condition_cols
            if c in cols
        )

    inserts: list[tuple] = []
    deletes: list[tuple] = []
    updates: list[tuple[tuple, tuple]] = []

    # Native update t-diffs (the paper's baseline keeps updates as
    # updates): when the *other* side is untouched this batch and the
    # update does not move the row across the join condition, a single
    # Du ⋈ R_post probe suffices — this is exactly the Section 6 cost
    # |Du|·a.  Anything trickier falls back to the delete+insert normal
    # form below.
    l_updates = list(left.updates)
    r_updates = list(right.updates)
    if right.is_empty() and pairs:
        fast, l_updates = _partition(l_updates, lcols, condition_preserved)
        rows = [q for _, q in fast]
        buckets = probe(node.right, db_post, ((lpair, rpair)), rows, lcols)
        for pre_l, post_l in fast:
            for rr in buckets.get(l_key(post_l), ()):
                if combine(post_l, rr) is not None:
                    updates.append((pre_l + rr, post_l + rr))
    elif left.is_empty() and pairs:
        fast, r_updates = _partition(r_updates, rcols, condition_preserved)
        rows = [q for _, q in fast]
        buckets = probe(node.left, db_post, ((rpair, lpair)), rows, rcols)
        for pre_r, post_r in fast:
            for lr in buckets.get(r_key(post_r), ()):
                if combine(lr, post_r) is not None:
                    updates.append((lr + pre_r, lr + post_r))

    # Normalize the remaining updates into delete+insert, track
    # exclusions for the cross terms, then re-pair at the end.
    l_ins = left.inserts + [p for _, p in l_updates]
    l_del = left.deletes + [p for p, _ in l_updates]
    r_ins = right.inserts + [p for _, p in r_updates]
    r_del = right.deletes + [p for p, _ in r_updates]

    # ΔL+ ⋈ R_post
    buckets = probe(node.right, db_post, ((lpair, rpair)), l_ins, lcols)
    for lr in l_ins:
        for rr in buckets.get(l_key(lr) if pairs else (), ()):
            combined = combine(lr, rr)
            if combined is not None:
                inserts.append(combined)
    # (L_post \ ΔL+) ⋈ ΔR+  (newly inserted left rows covered above)
    l_ins_keys = {tuple(lr) for lr in l_ins}
    buckets = probe(node.left, db_post, ((rpair, lpair)), r_ins, rcols)
    for rr in r_ins:
        for lr in buckets.get(r_key(rr) if pairs else (), ()):
            if tuple(lr) in l_ins_keys:
                continue
            combined = combine(lr, rr)
            if combined is not None:
                inserts.append(combined)
    # ΔL− ⋈ R_pre
    buckets = probe(node.right, db_pre, ((lpair, rpair)), l_del, lcols)
    for lr in l_del:
        for rr in buckets.get(l_key(lr) if pairs else (), ()):
            combined = combine(lr, rr)
            if combined is not None:
                deletes.append(combined)
    # L_pre ⋈ ΔR−, excluding left rows in ΔL− (already covered)
    l_del_keys = {tuple(lr) for lr in l_del}
    buckets = probe(node.left, db_pre, ((rpair, lpair)), r_del, rcols)
    for rr in r_del:
        for lr in buckets.get(r_key(rr) if pairs else (), ()):
            if tuple(lr) in l_del_keys:
                continue
            combined = combine(lr, rr)
            if combined is not None:
                deletes.append(combined)

    delta = TDelta(inserts=inserts, deletes=deletes, updates=updates)
    id_positions = [list(node.columns).index(c) for c in node.ids]
    return repair_updates(delta, id_positions)


def _partition(updates: list, cols: list[str], preserved) -> tuple[list, list]:
    """``(kept, rest)``: the ``(pre, post)`` updates that keep the join
    condition's columns (*preserved*), and the others — one pass, order
    kept."""
    kept: list = []
    rest: list = []
    for update in updates:
        (kept if preserved(*update, cols) else rest).append(update)
    return kept, rest


def _union_delta(node: UnionAll, view, net, db_pre, db_post) -> TDelta:
    left = _t_delta(node.left, view, net, db_pre, db_post)
    right = _t_delta(node.right, view, net, db_pre, db_post)
    out = TDelta()
    for delta, b in ((left, 0), (right, 1)):
        out.inserts += [r + (b,) for r in delta.inserts]
        out.deletes += [r + (b,) for r in delta.deletes]
        out.updates += [(p + (b,), q + (b,)) for p, q in delta.updates]
    return out


def _semi_like_delta(node, view, net, db_pre, db_post, negated: bool) -> TDelta:
    left = _t_delta(node.left, view, net, db_pre, db_post)
    right = _t_delta(node.right, view, net, db_pre, db_post)
    pairs, _ = equi_join_pairs(node.condition, node.left.columns, node.right.columns)
    lcols = list(node.left.columns)
    rcols = list(node.right.columns)
    lpair = tuple(l for l, _ in pairs)
    rpair = tuple(r for _, r in pairs)
    combined_positions = {
        c: i for i, c in enumerate(node.left.columns + node.right.columns)
    }

    def survives(lr: tuple, db: Database) -> bool:
        """Membership test: no match for the antijoin, a match for the
        semijoin."""
        if pairs:
            values = tuple(lr[lcols.index(c)] for c in lpair)
            rel = fetch(node.right, db, Bindings(rpair, [values]))
        else:
            rel = fetch(node.right, db)
        matched = any(
            matches(node.condition, combined_positions, lr + rr) for rr in rel.rows
        )
        return matched != negated

    inserts: list[tuple] = []
    deletes: list[tuple] = []
    # Left-side changes, checked against the right post-state.
    for row in left.inserts:
        if survives(row, db_post):
            inserts.append(row)
    for row in left.deletes:
        if survives(row, db_pre):
            deletes.append(row)
    for pre, post in left.updates:
        before = survives(pre, db_pre)
        after = survives(post, db_post)
        if before and after:
            inserts.append(post)
            deletes.append(pre)
        elif before:
            deletes.append(pre)
        elif after:
            inserts.append(post)

    # Right-side changes: affected left rows re-checked.
    changed_left = {tuple(r) for r in left.inserts + left.deletes}
    changed_left |= {tuple(p) for p, _ in left.updates}
    changed_left |= {tuple(p) for _, p in left.updates}

    def affected_left(rows: list[tuple], db: Database) -> list[tuple]:
        if not rows:
            return []
        if pairs:
            values = [tuple(r[rcols.index(c)] for c in rpair) for r in rows]
            rel = fetch(node.left, db, Bindings(lpair, values))
        else:
            rel = fetch(node.left, db)
        return [r for r in rel.rows if tuple(r) not in changed_left]

    r_added = right.inserts + [p for _, p in right.updates]
    r_removed = right.deletes + [p for p, _ in right.updates]
    affected = list(affected_left(r_added, db_post))
    affected += [
        lr
        for lr in affected_left(r_removed, db_pre)
        if tuple(lr) not in {tuple(a) for a in affected}
    ]
    for lr in affected:
        in_pre = survives(lr, db_pre)
        in_post = survives(lr, db_post)
        if in_pre and not in_post:
            deletes.append(lr)
        elif in_post and not in_pre:
            inserts.append(lr)

    # Dedupe (several right rows may affect the same left row).
    delta = TDelta(
        inserts=list(dict.fromkeys(map(tuple, inserts))),
        deletes=list(dict.fromkeys(map(tuple, deletes))),
    )
    id_positions = [list(node.columns).index(c) for c in node.ids]
    return repair_updates(delta, id_positions)


def _groupby_delta(node: GroupBy, view, net, db_pre, db_post) -> TDelta:
    child = _t_delta(node.child, view, net, db_pre, db_post)
    if child.is_empty():
        return TDelta()
    if all(a.func in ("sum", "count", "avg") for a in node.aggs):
        return _groupby_delta_associative(node, view, child)
    return _groupby_delta_recompute(node, view, child, db_post)


def _output_table(node: GroupBy, view: TupleView) -> Table:
    if node.node_id in view.agg_outputs:
        return view.agg_outputs[node.node_id]
    return view.table


def _groupby_delta_associative(node: GroupBy, view: TupleView, child: TDelta) -> TDelta:
    """Group deltas from the full t-diff rows (free — Appendix A's
    pipelined γ over Du_Vspj), then read-modify-write the affected groups
    of the output materialization."""
    deltas = view.accumulate[node.node_id](child.as_changes())
    out_table = _output_table(node, view)
    opcache = view.opcaches[node.node_id]
    # This re-phases nested work (we are inside the view_diff scope); the
    # bucket-delta phase span keeps attribution exact either way.
    with counted_phase(out_table.counters, "view_update", op="GroupBy.apply"):
        applied, kinds = apply_group_deltas(node, deltas, out_table, opcache)
    delta = TDelta()
    for change, kind in zip(applied, kinds):
        if kind == INSERT:
            delta.inserts.append(change[1])
        elif kind == DELETE:
            delta.deletes.append(change[0])
        else:
            delta.updates.append(change)
    # The output materialization is already updated; signal the caller.
    delta.already_applied = out_table
    return delta


def _groupby_delta_recompute(
    node: GroupBy, view: TupleView, child: TDelta, db_post: Database
) -> TDelta:
    """min/max path: recompute the affected groups from the post state."""
    key_idx = [list(node.child.columns).index(k) for k in node.keys]
    groups: set[tuple] = set()
    for pre, post in child.as_changes():
        if pre is not None:
            groups.add(tuple(pre[i] for i in key_idx))
        if post is not None:
            groups.add(tuple(post[i] for i in key_idx))
    # sort_rows, not sorted: group keys may hold NULLs / mixed types.
    ordered_groups = sort_rows(groups)
    recomputed = fetch(node, db_post, Bindings(node.keys, ordered_groups))
    out_key = [recomputed.position(k) for k in node.keys]
    new_rows = {tuple(r[i] for i in out_key): r for r in recomputed.rows}
    out_table = _output_table(node, view)
    delta = TDelta()
    for g in ordered_groups:
        keys = out_table.locate(node.keys, g)
        old_row = out_table.get_uncounted(keys[0]) if keys else None
        new_row = new_rows.get(g)
        if old_row is None and new_row is None:
            continue
        if old_row is None:
            out_table.insert_checked(new_row)
            delta.inserts.append(new_row)
        elif new_row is None:
            out_table.delete_at(keys[0])
            delta.deletes.append(old_row)
        elif old_row != new_row:
            out_table.write_at(
                keys[0],
                {
                    a.name: new_row[out_table.schema.position(a.name)]
                    for a in node.aggs
                },
            )
            delta.updates.append((old_row, new_row))
    delta.already_applied = out_table
    return delta
