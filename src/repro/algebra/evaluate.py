"""Full (non-incremental) evaluation of algebra plans.

Used to materialize views and caches at definition time, by the recompute
baseline, and as the correctness oracle in tests.  Base-table rows read
during evaluation are counted through the table's counters; intermediate
results are pipelined and free, matching the paper's cost model.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import PlanError
from ..expr import equi_join_pairs, evaluate as eval_expr, matches
from ..obs import spans as obs
from ..storage import Database, Table, TableSchema
from .plan import (
    AggSpec,
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
from .relation import Relation


def evaluate_plan(node: PlanNode, db: Database, memo=None) -> Relation:
    """Evaluate the subview rooted at *node* against *db*.

    With a span recorder installed, each plan operator gets a span with
    its actual output row count and the (cumulative) access-count delta
    it incurred — the raw material of ``explain --analyze``.

    *memo* (a :class:`repro.analysis.cost.PlanStats`, one per view
    definition) is consulted at every node on the way down and handed
    the result of *node* alone — the interior of a join nobody asked for
    is never kept.  Without it this is the un-memoised reference every
    oracle compares against.
    """
    out = _evaluate(node, db, memo)
    if memo is not None:
        memo.store(node, out)
    return out


def _evaluate(node: PlanNode, db: Database, memo) -> Relation:
    if memo is not None:
        hit = memo.lookup(node)
        if hit is not None:
            return hit
    recorder = obs.current_recorder()
    if recorder is None:
        return _evaluate_plan(node, db, memo)
    with recorder.span(
        node.label(),
        kind="plan_op",
        counters=db.counters,
        op=type(node).__name__,
        node_id=node.node_id,
    ) as sp:
        out = _evaluate_plan(node, db, memo)
        sp.set(rows_out=len(out.rows))
        return out


def _evaluate_plan(node: PlanNode, db: Database, memo) -> Relation:
    if isinstance(node, Scan):
        table = db.table(node.table)
        return Relation(node.columns, list(table.scan()))
    if isinstance(node, Select):
        child = _evaluate(node.child, db, memo)
        pos = child.positions
        rows = [r for r in child.rows if matches(node.predicate, pos, r)]
        return Relation(node.columns, rows)
    if isinstance(node, Project):
        child = _evaluate(node.child, db, memo)
        return project_rows(node, child)
    if isinstance(node, Join):
        return _evaluate_join(node, db, memo)
    if isinstance(node, AntiJoin):
        return _evaluate_semi_like(node, db, memo, negated=True)
    if isinstance(node, SemiJoin):
        return _evaluate_semi_like(node, db, memo, negated=False)
    if isinstance(node, UnionAll):
        left = _evaluate(node.left, db, memo)
        right = _evaluate(node.right, db, memo)
        rows = [r + (0,) for r in left.rows]
        rows.extend(r + (1,) for r in right.rows)
        return Relation(node.columns, rows)
    if isinstance(node, GroupBy):
        child = _evaluate(node.child, db, memo)
        return aggregate_rows(child, node.keys, node.aggs)
    raise PlanError(f"cannot evaluate plan node {node!r}")


def project_rows(node: Project, child: Relation) -> Relation:
    """Apply a projection to an evaluated child, with a positional fast
    path when every item is a bare column reference (the common case —
    renames and the natural-join lowering)."""
    from ..expr import Col

    pos = child.positions
    if all(isinstance(e, Col) for _, e in node.items):
        idx = [pos[e.name] for _, e in node.items]
        rows = [tuple(r[i] for i in idx) for r in child.rows]
        return Relation(node.columns, rows)
    exprs = [e for _, e in node.items]
    rows = [tuple(eval_expr(e, pos, r) for e in exprs) for r in child.rows]
    return Relation(node.columns, rows)


def _evaluate_join(node: Join, db: Database, memo) -> Relation:
    left = _evaluate(node.left, db, memo)
    right = _evaluate(node.right, db, memo)
    out_columns = node.columns
    if node.condition is None:
        rows = [lr + rr for lr in left.rows for rr in right.rows]
        return Relation(out_columns, rows)
    pairs, residual = equi_join_pairs(node.condition, left.columns, right.columns)
    rows: list[tuple] = []
    if pairs:
        lpos = [left.position(a) for a, _ in pairs]
        rpos = [right.position(b) for _, b in pairs]
        buckets: dict[tuple, list[tuple]] = {}
        for rr in right.rows:
            key = tuple(rr[i] for i in rpos)
            if None in key:
                continue  # SQL: NULL never equi-joins
            buckets.setdefault(key, []).append(rr)
        out_positions = {c: i for i, c in enumerate(out_columns)}
        for lr in left.rows:
            for rr in buckets.get(tuple(lr[i] for i in lpos), ()):
                combined = lr + rr
                if matches(residual, out_positions, combined):
                    rows.append(combined)
    else:
        out_positions = {c: i for i, c in enumerate(out_columns)}
        for lr in left.rows:
            for rr in right.rows:
                combined = lr + rr
                if matches(node.condition, out_positions, combined):
                    rows.append(combined)
    return Relation(out_columns, rows)


def _evaluate_semi_like(node, db: Database, memo, negated: bool) -> Relation:
    left = _evaluate(node.left, db, memo)
    right = _evaluate(node.right, db, memo)
    pairs, residual = equi_join_pairs(node.condition, left.columns, right.columns)
    combined_positions = {
        c: i for i, c in enumerate(left.columns + right.columns)
    }
    rows: list[tuple] = []
    if pairs:
        lpos = [left.position(a) for a, _ in pairs]
        rpos = [right.position(b) for _, b in pairs]
        buckets: dict[tuple, list[tuple]] = {}
        for rr in right.rows:
            key = tuple(rr[i] for i in rpos)
            if None in key:
                continue  # SQL: NULL never equi-joins
            buckets.setdefault(key, []).append(rr)
        for lr in left.rows:
            candidates = buckets.get(tuple(lr[i] for i in lpos), ())
            matched = any(
                matches(residual, combined_positions, lr + rr) for rr in candidates
            )
            if matched != negated:
                rows.append(lr)
    else:
        for lr in left.rows:
            matched = any(
                matches(node.condition, combined_positions, lr + rr)
                for rr in right.rows
            )
            if matched != negated:
                rows.append(lr)
    return Relation(node.columns, rows)


def _lt(a, b) -> bool:
    """Total ``a < b`` for min/max: mixed-type values (which Python 3
    refuses to compare) fall back to the same deterministic type-aware
    order :func:`repro.storage.table.sort_rows` uses, instead of raising
    ``TypeError`` mid-aggregation."""
    try:
        return a < b
    except TypeError:
        return (str(type(a)), repr(a)) < (str(type(b)), repr(b))


class _Accumulator:
    """Streaming accumulation of one group's aggregates.

    SQL NULL semantics: ``NULL`` is invisible to every aggregate except
    ``count(*)`` — it never enters a sum, a comparison, or a ``count(col)``.
    ``sum``/``avg`` additionally keep their own *numeric* count, so a
    stray non-numeric value cannot leave ``counts`` and ``sums`` out of
    step (which would silently skew ``avg`` and resurrect an all-NULL
    ``sum`` as 0).
    """

    __slots__ = ("sums", "counts", "nums", "mins", "maxs", "n")

    def __init__(self, n_aggs: int):
        self.sums = [0] * n_aggs
        self.counts = [0] * n_aggs
        self.nums = [0] * n_aggs
        self.mins: list = [None] * n_aggs
        self.maxs: list = [None] * n_aggs
        self.n = 0

    def add(self, values: list) -> None:
        self.n += 1
        for i, v in enumerate(values):
            if v is None:
                continue
            self.counts[i] += 1
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                self.sums[i] += v
                self.nums[i] += 1
            if self.mins[i] is None or _lt(v, self.mins[i]):
                self.mins[i] = v
            if self.maxs[i] is None or _lt(self.maxs[i], v):
                self.maxs[i] = v

    def result(self, agg: AggSpec, i: int):
        if agg.func == "sum":
            return self.sums[i] if self.nums[i] else None
        if agg.func == "count":
            return self.n if agg.arg is None else self.counts[i]
        if agg.func == "avg":
            return self.sums[i] / self.nums[i] if self.nums[i] else None
        if agg.func == "min":
            return self.mins[i]
        if agg.func == "max":
            return self.maxs[i]
        raise PlanError(f"unknown aggregate {agg.func!r}")


def aggregate_rows(
    child: Relation, keys: tuple[str, ...], aggs: tuple[AggSpec, ...]
) -> Relation:
    """Hash-aggregate *child* by *keys* (pipelined: no storage accesses)."""
    key_pos = [child.position(k) for k in keys]
    pos = child.positions
    groups: dict[tuple, _Accumulator] = {}
    for row in child.rows:
        group = tuple(row[i] for i in key_pos)
        acc = groups.get(group)
        if acc is None:
            acc = _Accumulator(len(aggs))
            groups[group] = acc
        values = [
            eval_expr(a.arg, pos, row) if a.arg is not None else None for a in aggs
        ]
        acc.add(values)
    out_columns = keys + tuple(a.name for a in aggs)
    rows = [
        group + tuple(acc.result(a, i) for i, a in enumerate(aggs))
        for group, acc in groups.items()
    ]
    return Relation(out_columns, rows)


def materialize(
    node: PlanNode,
    db: Database,
    name: str,
    key: Iterable[str] | None = None,
    memo=None,
) -> Table:
    """Evaluate *node* and store the result as a keyed table.

    *key* defaults to the node's inferred IDs (Pass 1 must have run).
    The materialized table shares the database's counters but is **not**
    registered in its catalog (views/caches live beside base tables).
    """
    key = tuple(key) if key is not None else tuple(node.ids)
    if not key:
        raise PlanError(
            f"cannot materialize {name!r}: no key; run ID inference first"
        )
    result = evaluate_plan(node, db, memo)
    schema = TableSchema(name, result.columns, key)
    table = Table(schema, counters=db.counters, auto_index=db.auto_index)
    table.load(result.rows)
    return table
