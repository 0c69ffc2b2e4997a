"""Full (non-incremental) evaluation of algebra plans: the interpretive
reference.

:func:`evaluate_plan` is what every oracle compares against — the
crosscheck oracle and its invariants, the benchmark checkpoints,
``explain --analyze``, :mod:`repro.query` and the tests — and it
interprets: each expression is evaluated per row by
:func:`repro.expr.evaluate`.  Definitions and the recompute baseline run
the generated operators of :func:`repro.core.compile.lower_plan` through
the same traversal (:func:`evaluate_node`); this module imports nothing
from :mod:`repro.core`, so the reference never shares their code
generator.  Base-table rows read during evaluation are counted through
the table's counters; intermediate results are pipelined and free,
matching the paper's cost model.
"""

from __future__ import annotations

from typing import Callable, Iterable

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


#: ``operator(node, db, inputs)``: *node*'s output over the relations of
#: its inputs (its children's, in order) — :func:`apply_operator`, or a
#: generated operator of :func:`repro.core.compile.lower_plan`.
Operator = Callable[[PlanNode, Database, list], Relation]


def evaluate_plan(node: PlanNode, db: Database) -> Relation:
    """Evaluate the subview rooted at *node* against *db*: the memo-free
    interpretive reference.

    With a span recorder installed, each plan operator gets a span with
    its actual output row count and the (cumulative) access-count delta
    it incurred — the raw material of ``explain --analyze``.
    """
    return evaluate_node(node, db, evaluate_plan, apply_operator)


def evaluate_node(node: PlanNode, db: Database, evaluate, operator: Operator) -> Relation:
    """*node* as one operator evaluation: its inputs by ``evaluate(child,
    db)``, then ``operator(node, db, inputs)``, under a ``plan_op`` span
    when a recorder is installed.  The one traversal of the reference and of
    the generated operators, so both trace alike."""
    recorder = obs.current_recorder()
    if recorder is None:
        return _evaluate_plan(node, db, evaluate, operator)
    with recorder.span(
        node.label(),
        kind="plan_op",
        counters=db.counters,
        op=type(node).__name__,
        node_id=node.node_id,
    ) as sp:
        out = _evaluate_plan(node, db, evaluate, operator)
        sp.set(rows_out=len(out.rows))
        return out


def _evaluate_plan(node: PlanNode, db: Database, evaluate, operator: Operator) -> Relation:
    """The operator dispatch every evaluation passes once per operator."""
    return operator(node, db, [evaluate(child, db) for child in node.children])


def apply_operator(node: PlanNode, db: Database, inputs: list) -> Relation:
    """The reference operator: *node* over its evaluated *inputs*, every
    expression interpreted per row (:func:`repro.expr.evaluate`)."""
    if isinstance(node, Scan):
        table = db.table(node.table)
        return Relation(node.columns, list(table.scan()))
    if isinstance(node, Select):
        (child,) = inputs
        pos = child.positions
        rows = [r for r in child.rows if matches(node.predicate, pos, r)]
        return Relation(node.columns, rows)
    if isinstance(node, Project):
        return project_rows(node, inputs[0])
    if isinstance(node, Join):
        return _join(node, *inputs)
    if isinstance(node, AntiJoin):
        return _semi_like(node, *inputs, negated=True)
    if isinstance(node, SemiJoin):
        return _semi_like(node, *inputs, negated=False)
    if isinstance(node, UnionAll):
        left, right = inputs
        rows = [r + (0,) for r in left.rows]
        rows.extend(r + (1,) for r in right.rows)
        return Relation(node.columns, rows)
    if isinstance(node, GroupBy):
        return aggregate_rows(inputs[0], node.keys, node.aggs)
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


def _join(node: Join, left: Relation, right: Relation) -> Relation:
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


def _semi_like(node, left: Relation, right: Relation, negated: bool) -> Relation:
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
    stats=None,
    key: Iterable[str] | None = None,
) -> Table:
    """Evaluate *node* and store the result as a keyed table.

    *stats* is the definition's :class:`repro.analysis.cost.PlanStats`,
    which supplies the rows; without it they are the reference's.  *key*
    defaults to the node's inferred IDs (Pass 1 must have run).  The
    materialized table shares the database's counters but is **not**
    registered in its catalog (views/caches live beside base tables).
    """
    key = tuple(key) if key is not None else tuple(node.ids)
    if not key:
        raise PlanError(
            f"cannot materialize {name!r}: no key; run ID inference first"
        )
    result = stats.rows(node) if stats is not None else evaluate_plan(node, db)
    schema = TableSchema(name, result.columns, key)
    table = Table(schema, counters=db.counters)
    table.load(result.rows)
    return table
