"""Index-driven ("diff-driven loop") evaluation of plan fragments.

When an i-diff propagation rule joins a diff with a subview
(``Input_post ⋉Ī ∆``), a real DBMS runs a diff-driven loop plan: for every
diff tuple, probe base-table indexes and read only the matching rows
(paper Section 6 / Appendix A — this is what the cost parameter *a*
measures).  :func:`fetch` implements exactly that: it pushes a set of key
*bindings* down the plan, turning scans into index lookups, and only falls
back to counted full scans when no binding can be pushed.

A node that has a materialized cache (or is the view itself) is read from
its cache table instead of being recomputed — that is how intermediate
caches cut base-table accesses (paper Section 4).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..errors import PlanError
from ..expr import equi_join_pairs, evaluate as eval_expr, matches
from ..expr.ast import Col
from ..obs import spans as obs
from ..storage import Database, Table
from .evaluate import aggregate_rows, project_rows
from .plan import (
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


class Bindings:
    """A set of distinct value tuples for a tuple of attributes."""

    __slots__ = ("attrs", "values")

    def __init__(self, attrs: Sequence[str], values: Sequence[tuple]):
        self.attrs = tuple(attrs)
        # Deduplicate while preserving order (deterministic costs).
        seen: set[tuple] = set()
        vals: list[tuple] = []
        for v in values:
            v = tuple(v)
            if v not in seen:
                seen.add(v)
                vals.append(v)
        self.values = vals

    def __len__(self) -> int:
        return len(self.values)

    def is_empty(self) -> bool:
        return not self.values

    def project(self, attrs: Sequence[str]) -> "Bindings":
        """Bindings narrowed to a subset of the attributes."""
        idx = [self.attrs.index(a) for a in attrs]
        return Bindings(attrs, [tuple(v[i] for i in idx) for v in self.values])

    def value_set(self) -> frozenset[tuple]:
        return frozenset(self.values)

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"Bindings({self.attrs}, {len(self.values)} values)"


CacheMap = Mapping[int, Table]


def fetch(
    node: PlanNode,
    db: Database,
    bindings: Optional[Bindings] = None,
    caches: Optional[CacheMap] = None,
) -> Relation:
    """Rows of the subview at *node* matching *bindings* (all rows if None).

    Reads from *caches* (node_id -> materialized table) when available,
    otherwise recomputes through indexes on the base tables of *db*.
    """
    recorder = obs.current_recorder()
    if recorder is None:
        return _fetch(node, db, bindings, caches)
    with recorder.span(
        f"fetch:{node.label()}",
        kind="plan_op",
        counters=db.counters,
        op=type(node).__name__,
        node_id=node.node_id,
        cached=bool(caches and node.node_id in caches),
        bindings=len(bindings) if bindings is not None else None,
    ) as sp:
        out = _fetch(node, db, bindings, caches)
        sp.set(rows_out=len(out.rows))
        return out


def _fetch(
    node: PlanNode,
    db: Database,
    bindings: Optional[Bindings] = None,
    caches: Optional[CacheMap] = None,
) -> Relation:
    if bindings is not None:
        unknown = set(bindings.attrs) - set(node.columns)
        if unknown:
            raise PlanError(
                f"bindings reference columns {sorted(unknown)} not produced "
                f"by {node.label()}"
            )
        if bindings.is_empty():
            return Relation(node.columns, [])
    cached = caches.get(node.node_id) if caches else None
    if cached is not None:
        return _fetch_from_table(cached, node.columns, bindings)
    if isinstance(node, Scan):
        return _fetch_from_table(db.table(node.table), node.columns, bindings)
    if isinstance(node, Select):
        child = fetch(node.child, db, bindings, caches)
        pos = child.positions
        return Relation(
            node.columns, [r for r in child.rows if matches(node.predicate, pos, r)]
        )
    if isinstance(node, Project):
        return _fetch_project(node, db, bindings, caches)
    if isinstance(node, Join):
        return _fetch_join(node, db, bindings, caches)
    if isinstance(node, AntiJoin):
        return _fetch_semi_like(node, db, bindings, caches, negated=True)
    if isinstance(node, SemiJoin):
        return _fetch_semi_like(node, db, bindings, caches, negated=False)
    if isinstance(node, UnionAll):
        return _fetch_union(node, db, bindings, caches)
    if isinstance(node, GroupBy):
        return _fetch_groupby(node, db, bindings, caches)
    raise PlanError(f"cannot fetch from plan node {node!r}")


def _fetch_from_table(
    table: Table, columns: tuple[str, ...], bindings: Optional[Bindings]
) -> Relation:
    """Counted reads from a stored table (base table, cache, or view)."""
    reorder = tuple(columns) != table.schema.columns
    if bindings is None:
        rows = list(table.scan())
    else:
        rows = []
        for value in bindings.values:
            rows.extend(table.lookup(bindings.attrs, value))
    if reorder:
        idx = table.schema.positions(columns)
        rows = [tuple(r[i] for i in idx) for r in rows]
    return Relation(columns, rows)


def _filter_by_bindings(rel: Relation, bindings: Bindings) -> Relation:
    idx = [rel.position(a) for a in bindings.attrs]
    allowed = bindings.value_set()
    return Relation(
        rel.columns, [r for r in rel.rows if tuple(r[i] for i in idx) in allowed]
    )


def _fetch_project(
    node: Project, db: Database, bindings: Optional[Bindings], caches: Optional[CacheMap]
) -> Relation:
    exprs = [e for _, e in node.items]
    if bindings is None:
        child = fetch(node.child, db, None, caches)
    else:
        # Push bindings down only when every bound attribute is a bare
        # column passthrough; otherwise fetch-all and filter (counted).
        passthrough: dict[str, str] = {
            name: expr.name for name, expr in node.items if isinstance(expr, Col)
        }
        if all(a in passthrough for a in bindings.attrs):
            child_attrs = tuple(passthrough[a] for a in bindings.attrs)
            child = fetch(node.child, db, Bindings(child_attrs, bindings.values), caches)
        else:
            child = fetch(node.child, db, None, caches)
            return _filter_by_bindings(project_rows(node, child), bindings)
    return project_rows(node, child)


def _fetch_join(
    node: Join, db: Database, bindings: Optional[Bindings], caches: Optional[CacheMap]
) -> Relation:
    if bindings is None:
        left = fetch(node.left, db, None, caches)
        return _probe_and_combine(left, node, db, caches)
    left_cols = set(node.left.columns)
    right_cols = set(node.right.columns)
    attrs_left = tuple(a for a in bindings.attrs if a in left_cols)
    attrs_right = tuple(a for a in bindings.attrs if a in right_cols)
    unknown = set(bindings.attrs) - left_cols - right_cols
    if unknown:
        raise PlanError(f"bindings on unknown join columns {sorted(unknown)}")
    if attrs_left:
        left = fetch(node.left, db, bindings.project(attrs_left), caches)
        final = bindings if attrs_right else None
        return _probe_and_combine(left, node, db, caches, final_bindings=final)
    # Bindings touch only the right side: drive from the right.
    right = fetch(node.right, db, bindings.project(attrs_right), caches)
    return _probe_and_combine(right, node, db, caches, reverse=True)


def _probe_and_combine(
    driver: Relation,
    node: Join,
    db: Database,
    caches: Optional[CacheMap],
    final_bindings: Optional[Bindings] = None,
    reverse: bool = False,
) -> Relation:
    """Join the rows of *driver* — the left child's, or the right child's
    when *reverse* (bindings bound only there) — with the other child,
    probed once for all of them."""
    out_positions = {c: i for i, c in enumerate(node.columns)}
    probed = node.left if reverse else node.right
    pairs, residual = [], None  # no condition: a cross product
    if node.condition is not None:
        pairs, residual = equi_join_pairs(
            node.condition, node.left.columns, node.right.columns
        )
    if pairs:
        if reverse:
            pairs = [(b, a) for a, b in pairs]
        candidates = _probe(driver, probed, pairs, db, caches)
        rows = (
            other + row if reverse else row + other
            for row, others in zip(driver.rows, candidates)
            for other in others
        )
    else:
        other = fetch(probed, db, None, caches)
        left, right = (other, driver) if reverse else (driver, other)
        rows = (lr + rr for lr in left.rows for rr in right.rows)
    if residual is not None:
        rows = (r for r in rows if matches(residual, out_positions, r))
    result = Relation(node.columns, list(rows))
    return _filter_by_bindings(result, final_bindings) if final_bindings else result


def _probe(
    driver: Relation,
    probed: PlanNode,
    pairs: Sequence[tuple[str, str]],
    db: Database,
    caches: Optional[CacheMap],
) -> list[Sequence[tuple]]:
    """For each row of *driver*, the rows of *probed* equal to it on
    *pairs* of (driver column, probed column): one fetch of *probed*,
    bound to the distinct probe values."""
    dpos = [driver.position(a) for a, _ in pairs]
    probed_attrs = tuple(b for _, b in pairs)
    probe_values = [tuple(row[i] for i in dpos) for row in driver.rows]
    fetched = fetch(probed, db, Bindings(probed_attrs, probe_values), caches)
    ppos = [fetched.position(b) for b in probed_attrs]
    buckets: dict[tuple, list[tuple]] = {}
    for row in fetched.rows:
        key = tuple(row[i] for i in ppos)
        if None in key:
            continue  # SQL: NULL never equi-joins
        buckets.setdefault(key, []).append(row)
    return [buckets.get(value, ()) for value in probe_values]


def _fetch_semi_like(
    node,
    db: Database,
    bindings: Optional[Bindings],
    caches: Optional[CacheMap],
    negated: bool,
) -> Relation:
    if bindings is not None:
        unknown = set(bindings.attrs) - set(node.left.columns)
        if unknown:
            raise PlanError(f"bindings on unknown (anti)semijoin columns {sorted(unknown)}")
    left = fetch(node.left, db, bindings, caches)
    pairs, residual = equi_join_pairs(
        node.condition, node.left.columns, node.right.columns
    )
    combined_positions = {
        c: i for i, c in enumerate(node.left.columns + node.right.columns)
    }
    if pairs:
        candidates = _probe(left, node.right, pairs, db, caches)
    else:
        candidates = [fetch(node.right, db, None, caches).rows] * len(left.rows)
    rows = [
        lr
        for lr, others in zip(left.rows, candidates)
        if any(matches(residual, combined_positions, lr + rr) for rr in others)
        != negated
    ]
    return Relation(node.columns, rows)


def _fetch_union(
    node: UnionAll, db: Database, bindings: Optional[Bindings], caches: Optional[CacheMap]
) -> Relation:
    branch = node.branch_column
    if bindings is None or branch not in bindings.attrs:
        left = fetch(node.left, db, bindings, caches)
        right = fetch(node.right, db, bindings, caches)
        rows = [r + (0,) for r in left.rows]
        rows.extend(r + (1,) for r in right.rows)
        return Relation(node.columns, rows)
    # Split bindings by branch value and route each part to its child.
    b_idx = bindings.attrs.index(branch)
    rest_attrs = tuple(a for a in bindings.attrs if a != branch)
    rest_idx = [i for i, a in enumerate(bindings.attrs) if a != branch]
    by_branch: dict[int, list[tuple]] = {0: [], 1: []}
    for value in bindings.values:
        b = value[b_idx]
        if b in by_branch:
            by_branch[b].append(tuple(value[i] for i in rest_idx))
    rows = []
    for b, child in ((0, node.left), (1, node.right)):
        if not by_branch[b]:
            continue
        if rest_attrs:
            part = fetch(child, db, Bindings(rest_attrs, by_branch[b]), caches)
        else:
            part = fetch(child, db, None, caches)
        rows.extend(r + (b,) for r in part.rows)
    return Relation(node.columns, rows)


def _fetch_groupby(
    node: GroupBy, db: Database, bindings: Optional[Bindings], caches: Optional[CacheMap]
) -> Relation:
    if bindings is not None and set(bindings.attrs) <= set(node.keys):
        child = fetch(node.child, db, bindings, caches)
        return aggregate_rows(child, node.keys, node.aggs)
    child = fetch(node.child, db, None, caches)
    result = aggregate_rows(child, node.keys, node.aggs)
    if bindings is not None:
        result = _filter_by_bindings(result, bindings)
    return result
