"""Engine invariants the fuzzer checks after every maintenance round.

A view can match the recompute oracle while the engine is still rotting
inside — a stale intermediate cache or a corrupt secondary index only
shows up on some *later* batch.  These checks make such latent damage a
divergence at the round that caused it:

* **primary-key uniqueness / placement** — every materialized table maps
  each storage key to a row whose key columns equal it;
* **index consistency** — every secondary-index bucket entry points at a
  live row with the bucket's value, and every row is findable through
  every index;
* **non-negative counters** — no phase of the round's report went
  backwards;
* **phase reconciliation** — per-field sums of the phase buckets equal
  the round's ``__total__`` (the obs layer's accounting guarantee);
* **cache consistency** — every intermediate cache, hidden aggregate
  output and operator cache equals a fresh recomputation of its plan
  node against the post-state database.
"""

from __future__ import annotations

from collections import Counter

from ..algebra.evaluate import evaluate_plan
from ..core.rules.aggregate import OpCacheSpec
from ..storage import AccessCounts, CounterSet, Table

_COUNT_FIELDS = ("index_lookups", "tuple_reads", "tuple_writes", "index_maintenance")


def check_table(table: Table, label: str) -> list[str]:
    """Primary-key and secondary-index structural integrity."""
    problems: list[str] = []
    for key, row in table._rows.items():
        if table.schema.key_of(row) != key:
            problems.append(
                f"{label}: row {row!r} stored under key {key!r} but its key "
                f"columns are {table.schema.key_of(row)!r}"
            )
    n_rows = len(table._rows)
    for columns, index in table._indexes.items():
        seen = 0
        for value, bucket in index.buckets.items():
            for key in bucket:
                row = table._rows.get(key)
                if row is None:
                    problems.append(
                        f"{label}: index {columns} bucket {value!r} holds "
                        f"dead key {key!r}"
                    )
                elif index.value_of(row) != value:
                    problems.append(
                        f"{label}: index {columns} bucket {value!r} holds "
                        f"key {key!r} whose row has value "
                        f"{index.value_of(row)!r}"
                    )
                else:
                    seen += 1
        if seen != n_rows:
            problems.append(
                f"{label}: index {columns} covers {seen} of {n_rows} rows"
            )
    return problems


def check_report(report, label: str) -> list[str]:
    """Non-negative phase counters + exact phase/total reconciliation."""
    problems: list[str] = []
    totals = {f: 0 for f in _COUNT_FIELDS}
    grand = None
    for phase, counts in report.phase_counts.items():
        for field in _COUNT_FIELDS:
            value = getattr(counts, field)
            if value < 0:
                problems.append(
                    f"{label}: phase {phase!r} has negative {field} ({value})"
                )
        if phase == "__total__":
            grand = counts
        else:
            for field in _COUNT_FIELDS:
                totals[field] += getattr(counts, field)
    if grand is not None:
        for field in _COUNT_FIELDS:
            if totals[field] != getattr(grand, field):
                problems.append(
                    f"{label}: phases sum to {field}={totals[field]} but "
                    f"__total__ has {getattr(grand, field)}"
                )
    return problems


def _node_by_id(plan, node_id: int):
    if plan.node_id == node_id:
        return plan
    for child in plan.children:
        found = _node_by_id(child, node_id)
        if found is not None:
            return found
    return None


def _multiset_diff(expected, actual) -> str:
    missing = expected - actual
    extra = actual - expected
    parts = []
    if missing:
        parts.append(f"missing {sorted(missing.elements(), key=repr)[:5]!r}")
    if extra:
        parts.append(f"extra {sorted(extra.elements(), key=repr)[:5]!r}")
    return ", ".join(parts)


def check_caches(view, db) -> list[str]:
    """Semantic cache consistency against a fresh recompute of each node:
    the view's ``caches`` (intermediate caches and aggregate outputs,
    hidden ones of the tuple rule set included) and ``operator_caches``
    (γ bookkeeping)."""
    problems: list[str] = []
    plan = view.plan
    for node_id, table in getattr(view, "caches", {}).items():
        node = _node_by_id(plan, node_id)
        if node is None:
            problems.append(f"cache n{node_id}: node not found in plan")
            continue
        if node is plan:
            continue  # the root is the view table; the oracle covers it
        expected = Counter(evaluate_plan(node, db).rows)
        actual = Counter(table.rows_uncounted())
        if expected != actual:
            problems.append(
                f"cache n{node_id} ({node.label()}) stale: "
                + _multiset_diff(expected, actual)
            )
    for node_id, table in getattr(view, "operator_caches", {}).items():
        gnode = _node_by_id(plan, node_id)
        if gnode is None:
            problems.append(f"opcache n{node_id}: node not found in plan")
            continue
        rebuilt = OpCacheSpec(gnode, "check").build(
            evaluate_plan(gnode.child, db), CounterSet()
        )
        expected = Counter(rebuilt.rows_uncounted())
        actual = Counter(table.rows_uncounted())
        if expected != actual:
            problems.append(
                f"opcache n{node_id} stale: " + _multiset_diff(expected, actual)
            )
    return problems


def check_engine_state(view, db, report) -> list[str]:
    """All invariant families for one view after one maintenance round."""
    problems = check_report(report, "report")
    if isinstance(view.table, Table):  # a hosted view's is its host's cache
        problems += check_table(view.table, f"view {view.name!r}")
    for node_id, table in {
        **getattr(view, "caches", {}),
        **getattr(view, "operator_caches", {}),
    }.items():
        problems += check_table(table, f"materialization n{node_id}")
    for name in db.table_names():
        problems += check_table(db.table(name), f"base table {name!r}")
    problems += check_caches(view, db)
    return problems
