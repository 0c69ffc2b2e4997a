"""Base-table i-diff schema generation — paper Section 5.

Given a view plan, decide which i-diff schemas to create for each base
table.  Inserts and deletes are easy: one full-attribute insert schema and
one all-pre-state delete schema per table (pre values only ever help).
Updates are the interesting case: the number of candidate schemas is
exponential, so idIVM partitions each table's non-key attributes into

* one *conditional* group per operator condition ``C_op`` (attributes
  appearing in that selection/join/antijoin condition — updates on them
  can change whether tuples pass the operator), and
* the *non-conditional* rest ``NC`` (updates on them can only ever yield
  view updates).

One update i-diff schema is generated per non-empty group, always with
all non-key attributes in pre-state form.
"""

from __future__ import annotations

from ..algebra.plan import AntiJoin, GroupBy, Join, PlanNode, Scan, Select, base_tables
from ..expr import columns_of
from ..storage import Database
from .diffs import DiffSchema, delete_schema_for, insert_schema_for, update_schema_for


def conditional_attribute_groups(plan: PlanNode) -> dict[str, list[tuple[str, ...]]]:
    """For each base table: the list of per-operator conditional groups.

    Attribute names are resolved against the scan columns they descend
    from; computed projections sever the lineage (a condition on a
    computed column conservatively marks the columns it was computed
    from — we track lineage through bare-column projections only, which
    covers QSPJADU plans built by the provided builders).
    """
    # Lineage: for every node, map its output columns to (table, column)
    # origins where the column is a passthrough of a scan column.
    origins = _column_origins(plan)
    groups: dict[str, list[tuple[str, ...]]] = {}
    for node in plan.walk():
        condition = None
        if isinstance(node, Select):
            condition = node.predicate
        elif isinstance(node, (Join, AntiJoin)):
            condition = getattr(node, "condition", None)
        if condition is None:
            continue
        per_table: dict[str, set[str]] = {}
        node_origin = origins[node.node_id]
        for column in columns_of(condition):
            origin = node_origin.get(column)
            if origin is None:
                continue
            table, base_column = origin
            per_table.setdefault(table, set()).add(base_column)
        for table, attrs in per_table.items():
            groups.setdefault(table, []).append(tuple(sorted(attrs)))
    return groups


def _column_origins(plan: PlanNode) -> dict[int, dict[str, tuple[str, str]]]:
    """node_id -> {output column -> (base table, base column)} lineage."""
    from ..algebra.plan import Project, UnionAll
    from ..expr import Col

    result: dict[int, dict[str, tuple[str, str]]] = {}

    def visit(node: PlanNode) -> dict[str, tuple[str, str]]:
        if node.node_id in result:
            return result[node.node_id]
        if isinstance(node, Scan):
            mapping = {c: (node.table, c) for c in node.columns}
        elif isinstance(node, Project):
            child = visit(node.child)
            mapping = {}
            for name, expr in node.items:
                if isinstance(expr, Col) and expr.name in child:
                    mapping[name] = child[expr.name]
        elif isinstance(node, (Join, AntiJoin)):
            mapping = {}
            for child in node.children:
                mapping.update(visit(child))
            # AntiJoin outputs only left columns; restrict.
            if isinstance(node, AntiJoin):
                mapping = {
                    c: o for c, o in mapping.items() if c in set(node.columns)
                }
        elif isinstance(node, UnionAll):
            left = visit(node.left)
            right = visit(node.right)
            # A column's lineage survives a union only when both branches
            # agree on it.
            mapping = {
                c: left[c]
                for c in left
                if right.get(c) == left[c]
            }
        elif isinstance(node, GroupBy):
            child = visit(node.child)
            mapping = {k: child[k] for k in node.keys if k in child}
            # Aggregate outputs have no single-column lineage, but their
            # argument columns still matter for conditional grouping of
            # operators *below*; nothing to do here.
        else:  # Select and others preserve columns
            mapping = dict(visit(node.children[0]))
        # Visit remaining children so their entries are registered too.
        for child in node.children:
            if child.node_id not in result:
                visit(child)
        result[node.node_id] = mapping
        return mapping

    visit(plan)
    return result


def generate_base_schemas(plan: PlanNode, db: Database) -> list[DiffSchema]:
    """All base-table i-diff schemas for maintaining *plan* (Section 5)."""
    tables = sorted(base_tables(plan))
    cond_groups = conditional_attribute_groups(plan)
    schemas: list[DiffSchema] = []
    seen: set[tuple] = set()
    for table in tables:
        schema = db.table(table).schema
        for candidate in (insert_schema_for(schema), delete_schema_for(schema)):
            if candidate.signature() not in seen:
                seen.add(candidate.signature())
                schemas.append(candidate)
        non_key = set(schema.non_key_columns)
        conditional: set[str] = set()
        update_count = 0
        for group in cond_groups.get(table, []):
            attrs = tuple(sorted(set(group) & non_key))
            if not attrs:
                continue
            conditional.update(attrs)
            candidate = update_schema_for(schema, attrs)
            if candidate.signature() not in seen:
                seen.add(candidate.signature())
                schemas.append(candidate)
                update_count += 1
        nc = tuple(sorted(non_key - conditional))
        if nc:
            candidate = update_schema_for(schema, nc)
            if candidate.signature() not in seen:
                seen.add(candidate.signature())
                schemas.append(candidate)
                update_count += 1
        # Catch-all schema: a single tuple's folded update may span
        # several groups; the instance generator routes it to ONE schema
        # covering every modified attribute (splitting one tuple-change
        # across instances would entangle them — see modlog).
        if update_count > 1:
            candidate = update_schema_for(schema, tuple(sorted(non_key)))
            if candidate.signature() not in seen:
                seen.add(candidate.signature())
                schemas.append(candidate)
    return schemas
