"""Simulated DBToaster (SDBT) — the paper's Section 7.3 comparator.

DBToaster proper compiles higher-order deltas to native code over
main-memory maps; the paper compares against a "DBToaster-inspired
implementation that runs on top of a DBMS and uses the same intermediate
views as the original DBToaster implementation (up to aggregation
push-down)", in two variants:

* **SDBT-fixed** — intermediate views only for the base tables that are
  allowed to change (the paper: only ``parts``);
* **SDBT-streams** — intermediate views for *every* base table.

For the evaluated view class — an aggregate over an SPJ tree — DBToaster
materializes, per changeable table T, a map answering T-deltas directly:
the SPJ result *with T's own non-key attributes projected away* and the
conditions over them dropped, indexed by T's key.  A delta on T then
probes its map (no base-table joins), while every *other* table's map
that embeds T's attributes must itself be maintained — that maintenance
is exactly why SDBT-streams loses to idIVM while SDBT-fixed edges it out
(no cache writes on the probe map), reproducing Figure 12's C/D columns.

The paper also allowed SDBT native update t-diffs (rather than
DBToaster's insert/delete pairs); we do the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..algebra.delta_eval import Bindings, fetch
from ..algebra.evaluate import materialize
from ..algebra.plan import GroupBy, Join, PlanNode, Project, Scan, Select, base_tables
from ..core.compile import lower_group_pass
from ..core.diffs import DELETE, INSERT, UPDATE
# _reconstruct_pre is unused here; benchmarks/e2e asserts it stays a module attribute.
from ..core.engine import (
    MaintenanceEngine,
    MaintenanceReport,
    _reconstruct_pre,
    counted_phase,
    counts_since,
)
from ..core.idinfer import annotate_plan
from ..core.rules.aggregate import OpCacheSpec
from ..errors import PlanError, ScriptError
from ..expr import Col, Expr, columns_of, matches
from ..storage import Database, Table, TableSchema


@dataclass
class _SpjShape:
    """Decomposition of a γ-over-SPJ plan."""

    gnode: GroupBy
    spj: PlanNode            # the γ's child (flat SPJ subview)
    table_columns: dict[str, set[str]]   # base table -> its SPJ columns
    key_columns: dict[str, list[str]]    # base table -> its key's SPJ names


def _decompose(plan: PlanNode) -> _SpjShape:
    if not isinstance(plan, GroupBy):
        raise PlanError(
            "SDBT simulation covers aggregate-over-SPJ views (the class the "
            "paper evaluates); the plan root must be a grouping operator"
        )
    gnode = plan
    spj = gnode.child
    for node in spj.walk():
        if isinstance(node, GroupBy):
            raise PlanError("SDBT simulation does not support nested aggregates")
    origins = _origins(spj)
    table_columns: dict[str, set[str]] = {}
    for column, sources in origins.items():
        for table, _base in sources:
            table_columns.setdefault(table, set()).add(column)
    key_columns: dict[str, list[str]] = {}
    for node in spj.walk():
        if not isinstance(node, Scan):
            continue
        names: list[str] = []
        for key_col in node.schema.key:
            carriers = [
                column
                for column, sources in origins.items()
                if (node.table, key_col) in sources
            ]
            if not carriers:
                raise PlanError(
                    f"key column {key_col!r} of {node.table!r} does not reach "
                    f"the SPJ output; SDBT maps cannot be keyed"
                )
            names.append(sorted(carriers)[0])
        key_columns[node.table] = names
    return _SpjShape(gnode, spj, table_columns, key_columns)


def _origins(spj: PlanNode) -> dict[str, set[tuple[str, str]]]:
    """SPJ output column -> lineage set of (base table, base column).

    Equality-aware: an equi-join conjunct merges the two columns'
    lineages, so the single copy a natural-join lowering keeps still
    carries both tables' provenance (bare-column passthroughs only,
    which covers builder-produced SPJ plans)."""
    from ..expr import equi_join_pairs

    def visit(node: PlanNode) -> dict[str, set[tuple[str, str]]]:
        if isinstance(node, Scan):
            return {c: {(node.table, c)} for c in node.columns}
        if isinstance(node, Select):
            return visit(node.child)
        if isinstance(node, Project):
            child = visit(node.child)
            return {
                name: set(child[expr.name])
                for name, expr in node.items
                if isinstance(expr, Col) and expr.name in child
            }
        if isinstance(node, Join):
            out: dict[str, set[tuple[str, str]]] = {}
            for c in node.children:
                out.update(visit(c))
            if node.condition is not None:
                pairs, _ = equi_join_pairs(
                    node.condition, node.left.columns, node.right.columns
                )
                for lcol, rcol in pairs:
                    merged = out.get(lcol, set()) | out.get(rcol, set())
                    out[lcol] = merged
                    out[rcol] = set(merged)
            return out
        raise PlanError(f"SDBT simulation cannot handle operator {node.label()!r}")

    return visit(spj)


def _relaxed_spj(spj: PlanNode, own_columns: set[str]) -> PlanNode:
    """Copy of *spj* with selection conjuncts over *own_columns* dropped.

    A table's map must contain rows regardless of the current values of
    that table's own attributes (they can change under it); the dropped
    conditions are re-checked against the diff values at probe time.
    Conditions over the table's attributes inside join predicates are not
    supported (raise), matching DBToaster's per-relation map structure.
    """
    from ..expr import all_of, conjuncts_of

    def rebuild(node: PlanNode) -> PlanNode:
        if isinstance(node, Scan):
            return Scan(node.schema, alias=node.alias)
        if isinstance(node, Select):
            child = rebuild(node.child)
            kept = [
                c
                for c in conjuncts_of(node.predicate)
                if not (columns_of(c) & own_columns)
            ]
            if not kept:
                return child
            return Select(child, all_of(*kept))
        if isinstance(node, Project):
            return Project(rebuild(node.child), node.items)
        if isinstance(node, Join):
            if node.condition is not None and (
                columns_of(node.condition) & own_columns
            ):
                non_key_cols = own_columns
                pairs_cols = columns_of(node.condition) & non_key_cols
                raise PlanError(
                    f"SDBT maps cannot relax join conditions over "
                    f"{sorted(pairs_cols)}; move them into a selection"
                )
            return Join(rebuild(node.left), rebuild(node.right), node.condition)
        raise PlanError(f"SDBT simulation cannot handle operator {node.label()!r}")

    return annotate_plan(rebuild(spj))


class SdbtView:
    """The top view plus its per-table DBToaster-style maps."""

    def __init__(self, name: str, plan: GroupBy, table: Table, shape: _SpjShape):
        self.name = name
        self.plan = plan
        self.table = table
        self.shape = shape
        #: the hybrid state starts from every SPJ table's pre-state
        self.pre_tables = base_tables(shape.spj)
        #: base table -> (map table, its columns in SPJ naming)
        self.maps: dict[str, Table] = {}
        self.map_columns: dict[str, list[str]] = {}
        #: base table -> SPJ plan with its own selection conjuncts dropped
        self.relaxed: dict[str, PlanNode] = {}
        self.opcache: Optional[Table] = None
        #: the view's γ-delta pass (generated code), bound once its
        #: operator cache exists
        self.group_pass: Optional[Callable] = None
        # The lineage a round reads, resolved once per view.
        #: SPJ column -> position, for re-checking selections on a row
        self.positions = {c: i for i, c in enumerate(shape.spj.columns)}
        #: base table -> {SPJ column -> base column} of the columns only
        #: that table supplies
        self.own: dict[str, dict[str, str]] = {t: {} for t in shape.table_columns}
        for column, sources in _origins(shape.spj).items():
            if len(sources) == 1:
                ((table, base),) = sources
                self.own[table][column] = base
        #: base table -> the selection predicates over its SPJ columns
        self.checks: dict[str, list[Expr]] = {
            table: [
                node.predicate
                for node in shape.spj.walk()
                if isinstance(node, Select) and columns_of(node.predicate) & columns
            ]
            for table, columns in shape.table_columns.items()
        }

    @property
    def written_tables(self) -> tuple[Table, ...]:
        """What a round writes: the view, its maps and its opcache."""
        opcache = () if self.opcache is None else (self.opcache,)
        return (self.table, *self.maps.values(), *opcache)


class SdbtEngine(MaintenanceEngine):
    """Simulated DBToaster over the instrumented storage engine: the
    shared maintenance round, map-probing delta rules."""

    def __init__(self, db: Database, streamed_tables: Optional[Sequence[str]] = None):
        """*streamed_tables* = tables allowed to change.  None means all
        base tables of each view (SDBT-streams); a restricted list gives
        SDBT-fixed."""
        super().__init__(db)
        self.streamed_tables = (
            set(streamed_tables) if streamed_tables is not None else None
        )

    # ------------------------------------------------------------------
    def _define(self, name: str, annotated: PlanNode, stats) -> SdbtView:
        """Materialize the view plus one DBToaster-style map per streamed
        base table (relaxed of its own selection conjuncts)."""
        if not isinstance(annotated, GroupBy):
            raise PlanError("SDBT views must be aggregates over SPJ")
        shape = _decompose(annotated)
        # The SPJ first: it stores its rows and the γ above reads them.
        child_rows = stats.rows(shape.spj)
        table = materialize(annotated, self.db, name, stats)
        view = SdbtView(name, annotated, table, shape)
        spec = OpCacheSpec(annotated, f"{name}__sdbt_opc")
        view.opcache = spec.build(child_rows, self.db.counters)
        view.group_pass = lower_group_pass(annotated, table, view.opcache)

        streamed = (
            set(shape.key_columns)
            if self.streamed_tables is None
            else set(shape.key_columns) & self.streamed_tables
        )
        spj_ids = tuple(shape.spj.ids)
        origins = _origins(shape.spj)
        for base_table in sorted(streamed):
            own_non_key = shape.table_columns.get(base_table, set()) - set(
                shape.key_columns[base_table]
            )
            shared = {c for c in own_non_key if len(origins.get(c, set())) > 1}
            if shared:
                raise PlanError(
                    f"SDBT maps cannot stream {base_table!r}: its non-key "
                    f"columns {sorted(shared)} participate in join "
                    f"equalities"
                )
            keep = [c for c in shape.spj.columns if c not in own_non_key]
            key = [c for c in spj_ids if c in keep]
            if not key:
                raise PlanError(
                    f"cannot key SDBT map for {base_table!r}: its attributes "
                    f"cover the SPJ identifiers"
                )
            relaxed = _relaxed_spj(shape.spj, own_non_key)
            view.relaxed[base_table] = relaxed
            relaxed_result = stats.rows(relaxed)
            schema = TableSchema(f"{name}__map_{base_table}", tuple(keep), tuple(key))
            map_table = Table(schema, counters=self.db.counters)
            idx = [relaxed_result.position(c) for c in keep]
            seen = set()
            for row in relaxed_result.rows:
                projected = tuple(row[i] for i in idx)
                if projected not in seen:
                    seen.add(projected)
                    map_table.insert_uncounted(projected)
            map_table.create_index(tuple(shape.key_columns[base_table]))
            view.maps[base_table] = map_table
            view.map_columns[base_table] = keep
        return view

    # ------------------------------------------------------------------
    def _maintain_view(
        self, view: SdbtView, db_pre: Database, entries, view_span
    ) -> MaintenanceReport:
        """Sequential per-table delta evaluation (DBToaster's first-order
        semantics) of the round's net changes (its one fold): table i's
        delta is computed against a hybrid state where already-processed
        tables are post and the rest pre, with the maps advanced in lock
        step — this is what prevents a combo created by two same-batch
        inserts from being counted twice.  The hybrid copies no row: its
        catalog starts at the replica's tables and switches a table to
        the live one once that table's changes are processed (both count
        into the live counters)."""
        net = entries.folded(self.db)
        shape = view.shape
        counters = self.db.counters
        before = counters.mark()
        changes: list[tuple] = []
        hybrid = Database(counters)
        hybrid.tables = dict(db_pre.tables)
        affected = sorted(
            t for t, per_key in net.items()
            if t in shape.key_columns and per_key
        )
        for base_table in affected:
            if base_table not in view.maps:
                raise ScriptError(
                    f"SDBT-fixed received changes on unstreamed table "
                    f"{base_table!r}; re-define with it streamed"
                )
        for base_table in affected:
            per_key = net[base_table]
            with counted_phase(counters, "view_diff"):
                changes.extend(
                    self._update_delete_changes(view, base_table, per_key, hybrid)
                )
            hybrid.tables[base_table] = self.db.table(base_table)
            with counted_phase(counters, "view_diff"):
                changes.extend(
                    self._insert_changes(view, base_table, per_key, hybrid)
                )
            with counted_phase(counters, "map_update"):
                self._maintain_maps(view, base_table, per_key, hybrid)
        with counted_phase(counters, "view_update"):
            view.group_pass(changes)
        return MaintenanceReport(
            view.name, phase_counts=counts_since(counters, before)
        )

    # ------------------------------------------------------------------
    def _update_delete_changes(
        self, view: SdbtView, base_table: str, per_key, hybrid
    ) -> list[tuple]:
        """(pre_row, post_row) SPJ-row changes for updates (via the
        T-map — no base joins, DBToaster's headline property) and
        deletes (fetched from the hybrid state *before* applying this
        table's changes)."""
        shape = view.shape
        map_table = view.maps[base_table]
        map_cols = view.map_columns[base_table]
        key_cols = shape.key_columns[base_table]
        spj_cols = list(shape.spj.columns)
        own = view.own[base_table]
        base_schema = self.db.table(base_table).schema
        changes: list[tuple] = []

        def complete(map_row: tuple, base_row: tuple) -> tuple:
            values = dict(zip(map_cols, map_row))
            for spj_col, base_col in own.items():
                values[spj_col] = base_row[base_schema.position(base_col)]
            return tuple(values[c] for c in spj_cols)

        for key, change in per_key.items():
            if change.kind != UPDATE:
                continue
            for map_row in map_table.lookup(tuple(key_cols), key):
                pre = complete(map_row, change.pre_row)
                post = complete(map_row, change.post_row)
                pre_ok = self._row_passes(view, base_table, pre)
                post_ok = self._row_passes(view, base_table, post)
                changes.append(
                    (pre if pre_ok else None, post if post_ok else None)
                )
        del_keys = [k for k, c in per_key.items() if c.kind == DELETE]
        if del_keys:
            rel = fetch(shape.spj, hybrid, Bindings(tuple(key_cols), del_keys))
            changes.extend((r, None) for r in rel.rows)
        return changes

    def _insert_changes(
        self, view: SdbtView, base_table: str, per_key, hybrid
    ) -> list[tuple]:
        """Insert deltas, fetched from the hybrid state *after* applying
        this table's changes (sequential first-order semantics)."""
        shape = view.shape
        key_cols = shape.key_columns[base_table]
        ins_keys = [k for k, c in per_key.items() if c.kind == INSERT]
        if not ins_keys:
            return []
        rel = fetch(shape.spj, hybrid, Bindings(tuple(key_cols), ins_keys))
        return [(None, r) for r in rel.rows]

    def _row_passes(self, view: SdbtView, base_table: str, spj_row: tuple) -> bool:
        """Re-check the selection conditions over *base_table*'s own
        attributes (they were dropped when building the map)."""
        return all(
            matches(predicate, view.positions, spj_row)
            for predicate in view.checks[base_table]
        )

    # ------------------------------------------------------------------
    def _maintain_maps(self, view: SdbtView, base_table: str, per_key, hybrid) -> None:
        """Bring every map embedding *base_table*'s data up to date."""
        shape = view.shape
        key_cols = tuple(shape.key_columns[base_table])
        own = view.own[base_table]
        base_schema = self.db.table(base_table).schema
        # Own columns some selection reads: an update changing one can
        # move the row into or out of the *other* tables' maps, which
        # keep that selection.
        selected_on = [
            base_schema.position(own[c])
            for node in shape.spj.walk()
            if isinstance(node, Select)
            for c in columns_of(node.predicate) & own.keys()
        ]
        for target, map_table in view.maps.items():
            map_cols = view.map_columns[target]
            if target == base_table and all(
                c.kind == UPDATE for c in per_key.values()
            ):
                continue  # own attributes are projected away of this map
            embeds = {c for c in map_cols if c in own and c not in key_cols}
            for key, change in per_key.items():
                pre, post = change.pre_row, change.post_row
                if change.kind == UPDATE and (
                    target == base_table
                    or all(pre[p] == post[p] for p in selected_on)
                ):
                    if embeds:
                        new_values = {
                            c: post[base_schema.position(own[c])] for c in embeds
                        }
                        for map_key in map_table.locate(key_cols, key):
                            map_table.write_at(map_key, new_values)
                    continue
                if change.kind != INSERT:
                    for map_key in map_table.locate(key_cols, key):
                        map_table.delete_at(map_key)
                if change.kind != DELETE:
                    # recompute the key's map rows (relaxed plan) from the
                    # already-advanced hybrid state
                    rel = fetch(
                        view.relaxed[target], hybrid, Bindings(key_cols, [key])
                    )
                    idx = [rel.position(c) for c in map_cols]
                    seen: set[tuple] = set()
                    for row in rel.rows:
                        projected = tuple(row[i] for i in idx)
                        if projected in seen:
                            continue
                        seen.add(projected)
                        if map_table.get_uncounted(
                            map_table.schema.key_of(projected)
                        ) is None:
                            map_table.insert_checked(projected)
