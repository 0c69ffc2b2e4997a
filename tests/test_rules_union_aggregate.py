"""Rule-level tests for union-all (Table 5) and the blocking aggregate
steps (Tables 7, 9, 11, 12)."""

import pytest

from repro.algebra import UnionAll, group_by, scan, where
from repro.core.diffs import DELETE, INSERT, UPDATE, Diff, DiffSchema
from repro.core.idinfer import annotate_plan
from repro.core.ir import DiffSource
from repro.core.ir_exec import IrContext, run_ir
from repro.core.minimize import minimize_ir
from repro.core.rules.aggregate import (
    AssociativeAggregateStep,
    GeneralAggregateStep,
    OpCacheSpec,
    apply_group_deltas,
    group_deltas_from_changes,
)
from repro.core.rules.union import propagate_union
from repro.algebra.evaluate import evaluate_plan, materialize
from repro.expr import col, lit
from repro.storage import Database


@pytest.fixture
def db():
    database = Database()
    database.create_table("m", ("k", "g", "v"), ("k",))
    database.table("m").load([(1, "a", 5), (2, "a", 7), (3, "b", 2)])
    return database


class TestUnionRule:
    @pytest.fixture
    def plan(self, db):
        low = where(scan(db, "m"), col("v").le(lit(4)))
        high = where(scan(db, "m"), col("v").gt(lit(4)))
        return annotate_plan(UnionAll(low, high))

    def test_branch_tag_appended_as_id(self, db, plan):
        schema = DiffSchema(
            DELETE, f"n{plan.children[1].node_id}", ("k",), pre_attrs=("g", "v")
        )
        ctx = IrContext(db, db)
        ctx.diffs["in"] = Diff(schema, [(1, "a", 5)])
        [(out_schema, ir)] = propagate_union(
            plan, DiffSource("in", schema), schema, 1
        )
        assert out_schema.id_attrs == ("k", "b")
        diff = Diff.from_relation(out_schema, run_ir(minimize_ir(ir), ctx))
        assert diff.rows[0][:2] == (1, 1)  # right branch -> b = 1

    def test_left_branch_tag_zero(self, db, plan):
        schema = DiffSchema(
            INSERT, f"n{plan.children[0].node_id}", ("k",), post_attrs=("g", "v")
        )
        ctx = IrContext(db, db)
        ctx.diffs["in"] = Diff(schema, [(9, "c", 1)])
        [(out_schema, ir)] = propagate_union(
            plan, DiffSource("in", schema), schema, 0
        )
        diff = Diff.from_relation(out_schema, run_ir(minimize_ir(ir), ctx))
        assert diff.rows[0][1] == 0


def _setup_aggregate(db, aggs):
    plan = annotate_plan(group_by(scan(db, "m"), ("g",), aggs))
    out_table = materialize(plan, db, "OUT")
    spec = OpCacheSpec(plan, "opc")
    opcache = spec.build(evaluate_plan(plan.child, db), db.counters)
    return plan, out_table, opcache


def _run_step(db_pre, db_post, plan, out_table, opcache, diffs, associative=True):
    ctx = IrContext(db_pre, db_post)
    ctx.caches[plan.node_id] = out_table
    ctx.operator_caches[plan.node_id] = opcache
    inputs = []
    for i, diff in enumerate(diffs):
        name = f"in{i}"
        ctx.diffs[name] = diff
        inputs.append(("diff", name))
    step_cls = AssociativeAggregateStep if associative else GeneralAggregateStep
    if associative:
        step = step_cls(plan, inputs, "opc", "emit", "view_update")
    else:
        step = step_cls(plan, inputs, "emit", "view_update")
    step.run(ctx)
    return ctx


class TestAssociativeStep:
    def test_update_shifts_sum(self, db):
        plan, out, opc = _setup_aggregate(db, [("sum", col("v"), "s")])
        schema = DiffSchema(
            UPDATE, f"n{plan.child.node_id}", ("k",),
            pre_attrs=("g", "v"), post_attrs=("v",),
        )
        db_pre = db.copy()
        db.table("m").update_uncounted((1,), {"v": 8})
        _run_step(db_pre, db, plan, out, opc, [Diff(schema, [(1, "a", 5, 8)])])
        assert out.as_set() == {("a", 15), ("b", 2)}

    def test_insert_creates_group(self, db):
        plan, out, opc = _setup_aggregate(db, [("sum", col("v"), "s")])
        schema = DiffSchema(
            INSERT, f"n{plan.child.node_id}", ("k",), post_attrs=("g", "v")
        )
        db_pre = db.copy()
        db.table("m").insert_uncounted((9, "c", 4))
        ctx = _run_step(db_pre, db, plan, out, opc, [Diff(schema, [(9, "c", 4)])])
        assert ("c", 4) in out.as_set()
        assert len(ctx.diffs["emit_ins"]) == 1

    def test_delete_empties_group(self, db):
        plan, out, opc = _setup_aggregate(db, [("sum", col("v"), "s")])
        schema = DiffSchema(
            DELETE, f"n{plan.child.node_id}", ("k",), pre_attrs=("g", "v")
        )
        db_pre = db.copy()
        db.table("m").delete_uncounted((3,))
        ctx = _run_step(db_pre, db, plan, out, opc, [Diff(schema, [(3, "b", 2)])])
        assert out.as_set() == {("a", 12)}
        assert len(ctx.diffs["emit_del"]) == 1

    def test_avg_uses_operator_cache(self, db):
        plan, out, opc = _setup_aggregate(db, [("avg", col("v"), "mean")])
        assert "__sum_mean" in opc.schema.columns
        schema = DiffSchema(
            UPDATE, f"n{plan.child.node_id}", ("k",),
            pre_attrs=("g", "v"), post_attrs=("v",),
        )
        db_pre = db.copy()
        db.table("m").update_uncounted((2,), {"v": 9})
        _run_step(db_pre, db, plan, out, opc, [Diff(schema, [(2, "a", 7, 9)])])
        assert out.as_set() == {("a", 7.0), ("b", 2.0)}

    def test_sum_to_null_when_all_values_null(self, db):
        plan, out, opc = _setup_aggregate(db, [("sum", col("v"), "s")])
        schema = DiffSchema(
            UPDATE, f"n{plan.child.node_id}", ("k",),
            pre_attrs=("g", "v"), post_attrs=("v",),
        )
        db_pre = db.copy()
        db.table("m").update_uncounted((3,), {"v": None})
        _run_step(db_pre, db, plan, out, opc, [Diff(schema, [(3, "b", 2, None)])])
        assert ("b", None) in out.as_set()

    def test_zero_delta_costs_nothing(self, db):
        plan, out, opc = _setup_aggregate(db, [("sum", col("v"), "s")])
        schema = DiffSchema(
            UPDATE, f"n{plan.child.node_id}", ("k",),
            pre_attrs=("g", "v"), post_attrs=("v",),
        )
        db.counters.reset()
        before = db.counters.total.total
        _run_step(db, db, plan, out, opc, [Diff(schema, [(1, "a", 5, 5)])])
        # The probe of Input_pre costs, but no output writes happen.
        assert out.as_set() == {("a", 12), ("b", 2)}
        assert db.counters.total.tuple_writes == before

    def test_blocking_combines_branches(self, db):
        """Two branches' deltas on the same group combine before the
        single output write (Example 4.4's blocking behaviour)."""
        plan, out, opc = _setup_aggregate(db, [("sum", col("v"), "s")])
        upd = DiffSchema(
            UPDATE, f"n{plan.child.node_id}", ("k",),
            pre_attrs=("g", "v"), post_attrs=("v",),
        )
        db_pre = db.copy()
        db.table("m").update_uncounted((1,), {"v": 6})
        db.table("m").update_uncounted((2,), {"v": 8})
        _run_step(
            db_pre, db, plan, out, opc,
            [Diff(upd, [(1, "a", 5, 6)]), Diff(upd, [(2, "a", 7, 8)])],
        )
        assert ("a", 14) in out.as_set()


    def test_queued_updates_keep_the_write_order(self, db):
        """Live groups whose bookkeeping does not move are written in one
        batch, flushed before every group creation / deletion: same rows,
        same order of writes, same accesses as one write per group."""
        db.table("m").load([(4, "c", 1), (5, "d", 3)])
        plan, out, opc = _setup_aggregate(
            db, [("sum", col("v"), "s"), ("count", None, "n")]
        )
        changes = [
            ((1, "a", 5), (1, "a", 6)),    # a: sum moves
            (None, (9, "e", 4)),           # e: group created
            ((3, "b", 2), (3, "b", 9)),    # b: sum moves
            ((4, "c", 1), None),           # c: last row gone, group deleted
            ((5, "d", 3), (5, "d", 0)),    # d: sum moves
            ((2, "a", 7), (2, "a", 8)),    # a again: folded into one write
        ]
        db.counters.reset()
        sink = out.begin_capture()
        deltas = group_deltas_from_changes(plan, changes)
        assert list(deltas) == [("a",), ("e",), ("b",), ("c",), ("d",)]
        applied, kinds = apply_group_deltas(plan, deltas, out, opc)
        assert kinds == [UPDATE, INSERT, UPDATE, DELETE, UPDATE]
        assert applied == [
            (("a", 12, 2), ("a", 14, 2)), (None, ("e", 4, 1)),
            (("b", 2, 1), ("b", 9, 1)), (("c", 1, 1), None),
            (("d", 3, 1), ("d", 0, 1)),
        ]
        assert [op[:2] for op in out.end_capture()] == [
            ("s", ("a",)), ("s", ("e",)), ("s", ("b",)), ("d", ("c",)), ("s", ("d",)),
        ]
        assert opc.as_set() == {("a", 2, 2), ("b", 1, 1), ("d", 1, 1), ("e", 1, 1)}
        total = db.counters.total
        # Output: a lookup and a write per group, and the NOT-IN probe of
        # e's insert.  Opcache: e probed (absent) and inserted behind its
        # own probe, c probed (found) and deleted; a, b, d untouched.
        assert (total.index_lookups, total.tuple_reads, total.tuple_writes) == (9, 1, 7)


class TestGeneralStep:
    def test_minmax_recompute(self, db):
        plan, out, opc = _setup_aggregate(
            db, [("min", col("v"), "lo"), ("max", col("v"), "hi")]
        )
        schema = DiffSchema(
            UPDATE, f"n{plan.child.node_id}", ("k",),
            pre_attrs=("g", "v"), post_attrs=("v",),
        )
        db_pre = db.copy()
        db.table("m").update_uncounted((2,), {"v": 1})
        _run_step(
            db_pre, db, plan, out, opc,
            [Diff(schema, [(2, "a", 7, 1)])], associative=False,
        )
        assert out.as_set() == {("a", 1, 5), ("b", 2, 2)}

    def test_group_deletion_via_recompute(self, db):
        plan, out, opc = _setup_aggregate(db, [("max", col("v"), "hi")])
        schema = DiffSchema(
            DELETE, f"n{plan.child.node_id}", ("k",), pre_attrs=("g", "v")
        )
        db_pre = db.copy()
        db.table("m").delete_uncounted((3,))
        ctx = _run_step(
            db_pre, db, plan, out, opc,
            [Diff(schema, [(3, "b", 2)])], associative=False,
        )
        assert out.as_set() == {("a", 7)}
        assert len(ctx.diffs["emit_del"]) == 1


def _minmax_engines():
    """Every maintenance strategy with a min/max rescan path."""
    from repro.baselines import TupleIvmEngine
    from repro.core import IdIvmEngine

    return [
        pytest.param(lambda db: IdIvmEngine(db, optimize=False), id="eager"),
        pytest.param(lambda db: IdIvmEngine(db, optimize=True), id="minimized"),
        pytest.param(TupleIvmEngine, id="tuple"),
    ]


@pytest.mark.parametrize("make_engine", _minmax_engines())
class TestMinMaxDeleteRescan:
    """DELETE of the cached extremum must fire the Table 7 rescan —
    including with duplicate extrema, NULL-only groups and NULL/mixed
    group keys (which Python's ``sorted`` cannot order)."""

    def _engine(self, make_engine, rows):
        db = Database()
        db.create_table("m", ("k", "g", "v"), ("k",))
        db.table("m").load(rows)
        engine = make_engine(db)
        plan = group_by(
            scan(db, "m"), ("g",),
            [("min", col("v"), "lo"), ("max", col("v"), "hi")],
        )
        view = engine.define_view("V", plan)
        return engine, view

    def test_delete_unique_extremum_rescans_and_is_costed(self, make_engine):
        engine, view = self._engine(
            make_engine, [(1, "a", 5), (2, "a", 7), (3, "b", 2)]
        )
        engine.log.delete("m", (2,))
        report = engine.maintain()["V"]
        assert view.table.as_set() == {("a", 5, 5), ("b", 2, 2)}
        # The rescan touched the surviving group members and was counted.
        total = report.phase_counts["__total__"]
        assert total.tuple_reads > 0
        assert total.tuple_writes > 0
        assert report.total_cost > 0

    def test_delete_duplicate_extremum_keeps_value(self, make_engine):
        engine, view = self._engine(
            make_engine, [(1, "a", 7), (2, "a", 7), (3, "a", 1)]
        )
        engine.log.delete("m", (2,))
        engine.maintain()
        assert view.table.as_set() == {("a", 1, 7)}

    def test_delete_last_extremum_drops_to_next(self, make_engine):
        engine, view = self._engine(
            make_engine, [(1, "a", 7), (2, "a", 7), (3, "a", 1)]
        )
        engine.log.delete("m", (1,))
        engine.log.delete("m", (2,))
        engine.maintain()
        assert view.table.as_set() == {("a", 1, 1)}

    def test_null_only_group_survives_extremum_delete(self, make_engine):
        engine, view = self._engine(
            make_engine, [(1, "a", None), (2, "a", None), (3, "b", 4)]
        )
        engine.log.delete("m", (1,))
        engine.maintain()
        # The group still has a member; min/max over all-NULL is NULL.
        assert view.table.as_set() == {("a", None, None), ("b", 4, 4)}
        engine.log.delete("m", (2,))
        engine.maintain()
        assert view.table.as_set() == {("b", 4, 4)}

    def test_null_group_key_delete_does_not_crash_sort(self, make_engine):
        # Pre-fix: sorted() over {("a",), (None,)} raised TypeError.
        engine, view = self._engine(
            make_engine, [(1, None, 5), (2, None, 7), (3, "a", 2)]
        )
        engine.log.delete("m", (2,))
        engine.maintain()
        assert view.table.as_set() == {(None, 5, 5), ("a", 2, 2)}

    def test_mixed_type_group_keys_delete(self, make_engine):
        # Pre-fix: sorted() over {(1,), ("a",)} raised TypeError.
        engine, view = self._engine(
            make_engine, [(1, 1, 5), (2, 1, 9), (3, "a", 2)]
        )
        engine.log.delete("m", (2,))
        engine.maintain()
        assert view.table.as_set() == {(1, 5, 5), ("a", 2, 2)}
