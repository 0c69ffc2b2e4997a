"""Failure-injection and environment-robustness tests."""

import pytest

from repro.algebra import evaluate_plan
from repro.core import IdIvmEngine
from repro.core.diffs import UPDATE, Diff, DiffSchema
from repro.core.ir import AppliedSource, DiffSource
from repro.core.ir_exec import IrContext, run_ir
from repro.core.script import ApplyDiffStep, ComputeDiffStep, DeltaScript, execute_script
from repro.errors import ScriptError
from repro.storage import Database
from tests.conftest import build_view_v, build_view_v_prime


def make_db() -> Database:
    db = Database()
    db.create_table("devices", ("did", "category"), ("did",))
    db.create_table("parts", ("pid", "price"), ("pid",))
    db.create_table("devices_parts", ("did", "pid"), ("did", "pid"))
    db.table("devices").load([("D1", "phone"), ("D2", "phone"), ("D3", "tablet")])
    db.table("parts").load([("P1", 10), ("P2", 20)])
    db.table("devices_parts").load([("D1", "P1"), ("D2", "P1"), ("D1", "P2")])
    return db


class TestScriptMisuse:
    def test_apply_before_compute_raises(self, running_example_db):
        script = DeltaScript(
            [ApplyDiffStep("never_computed", 0, "view[V]", "view_update")],
            view_node_id=0,
        )
        ctx = IrContext(running_example_db, running_example_db)
        with pytest.raises(ScriptError):
            execute_script(script, ctx, running_example_db.counters)

    def test_apply_to_unregistered_target_raises(self, running_example_db):
        schema = DiffSchema(UPDATE, "V", ("pid",), ("price",), ("price",))
        compute = ComputeDiffStep(
            "d", schema, DiffSource("base", schema), "view_diff"
        )
        script = DeltaScript(
            [compute, ApplyDiffStep("d", 77, "view[V]", "view_update")],
            view_node_id=77,
        )
        ctx = IrContext(running_example_db, running_example_db)
        ctx.diffs["base"] = Diff(schema, [("P1", 10, 11)])
        with pytest.raises(ScriptError):
            execute_script(script, ctx, running_example_db.counters)

    def test_returning_before_apply_raises(self, running_example_db):
        ctx = IrContext(running_example_db, running_example_db)
        with pytest.raises(ScriptError):
            run_ir(AppliedSource("never_ran", ("pid",), ("price",)), ctx)


class TestConcurrentViews:
    def test_many_views_one_engine(self):
        """Ten views over the same tables, maintained in one round."""
        from repro.algebra import group_by, project_columns, scan, where
        from repro.expr import col, lit

        db = make_db()
        engine = IdIvmEngine(db)
        views = {}
        views["flat"] = engine.define_view("flat", build_view_v(db))
        views["agg"] = engine.define_view("agg", build_view_v_prime(db))
        for i, threshold in enumerate((5, 10, 15, 20)):
            views[f"sel{i}"] = engine.define_view(
                f"sel{i}",
                where(scan(db, "parts"), col("price").gt(lit(threshold))),
            )
        views["proj"] = engine.define_view(
            "proj", project_columns(scan(db, "devices"), ("did",))
        )
        views["counts"] = engine.define_view(
            "counts",
            group_by(scan(db, "devices_parts"), ("did",), [("count", None, "n")]),
        )
        engine.log.update("parts", ("P1",), {"price": 17})
        engine.log.insert("devices_parts", ("D3", "P2"))
        engine.log.update("devices", ("D3",), {"category": "phone"})
        engine.maintain()
        for name, view in views.items():
            expected = evaluate_plan(view.plan, db).as_set()
            assert view.table.as_set() == expected, name


class TestStringAndMixedTypes:
    def test_string_keys_and_values(self):
        db = Database()
        db.create_table("t", ("name", "team", "score"), ("name",))
        db.table("t").load([("ana", "red", 3), ("bo", "red", 5), ("cy", "blue", 2)])
        from repro.algebra import group_by, scan
        from repro.expr import col

        engine = IdIvmEngine(db)
        view = engine.define_view(
            "by_team",
            group_by(scan(db, "t"), ("team",), [("sum", col("score"), "total")]),
        )
        engine.log.update("t", ("ana",), {"team": "blue"})
        engine.maintain()
        assert view.table.as_set() == {("red", 5), ("blue", 5)}

    def test_float_measures(self):
        db = Database()
        db.create_table("m", ("k", "g", "v"), ("k",))
        db.table("m").load([(1, "a", 1.5), (2, "a", 2.25)])
        from repro.algebra import group_by, scan
        from repro.expr import col

        engine = IdIvmEngine(db)
        view = engine.define_view(
            "s", group_by(scan(db, "m"), ("g",), [("sum", col("v"), "t")])
        )
        engine.log.update("m", (1,), {"v": 2.5})
        engine.maintain()
        assert view.table.as_set() == {("a", 4.75)}
