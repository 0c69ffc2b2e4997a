"""System-level invariants beyond result equality.

* the view diffs a ∆-script computes are *effective* (Section 2) with
  respect to the final view state;
* maintenance is idempotent — an immediately repeated round costs zero;
* degenerate databases (empty tables, single rows) behave.
"""

import pytest

from repro.algebra import evaluate_plan
from repro.core import IdIvmEngine, is_effective
from repro.core.diffs import Diff
from repro.core.ir_exec import IrContext
from repro.core.modlog import populate_instances
from repro.core.engine import _reconstruct_pre
from repro.core.script import ComputeDiffStep, ScriptSamples, execute_script
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


MIXED_BATCH = [
    ("update", "parts", ("P1",), {"price": 11}),
    ("insert", "parts", ("P3", 7), None),
    ("insert", "devices_parts", ("D2", "P3"), None),
    ("update", "devices", ("D3",), {"category": "phone"}),
    ("insert", "devices_parts", ("D3", "P1"), None),
    ("delete", "devices_parts", ("D1", "P2"), None),
]


def log_mixed(engine):
    for kind, table, payload, changes in MIXED_BATCH:
        if kind == "update":
            engine.log.update(table, payload, changes)
        elif kind == "insert":
            engine.log.insert(table, payload)
        else:
            engine.log.delete(table, payload)


class TestEffectiveness:
    def _final_view_diffs(self, build_view):
        """Run a maintenance round manually, capturing the computed view
        diffs and the final view state."""
        db = make_db()
        engine = IdIvmEngine(db)
        view = engine.define_view("V", build_view(db))
        log_mixed(engine)
        entries = engine.log.take()
        db_pre = _reconstruct_pre(db, entries)
        instances = populate_instances(view.instance_layout, entries, db_pre)
        ctx = IrContext(db_pre, db, diffs=instances, caches=view.caches)
        ctx.operator_caches = view.operator_caches
        script = view.generated.script
        ctx.live = script.live_plan(script.live_mask(instances), ctx)
        ctx.samples = ScriptSamples()
        execute_script(script, ctx)
        # Final diffs: those applied to the view (the root node).
        root = view.plan.node_id
        view_target = f"n{root}"
        final = [
            d
            for d in ctx.diffs.values()
            if isinstance(d, Diff) and d.schema.target == view_target and len(d)
        ]
        return final, view

    def test_spj_view_diffs_effective(self):
        final, view = self._final_view_diffs(build_view_v)
        assert final, "expected non-empty view diffs"
        for diff in final:
            assert is_effective(diff, view.table), diff.schema

    def test_aggregate_view_diffs_effective(self):
        final, view = self._final_view_diffs(build_view_v_prime)
        for diff in final:
            assert is_effective(diff, view.table), diff.schema


class TestIdempotence:
    @pytest.mark.parametrize("build", [build_view_v, build_view_v_prime])
    def test_second_round_is_free(self, build):
        db = make_db()
        engine = IdIvmEngine(db)
        view = engine.define_view("V", build(db))
        log_mixed(engine)
        engine.maintain()
        state = view.table.as_set()
        report = engine.maintain()["V"]
        assert report.total_cost == 0
        assert view.table.as_set() == state


class TestDegenerateDatabases:
    def test_empty_base_tables(self):
        db = Database()
        db.create_table("devices", ("did", "category"), ("did",))
        db.create_table("parts", ("pid", "price"), ("pid",))
        db.create_table("devices_parts", ("did", "pid"), ("did", "pid"))
        engine = IdIvmEngine(db)
        view = engine.define_view("V", build_view_v_prime(db))
        assert len(view.table) == 0
        # Populate from scratch through the log only.
        engine.log.insert("devices", ("D1", "phone"))
        engine.log.insert("parts", ("P1", 10))
        engine.log.insert("devices_parts", ("D1", "P1"))
        engine.maintain()
        assert view.table.as_set() == {("D1", 10)}

    def test_drain_to_empty_and_refill(self):
        db = make_db()
        engine = IdIvmEngine(db)
        view = engine.define_view("V", build_view_v_prime(db))
        for did, pid in [("D1", "P1"), ("D2", "P1"), ("D1", "P2")]:
            engine.log.delete("devices_parts", (did, pid))
        engine.log.delete("parts", ("P1",))
        engine.log.delete("parts", ("P2",))
        engine.maintain()
        assert len(view.table) == 0
        engine.log.insert("parts", ("P9", 99))
        engine.log.insert("devices_parts", ("D2", "P9"))
        engine.maintain()
        assert view.table.as_set() == {("D2", 99)}
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()

    def test_single_row_everything(self):
        db = Database()
        db.create_table("devices", ("did", "category"), ("did",))
        db.create_table("parts", ("pid", "price"), ("pid",))
        db.create_table("devices_parts", ("did", "pid"), ("did", "pid"))
        db.table("devices").load([("D1", "phone")])
        db.table("parts").load([("P1", 10)])
        db.table("devices_parts").load([("D1", "P1")])
        engine = IdIvmEngine(db)
        view = engine.define_view("V", build_view_v_prime(db))
        engine.log.update("parts", ("P1",), {"price": 20})
        engine.maintain()
        assert view.table.as_set() == {("D1", 20)}

    def test_null_values_through_aggregates(self):
        db = Database()
        db.create_table("devices", ("did", "category"), ("did",))
        db.create_table("parts", ("pid", "price"), ("pid",))
        db.create_table("devices_parts", ("did", "pid"), ("did", "pid"))
        db.table("devices").load([("D1", "phone")])
        db.table("parts").load([("P1", None), ("P2", 5)])
        db.table("devices_parts").load([("D1", "P1"), ("D1", "P2")])
        engine = IdIvmEngine(db)
        view = engine.define_view("V", build_view_v_prime(db))
        assert view.table.as_set() == {("D1", 5)}
        engine.log.update("parts", ("P2",), {"price": None})
        engine.maintain()
        # SQL semantics: sum over all-NULL group is NULL.
        assert view.table.as_set() == {("D1", None)}
        engine.log.update("parts", ("P1",), {"price": 3})
        engine.maintain()
        assert view.table.as_set() == {("D1", 3)}
