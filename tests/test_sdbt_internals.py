"""Unit tests for the SDBT simulation's internals (lineage, relaxed
plans, map construction)."""

import pytest

from repro.algebra import Join, equi_join, evaluate_plan, group_by, rename, scan, where
from repro.baselines import SdbtEngine
from repro.baselines.sdbt import _decompose, _origins, _relaxed_spj
from repro.core import annotate_plan
from repro.errors import PlanError
from repro.expr import col, lit
from repro.storage import Database
from tests.conftest import build_view_v, build_view_v_prime


class TestOrigins:
    def test_equality_merges_lineage(self, running_example_db):
        plan = annotate_plan(build_view_v_prime(running_example_db))
        origins = _origins(plan.child)
        # The natural-join lowering keeps one 'did' column carrying both
        # devices_parts' and devices' provenance.
        assert ("devices_parts", "did") in origins["did"]
        assert ("devices", "did") in origins["did"]
        assert origins["price"] == {("parts", "price")}

    def test_decompose_key_columns(self, running_example_db):
        plan = annotate_plan(build_view_v_prime(running_example_db))
        shape = _decompose(plan)
        assert shape.key_columns["devices"] == ["did"]
        assert shape.key_columns["parts"] == ["pid"]
        assert sorted(shape.key_columns["devices_parts"]) == ["did", "pid"]

    def test_decompose_rejects_non_aggregate_root(self, running_example_db):
        plan = annotate_plan(build_view_v(running_example_db))
        with pytest.raises(PlanError):
            _decompose(plan)

    def test_decompose_rejects_nested_aggregates(self, running_example_db):
        inner = group_by(
            scan(running_example_db, "devices_parts"),
            ("did",),
            [("count", None, "n")],
        )
        outer = group_by(inner, ("n",), [("count", None, "m")])
        with pytest.raises(PlanError):
            _decompose(annotate_plan(outer))


class TestRelaxedPlans:
    def test_own_selections_dropped(self, running_example_db):
        # Give the tablet a part so the σ actually filters something.
        running_example_db.table("devices_parts").insert_uncounted(("D3", "P2"))
        plan = annotate_plan(build_view_v_prime(running_example_db))
        relaxed = _relaxed_spj(plan.child, {"category"})
        full = evaluate_plan(plan.child, running_example_db)
        wide = evaluate_plan(relaxed, running_example_db)
        # The relaxed plan includes the tablet row the σ filtered out.
        assert len(wide) == len(full) + 1

    def test_other_conditions_kept(self, running_example_db):
        plan = annotate_plan(build_view_v_prime(running_example_db))
        relaxed = _relaxed_spj(plan.child, {"price"})
        wide = evaluate_plan(relaxed, running_example_db)
        # category='phone' still applies when relaxing for parts.
        positions = {c: i for i, c in enumerate(relaxed.columns)}
        assert all(r[positions["category"]] == "phone" for r in wide.rows)

    def test_join_condition_on_relaxed_attr_rejected(self):
        db = Database()
        db.create_table("a", ("k", "x"), ("k",))
        db.create_table("b", ("j", "y"), ("j",))
        db.table("a").load([(1, 5)])
        db.table("b").load([(9, 5)])
        plan = group_by(
            Join(scan(db, "a"), scan(db, "b"), col("x").eq(col("y"))),
            ("k",),
            [("count", None, "n")],
        )
        engine = SdbtEngine(db)
        with pytest.raises(PlanError):
            engine.define_view("V", plan)


class TestMapContents:
    def test_map_drops_own_non_key_attrs(self, running_example_db):
        engine = SdbtEngine(running_example_db)
        view = engine.define_view("Vp", build_view_v_prime(running_example_db))
        assert "price" not in view.maps["parts"].schema.columns
        assert "category" not in view.maps["devices"].schema.columns
        # ... but other tables' attrs stay available for completion.
        assert "price" in view.maps["devices"].schema.columns

    def test_fixed_mode_builds_only_requested_maps(self, running_example_db):
        engine = SdbtEngine(running_example_db, streamed_tables=["parts"])
        view = engine.define_view("Vp", build_view_v_prime(running_example_db))
        assert set(view.maps) == {"parts"}

    def test_maps_indexed_by_table_key(self, running_example_db):
        engine = SdbtEngine(running_example_db)
        view = engine.define_view("Vp", build_view_v_prime(running_example_db))
        assert view.maps["parts"].has_index(("pid",))


class TestSelectionCrossingUpdates:
    """An update that moves a row across a selection (a category flip)
    must move it into / out of the *other* tables' maps, which keep that
    selection — else a later delta on those tables probes a stale map."""

    @staticmethod
    def _setup(db):
        db.table("devices_parts").insert_uncounted(("D3", "P2"))  # the tablet
        engine = SdbtEngine(db)
        return engine, engine.define_view("Vp", build_view_v_prime(db))

    @staticmethod
    def _assert_fresh(engine, view, db):
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()
        # every map equals the one a fresh definition would build
        rebuilt = SdbtEngine(db).define_view("again", view.plan)
        for table, map_table in view.maps.items():
            assert map_table.as_set() == rebuilt.maps[table].as_set(), table

    @pytest.mark.parametrize("price_first", [False, True])
    def test_flip_and_price_update_in_one_batch(self, running_example_db, price_first):
        db = running_example_db
        engine, view = self._setup(db)
        ops = [
            lambda: engine.log.update("devices", ("D3",), {"category": "phone"}),
            lambda: engine.log.update("parts", ("P2",), {"price": 777}),
        ]
        for op in reversed(ops) if price_first else ops:
            op()
        engine.maintain()
        assert ("D3", 777) in view.table.as_set()
        self._assert_fresh(engine, view, db)

    def test_flip_then_price_update_in_consecutive_rounds(self, running_example_db):
        db = running_example_db
        engine, view = self._setup(db)
        engine.log.update("devices", ("D3",), {"category": "phone"})
        engine.maintain()
        self._assert_fresh(engine, view, db)
        engine.log.update("parts", ("P2",), {"price": 777})
        engine.maintain()
        assert ("D3", 777) in view.table.as_set()
        self._assert_fresh(engine, view, db)

    def test_flip_out_drops_the_map_rows(self, running_example_db):
        db = running_example_db
        engine, view = self._setup(db)
        engine.log.update("devices", ("D1",), {"category": "tablet"})
        engine.maintain()
        self._assert_fresh(engine, view, db)
        engine.log.update("parts", ("P1",), {"price": 11})
        engine.maintain()
        self._assert_fresh(engine, view, db)
