"""Tests for the tuple-based, recompute and SDBT baselines."""

import pytest

from repro.algebra import (
    equi_join,
    evaluate_plan,
    group_by,
    natural_join,
    project_columns,
    scan,
    where,
)
from repro.baselines import RecomputeEngine, SdbtEngine, TupleIvmEngine
from repro.core import IdIvmEngine
from repro.core.rules.tdiff import TChanges, repair_updates
from repro.core.script import ApplyDiffStep
from repro.errors import PlanError
from repro.expr import col, lit
from repro.storage import Database
from tests.conftest import build_view_v, build_view_v_prime


class TestRepairUpdates:
    def test_pairs_delete_and_insert_on_same_key(self):
        delta = TChanges(
            inserts=[(1, "new"), (3, "c")],
            deletes=[(1, "old"), (2, "b")],
        )
        out = repair_updates(delta, [0])
        assert out.updates == [((1, "old"), (1, "new"))]
        assert out.inserts == [(3, "c")]
        assert out.deletes == [(2, "b")]

    def test_identical_rows_cancel(self):
        delta = TChanges(inserts=[(1, "same")], deletes=[(1, "same")])
        out = repair_updates(delta, [0])
        assert out.is_empty()


class TestTupleEngine:
    def test_flat_view(self, running_example_db):
        engine = TupleIvmEngine(running_example_db)
        view = engine.define_view("V", build_view_v(running_example_db))
        engine.log.update("parts", ("P1",), {"price": 11})
        engine.log.insert("parts", ("P3", 5))
        engine.log.insert("devices_parts", ("D2", "P3"))
        engine.log.delete("devices_parts", ("D1", "P2"))
        engine.maintain()
        expected = evaluate_plan(view.plan, running_example_db).as_set()
        assert view.table.as_set() == expected

    def test_update_cost_includes_join_probes(self, running_example_db):
        """The t-diff computation joins back through the base tables —
        nonzero view_diff cost where the ID approach pays nothing."""
        engine = TupleIvmEngine(running_example_db)
        engine.define_view("V", build_view_v(running_example_db))
        engine.log.update("parts", ("P1",), {"price": 11})
        report = engine.maintain()["V"]
        assert report.cost_of("view_diff") > 0

    def test_aggregate_view(self, running_example_db):
        engine = TupleIvmEngine(running_example_db)
        view = engine.define_view("Vp", build_view_v_prime(running_example_db))
        engine.log.update("parts", ("P1",), {"price": 11})
        engine.log.update("devices", ("D3",), {"category": "phone"})
        engine.log.insert("devices_parts", ("D3", "P1"))
        engine.maintain()
        expected = evaluate_plan(view.plan, running_example_db).as_set()
        assert view.table.as_set() == expected

    def test_diff_sizes_reported(self, running_example_db):
        engine = TupleIvmEngine(running_example_db)
        view = engine.define_view("V", build_view_v(running_example_db))
        engine.log.update("parts", ("P1",), {"price": 11})
        report = engine.maintain()["V"]
        (du,) = [  # the view-level update t-diff, by its script name
            step.diff_name
            for step in view.script.steps
            if isinstance(step, ApplyDiffStep) and step.diff_name.endswith("_upd_n0")
        ]
        assert report.diff_sizes[du] == 2  # one per view tuple (p = 2)


def _users_posts_db():
    db = Database()
    db.create_table("users", ("uid", "city", "score"), ("uid",))
    db.create_table("posts", ("pid", "author", "ts"), ("pid",))
    db.table("users").load([(u, u % 3, 10 * u) for u in range(6)])
    db.table("posts").load([(p, p % 6, p) for p in range(12)])
    return db


class TestTupleJoinChoice:
    """Which t-diff join rule runs depends on the rows reaching the join,
    not on the tables a round changed."""

    def _round(self, build):
        db = _users_posts_db()
        engine = TupleIvmEngine(db)
        view = engine.define_view("V", build(db))
        for uid in (1, 2):
            engine.log.update("users", (uid,), {"score": 99})
        for pid in (1, 4):
            engine.log.update("posts", (pid,), {"ts": 50})
        report = engine.maintain()["V"]
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()
        return report

    def test_fast_path_when_the_other_side_has_no_rows(self):
        """``users`` changed, but only in a column the π drops (Q10's
        shape): one probe of the users side per updated post."""
        report = self._round(
            lambda db: equi_join(
                project_columns(scan(db, "users"), ("uid", "city")),
                scan(db, "posts"),
                [("uid", "author")],
            )
        )
        assert report.phase_counts["view_diff"].as_dict() == {
            "index_lookups": 2, "tuple_reads": 2, "tuple_writes": 0,
            "index_maintenance": 0, "total": 4,
        }
        assert report.total_cost == 8

    def test_normal_form_when_both_sides_change(self):
        """Updates on both sides in one round (Q*1's shape): the four
        delete/insert probes, re-paired into updates."""
        report = self._round(
            lambda db: equi_join(scan(db, "users"), scan(db, "posts"), [("uid", "author")])
        )
        assert report.phase_counts["view_diff"].as_dict() == {
            "index_lookups": 8, "tuple_reads": 12, "tuple_writes": 0,
            "index_maintenance": 0, "total": 20,
        }
        assert report.total_cost == 30


class TestRecomputeEngine:
    def test_recompute_matches(self, running_example_db):
        engine = RecomputeEngine(running_example_db)
        view = engine.define_view("V", build_view_v(running_example_db))
        engine.log.update("parts", ("P1",), {"price": 11})
        report = engine.maintain()["V"]
        expected = evaluate_plan(view.plan, running_example_db).as_set()
        assert view.table.as_set() == expected
        # Recomputation reads every base row: far above the IVM cost.
        assert report.total_cost > 8


class TestSdbtEngine:
    def _view(self, db, config_selectivity=True):
        return build_view_v_prime(db)

    def test_fixed_mode_updates(self, running_example_db):
        engine = SdbtEngine(running_example_db, streamed_tables=["parts"])
        view = engine.define_view("Vp", build_view_v_prime(running_example_db))
        engine.log.update("parts", ("P1",), {"price": 11})
        engine.maintain()
        expected = evaluate_plan(view.plan, running_example_db).as_set()
        assert view.table.as_set() == expected

    def test_fixed_mode_rejects_unstreamed_changes(self, running_example_db):
        from repro.errors import ScriptError

        engine = SdbtEngine(running_example_db, streamed_tables=["parts"])
        engine.define_view("Vp", build_view_v_prime(running_example_db))
        engine.log.update("devices", ("D1",), {"category": "tablet"})
        with pytest.raises(ScriptError):
            engine.maintain()

    def test_streams_mode_mixed_batch(self, running_example_db):
        engine = SdbtEngine(running_example_db)
        view = engine.define_view("Vp", build_view_v_prime(running_example_db))
        engine.log.update("parts", ("P1",), {"price": 11})
        engine.log.update("devices", ("D3",), {"category": "phone"})
        engine.log.insert("parts", ("P3", 7))
        engine.log.insert("devices_parts", ("D3", "P3"))
        engine.log.delete("devices_parts", ("D1", "P2"))
        engine.maintain()
        expected = evaluate_plan(view.plan, running_example_db).as_set()
        assert view.table.as_set() == expected

    def test_selection_crossing_update(self, running_example_db):
        """The relaxed map retains non-phone rows so a category flip is
        answerable from the devices map."""
        engine = SdbtEngine(running_example_db)
        view = engine.define_view("Vp", build_view_v_prime(running_example_db))
        engine.log.update("devices", ("D1",), {"category": "tablet"})
        engine.maintain()
        expected = evaluate_plan(view.plan, running_example_db).as_set()
        assert view.table.as_set() == expected

    def test_streams_pays_map_maintenance(self, running_example_db):
        engine = SdbtEngine(running_example_db)
        engine.define_view("Vp", build_view_v_prime(running_example_db))
        engine.log.update("parts", ("P1",), {"price": 11})
        report = engine.maintain()["Vp"]
        assert report.cost_of("map_update") > 0

    def test_fixed_pays_no_map_maintenance_for_updates(self, running_example_db):
        engine = SdbtEngine(running_example_db, streamed_tables=["parts"])
        engine.define_view("Vp", build_view_v_prime(running_example_db))
        engine.log.update("parts", ("P1",), {"price": 11})
        report = engine.maintain()["Vp"]
        assert report.cost_of("map_update") == 0

    def test_requires_aggregate_root(self, running_example_db):
        engine = SdbtEngine(running_example_db)
        with pytest.raises(PlanError):
            engine.define_view("V", build_view_v(running_example_db))

    def test_multi_round(self, running_example_db):
        engine = SdbtEngine(running_example_db)
        view = engine.define_view("Vp", build_view_v_prime(running_example_db))
        for price in (11, 13, 8):
            engine.log.update("parts", ("P1",), {"price": price})
            engine.maintain()
            expected = evaluate_plan(view.plan, running_example_db).as_set()
            assert view.table.as_set() == expected


class TestCrossSystemAgreement:
    def test_all_systems_agree_on_aggregate_view(self, running_example_db):
        import copy

        def fresh_db():
            from tests.conftest import running_example_db as fixture  # noqa: F401
            from repro.storage import Database

            db = Database()
            db.create_table("devices", ("did", "category"), ("did",))
            db.create_table("parts", ("pid", "price"), ("pid",))
            db.create_table("devices_parts", ("did", "pid"), ("did", "pid"))
            db.table("devices").load(
                [("D1", "phone"), ("D2", "phone"), ("D3", "tablet")]
            )
            db.table("parts").load([("P1", 10), ("P2", 20)])
            db.table("devices_parts").load(
                [("D1", "P1"), ("D2", "P1"), ("D1", "P2")]
            )
            return db

        outcomes = []
        for factory in (
            IdIvmEngine,
            TupleIvmEngine,
            RecomputeEngine,
            SdbtEngine,
        ):
            db = fresh_db()
            engine = factory(db)
            view = engine.define_view("Vp", build_view_v_prime(db))
            engine.log.update("parts", ("P1",), {"price": 11})
            engine.log.update("parts", ("P2",), {"price": 21})
            engine.maintain()
            outcomes.append(view.table.as_set())
        assert all(o == outcomes[0] for o in outcomes)
