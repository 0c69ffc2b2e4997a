"""Tests for the idIVM engine facade (Figure 3 architecture)."""

import pytest

from repro.algebra import evaluate_plan, group_by, scan
from repro.core import IdIvmEngine
from repro.errors import ScriptError, UnknownTableError
from repro.expr import col
from tests.conftest import build_view_v, build_view_v_prime, unhosted


class TestDefinition:
    def test_view_is_materialized(self, running_example_db, view_v):
        engine = IdIvmEngine(running_example_db)
        view = engine.define_view("V", view_v)
        assert view.table.as_set() == {
            ("D1", "P1", 10),
            ("D2", "P1", 10),
            ("D1", "P2", 20),
        }
        assert view.table.schema.key == ("pid", "did") or set(
            view.table.schema.key
        ) == {"pid", "did"}

    def test_duplicate_view_name_rejected(self, running_example_db, view_v):
        engine = IdIvmEngine(running_example_db)
        engine.define_view("V", view_v)
        with pytest.raises(ScriptError):
            engine.define_view("V", build_view_v(running_example_db))

    def test_definition_does_not_pollute_counters(self, running_example_db, view_v):
        engine = IdIvmEngine(running_example_db)
        engine.define_view("V", view_v)
        assert running_example_db.counters.total.total == 0

    def test_caches_materialized_for_aggregates(self, running_example_db):
        engine = IdIvmEngine(running_example_db)
        view = engine.define_view("Vp", build_view_v_prime(running_example_db))
        # view + one intermediate cache
        assert len(view.caches) == 2
        assert len(view.operator_caches) == 1


class TestMaintenance:
    def test_unknown_view(self, running_example_db):
        engine = IdIvmEngine(running_example_db)
        with pytest.raises(UnknownTableError):
            engine.maintain("nope")

    def test_empty_log_is_cheap_noop(self, running_example_db, view_v):
        engine = IdIvmEngine(running_example_db)
        view = engine.define_view("V", view_v)
        before = view.table.as_set()
        reports = engine.maintain()
        assert view.table.as_set() == before
        assert reports["V"].total_cost == 0

    def test_multiple_views_maintained_together(self, running_example_db):
        engine = IdIvmEngine(running_example_db)
        v = engine.define_view("V", build_view_v(running_example_db))
        vp = engine.define_view("Vp", build_view_v_prime(running_example_db))
        engine.log.update("parts", ("P1",), {"price": 11})
        reports = engine.maintain()
        assert set(reports) == {"V", "Vp"}
        assert v.table.as_set() == evaluate_plan(v.plan, running_example_db).as_set()
        assert vp.table.as_set() == evaluate_plan(vp.plan, running_example_db).as_set()

    def test_selective_maintenance_consumes_the_log(self, running_example_db):
        """maintain(name) drains the log — other views go stale by design
        (deferred IVM maintains views on demand; this engine applies the
        whole log to the named view only)."""
        engine = IdIvmEngine(running_example_db)
        v = engine.define_view("V", build_view_v(running_example_db))
        engine.log.update("parts", ("P1",), {"price": 11})
        reports = engine.maintain("V")
        assert set(reports) == {"V"}
        assert ("D1", "P1", 11) in v.table.as_set()

    def test_repeated_rounds(self, running_example_db):
        engine = IdIvmEngine(running_example_db)
        v = engine.define_view("V", build_view_v(running_example_db))
        for price in (11, 12, 13):
            engine.log.update("parts", ("P1",), {"price": price})
            engine.maintain()
            expected = evaluate_plan(v.plan, running_example_db).as_set()
            assert v.table.as_set() == expected

    def test_figure2_costs(self, running_example_db, view_v):
        """The Figure 2 scenario: one i-diff row updating two view rows
        costs exactly 1 lookup + 2 accesses (Table 2 with |Du|=1, p=2)."""
        engine = IdIvmEngine(running_example_db)
        engine.define_view("V", view_v)
        engine.log.update("parts", ("P1",), {"price": 11})
        report = engine.maintain()["V"]
        assert report.total_cost == 3
        assert report.cost_of("view_update") == 3
        assert report.cost_of("view_diff") == 0

    def test_report_diff_sizes(self, running_example_db, view_v):
        engine = IdIvmEngine(running_example_db)
        engine.define_view("V", view_v)
        engine.log.update("parts", ("P1",), {"price": 11})
        report = engine.maintain()["V"]
        assert report.diff_sizes.get("base_u_parts__price") == 1

    def test_group_created_and_deleted(self, running_example_db):
        engine = IdIvmEngine(running_example_db)
        vp = engine.define_view("Vp", build_view_v_prime(running_example_db))
        # D3 becomes a phone: its group appears.
        engine.log.update("devices", ("D3",), {"category": "phone"})
        engine.log.insert("devices_parts", ("D3", "P2"))
        engine.maintain()
        assert ("D3", 20) in vp.table.as_set()
        # And disappears again.
        engine.log.update("devices", ("D3",), {"category": "tablet"})
        engine.maintain()
        assert all(row[0] != "D3" for row in vp.table.as_set())

    def test_describe_script(self, running_example_db, view_v_prime):
        engine = IdIvmEngine(running_example_db)
        view = engine.define_view("Vp", view_v_prime)
        assert "APPLY" in view.describe_script()


class TestAvgView:
    def test_avg_maintained_through_operator_caches(self, running_example_db):
        """Table 12: AVG needs the sum/count operator caches."""
        plan = group_by(
            scan(running_example_db, "devices_parts"),
            ("did",),
            [("avg", None, "x")] if False else [("count", None, "n")],
        )
        engine = IdIvmEngine(running_example_db)
        view = engine.define_view("C", plan)
        engine.log.insert("devices_parts", ("D3", "P1"))
        engine.log.delete("devices_parts", ("D1", "P2"))
        engine.maintain()
        expected = evaluate_plan(view.plan, running_example_db).as_set()
        assert view.table.as_set() == expected

    def test_avg_values_exact(self, running_example_db):
        from repro.algebra import natural_join, where
        from repro.expr import lit

        joined = natural_join(
            scan(running_example_db, "parts"),
            scan(running_example_db, "devices_parts"),
        )
        plan = group_by(joined, ("did",), [("avg", col("price"), "mean")])
        engine = IdIvmEngine(running_example_db)
        view = engine.define_view("A", plan)
        assert view.table.as_set() == {("D1", 15.0), ("D2", 10.0)}
        engine.log.update("parts", ("P2",), {"price": 30})
        engine.maintain()
        assert view.table.as_set() == {("D1", 20.0), ("D2", 10.0)}
        engine.log.delete("devices_parts", ("D1", "P2"))
        engine.maintain()
        assert view.table.as_set() == {("D1", 10.0), ("D2", 10.0)}


class TestPricingErrors:
    """Every i-diff script is priced: a pricing error fails the
    definition that raised it, and nothing else."""

    @pytest.mark.parametrize("failing", [1, 2], ids=["requested", "candidate"])
    def test_a_pricing_error_fails_the_definition(
        self, running_example_db, monkeypatch, failing
    ):
        """The requested script is priced first, the cache-free
        candidate cost selection compares it with second."""
        import repro.analysis.cost as cost_mod

        db = running_example_db
        engine = IdIvmEngine(db)
        vp = engine.define_view("Vp", build_view_v_prime(db))
        real, calls = cost_mod.infer_script_cost, []

        def flaky(generated, db, *args, **kwargs):
            calls.append(generated)
            if len(calls) == failing:
                raise ZeroDivisionError("no statistics")
            return real(generated, db, *args, **kwargs)

        monkeypatch.setattr(cost_mod, "infer_script_cost", flaky)
        with pytest.raises(ZeroDivisionError):
            engine.define_view("V", unhosted(build_view_v(db)))
        assert len(calls) == failing
        assert list(engine.views) == ["Vp"]
        engine.log.update("parts", ("P1",), {"price": 11})
        report = engine.maintain()["Vp"]
        assert report.predicted_counts
        assert vp.table.as_set() == evaluate_plan(vp.plan, db).as_set()
