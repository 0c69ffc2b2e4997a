"""Tests for the 4-pass ∆-script generator (paper Section 4)."""

import pytest

from repro.core import ScriptGenerator, generate_base_schemas, has_mvd_risk
from repro.core.generator import CACHE_POLICIES
from repro.core.rules.aggregate import AssociativeAggregateStep, GeneralAggregateStep
from repro.core.script import (
    ApplyDiffStep,
    ComputeDiffStep,
    MarkCacheUpdatedStep,
)
from repro.algebra import (
    Join,
    equi_join,
    group_by,
    project_columns,
    rename,
    scan,
    where,
)
from repro.errors import RuleError
from repro.expr import col, lit
from tests.conftest import build_view_v, build_view_v_prime


def generate(db, plan, **kwargs):
    generator = ScriptGenerator("V", plan, **kwargs)
    return generator.generate(generate_base_schemas(generator.plan, db))


class TestCachePlacement:
    def test_aggregate_gets_intermediate_cache(self, running_example_db):
        generated = generate(running_example_db, build_view_v_prime(running_example_db))
        kinds = [spec.kind for spec in generated.cache_specs]
        assert kinds == ["intermediate"]

    def test_root_aggregate_uses_view_as_output(self, running_example_db):
        """Example 4.6: the view doubles as the output cache."""
        generated = generate(running_example_db, build_view_v_prime(running_example_db))
        assert all(s.kind != "output" for s in generated.cache_specs)

    def test_non_root_aggregate_gets_output_cache(self, running_example_db):
        agg = build_view_v_prime(running_example_db)
        plan = where(agg, col("cost").gt(lit(0)))
        generated = generate(running_example_db, plan)
        kinds = sorted(spec.kind for spec in generated.cache_specs)
        assert kinds == ["intermediate", "output"]

    def test_aggregate_over_scan_has_no_intermediate_cache(self, running_example_db):
        plan = group_by(
            scan(running_example_db, "parts"), ("pid",), [("sum", col("price"), "s")]
        )
        generated = generate(running_example_db, plan)
        assert generated.cache_specs == []

    def test_spj_view_has_no_caches(self, running_example_db):
        generated = generate(running_example_db, build_view_v(running_example_db))
        assert generated.cache_specs == []

    def test_opcache_per_aggregate(self, running_example_db):
        generated = generate(running_example_db, build_view_v_prime(running_example_db))
        assert len(generated.opcache_specs) == 1
        spec = generated.opcache_specs[0]
        assert "__n" in spec.columns
        assert "__cnt_cost" in spec.columns  # sum tracks non-null counts

    def test_mvd_risk_policies(self, running_example_db):
        from repro.core import annotate_plan

        parts = scan(running_example_db, "parts")
        devices = rename(
            scan(running_example_db, "devices"), {"did": "d", "category": "c"}
        )
        cross = annotate_plan(Join(parts, devices, None))
        assert has_mvd_risk(cross, "equi")
        assert has_mvd_risk(cross, "fk")
        # A non-key equi join: risky under fk, fine under equi.
        dp1 = scan(running_example_db, "devices_parts")
        dp2 = rename(
            scan(running_example_db, "devices_parts"), {"did": "d2", "pid": "p2"}
        )
        mn = annotate_plan(Join(dp1, dp2, col("did").eq(col("d2"))))
        assert not has_mvd_risk(mn, "equi")
        assert has_mvd_risk(mn, "fk")
        # Key-join chains are safe under both.
        keyed = annotate_plan(build_view_v_prime(running_example_db).child)
        assert not has_mvd_risk(keyed, "equi")
        assert not has_mvd_risk(keyed, "fk")
        with pytest.raises(RuleError):
            has_mvd_risk(keyed, "bogus")
        assert "bogus" not in CACHE_POLICIES


class TestScriptStructure:
    def test_figure7_script_shape(self, running_example_db):
        """The V' script has the Figure 7 structure: compute the cache
        diff, APPLY it with RETURNING, then the blocking γ-sum step
        maintains the view from the expansion."""
        generated = generate(running_example_db, build_view_v_prime(running_example_db))
        steps = generated.script.steps
        applies = [s for s in steps if isinstance(s, ApplyDiffStep)]
        assert applies, "expected cache APPLY steps"
        assert all(s.returning_name is not None for s in applies)
        marks = [s for s in steps if isinstance(s, MarkCacheUpdatedStep)]
        assert len(marks) == 1
        agg_steps = [s for s in steps if isinstance(s, AssociativeAggregateStep)]
        assert len(agg_steps) == 1
        assert all(kind == "expansion" for kind, _ in agg_steps[0].inputs)
        # The aggregate step comes after the cache is marked updated.
        assert steps.index(marks[0]) < steps.index(agg_steps[0])

    def test_apply_order_is_delete_update_insert(self, running_example_db):
        generated = generate(running_example_db, build_view_v(running_example_db))
        kinds = []
        by_name = {
            s.name: s.schema.kind
            for s in generated.script.steps
            if isinstance(s, ComputeDiffStep)
        }
        for step in generated.script.steps:
            if isinstance(step, ApplyDiffStep):
                kinds.append(by_name[step.diff_name])
        order = {"-": 0, "u": 1, "+": 2}
        assert kinds == sorted(kinds, key=order.__getitem__)

    def test_minmax_uses_general_step(self, running_example_db):
        plan = group_by(
            scan(running_example_db, "parts"),
            ("pid",),
            [("max", col("price"), "top")],
        )
        generated = generate(running_example_db, plan)
        assert any(
            isinstance(s, GeneralAggregateStep) for s in generated.script.steps
        )

    def test_script_describe_is_readable(self, running_example_db):
        generated = generate(running_example_db, build_view_v_prime(running_example_db))
        text = generated.script.describe()
        assert "APPLY" in text
        assert "γ" in text
        assert "RETURNING" in text

    def test_unoptimized_script_is_larger(self, running_example_db):
        from repro.core.minimize import estimate_probe_count

        def probe_total(optimize):
            generated = generate(
                running_example_db,
                build_view_v(running_example_db),
                optimize=optimize,
            )
            return sum(
                estimate_probe_count(s.ir)
                for s in generated.script.steps
                if isinstance(s, ComputeDiffStep)
            )

        assert probe_total(False) > probe_total(True)

    def test_base_schema_names_are_referenced(self, running_example_db):
        from repro.core import schema_instance_name
        from repro.core.ir import DiffSource

        generated = generate(running_example_db, build_view_v(running_example_db))
        names = {schema_instance_name(s) for s in generated.base_schemas}
        referenced = set()
        for step in generated.script.steps:
            if isinstance(step, ComputeDiffStep):
                referenced |= {
                    n.name for n in step.ir.walk() if isinstance(n, DiffSource)
                }
        # Every referenced base diff exists; updates on parts.price are
        # certainly used.
        assert referenced & names
        assert all(r in names or r.startswith("d") for r in referenced)


class TestMultipleAliases:
    def test_diff_propagates_through_every_alias(self, running_example_db):
        """Section 4, footnote 5: a table appearing under several aliases
        gets one branch per scan operator."""
        p1 = scan(running_example_db, "parts")
        p2 = scan(running_example_db, "parts", alias="p2")
        plan = project_columns(
            Join(p1, p2, col("price").lt(col("p2_price"))),
            ("pid", "p2_pid"),
        )
        generated = generate(running_example_db, plan)
        compute_targets = [
            s.name for s in generated.script.steps if isinstance(s, ComputeDiffStep)
        ]
        # Both alias branches produce steps (more than a single chain's
        # worth for the three diff kinds).
        assert len(compute_targets) >= 6
