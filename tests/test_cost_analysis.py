"""The symbolic cost-inference pass (:mod:`repro.analysis.cost`).

Covers the walker end-to-end (model inference over generated
∆-scripts), the predicted-vs-measured reconciliation policy (COST503),
the engine/sharded wiring of ``predicted_counts``, the COST501/502
minimality lints, the chain-parameter extraction used by the
benchmarks, and the crosscheck runner's cost leg.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis import analyze_generated
from repro.analysis.cost import (
    SCRIPT_PHASES,
    CostDeviation,
    estimate_chain_parameters,
    infer_script_cost,
    reconcile_counts,
    reconcile_report,
)
from repro.core import IdIvmEngine
from repro.core.sharded import ShardedEngine
from repro.costmodel import ScriptCostModel
from repro.workloads import (
    DevicesConfig,
    apply_price_updates,
    build_aggregate_view,
    build_devices_database,
    build_flat_view,
)

CONFIG = DevicesConfig(n_parts=60, n_devices=60, diff_size=6, fanout=3)


def _define(engine_cls=IdIvmEngine, build_view=build_flat_view, **kwargs):
    db = build_devices_database(CONFIG)
    engine = engine_cls(db, **kwargs)
    view = engine.define_view("V", build_view(db, CONFIG))
    return db, engine, view


class TestInference:
    def test_flat_view_yields_a_model(self):
        _db, _engine, view = _define()
        assert isinstance(view.cost_model, ScriptCostModel)
        prediction = view.cost_model.predict_from_diff_sizes({"Du": 6})
        assert set(prediction) <= set(SCRIPT_PHASES)
        assert prediction["view_update"]["index_lookups"] > 0

    def test_aggregate_view_yields_a_model(self):
        _db, _engine, view = _define(build_view=build_aggregate_view)
        prediction = view.cost_model.predict_from_diff_sizes({"Du": 6})
        assert "cache_update" in prediction
        assert prediction["cache_update"]["total"] > 0

    def test_infer_script_cost_is_pure(self):
        """Inference only reads statistics — it never mutates the view
        or pollutes the maintenance counters (define_view resets)."""
        db, engine, view = _define()
        assert all(c.total == 0 for c in db.counters.snapshot().values())
        model = infer_script_cost(view.generated, db)
        assert model.render()  # human-readable form exists

    def test_symbols_resolve_to_numbers(self):
        db, _engine, view = _define()
        prediction = view.cost_model.predict_from_diff_sizes({"Du": 4})
        for phase, metrics in prediction.items():
            for metric, value in metrics.items():
                assert isinstance(value, float), (phase, metric)
                assert value >= 0.0

    def test_prediction_is_the_read_only_memo(self):
        """``predict_from_diff_sizes`` equals a fresh ``predict()`` of the
        same sizes, given in any key order, and serves its memo: the
        same read-only mappings, which refuse mutation."""
        _db, _engine, view = _define(build_view=build_aggregate_view)
        model = view.cost_model
        sizes = dict.fromkeys(view.generated.script.leaves(), 0)
        sizes.update({"Du": 6, "Dc": 2})
        fresh = model.predict({f"card[{n}]": float(k) for n, k in sizes.items()})
        forward = model.predict_from_diff_sizes(sizes)
        backward = model.predict_from_diff_sizes(dict(reversed(sizes.items())))
        for served in (forward, backward):
            assert {phase: dict(counts) for phase, counts in served.items()} == fresh
        assert model.predict_from_diff_sizes(dict(sizes)) is forward
        with pytest.raises(TypeError):
            forward["view_update"] = {}  # type: ignore[index]
        with pytest.raises(TypeError):
            forward["cache_update"]["total"] = 0.0  # type: ignore[index]
        pickle.loads(pickle.dumps(model))  # the memo does not travel


class TestReconciliation:
    def test_engine_report_reconciles(self):
        _db, engine, _view = _define()
        apply_price_updates(engine, engine.db, CONFIG)
        report = engine.maintain()["V"]
        assert report.predicted_counts is not None
        assert reconcile_report(report) == []

    def test_spj_update_lookups_are_exact(self):
        """Acceptance pin: index lookups on SPJ update rounds reconcile
        exactly, not just within tolerance."""
        _db, engine, _view = _define()
        apply_price_updates(engine, engine.db, CONFIG)
        report = engine.maintain()["V"]
        measured = report.phase_counts["view_update"].index_lookups
        predicted = report.predicted_counts["view_update"]["index_lookups"]
        assert float(measured) == predicted

    def test_aggregate_report_reconciles(self):
        _db, engine, _view = _define(build_view=build_aggregate_view)
        apply_price_updates(engine, engine.db, CONFIG)
        report = engine.maintain()["V"]
        assert reconcile_report(report) == []

    def test_sharded_reports_carry_predictions(self):
        for shards in (1, 2):
            _db, engine, _view = _define(ShardedEngine, shards=shards)
            apply_price_updates(engine, engine.db, CONFIG)
            report = engine.maintain()["V"]
            assert report.predicted_counts is not None
            assert reconcile_report(report) == []

    def test_reconcile_is_one_sided(self):
        predicted = {"view_update": {"index_lookups": 100.0}}
        under = {"view_update": {"index_lookups": 10.0}}
        assert reconcile_counts(predicted, under) == []

    def test_reconcile_flags_unexplained_work(self):
        predicted = {"view_update": {"index_lookups": 10.0}}
        measured = {"view_update": {"index_lookups": 100.0}}
        deviations = reconcile_counts(predicted, measured)
        assert len(deviations) == 1
        dev = deviations[0]
        assert isinstance(dev, CostDeviation)
        assert (dev.phase, dev.metric) == ("view_update", "index_lookups")
        assert "measured 100" in dev.render()

    def test_tolerance_band_absorbs_noise(self):
        predicted = {"view_update": {"index_lookups": 100.0}}
        measured = {"view_update": {"index_lookups": 120.0}}  # within 25%+4
        assert reconcile_counts(predicted, measured) == []

    def test_non_script_phases_are_ignored(self):
        predicted: dict = {}
        measured = {"populate": {"index_lookups": 9999.0}}
        assert reconcile_counts(predicted, measured) == []

    def test_injected_regression_raises_cost503(self):
        """Doctoring the measured counters past tolerance must produce a
        COST503 diagnostic through the analysis-report path."""
        from repro.analysis.cost import cost_diagnostics
        from repro.analysis.diagnostics import AnalysisReport

        _db, engine, _view = _define()
        apply_price_updates(engine, engine.db, CONFIG)
        report = engine.maintain()["V"]
        report.phase_counts["view_update"].index_lookups += 10_000
        analysis = AnalysisReport()
        deviations = cost_diagnostics(report, analysis)
        assert deviations
        assert any(d.rule_id == "COST503" for d in analysis.diagnostics)


class TestMinimalityLints:
    def test_devices_views_are_minimal(self):
        db = build_devices_database(CONFIG)
        engine = IdIvmEngine(db)
        view = engine.define_view("V", build_flat_view(db, CONFIG))
        report = analyze_generated(view.generated, db=db)
        assert not [
            d for d in report.diagnostics
            if d.rule_id in ("COST501", "COST502")
        ]

    def test_rewriter_never_ships_a_costlier_script(self):
        """COST501 regression (Q7): the shipped script used to trip the
        minimality lint against generator alternatives.  The comparison
        is per diff family (see dominated_by): an alternative that wins
        the summed working point by saving on families the workload may
        never produce, while losing on another, is not an improvement —
        the minimizer is strictly better on measured update rounds (see
        bench_fig10_bsma).  No alternative may dominate the shipped
        script."""
        from repro.analysis.cost import dominated_by
        from repro.core.generator import ScriptGenerator
        from repro.core.modlog import schema_instance_name
        from repro.core.schema_gen import generate_base_schemas
        from repro.workloads import BsmaConfig, build_bsma_database
        from repro.workloads.bsma import BSMA_QUERIES

        config = BsmaConfig(n_users=150)
        engine = IdIvmEngine(build_bsma_database(config))
        view = engine.define_view("Q7", BSMA_QUERIES["Q7"](engine.db, config))
        shipped = infer_script_cost(view.generated, engine.db)
        # Pin the chosen cost: seeded workload, deterministic inference.
        assert shipped.total() == pytest.approx(3197.62, abs=0.5)
        families = [
            schema_instance_name(s) for s in view.generated.base_schemas
        ]
        for optimize in (True, False):
            for policy in ("equi", "never"):
                alt = ScriptGenerator(
                    "Q7",
                    BSMA_QUERIES["Q7"](engine.db, config),
                    optimize=optimize,
                    cache_policy=policy,
                )
                generated = alt.generate(
                    generate_base_schemas(alt.plan, engine.db)
                )
                alt_model = infer_script_cost(generated, engine.db)
                assert not dominated_by(shipped, alt_model, families), (
                    optimize,
                    policy,
                )

    def test_cache_benefit_priced_consistently_at_define_time(self):
        """COST502 regression (Q7/Q10/Q11/Q18): the cached pipeline used
        to price above its no-cache alternative because the RETURNING
        cardinality was read off the cache's *contents* (a per-present-
        value fanout) while the no-cache variant derived it structurally
        — the cached variant inherited inflated cardinalities in every
        downstream statement, and cost selection dropped Q10's
        measured-beneficial cache (bench_fig10_bsma's Q10 speedup fell
        below the Q15 floor).  Cardinality must not depend on cache
        placement: the shipped scripts keep their intermediate caches
        and the lint stays quiet."""
        from repro.analysis.cost import dominated_by
        from repro.core.modlog import schema_instance_name
        from repro.workloads import BsmaConfig, build_bsma_database
        from repro.workloads.bsma import BSMA_QUERIES

        config = BsmaConfig(n_users=150)
        engine = IdIvmEngine(build_bsma_database(config))
        for name in ("Q7", "Q10", "Q11", "Q18"):
            view = engine.define_view(
                name, BSMA_QUERIES[name](engine.db, config)
            )
            kinds = {c.kind for c in view.generated.cache_specs}
            assert "intermediate" in kinds, name
            shipped = analyze_generated(view.generated, db=engine.db)
            assert not [
                d for d in shipped.diagnostics
                if d.rule_id in ("COST501", "COST502")
            ], name
        # The estimator consistency itself: the no-cache variant of Q10
        # must not dominate the cached one — the cache probe replaces a
        # multi-join recompute in the update family.
        view = engine.views["Q10"]
        model = infer_script_cost(view.generated, engine.db)
        from repro.core.generator import ScriptGenerator

        alt = ScriptGenerator(
            "Q10", BSMA_QUERIES["Q10"](engine.db, config), cache_policy="never"
        )
        generated = alt.generate(list(view.generated.base_schemas))
        alt_model = infer_script_cost(generated, engine.db)
        families = [
            schema_instance_name(s) for s in view.generated.base_schemas
        ]
        assert not dominated_by(model, alt_model, families)
        assert model.total() < alt_model.total()

    def test_dominated_by_requires_per_family_no_regression(self):
        """A candidate cheaper in total but costlier in one family does
        not dominate; one cheaper-or-equal everywhere does."""
        from repro.analysis.cost import dominated_by
        from repro.costmodel.symbolic import (
            CostExpr,
            ScriptCostModel,
            card_symbol,
            lookups,
        )

        def model(costs: dict[str, float]) -> ScriptCostModel:
            m = ScriptCostModel("V")
            for fam, per_row in costs.items():
                m.estimate(card_symbol(fam), 16.0)
                m.add(
                    f"probe {fam}",
                    "view_update",
                    lookups(CostExpr.var(card_symbol(fam)) * per_row),
                )
            return m

        fams = ["base_ins_t", "base_u_t"]
        current = model({"base_ins_t": 10.0, "base_u_t": 2.0})
        cheaper_total_worse_family = model(
            {"base_ins_t": 1.0, "base_u_t": 8.0}
        )
        assert not dominated_by(current, cheaper_total_worse_family, fams)
        cheaper_everywhere = model({"base_ins_t": 5.0, "base_u_t": 1.0})
        assert dominated_by(current, cheaper_everywhere, fams)
        # Strictly worse candidates never dominate.
        assert not dominated_by(current, model({"base_ins_t": 20.0, "base_u_t": 4.0}), fams)

    def test_cost_pass_is_registered(self):
        from repro.analysis import pass_names

        assert "cost" in pass_names()

    def test_rules_exist(self):
        from repro.analysis.diagnostics import RULES

        for rule_id in ("COST501", "COST502", "COST503"):
            assert rule_id in RULES, rule_id


class TestChainParameters:
    def test_paper_configuration_agreement(self):
        """Satellite pin: the symbolic (a, p, g) path agrees with the
        measured path on the paper's devices configuration."""
        config = DevicesConfig(
            n_parts=200, n_devices=200, diff_size=20, fanout=10
        )
        db = build_devices_database(config)
        profile = estimate_chain_parameters(
            build_flat_view(db, config), db, "parts"
        )
        assert profile.g == 1.0
        engine = IdIvmEngine(build_devices_database(config))
        engine.define_view("V", build_flat_view(engine.db, config))
        apply_price_updates(engine, engine.db, config)
        report = engine.maintain()["V"]
        touched = sum(
            c.tuple_writes for ph, c in report.phase_counts.items()
            if ph != "__total__"
        )
        p_measured = touched / config.diff_size
        assert abs(profile.p - p_measured) / p_measured < 0.10

    def test_aggregate_profile_has_grouping_factor(self):
        db = build_devices_database(CONFIG)
        profile = estimate_chain_parameters(
            build_aggregate_view(db, CONFIG), db, "parts"
        )
        assert 0.0 < profile.g <= 1.0
        assert profile.fanouts  # climbed through at least one join

    def test_unknown_table_is_an_error(self):
        from repro.analysis.cost import CostInferenceError

        db = build_devices_database(CONFIG)
        with pytest.raises(CostInferenceError):
            estimate_chain_parameters(build_flat_view(db, CONFIG), db, "nope")


class TestCrosscheckCostLeg:
    def test_tolerance_deviation_is_informational(self):
        from repro.crosscheck.runner import _reconcile_cost

        class FakeReport:
            predicted_counts = {"view_update": {"index_lookups": 100.0}}
            phase_counts: dict = {}

        report = FakeReport()
        from repro.storage import AccessCounts

        counts = AccessCounts()
        counts.index_lookups = 140  # past tolerance, below the hard bar
        report.phase_counts = {"view_update": counts}
        sink: list = []
        divergence = _reconcile_cost(report, "minimized", 0, sink)
        assert divergence is None
        assert sink and "COST503" in sink[0]

    def test_egregious_excess_is_a_divergence(self):
        from repro.crosscheck.runner import _reconcile_cost
        from repro.storage import AccessCounts

        class FakeReport:
            predicted_counts = {"view_update": {"index_lookups": 100.0}}
            phase_counts: dict = {}

        report = FakeReport()
        counts = AccessCounts()
        counts.index_lookups = 100_000
        report.phase_counts = {"view_update": counts}
        divergence = _reconcile_cost(report, "minimized", 2, None)
        assert divergence is not None
        assert divergence.kind == "cost"
        assert divergence.batch == 2


class TestCli:
    def test_lint_cost_reconciles_all_views(self, capsys):
        from repro.cli import main

        assert main(["lint", "--cost"]) == 0
        out = capsys.readouterr().out
        assert "devices/flat" in out
        assert "bsma/" in out
        assert "reconciled" in out

    def test_lint_cost_rounds_update_distinct_keys(self):
        """Each seeded ``lint --cost`` round of a devices target logs its
        own key set: the reconciliation and the drift EWMA see distinct
        batches, not one batch again and again."""
        from repro.cli import _LINT_DRIFT_ROUNDS, cost_targets

        class Recorder:
            def __init__(self):
                self.log = self
                self.keys = set()

            def update(self, table, key, changes):
                self.keys.add((table, key))

        devices = [t for t in cost_targets() if t[0].startswith("devices/")]
        assert len(devices) == 2
        for label, make_db, _, log_updates in devices:
            db = make_db()
            rounds = []
            for round_seed in range(_LINT_DRIFT_ROUNDS):
                recorder = Recorder()
                log_updates(recorder, db, round_seed=round_seed)
                rounds.append(frozenset(recorder.keys))
            assert len(set(rounds)) == _LINT_DRIFT_ROUNDS, label

    def test_lint_shipped_views_free_of_minimality_warnings(self, capsys):
        """Acceptance pin: with the generator consulting the cost model,
        ``repro lint --cost`` raises no COST501/COST502 on any shipped
        view (the historical Q7/Q10/Q11/Q18 findings are fixed)."""
        from repro.cli import main

        assert main(["lint", "--cost"]) == 0
        out = capsys.readouterr().out
        assert "COST501" not in out
        assert "COST502" not in out

    def test_lint_rule_filter(self, capsys):
        from repro.cli import main

        code = main(["lint", "--rule", "COST502"])
        out = capsys.readouterr().out
        assert code == 0  # warnings only
        assert "COST501" not in out

    def test_lint_unknown_rule_rejected(self, capsys):
        from repro.cli import main

        assert main(["lint", "--rule", "BOGUS1"]) == 2
        assert "unknown rule" in capsys.readouterr().err
        # A JSON consumer gets no stray line; RACE601 left with its pass.
        assert main(["lint", "--json", "--rule", "RACE601"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "RACE601" in captured.err

    def test_lint_min_severity_error_silences_warnings(self, capsys):
        from repro.cli import main

        assert main(["lint", "--min-severity", "error"]) == 0
        assert "COST5" not in capsys.readouterr().out

    def test_explain_cost_renders_model(self, capsys):
        from repro.cli import main

        sql = "SELECT pid, price FROM parts WHERE price > 15"
        assert main(["explain", "--sql", sql, "--cost"]) == 0
        out = capsys.readouterr().out
        assert "symbolic cost model" in out
        assert "card[" in out

    def test_explain_analyze_cost_reconciles_demo(self, capsys):
        from repro.cli import main

        sql = "SELECT pid, price FROM parts WHERE price > 15"
        assert main(["explain", "--sql", sql, "--analyze", "--cost"]) == 0
        out = capsys.readouterr().out
        assert "predicted vs measured" in out
        assert "reconciliation: all phases within tolerance" in out
        assert "Input_pre: replica rolled forward by the log (0 rebuilds)" in out
        assert "view-rounds rolled back after a failure: 0 (engine.view_rollbacks)" in out
