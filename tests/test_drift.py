"""DriftMonitor: EWMA mechanics, engine wiring, COST504 diagnostics."""

from __future__ import annotations

import pytest

from repro.analysis import AnalysisReport
from repro.analysis.cost import SCRIPT_PHASES, drift_diagnostics
from repro.core import IdIvmEngine
from repro.core.engine import MaintenanceReport
from repro.obs import drift as drift_mod
from repro.obs.drift import DriftMonitor
from repro.obs.serve import render_prometheus
from repro.workloads import BsmaConfig, build_bsma_database, log_user_updates
from repro.storage import AccessCounts
from repro.workloads.bsma import BSMA_QUERIES

PHASE = SCRIPT_PHASES[-1]  # any single phase works for unit tests


def _feed(monitor, view, predicted, observed, rounds):
    for _ in range(rounds):
        monitor.update_from_report(MaintenanceReport(
            view,
            phase_counts={PHASE: AccessCounts(tuple_writes=observed)},
            predicted_counts={PHASE: {"tuple_writes": predicted}},
        ))


class TestDriftMonitor:
    def test_calibrated_model_never_alerts(self):
        monitor = DriftMonitor()
        _feed(monitor, "V", predicted=100, observed=100, rounds=10)
        assert monitor.alerts() == []
        assert monitor.ratio("V", "tuple_writes") == pytest.approx(1.0, rel=0.02)

    def test_over_prediction_alerts_after_min_rounds(self, monkeypatch):
        monkeypatch.setattr(drift_mod, "MIN_ROUNDS", 3)
        monitor = DriftMonitor()
        _feed(monitor, "V", predicted=100, observed=20, rounds=2)
        assert monitor.alerts() == []  # not enough evidence yet
        _feed(monitor, "V", predicted=100, observed=20, rounds=1)
        alerts = monitor.alerts()
        assert len(alerts) == 1
        assert alerts[0].kind == "over_predicted"
        assert alerts[0].view == "V"
        assert "over-predicts" in alerts[0].render()

    def test_under_prediction_alerts(self, monkeypatch):
        monkeypatch.setattr(drift_mod, "MIN_ROUNDS", 3)
        monitor = DriftMonitor()
        _feed(monitor, "V", predicted=50, observed=200, rounds=4)
        alerts = monitor.alerts()
        assert len(alerts) == 1
        assert alerts[0].kind == "under_predicted"

    def test_small_volumes_are_ignored(self, monkeypatch):
        monkeypatch.setattr(drift_mod, "MIN_VOLUME", 8.0)
        monitor = DriftMonitor()
        _feed(monitor, "V", predicted=2, observed=0, rounds=10)
        assert monitor.states() == []
        assert monitor.alerts() == []
        monkeypatch.setattr(drift_mod, "MIN_VOLUME", 2.0)
        _feed(monitor, "V", predicted=2, observed=0, rounds=1)
        assert [s.rounds for s in monitor.states()] == [1]

    def test_ewma_converges_to_new_regime(self, monkeypatch):
        monkeypatch.setattr(drift_mod, "ALPHA", 0.5)
        monitor = DriftMonitor()
        _feed(monitor, "V", predicted=100, observed=100, rounds=5)
        _feed(monitor, "V", predicted=100, observed=25, rounds=12)
        assert monitor.ratio("V", "tuple_writes") < 0.3

    def test_snapshot_is_json_shaped(self, monkeypatch):
        import json

        monkeypatch.setattr(drift_mod, "MIN_ROUNDS", 1)
        monitor = DriftMonitor()
        _feed(monitor, "V", predicted=100, observed=10, rounds=2)
        snap = monitor.snapshot()
        json.dumps(snap)  # must not raise
        assert "V" in snap["views"]
        assert snap["alerts"]
        assert snap["thresholds"] == {
            "low": 0.8, "high": 1.25, "alpha": 0.3, "min_rounds": 1, "min_volume": 8.0,
        }


#: Seeded BSMA run shared by the acceptance tests below: fast, and big
#: enough that every cache-carrying view shows its true drift signature.
_CONFIG = BsmaConfig(n_users=200, friends_per_user=6, n_tweets=600)
_ROUNDS, _UPDATES = 4, 30


def _run_seeded_engine() -> IdIvmEngine:
    # cost_select=False: these tests pin the *dynamic* drift signature
    # of the shipped scripts themselves, independent of whatever the
    # define-time candidate selection would decide.
    db = build_bsma_database(_CONFIG)
    engine = IdIvmEngine(db, cost_select=False)
    for name, build in BSMA_QUERIES.items():
        engine.define_view(name, build(db, _CONFIG))
    for round_seed in range(_ROUNDS):
        log_user_updates(engine, db, _CONFIG, _UPDATES, round_seed=round_seed)
        engine.maintain()
    return engine


class TestEngineDrift:
    def test_over_predicting_views_surface_as_drift_alerts(self):
        """Views whose models still over-predict under the user-update
        workload (phantom diff families maintaining their caches) show
        up dynamically, while the calibrated Q*1 and Q10 stay within
        thresholds — Q10's model tracks its measured writes since the
        cache-independent cardinality fix (its ratio used to sit far
        below the low-water mark)."""
        engine = _run_seeded_engine()
        alerting = {alert.view for alert in engine.drift.alerts()}
        assert {"Q7", "Q11", "Q18"} <= alerting
        assert "Q*1" not in alerting
        assert "Q10" not in alerting
        for view in ("Q7", "Q11", "Q18"):
            ratio = engine.drift.ratio(view, "tuple_writes")
            assert ratio is not None and ratio < drift_mod.LOW
        q10 = engine.drift.ratio("Q10", "tuple_writes")
        assert q10 is not None and q10 >= drift_mod.LOW

    def test_drift_diagnostics_emit_cost504(self):
        engine = _run_seeded_engine()
        analysis = AnalysisReport()
        alerts = drift_diagnostics(engine.drift, analysis)
        assert alerts
        cost504 = [d for d in analysis.diagnostics if d.rule_id == "COST504"]
        assert cost504
        assert all(d.severity == "info" for d in cost504)
        locations = {d.location for d in cost504}
        for view in ("Q7", "Q11", "Q18"):
            assert f"view:{view}" in locations
        # informational: never counts as an error or warning
        assert not analysis.has_errors()
        assert analysis.warnings == []

    def test_maintenance_reports_carry_predictions(self):
        engine = _run_seeded_engine()
        report = engine.last_reports["Q7"]
        assert report.predicted_counts is not None
        assert any(
            phase in report.predicted_counts for phase in SCRIPT_PHASES
        )

    def test_drift_ewmas_are_exported(self, _scoped_metrics):
        # /metrics reads every EWMA off the monitor when scraped; rounds
        # store no per-view drift gauge in the registry.
        engine = _run_seeded_engine()
        text = render_prometheus(_scoped_metrics, engine=engine)
        (line,) = [
            line for line in text.splitlines()
            if line.startswith('repro_drift_ewma{metric="tuple_writes",view="Q7"} ')
        ]
        assert float(line.split()[-1]) == engine.drift.ratio("Q7", "tuple_writes") < 1.0
        assert not [name for name in _scoped_metrics.names() if name.startswith("drift.")]
