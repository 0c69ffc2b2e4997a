"""The ``repro top`` dashboard renderer and CLI plumbing."""

from __future__ import annotations

import json

from repro.analysis.cost import SCRIPT_PHASES
from repro.core.engine import MaintenanceReport
from repro.obs import metrics
from repro.obs.drift import DriftMonitor
from repro.obs.serve import build_snapshot
from repro.obs.top import render_dashboard
from repro.storage import AccessCounts


def _demo_snapshot():
    from repro.obs.live import DemoLoop

    with metrics.scoped() as registry:
        loop = DemoLoop(shards=2, users=60, updates=12)
        loop.run_round()
        loop.run_round()
        snapshot = build_snapshot(
            loop.engine, registry, rounds=loop.rounds_run
        )
    # the snapshot must survive a JSON round trip: that is exactly what
    # the --url mode receives from /snapshot
    return json.loads(json.dumps(snapshot)), loop


class TestRenderDashboard:
    def test_renders_all_views(self):
        snapshot, loop = _demo_snapshot()
        frame = render_dashboard(snapshot)
        for name in loop.view_names:
            assert name in frame
        assert "log position" in frame
        assert "round latency" in frame
        assert "shards:" in frame
        assert "pending" in frame

    def test_shows_round_count_and_position(self):
        snapshot, _loop = _demo_snapshot()
        frame = render_dashboard(snapshot)
        assert "rounds 2" in frame
        assert f"log position {snapshot['freshness']['log_position']}" in frame

    def test_header_shows_the_retained_log(self, running_example_db):
        from tests.test_serve import lagging_engine

        snapshot, _loop = _demo_snapshot()
        assert "retained 0" in render_dashboard(snapshot)
        engine = lagging_engine(running_example_db)
        assert "retained 3" in render_dashboard(build_snapshot(engine))

    def test_drift_alerts_section(self):
        snapshot, _loop = _demo_snapshot()
        if snapshot["drift"]["alerts"]:
            frame = render_dashboard(snapshot)
            assert "COST504 drift alerts" in frame

    def test_prestate_rebuilds_show_only_when_they_happened(self):
        snapshot, _loop = _demo_snapshot()
        assert "pre-state replica rebuilt" not in render_dashboard(snapshot)
        snapshot["metrics"]["engine.prestate_rebuilds"] = {"type": "counter", "value": 3}
        assert "pre-state replica rebuilt 3x" in render_dashboard(snapshot)

    def test_view_rollbacks_show_only_when_they_happened(self):
        snapshot, _loop = _demo_snapshot()
        assert "rolled back" not in render_dashboard(snapshot)
        snapshot["metrics"]["engine.view_rollbacks"] = {"type": "counter", "value": 2}
        assert "view-rounds rolled back 2x" in render_dashboard(snapshot)

    def test_statements_bound_from_another_view_show_with_their_lender(self):
        report = MaintenanceReport("Vagg", reused=[("d15_ins_n7", "V"), ("d16_ins_n5", "V")])

        class _Engine:
            last_reports = {"Vagg": report}

        snapshot = build_snapshot(_Engine())
        assert snapshot["views"]["Vagg"]["shared_from"] == {"V": 2}
        assert "\nVagg: 2 statements shared with V" in render_dashboard(snapshot)
        assert "shared with" not in render_dashboard(_demo_snapshot()[0])

    def test_drift_column_is_the_ewma_farthest_from_one(self):
        monitor = DriftMonitor()
        phase = SCRIPT_PHASES[-1]
        monitor.update_from_report(MaintenanceReport(
            "V",
            phase_counts={phase: AccessCounts(tuple_writes=90, tuple_reads=10)},
            predicted_counts={phase: {"tuple_writes": 100, "tuple_reads": 100}},
        ))
        frame = render_dashboard({"drift": monitor.snapshot()})
        (row,) = [line for line in frame.splitlines() if line.startswith("V ")]
        *_, drift, alerts = row.split()
        assert (drift, alerts) == (f"{monitor.ratio('V', 'tuple_reads'):.2f}", "-")

    def test_handles_empty_snapshot(self):
        frame = render_dashboard({"schema": "repro.obs.snapshot"})
        assert "repro top" in frame  # renders headers, no crash


class TestCli:
    def test_repro_top_once(self, capsys):
        from repro.cli import main

        code = main(
            [
                "top",
                "--once",
                "--no-clear",
                "--users",
                "50",
                "--updates",
                "10",
                "--views",
                "Q7",
                "Q15",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Q7" in out and "Q15" in out
        assert "repro top" in out

    def test_module_entrypoint_args(self):
        from repro.obs.top import main as top_main

        code = top_main(
            ["--once", "--no-clear", "--users", "50", "--updates", "10"]
        )
        assert code == 0

    def test_unknown_view_rejected(self):
        from repro.obs.live import DemoLoop
        import pytest

        with pytest.raises(ValueError, match="unknown BSMA views"):
            DemoLoop(views=["nope"])
