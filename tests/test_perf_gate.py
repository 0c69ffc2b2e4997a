"""The perf-regression gate (:mod:`repro.bench.perfgate`).

The gate holds the benchmarks' access-count payloads to exact equality
against committed baselines and never compares wall-clock values; these
tests pin the red/green behaviour the CI job relies on.
"""

from __future__ import annotations

import copy
import json

from repro.bench.perfgate import compare_payloads, run_gate

PAYLOAD = {
    "schema": "repro.bench",
    "version": 1,
    "name": "example",
    "data": {
        "diff_size": 100,
        "systems": {
            "idIVM": {
                "accesses": {
                    "index_lookups": 100,
                    "tuple_reads": 0,
                    "tuple_writes": 197,
                },
                "wall_seconds": 0.5,
                "correct": True,
            }
        },
        "rows": [[5, 12.0], [10, 22.0]],
    },
}


def _fresh():
    return copy.deepcopy(PAYLOAD)


class TestComparePayloads:
    def test_identical_payload_passes(self):
        assert compare_payloads(PAYLOAD, _fresh()) == []

    def test_access_count_drift_is_a_violation(self):
        fresh = _fresh()
        fresh["data"]["systems"]["idIVM"]["accesses"]["tuple_writes"] = 240
        violations = compare_payloads(PAYLOAD, fresh)
        assert len(violations) == 1
        assert "tuple_writes" in violations[0]
        assert "197 -> 240" in violations[0]

    def test_improvement_is_also_a_drift(self):
        # Exact means exact: an unexplained improvement means the
        # baseline no longer describes the code and must be refreshed.
        fresh = _fresh()
        fresh["data"]["systems"]["idIVM"]["accesses"]["tuple_writes"] = 150
        assert compare_payloads(PAYLOAD, fresh)

    def test_wall_time_of_any_size_never_gates(self):
        fresh = _fresh()
        fresh["data"]["systems"]["idIVM"]["wall_seconds"] = 3600.0
        assert compare_payloads(PAYLOAD, fresh) == []

    def test_wall_time_speedup_never_fails(self):
        fresh = _fresh()
        fresh["data"]["systems"]["idIVM"]["wall_seconds"] = 0.001
        assert compare_payloads(PAYLOAD, fresh) == []

    def test_tiny_wall_times_never_gate(self):
        assert compare_payloads({"wall_seconds": 0.0001}, {"wall_seconds": 0.145}) == []

    def test_missing_wall_time_is_a_violation(self):
        fresh = _fresh()
        del fresh["data"]["systems"]["idIVM"]["wall_seconds"]
        violations = compare_payloads(PAYLOAD, fresh)
        assert len(violations) == 1
        assert "wall_seconds: missing from fresh" in violations[0]

    def test_missing_metric_is_a_violation(self):
        fresh = _fresh()
        del fresh["data"]["systems"]["idIVM"]["accesses"]["tuple_reads"]
        violations = compare_payloads(PAYLOAD, fresh)
        assert any("missing from fresh" in v for v in violations)

    def test_extra_metric_is_a_violation(self):
        fresh = _fresh()
        fresh["data"]["systems"]["idIVM"]["accesses"]["spills"] = 3
        violations = compare_payloads(PAYLOAD, fresh)
        assert any("not in baseline" in v for v in violations)

    def test_list_length_change_is_a_violation(self):
        fresh = _fresh()
        fresh["data"]["rows"].append([20, 42.0])
        assert any("length" in v for v in compare_payloads(PAYLOAD, fresh))

    def test_nested_list_numbers_compare_exactly(self):
        fresh = _fresh()
        fresh["data"]["rows"][1][1] = 23.0
        assert compare_payloads(PAYLOAD, fresh)

    def test_bool_flip_is_a_violation(self):
        fresh = _fresh()
        fresh["data"]["systems"]["idIVM"]["correct"] = False
        assert compare_payloads(PAYLOAD, fresh)


class TestRunGate:
    def test_missing_baseline_is_a_violation(self, tmp_path):
        violations = run_gate("example", _fresh(), tmp_path)
        assert len(violations) == 1
        assert "no committed baseline" in violations[0]

    def test_green_against_committed_baseline(self, tmp_path):
        (tmp_path / "BENCH_example.json").write_text(json.dumps(PAYLOAD))
        assert run_gate("example", _fresh(), tmp_path) == []

    def test_red_on_injected_regression(self, tmp_path):
        (tmp_path / "BENCH_example.json").write_text(json.dumps(PAYLOAD))
        fresh = _fresh()
        fresh["data"]["systems"]["idIVM"]["accesses"]["index_lookups"] = 130
        violations = run_gate("example", fresh, tmp_path)
        assert violations and "index_lookups" in violations[0]


class TestCommittedBaselines:
    def test_gated_benchmarks_have_baselines(self):
        """Every module in the Makefile's PERF_GATE_BENCHES list has a
        committed reference payload (speedup_model writes two)."""
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        baselines = {p.name for p in (root / "benchmarks/baselines").glob("*.json")}
        for name in (
            "table2_spj_costs",
            "table3_agg_costs",
            "speedup_model_spj",
            "speedup_model_agg",
            "eager_vs_deferred",
            "minimization",
        ):
            assert f"BENCH_{name}.json" in baselines, name

    def test_baseline_envelopes_are_wellformed(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        for path in (root / "benchmarks/baselines").glob("BENCH_*.json"):
            payload = json.loads(path.read_text())
            assert payload["schema"] == "repro.bench", path.name
            assert path.name == f"BENCH_{payload['name']}.json"


class TestEnvelopeVolatileKeys:
    """provenance/metrics blocks never gate; seconds-histograms gate on
    their observation count only."""

    def test_provenance_and_metrics_are_skipped(self):
        fresh = _fresh()
        fresh["provenance"] = {"git_sha": "abc123", "timestamp": "now"}
        fresh["metrics"] = {"engine.round_seconds": {"type": "loghist"}}
        assert compare_payloads(PAYLOAD, fresh) == []

    def test_missing_provenance_in_fresh_is_fine_too(self):
        baseline = _fresh()
        baseline["provenance"] = {"git_sha": "old"}
        assert compare_payloads(baseline, _fresh()) == []

    def test_volatile_names_still_gate_below_top_level(self):
        baseline = _fresh()
        baseline["data"]["metrics"] = {"x": 1}
        fresh = _fresh()
        fresh["data"]["metrics"] = {"x": 2}
        assert compare_payloads(baseline, fresh)

    @staticmethod
    def _wall_hist(p95=0.02, count=4):
        return {
            "type": "loghist",
            "unit": "seconds",
            "count": count,
            "sum": 0.05,
            "min": 0.005,
            "max": 0.03,
            "mean": 0.0125,
            "zero_count": 0,
            "buckets": {"8": 2, "9": 2},
            "p50": 0.01,
            "p95": p95,
            "p99": p95,
        }

    def test_seconds_histogram_values_never_gate(self):
        baseline, fresh = _fresh(), _fresh()
        baseline["data"]["round_seconds"] = self._wall_hist(p95=0.2)
        fresh["data"]["round_seconds"] = self._wall_hist(p95=90.0)
        fresh["data"]["round_seconds"]["buckets"] = {"10": 4}
        assert compare_payloads(baseline, fresh) == []

    def test_seconds_histogram_count_is_exact(self):
        # the observation count is a workload fact (rounds run), held
        # exactly even though the values are wall clock
        baseline, fresh = _fresh(), _fresh()
        baseline["data"]["round_seconds"] = self._wall_hist(count=4)
        fresh["data"]["round_seconds"] = self._wall_hist(count=5)
        violations = compare_payloads(baseline, fresh)
        assert any(".count" in v for v in violations)

    def test_rows_histograms_still_compare_exactly(self):
        baseline, fresh = _fresh(), _fresh()
        hist = self._wall_hist()
        hist["unit"] = "rows"
        baseline["data"]["fold_rows"] = copy.deepcopy(hist)
        fresh["data"]["fold_rows"] = copy.deepcopy(hist)
        fresh["data"]["fold_rows"]["buckets"] = {"10": 4}
        assert compare_payloads(baseline, fresh)
