"""Catalog-scale analysis: the deterministic catalog, the SHARE7xx
sharing pass, the incremental analysis cache, and `repro lint --catalog`.

The load-bearing claims:

* the catalog is a pure function of its config — twin builds agree on
  every label and every exact fingerprint;
* the sharing pass flags exactly the seeded overlap (and stays quiet on
  disjoint views), and its SHARE701 price reconciles with a *measured*
  twin-engine maintenance round under the COST503 tolerance policy;
* the cache replays byte-identical reports warm and survives
  corruption and version bumps by going cold (never by lying).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    AnalysisCache,
    analyze_catalog,
    entry_from_report,
    plan_fingerprint,
    view_facts,
)
from repro.analysis.cost import SCRIPT_PHASES, reconcile_counts
from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.sharing import _cache_step_labels, facts_from_json, facts_to_json
from repro.catalog import (
    CatalogConfig,
    build_catalog_database,
    catalog_views,
)
from repro.cli import main
from repro.core import IdIvmEngine
from repro.core.script import PHASE_CACHE_DIFF, PHASE_CACHE_UPDATE
from repro.costmodel import diff_sizes_env

SMALL = CatalogConfig(
    n_views=24, n_overlap_groups=3, group_size=3, n_duplicates=2, n_subsumed=2
)


def _generate(db, label, plan):
    from repro.analysis.cost import PlanStats, define_script

    return define_script(label, plan, PlanStats(db))


# ----------------------------------------------------------------------
# the catalog generator
# ----------------------------------------------------------------------
class TestCatalog:
    def test_twin_builds_are_identical(self):
        config = CatalogConfig(n_views=60)
        snapshots = []
        for _ in range(2):
            db = build_catalog_database(config)
            snapshots.append(
                [
                    (label, plan_fingerprint(plan, db, alpha=False))
                    for label, plan in catalog_views(db, config)
                ]
            )
        assert snapshots[0] == snapshots[1]

    def test_labels_are_unique_and_count_respected(self):
        db = build_catalog_database(SMALL)
        views = catalog_views(db, SMALL)
        labels = [label for label, _ in views]
        assert len(views) == SMALL.n_views
        assert len(set(labels)) == len(labels)

    def test_fillers_are_pairwise_distinct(self):
        config = CatalogConfig(
            n_views=40, n_overlap_groups=1, group_size=1,
            n_duplicates=0, n_subsumed=0,
        )
        db = build_catalog_database(config)
        fillers = [
            plan_fingerprint(plan, db)
            for label, plan in catalog_views(db, config)
            if label.startswith("fl")
        ]
        assert len(set(fillers)) == len(fillers)


# ----------------------------------------------------------------------
# the sharing pass
# ----------------------------------------------------------------------
def _small_facts():
    db = build_catalog_database(SMALL)
    facts = []
    for label, plan in catalog_views(db, SMALL):
        facts.append(view_facts(label, _generate(db, label, plan), db))
    return facts


@pytest.fixture(scope="module")
def small_facts():
    return _small_facts()


class TestSharingPass:
    def test_share701_prices_the_seeded_overlap(self, small_facts):
        report = analyze_catalog(small_facts)
        share701 = [d for d in report.diagnostics if d.rule_id == "SHARE701"]
        # one finding per overlap group, each naming every group member
        assert len(share701) == SMALL.n_overlap_groups
        priced = [d for d in share701 if "accesses/round" in d.message]
        assert priced, "no SHARE701 finding carries a cost-model price"
        assert any("g000_m0" in d.message for d in share701)

    def test_share702_flags_duplicates(self, small_facts):
        report = analyze_catalog(small_facts)
        share702 = [d for d in report.diagnostics if d.rule_id == "SHARE702"]
        assert len(share702) == SMALL.n_duplicates
        assert any("dup000" in d.message for d in share702)

    def test_share703_flags_subsumed_views(self, small_facts):
        report = analyze_catalog(small_facts)
        share703 = [d for d in report.diagnostics if d.rule_id == "SHARE703"]
        flagged = {d.location for d in share703}
        assert {"sub000", "sub001"} <= flagged

    def test_everything_is_informational(self, small_facts):
        report = analyze_catalog(small_facts)
        assert not report.errors and not report.warnings

    def test_quiet_on_disjoint_views(self):
        config = CatalogConfig(
            n_views=8, n_overlap_groups=1, group_size=1,
            n_duplicates=0, n_subsumed=0,
        )
        db = build_catalog_database(config)
        facts = [
            view_facts(label, _generate(db, label, plan), db)
            for label, plan in catalog_views(db, config)
            if label.startswith("fl")
        ]
        report = analyze_catalog(facts)
        assert report.diagnostics == []

    def test_facts_survive_json_roundtrip(self, small_facts):
        replayed = [facts_from_json(facts_to_json(f)) for f in small_facts]
        assert replayed == list(small_facts)
        direct = analyze_catalog(small_facts).render()
        assert analyze_catalog(replayed).render() == direct


# ----------------------------------------------------------------------
# SHARE701 price vs a measured twin-engine round
# ----------------------------------------------------------------------
class TestShare701Reconciliation:
    def test_predicted_duplicate_cost_reconciles_with_measurement(self):
        """The SHARE701 price claims each extra copy of the shared
        sub-plan repeats its maintenance pipeline.  Run the twin engines
        for real: both views cache the same sub-plan, both measured
        cache-phase counts must agree (the duplicated work exists), and
        the priced vector — evaluated at the observed diff sizes — must
        upper-bound the measurement within the COST503 tolerances."""
        from repro.catalog import _group_member

        engines = {}
        reports = {}
        for label, member in (("twin_a", 0), ("twin_b", 1)):
            db = build_catalog_database(SMALL)
            engine = IdIvmEngine(db)
            engine.define_view(label, _group_member(db, 0, member))
            engines[label] = engine

        # The twins cache one identical sub-plan: SHARE701 material.
        facts = {
            label: view_facts(
                label, engine.views[label].generated, engine.db
            )
            for label, engine in engines.items()
        }
        shared = [
            cache
            for cache in facts["twin_a"].caches
            if cache.kind == "intermediate"
            and cache.fingerprint
            in {c.fingerprint for c in facts["twin_b"].caches}
        ]
        assert shared, "twin views do not share an intermediate cache"
        catalog_report = analyze_catalog(facts.values())
        assert any(
            d.rule_id == "SHARE701" and "accesses/round" in d.message
            for d in catalog_report.diagnostics
        )

        # One identical round against both engines: inserts landing
        # inside group 0's window [100, 250).
        for label, engine in engines.items():
            for i in range(6):
                engine.log.insert("microblog", (900 + i, i % 4, 120 + 9 * i, i % 5))
            for i in range(4):
                engine.log.insert("mentions", (700 + i, i * 3, i % 6))
            reports[label] = engine.maintain()[label]

        def cache_phase_counts(report):
            merged = {"index_lookups": 0.0, "tuple_reads": 0.0, "tuple_writes": 0.0}
            for phase in (PHASE_CACHE_DIFF, PHASE_CACHE_UPDATE):
                counts = report.phase_counts.get(phase)
                if counts is None:
                    continue
                for metric, value in counts.as_dict().items():
                    if metric in merged:
                        merged[metric] += value
            return merged

        measured_a = cache_phase_counts(reports["twin_a"])
        measured_b = cache_phase_counts(reports["twin_b"])
        assert sum(measured_a.values()) > 0, "round did not touch the cache"
        # the duplicated work is real: the twin pays the same bill
        assert measured_a == measured_b

        # Price the shared cache with the define-time cost model and
        # bind the observed diff cardinalities.
        view = engines["twin_a"].views["twin_a"]
        assert view.cost_model is not None
        labels = _cache_step_labels(view.generated, shared[0].node_id)
        from repro.costmodel.symbolic import CostVector

        vector = CostVector()
        for step in view.cost_model.steps:
            if step.label in labels and step.phase in (
                PHASE_CACHE_DIFF,
                PHASE_CACHE_UPDATE,
            ):
                vector = vector + step.vector
        predicted = view.cost_model.evaluate_vector(
            vector, diff_sizes_env(reports["twin_a"].diff_sizes)
        )
        assert sum(predicted.values()) > 0
        deviations = reconcile_counts(
            {SCRIPT_PHASES[0]: predicted}, {SCRIPT_PHASES[0]: measured_a}
        )
        assert deviations == [], "\n".join(d.render() for d in deviations)


# ----------------------------------------------------------------------
# the analysis cache
# ----------------------------------------------------------------------
class TestAnalysisCache:
    def _report(self):
        report = AnalysisReport()
        report.add("SH402", "n3", "routable", hint="fine")
        return report

    def test_roundtrip_through_disk(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        cache.put("k1", entry_from_report(self._report()))
        cache.flush()
        fresh = AnalysisCache(tmp_path)
        entry = fresh.get("k1")
        assert entry is not None
        assert entry["diagnostics"][0][0] == "SH402"
        assert fresh.hits == 1 and fresh.misses == 0

    def test_corrupt_file_goes_cold(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        cache.put("k1", entry_from_report(self._report()))
        cache.flush()
        cache.path.write_text('{"schema": "repro.analysis-cache", "vers')
        fresh = AnalysisCache(tmp_path)
        assert fresh.get("k1") is None
        # and the next flush repairs the file
        fresh.put("k2", {"diagnostics": []})
        fresh.flush()
        assert AnalysisCache(tmp_path).get("k2") is not None

    def test_garbage_bytes_go_cold(self, tmp_path):
        path = tmp_path / "analysis.json"
        path.write_bytes(b"\x00\xff garbage")
        assert AnalysisCache(tmp_path).get("anything") is None

    def test_header_version_bump_invalidates(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        cache.put("k1", entry_from_report(self._report()))
        cache.flush()
        payload = json.loads(cache.path.read_text())
        payload["pass_versions"] = dict(
            payload["pass_versions"], typecheck=999
        )
        cache.path.write_text(json.dumps(payload))
        assert AnalysisCache(tmp_path).get("k1") is None


# ----------------------------------------------------------------------
# repro lint --catalog (the CLI surface)
# ----------------------------------------------------------------------
def _catalog_json(capsys, cache_dir, *extra) -> str:
    args = [
        "lint", "--catalog", "--catalog-views", "30",
        "--cache-dir", str(cache_dir), "--json", *extra,
    ]
    assert main(args) == 0
    return capsys.readouterr().out


class TestLintCatalogCli:
    def test_cold_and_warm_json_are_byte_identical(self, capsys, tmp_path):
        cold = _catalog_json(capsys, tmp_path / "c")
        warm = _catalog_json(capsys, tmp_path / "c")
        nocache = _catalog_json(capsys, tmp_path / "other", "--no-cache")
        assert cold == warm
        assert cold == nocache
        payload = json.loads(cold)["catalog"]
        assert payload["views"] == 30
        assert payload["errors"] == 0
        rules = {d["rule"] for d in payload["sharing"]}
        assert "SHARE701" in rules

    def test_human_mode_reports_cache_traffic(self, capsys, tmp_path):
        assert main(
            ["lint", "--catalog", "--catalog-views", "12",
             "--cache-dir", str(tmp_path / "c")]
        ) == 0
        cold_out = capsys.readouterr().out
        assert "12 views, 0 error(s)" in cold_out
        assert "12 miss(es)" in cold_out
        assert main(
            ["lint", "--catalog", "--catalog-views", "12",
             "--cache-dir", str(tmp_path / "c")]
        ) == 0
        warm_out = capsys.readouterr().out
        assert "12 hit(s)" in warm_out

    def test_plain_lint_cold_warm_and_no_cache_agree(self, capsys, tmp_path):
        outputs = []
        for extra in (
            ("--cache-dir", str(tmp_path / "c")),
            ("--cache-dir", str(tmp_path / "c")),
            ("--no-cache",),
        ):
            assert main(["lint", "--json", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        payload = json.loads(outputs[0])
        assert payload["errors"] == 0
        assert {e["view"] for e in payload["views"]} >= {"devices/aggregate"}

    def test_cache_dir_written_and_corruption_recovers(self, capsys, tmp_path):
        cache_dir = tmp_path / "c"
        first = _catalog_json(capsys, cache_dir)
        cache_file = cache_dir / "analysis.json"
        assert cache_file.exists()
        cache_file.write_text("{ not json")
        again = _catalog_json(capsys, cache_dir)
        assert first == again
        assert json.loads(cache_file.read_text())["entries"]
