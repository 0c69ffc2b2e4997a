"""Pass 6 (interference, RACE6xx) + the dynamic write-set race detector.

The two detectors check the same claim — per-round shard disjointness of
write footprints — at different times: the static pass at lint/define
time from anchor-key provenance, the dynamic ``race_check`` mode of
:class:`ShardedEngine` at run time from the workers' captured
write-sets.  The central fixture here is a deliberately mis-routed view
(``GeneratedPlan.route_override`` forces the anchor the router rejects):
BOTH detectors must flag it, on both execution backends.
"""

from __future__ import annotations

import dataclasses
import os
from types import SimpleNamespace

import pytest

from repro.algebra.evaluate import evaluate_plan
from repro.algebra import scan
from repro.analysis import AnalysisReport, analyze_generated
from repro.analysis.interference import check_round
from repro.core.diffs import Diff, DiffSchema
from repro.core.generator import ScriptGenerator
from repro.core.ir import Compute, DiffSource, ProbeJoin
from repro.core.schema_gen import generate_base_schemas
from repro.core.script import ApplyDiffStep, ComputeDiffStep, DeltaScript
from repro.core.sharded import ShardedEngine
from repro.errors import ShardRaceError
from repro.expr import Col
from repro.shard.router import force_route
from repro.storage import Database
from repro.workloads.devices import (
    DevicesConfig,
    apply_price_updates,
    build_aggregate_view,
    build_database,
    build_flat_view,
)

DEV_CONFIG = DevicesConfig(n_parts=80, n_devices=80, diff_size=24)

BACKENDS = tuple(
    b.strip()
    for b in os.environ.get("REPRO_BACKEND", "inline,process").split(",")
    if b.strip()
)


def generate(db, plan, name="V"):
    generator = ScriptGenerator(name, plan)
    return generator.generate(generate_base_schemas(generator.plan, db))


def race_diags(generated, db):
    report = analyze_generated(generated, db=db, names=["interference"])
    return [d for d in report.diagnostics if d.rule_id.startswith("RACE")]


def make_misrouted(cfg=DEV_CONFIG):
    """The fixture: the devices aggregate view γ(did; sum(price)) with
    maintenance rounds FORCED onto anchor ``parts``.  The router proves
    γ drops the parts anchor from its group keys and would broadcast;
    the override runs those rounds parallel anyway — two shards then
    read-modify-write the same device's group row."""
    db = build_database(cfg)
    plan = build_aggregate_view(db, cfg)
    generated = generate(db, plan, name="agg")
    return db, plan, dataclasses.replace(generated, route_override="parts")


# ----------------------------------------------------------------------
# static: shipped views stay quiet
# ----------------------------------------------------------------------
class TestStaysQuiet:
    @pytest.mark.parametrize("build", [build_flat_view, build_aggregate_view])
    def test_devices_views_have_no_race_findings(self, build):
        db = build_database(DEV_CONFIG)
        generated = generate(db, build(db, DEV_CONFIG))
        assert race_diags(generated, db) == []

    def test_pass_skips_without_database(self):
        db = build_database(DEV_CONFIG)
        generated = generate(db, build_flat_view(db, DEV_CONFIG))
        assert race_diags(generated, db=None) == []


# ----------------------------------------------------------------------
# static: the mis-routed fixture is flagged (RACE601)
# ----------------------------------------------------------------------
class TestForcedRouteStatic:
    def test_race601_on_forced_anchor(self):
        db, _, forced = make_misrouted()
        diags = race_diags(forced, db)
        r601 = [d for d in diags if d.rule_id == "RACE601"]
        assert r601, "forced mis-route must produce RACE601"
        assert all(d.severity == "error" for d in r601)
        # The γ RMW on the view output (and its operator cache) is the
        # characteristic overlap: group keys (did) dropped the anchor.
        gamma = [d for d in r601 if "group keys ['did']" in d.message]
        assert gamma
        assert any("anchor parts" in d.message for d in gamma)
        # The price-update round specifically (the one the dynamic
        # fixture drives) is among the flagged round shapes.
        assert any("base_u_parts__price" in d.location for d in r601)

    def test_unforced_view_is_quiet(self):
        db, _, forced = make_misrouted()
        unforced = dataclasses.replace(forced, route_override=None)
        assert race_diags(unforced, db) == []


# ----------------------------------------------------------------------
# static: capture coverage (RACE604)
# ----------------------------------------------------------------------
class TestCaptureCoverage:
    def test_missing_opcache_spec_fires_race604(self):
        db = build_database(DEV_CONFIG)
        generated = generate(db, build_aggregate_view(db, DEV_CONFIG))
        stripped = dataclasses.replace(generated, opcache_specs=[])
        diags = race_diags(stripped, db)
        r604 = [d for d in diags if d.rule_id == "RACE604"]
        assert r604 and all(d.severity == "error" for d in r604)
        assert any("op-cache" in d.message for d in r604)

    def test_missing_cache_spec_fires_race604(self):
        db = build_database(DEV_CONFIG)
        generated = generate(db, build_aggregate_view(db, DEV_CONFIG))
        stripped = dataclasses.replace(generated, cache_specs=[])
        diags = race_diags(stripped, db)
        assert any(
            d.rule_id == "RACE604" and "APPLY" in d.location for d in diags
        )

    def test_race604_needs_no_database(self):
        """Coverage is a property of the GeneratedPlan alone."""
        db = build_database(DEV_CONFIG)
        generated = generate(db, build_aggregate_view(db, DEV_CONFIG))
        stripped = dataclasses.replace(generated, opcache_specs=[])
        assert any(
            d.rule_id == "RACE604" for d in race_diags(stripped, db=None)
        )

    def test_complete_specs_stay_quiet(self):
        db = build_database(DEV_CONFIG)
        generated = generate(db, build_aggregate_view(db, DEV_CONFIG))
        assert race_diags(generated, db=None) == []


# ----------------------------------------------------------------------
# static: seeded RACE602 / RACE603 rounds (check_round directly)
# ----------------------------------------------------------------------
def _seeded_env():
    """A one-table world with a forced parallel route to feed check_round.

    Table t(k, v); the round's instance is an update diff on t carrying
    the anchor key in its IDs.  The probed/written materialization is
    plan node 7, registered as a cache spec so reads of it count.
    """
    db = Database()
    db.create_table(
        "t", ("k", "v"), ("k",), nullable=(), types={"k": "int", "v": "int"}
    )
    db.table("t").load([(1, 10)])
    base = DiffSchema("u", "t", ("k",), post_attrs=("v",))
    instances = {"d_t": Diff(base, [(1, 99)])}
    node = scan(db, "t")
    node.node_id = 7
    generated = SimpleNamespace(
        view_name="V",
        cache_specs=[SimpleNamespace(node_id=7, name="probe_cache")],
        opcache_specs=[],
    )
    return db, base, instances, node, generated


def _run_seeded(steps, db, instances, generated):
    script = DeltaScript(steps, view_node_id=99)
    route = force_route(script, instances, db, "t")
    report = AnalysisReport()
    check_round(script, instances, db, route, generated, report, "seeded")
    return report


class TestSeededRounds:
    def test_race602_non_anchored_read_of_written_cache(self):
        db, base, instances, node, generated = _seeded_env()
        # Probe of node 7 bound on a NON-key column: the read does not
        # carry the anchor, while the APPLY writes node 7 (anchored).
        probe = ProbeJoin(
            left=DiffSource("d_t", base),
            node=node,
            state="pre",
            on=[("v__post", "v")],
            keep=[("w", "v")],
        )
        steps = [
            ComputeDiffStep(
                "d1", DiffSchema("+", "t", ("k",)), probe, "view_diff"
            ),
            ApplyDiffStep("d_t", 7, "probe_cache", "cache_update"),
        ]
        report = _run_seeded(steps, db, instances, generated)
        assert sorted(report.rule_ids()) == ["RACE602"]
        [diag] = report.diagnostics
        assert diag.severity == "error"
        assert "probe_cache" in diag.message

    def test_race603_routed_reader_under_unanchored_writer(self):
        db, base, instances, node, generated = _seeded_env()
        # d2 projects the anchor key away -> its APPLY write is not
        # anchored (RACE601); a second statement reads the same cache
        # through an anchored probe -> broadcast-window RACE603.
        lossy = Compute(DiffSource("d_t", base), [("w", Col("v__post"))])
        anchored_probe = ProbeJoin(
            left=DiffSource("d_t", base),
            node=node,
            state="pre",
            on=[("k", "k")],
            keep=[("w", "v")],
        )
        steps = [
            ComputeDiffStep(
                "d2", DiffSchema("+", "t", ("w",)), lossy, "cache_diff"
            ),
            ComputeDiffStep(
                "d3",
                DiffSchema("+", "t", ("k",)),
                anchored_probe,
                "view_diff",
            ),
            ApplyDiffStep("d2", 7, "probe_cache", "cache_update"),
        ]
        report = _run_seeded(steps, db, instances, generated)
        assert sorted(report.rule_ids()) == ["RACE601", "RACE603"]
        [r603] = [d for d in report.diagnostics if d.rule_id == "RACE603"]
        assert r603.severity == "warning"
        assert "broadcast-window" in r603.message

    def test_anchored_round_is_silent(self):
        db, base, instances, node, generated = _seeded_env()
        anchored_probe = ProbeJoin(
            left=DiffSource("d_t", base),
            node=node,
            state="pre",
            on=[("k", "k")],
            keep=[("w", "v")],
        )
        steps = [
            ComputeDiffStep(
                "d3",
                DiffSchema("+", "t", ("k",)),
                anchored_probe,
                "view_diff",
            ),
            ApplyDiffStep("d_t", 7, "probe_cache", "cache_update"),
        ]
        report = _run_seeded(steps, db, instances, generated)
        assert report.diagnostics == []


# ----------------------------------------------------------------------
# dynamic: the race detector on live engines
# ----------------------------------------------------------------------
def _misrouted_engine(backend, race_check):
    cfg = DEV_CONFIG
    db = build_database(cfg)
    plan = build_aggregate_view(db, cfg)
    engine = ShardedEngine(db, shards=2, backend=backend, race_check=race_check)
    view = engine.define_view("agg", plan)
    engine.maintain()
    view.generated.route_override = "parts"
    return engine, db, cfg


@pytest.mark.parametrize("backend", BACKENDS)
class TestDynamicDetector:
    def test_strict_raises_shard_race_error(self, backend):
        engine, db, cfg = _misrouted_engine(backend, race_check="strict")
        try:
            apply_price_updates(engine, db, cfg, round_seed=1)
            with pytest.raises(ShardRaceError) as exc_info:
                engine.maintain()
            overlaps = exc_info.value.overlaps
            assert overlaps
            # Each overlap names (table tag, key, writing shards).
            for tag, key, shards in overlaps:
                assert isinstance(tag, str) and isinstance(key, tuple)
                assert len(shards) > 1
            # The γ output cache is among the contended tables.
            assert any(tag == "c0" for tag, _, _ in overlaps)
        finally:
            engine.close()

    def test_default_mode_records_overlaps_without_raising(self, backend):
        engine, db, cfg = _misrouted_engine(backend, race_check=True)
        try:
            apply_price_updates(engine, db, cfg, round_seed=1)
            report = engine.maintain()["agg"]
            assert report.parallel and report.anchor == "parts"
            assert report.race_overlaps
        finally:
            engine.close()

    def test_clean_parallel_round_passes_strict(self, backend):
        """The flat view's price-update rounds carry a real router proof:
        strict race_check must find nothing and the view must still
        match the recompute oracle."""
        cfg = DEV_CONFIG
        db = build_database(cfg)
        engine = ShardedEngine(
            db, shards=2, backend=backend, race_check="strict"
        )
        try:
            view = engine.define_view("flat", build_flat_view(db, cfg))
            for seed in range(2):
                apply_price_updates(engine, db, cfg, round_seed=seed)
                report = engine.maintain()["flat"]
                assert report.race_overlaps == []
                assert report.uncaptured_tables == []
            assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()
        finally:
            engine.close()


@pytest.mark.skipif(
    set(BACKENDS) != {"inline", "process"}, reason="needs both shard backends"
)
def test_backends_find_the_same_overlaps():
    """One shard protocol, one merge: the write-sets the race check sees
    are the same whether the shards ran inline or in worker processes."""
    found = {}
    for backend in BACKENDS:
        engine, db, cfg = _misrouted_engine(backend, race_check=True)
        try:
            apply_price_updates(engine, db, cfg, round_seed=1)
            found[backend] = engine.maintain()["agg"].race_overlaps
        finally:
            engine.close()
    assert found["inline"] and found["inline"] == found["process"]


def test_inline_round_reports_writes_that_escape_capture(monkeypatch):
    """Dynamic RACE604: a counted write to a catalog table outside the
    view's tagged set is reported on the checked inline round."""
    cfg = DEV_CONFIG
    db = build_database(cfg)
    engine = ShardedEngine(db, shards=2, backend="inline", race_check=True)
    view = engine.define_view("flat", build_flat_view(db, cfg))
    # Fixture: the view table sits in the catalog but is no longer tagged.
    db.tables[view.table.schema.name] = view.table
    monkeypatch.setattr(
        "repro.core.sharded.tagged_tables", lambda caches, opcaches: iter(())
    )
    apply_price_updates(engine, db, cfg, round_seed=1)
    report = engine.maintain()["flat"]
    assert report.parallel
    assert report.uncaptured_tables == [view.table.schema.name]


def test_race_check_argument_is_validated():
    db = build_database(DevicesConfig(n_parts=20, n_devices=20, diff_size=2))
    with pytest.raises(Exception):
        ShardedEngine(db, shards=2, race_check="loose")
