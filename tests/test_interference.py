"""RACE604 (write-journal coverage) and the dynamic write-set race detector.

Shard disjointness has one static proof — the router's veto walk
(:func:`repro.shard.router.plan_route`) — and one run-time check, the
``race_check=True`` on :class:`ShardedEngine`, which records every key
two shards' captured write-sets share.  The central
fixture here is a deliberately mis-routed view: the test patches the
router to return a parallel route the real one rejects, and the
detector must flag it on both execution backends.  Route-independent
journal coverage (RACE604) is a rule of the ``script`` pass.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.algebra.evaluate import evaluate_plan
from repro.analysis import analyze_generated, pass_names
from repro.core.generator import ScriptGenerator
from repro.core.schema_gen import generate_base_schemas
from repro.core.sharded import ShardedEngine
from repro.errors import SchemaError
from repro.obs import metrics
from repro.shard.router import RoutePlan, _anchor_mapping
from repro.workloads import BSMA_QUERIES, BsmaConfig, build_bsma_database, log_user_updates
from repro.workloads.devices import (
    DevicesConfig,
    apply_price_updates,
    build_aggregate_view,
    build_database,
    build_flat_view,
)

DEV_CONFIG = DevicesConfig(n_parts=80, n_devices=80, diff_size=24)
BSMA_CONFIG = BsmaConfig(n_users=150)
#: BSMA views whose user-update rounds the router proves parallel.
BSMA_PARALLEL = ("Q7", "Q11", "Q15", "Q18")

BACKENDS = tuple(
    b.strip()
    for b in os.environ.get("REPRO_BACKEND", "inline,process").split(",")
    if b.strip()
)


def generate(db, plan, name="V"):
    generator = ScriptGenerator(name, plan)
    return generator.generate(generate_base_schemas(generator.plan, db))


def race_diags(generated, db):
    report = analyze_generated(generated, db=db, names=["script"])
    return [d for d in report.diagnostics if d.rule_id.startswith("RACE")]


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

    def test_race604_is_a_script_pass_rule(self):
        """One static proof of shard disjointness (the router's walk):
        no interference pass; journal coverage rides on ``script``."""
        assert "interference" not in pass_names()
        db = build_database(DEV_CONFIG)
        generated = generate(db, build_aggregate_view(db, DEV_CONFIG))
        stripped = dataclasses.replace(generated, opcache_specs=[])
        report = analyze_generated(stripped, db=None, names=["script"])
        r604 = [d for d in report.diagnostics if d.rule_id == "RACE604"]
        assert r604 and all("op-cache" in d.message for d in r604)

    def test_complete_specs_stay_quiet(self):
        db = build_database(DEV_CONFIG)
        generated = generate(db, build_aggregate_view(db, DEV_CONFIG))
        assert race_diags(generated, db=None) == []


# ----------------------------------------------------------------------
# dynamic: the race detector on live engines
# ----------------------------------------------------------------------
def _parts_route(script, instances, db, n_shards):
    """A parallel :class:`RoutePlan` on anchor ``parts``, without the
    router's proof: each instance's anchor positions come from its key
    path to ``parts``; an instance without one is replicated."""
    anchor_key = db.table("parts").schema.key
    positions = {}
    for name, diff in instances.items():
        mapping = _anchor_mapping(diff.schema, "parts", anchor_key, db)
        if mapping is not None:
            positions[name] = tuple(diff.schema.position(mapping[k]) for k in anchor_key)
    return RoutePlan(
        True, "", anchor="parts", anchor_key=anchor_key, instance_positions=positions
    )


def _misrouted_engine(monkeypatch, backend):
    """The devices aggregate view γ(did; sum(price)) with its rounds
    FORCED onto anchor ``parts``.  The router proves γ drops the parts
    anchor from its group keys and would broadcast; the patched router
    runs those rounds parallel anyway — two shards then read-modify-write
    the same device's group row.  Routing runs in the coordinator, so the
    patch covers the process backend too."""
    cfg = DEV_CONFIG
    db = build_database(cfg)
    plan = build_aggregate_view(db, cfg)
    engine = ShardedEngine(db, shards=2, backend=backend, race_check=True)
    engine.define_view("agg", plan)
    engine.maintain()
    monkeypatch.setattr("repro.core.sharded.plan_route", _parts_route)
    return engine, db, cfg


@pytest.mark.parametrize("backend", BACKENDS)
class TestDynamicDetector:
    def test_default_mode_records_overlaps_without_raising(self, backend, monkeypatch):
        engine, db, cfg = _misrouted_engine(monkeypatch, backend)
        try:
            apply_price_updates(engine, db, cfg, round_seed=1)
            report = engine.maintain()["agg"]
            assert report.parallel and report.anchor == "parts"
            overlaps = report.race_overlaps
            assert overlaps
            assert metrics.counter("shard.race_overlaps").value == len(overlaps)
            # Each overlap names (table tag, key, writing shards).
            for tag, key, shards in overlaps:
                assert isinstance(tag, str) and isinstance(key, tuple)
                assert len(shards) > 1
            # The γ output cache is among the contended tables.
            assert any(tag == "c0" for tag, _, _ in overlaps)
        finally:
            engine.close()

    def test_clean_parallel_round_records_no_overlaps(self, backend):
        """Router-approved parallel rounds do not race: on the devices
        flat view and the BSMA views the router parallelizes, the race
        check records nothing, at least one round of each view runs
        parallel, and every view still matches the recompute oracle."""
        dev_db = build_database(DEV_CONFIG)
        bsma_db = build_bsma_database(BSMA_CONFIG)
        workloads = [
            (
                dev_db,
                {"flat": build_flat_view(dev_db, DEV_CONFIG)},
                lambda engine, seed: apply_price_updates(
                    engine, dev_db, DEV_CONFIG, round_seed=seed
                ),
            ),
            (
                bsma_db,
                {q: BSMA_QUERIES[q](bsma_db, BSMA_CONFIG) for q in BSMA_PARALLEL},
                lambda engine, seed: log_user_updates(
                    engine, bsma_db, BSMA_CONFIG, 60, round_seed=seed
                ),
            ),
        ]
        for db, plans, modify in workloads:
            engine = ShardedEngine(db, shards=2, backend=backend, race_check=True)
            try:
                views = {name: engine.define_view(name, plan) for name, plan in plans.items()}
                parallel = dict.fromkeys(views, 0)
                for seed in range(2):
                    modify(engine, seed)
                    reports = engine.maintain()
                    for name in views:
                        report = reports[name]
                        parallel[name] += report.parallel
                        assert report.race_overlaps == [], name
                        assert report.uncaptured_tables == [], name
                for name, view in views.items():
                    assert parallel[name] >= 1, name
                    assert view.table.as_set() == evaluate_plan(view.plan, db).as_set(), name
            finally:
                engine.close()
        assert metrics.counter("shard.race_overlaps").value == 0
        assert metrics.counter("shard.uncaptured_writes").value == 0


@pytest.mark.skipif(
    set(BACKENDS) != {"inline", "process"}, reason="needs both shard backends"
)
def test_backends_find_the_same_overlaps(monkeypatch):
    """One shard protocol, one merge: the write-sets the race check sees
    are the same whether the shards ran inline or in worker processes."""
    found = {}
    for backend in BACKENDS:
        engine, db, cfg = _misrouted_engine(monkeypatch, backend)
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
    for value in ("loose", "strict", 1):
        with pytest.raises(SchemaError):
            ShardedEngine(db, shards=2, race_check=value)
