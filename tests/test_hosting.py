"""A view that is a column-only π over a sub-plan another view
materializes is answered from that view's cache (:mod:`repro.core.share`,
``Hosting``): the devices pair's V is π did,pid,price over the σ-join
that V′ (``Vagg``) caches as ``Vagg__in_n1``.  The round contract of a
hosted pair, in both definition orders: V keeps nothing of its own, its
host's view-round maintains it, its cursor moves with the host's, and
the pair costs what ``Vagg`` alone costs.
"""

from __future__ import annotations

import pytest

import repro.core.script as script_mod
from repro.algebra.evaluate import evaluate_plan
from repro.core import IdIvmEngine
from repro.core.engine import HostedView, MaterializedView
from repro.obs.serve import build_snapshot
from repro.workloads import (
    DevicesConfig,
    apply_price_updates,
    build_aggregate_view,
    build_devices_database,
    build_flat_view,
)
from repro.workloads.devices import log_batch, mixed_modification_batch
from tests.conftest import assert_views_at_their_cursors

CONFIG = DevicesConfig(n_parts=120, n_devices=120, diff_size=20)
BUILDERS = {"V": build_flat_view, "Vagg": build_aggregate_view}
ORDERS = [("V", "Vagg"), ("Vagg", "V")]


def _engine(names, cls=IdIvmEngine):
    db = build_devices_database(CONFIG)
    engine = cls(db)
    defined = {name: engine.define_view(name, BUILDERS[name](db, CONFIG)) for name in names}
    return engine, db, defined


def _churn(engine, db, round_seed: int) -> None:
    log_batch(engine, mixed_modification_batch(db, CONFIG, 8, 3, 3, round_seed))


def _counts(report) -> dict:
    return {phase: c.as_dict() for phase, c in report.phase_counts.items() if any(c.as_dict().values())}


def _assert_current(engine, db) -> None:
    for view in engine.views.values():
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set(), view.name


@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
def test_v_is_answered_from_vaggs_cache_and_keeps_nothing(order):
    engine, db, defined = _engine(order)
    v, vagg = engine.views["V"], engine.views["Vagg"]
    assert type(v) is HostedView and type(vagg) is MaterializedView
    # the object define_view returned is the view, whichever came first
    assert defined["V"] is v and v.host is vagg
    assert engine.hosting.hosts["V"][0] == "Vagg"
    cache = vagg.caches[vagg.materialized[engine.hosting.hosts["V"][1]]]
    assert cache.name == "Vagg__in_n1" and v.table.source is cache
    assert v.table.schema.columns == v.plan.columns == ("did", "pid", "price")
    # nothing of its own: no script, journal, Input_pre table or share key
    assert not hasattr(v, "script") and v.written_tables == () and v.pre_tables == frozenset()
    assert all(holders == [vagg] for holders in engine.share_holders.values())
    assert vagg.script._shared == {}
    assert list(engine._own) == ["Vagg"]
    assert engine.log.cursors == {"V": 0, "Vagg": 0}
    _assert_current(engine, db)


@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
def test_vaggs_script_is_the_one_it_has_alone(order):
    engine, _db, _ = _engine(order)
    solo, _solo_db, _ = _engine(["Vagg"])
    assert engine.views["Vagg"].describe_script() == solo.views["Vagg"].describe_script()


@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
def test_maintaining_v_runs_its_host_and_moves_both_cursors(order):
    engine, db, _ = _engine(order)
    _churn(engine, db, 0)
    reports = engine.maintain("V")
    assert set(reports) == {"V", "Vagg"}
    assert reports["V"].host == "Vagg" and reports["V"].phase_counts == {}
    assert reports["V"].total_cost == 0 and reports["Vagg"].total_cost > 0
    assert engine.log.cursors == {"V": engine.log.position, "Vagg": engine.log.position}
    assert engine.log.entries == []
    assert engine.freshness.staleness("V").rounds == 1
    assert build_snapshot(engine)["views"]["V"] == {"total_cost": 0, "host": "Vagg"}
    _assert_current(engine, db)


class _Failed(RuntimeError):
    pass


@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
def test_a_host_that_fails_after_its_first_write_leaves_v_as_it_was(order, monkeypatch):
    engine, db, _ = _engine(order)
    _churn(engine, db, 0)
    engine.maintain()
    _churn(engine, db, 1)
    v = engine.views["V"]
    rows, cursors = v.table.as_set(), dict(engine.log.cursors)
    real_apply = script_mod.apply_diff

    def apply_then_fail(table, diff, *rest):
        applied = real_apply(table, diff, *rest)
        if diff.rows:  # the host has written
            raise _Failed("host fails after its first write")
        return applied

    monkeypatch.setattr(script_mod, "apply_diff", apply_then_fail)
    with pytest.raises(_Failed):
        engine.maintain("V")
    assert v.table.as_set() == rows
    assert engine.log.cursors == cursors and len(engine.log.entries) > 0
    assert_views_at_their_cursors(engine, db)
    monkeypatch.setattr(script_mod, "apply_diff", real_apply)
    engine.maintain()
    assert set(engine.log.cursors.values()) == {engine.log.position}
    _assert_current(engine, db)


@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
def test_the_pair_costs_what_vagg_alone_costs(order):
    engine, db, _ = _engine(order)
    solo, solo_db, _ = _engine(["Vagg"])
    for seed in range(4):
        _churn(engine, db, seed)
        _churn(solo, solo_db, seed)
        pair, alone = engine.maintain(), solo.maintain()
        assert _counts(pair["Vagg"]) == _counts(alone["Vagg"])
        assert pair["V"].total_cost == 0
        assert pair["Vagg"].predicted_counts == alone["Vagg"].predicted_counts
    _assert_current(engine, db)


def test_a_view_defined_after_a_round_is_hosted_at_its_hosts_cursor():
    engine, db, _ = _engine(["Vagg"])
    apply_price_updates(engine, db, CONFIG, 0)
    engine.maintain()
    apply_price_updates(engine, db, CONFIG, 1)   # pending for Vagg
    v = engine.define_view("V", build_flat_view(db, CONFIG))
    assert type(v) is HostedView
    assert engine.log.cursors["V"] == engine.log.cursors["Vagg"] < engine.log.position
    assert_views_at_their_cursors(engine, db)
    engine.maintain()
    _assert_current(engine, db)
