"""Compute statements two views hold identically run once per round
(:mod:`repro.core.share`): the first view in round order computes the
rows, every later view at the same log cursor binds them under its own
schema.  Pinned on a devices pair — the paper's V (Fig. 1b) under a
residual σ that keeps every row, so that it keeps its own state (the
paper's V itself is answered from V′'s cache: ``core.share.Hosting``),
and V′ (Fig. 5b), over one σ(parts ⋈ devices_parts ⋈ devices) — in both
definition orders, and on the eight BSMA views for the lint.
"""

from __future__ import annotations

import random

import pytest

import repro.core.engine as engine_mod
import repro.core.script as script_mod
from repro.algebra.evaluate import evaluate_plan
from repro.analysis import analyze_catalog
from repro.analysis.sharing import hosted_views, share_groups
from repro.cli import _lint_view_entry
from repro.core import IdIvmEngine, ShardedEngine
from repro.obs import drift as drift_mod
from repro.obs import metrics, recording
from repro.workloads import (
    BSMA_QUERIES,
    BsmaConfig,
    DevicesConfig,
    apply_price_updates,
    build_aggregate_view,
    build_bsma_database,
    build_devices_database,
    build_flat_view,
    log_user_updates,
)
from repro.workloads.devices import log_batch, mixed_modification_batch
from tests.conftest import unhosted

CONFIG = DevicesConfig(n_parts=120, n_devices=120, diff_size=20)
BUILDERS = {
    "V": lambda db, config: unhosted(build_flat_view(db, config)),
    "Vagg": build_aggregate_view,
}
ORDERS = [("V", "Vagg"), ("Vagg", "V")]


def _engine(names, cls=IdIvmEngine, **kwargs):
    db = build_devices_database(CONFIG)
    engine = cls(db, **kwargs)
    for name in names:
        engine.define_view(name, BUILDERS[name](db, CONFIG))
    return engine, db


def _churn(engine, db, round_seed: int) -> None:
    log_batch(engine, mixed_modification_batch(db, CONFIG, 8, 3, 3, round_seed))


def _counts(report) -> dict:
    return {phase: c.as_dict() for phase, c in report.phase_counts.items() if any(c.as_dict().values())}


def _diffs_by_view(engine, monkeypatch) -> dict:
    """View name -> the diff environment of its execution, once the
    round ran."""
    executions: list = []
    real = engine_mod.execute_script

    def spy(script, ctx):
        env = real(script, ctx)
        executions.append((script, env))
        return env

    monkeypatch.setattr(engine_mod, "execute_script", spy)
    diffs: dict = {}
    yield diffs
    for script, env in executions:
        diffs.update((v.name, env) for v in engine.views.values() if v.script is script)


@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
def test_a_round_computes_each_shared_statement_once(order, monkeypatch):
    engine, db = _engine(order)
    lender, borrower = (engine.views[name] for name in order)
    # all 41 statements of Vagg that depend on nothing it owns are V's too,
    # and are what each view shares
    common = set(lender.share_keys.values()) & set(borrower.share_keys.values())
    assert len(common) == len(engine.views["Vagg"].share_keys) == 41
    for view in (lender, borrower):
        assert {view.share_keys[i] for i in view.script._shared} == common
    capture = _diffs_by_view(engine, monkeypatch)
    diffs = next(capture)
    _churn(engine, db, 0)
    reports = engine.maintain()
    next(capture, None)
    assert reports[lender.name].reused == []
    reused = reports[borrower.name].reused
    assert reused and {view for _, view in reused} == {lender.name}
    # the borrower's rows are the lender's very list
    lender_names = {
        key: lender.script.steps[i].name for i, key in lender.share_keys.items()
    }
    for i, key in borrower.script._shared.items():
        name = borrower.script.steps[i].name
        if name in {stmt for stmt, _ in reused}:
            assert diffs[borrower.name][name].rows is diffs[lender.name][lender_names[key]].rows
    for view in engine.views.values():
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
def test_a_view_maintained_alone_computes_its_own_statements(order):
    engine, db = _engine(order)
    solo, solo_db = _engine(["Vagg"])
    for seed in range(2):
        _churn(engine, db, seed)
        _churn(solo, solo_db, seed)
        alone = engine.maintain("Vagg")["Vagg"]
        expected = solo.maintain()["Vagg"]
        assert alone.reused == []
        assert _counts(alone) == _counts(expected)
    # the other view catches up over both batches, at its own cursor
    assert engine.maintain()["V"].reused == []
    for view in engine.views.values():
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


class _Failed(RuntimeError):
    pass


@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
def test_a_lender_that_fails_is_rolled_back_and_the_next_round_converges(order, monkeypatch):
    engine, db = _engine(order)
    lender = engine.views[order[0]]
    _churn(engine, db, 0)
    engine.maintain()
    _churn(engine, db, 1)
    before = [set(table.rows_uncounted()) for table in lender.written_tables]
    published: list = []
    real_round_context = engine_mod.round_context

    def spying_round_context(*args, **kwargs):
        ctx = real_round_context(*args, **kwargs)
        published.append(ctx.derived)
        return ctx

    real_apply = script_mod.apply_diff

    def failing_apply(table, diff, *rest):
        if diff.rows:  # after the statements computed before it
            raise _Failed("lender fails at its first APPLY")
        return real_apply(table, diff, *rest)

    monkeypatch.setattr(engine_mod, "round_context", spying_round_context)
    monkeypatch.setattr(script_mod, "apply_diff", failing_apply)
    with pytest.raises(_Failed):
        engine.maintain()
    assert published and published[0], "the lender published nothing before failing"
    assert [set(t.rows_uncounted()) for t in lender.written_tables] == before
    monkeypatch.setattr(script_mod, "apply_diff", real_apply)
    reports = engine.maintain()
    assert reports[order[1]].reused
    assert set(engine.log.cursors.values()) == {engine.log.position}
    for view in engine.views.values():
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
def test_a_parallel_view_does_not_publish(order, monkeypatch):
    engine, db = _engine(order, cls=ShardedEngine, shards=2)
    published: list = []
    real_execute = script_mod.execute_script

    def spying_execute(script, ctx):
        if ctx.derived is not None:
            published.append(ctx.derived)
        return real_execute(script, ctx)

    # engine.py holds it by name; the inline shard loop imports it from
    # the script module at call time
    monkeypatch.setattr(engine_mod, "execute_script", spying_execute)
    monkeypatch.setattr(script_mod, "execute_script", spying_execute)
    apply_price_updates(engine, db, CONFIG, 0)
    reports = engine.maintain()
    assert reports["V"].parallel and not reports["Vagg"].parallel
    # Vagg's broadcast execution is the only one handed the range's memo,
    # and Vagg computed every shared statement itself
    assert len(published) == 1
    assert {owner for owner, _rows in published[0].values()} <= {"Vagg"}
    assert reports["Vagg"].reused == []
    for view in engine.views.values():
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


def _category_and_price_rounds(engine, db, rounds: int = 20):
    """Price updates plus one device leaving or joining the phones per
    round: a stream on which the shared statements carry predicted
    cost.  Yields each round's reports."""
    rng = random.Random(1)
    devices = sorted(row[0] for row in db.table("devices").rows_uncounted())
    for round_seed in range(rounds):
        did = rng.choice(devices)
        category = db.table("devices").get_uncounted((did,))[1]
        engine.log.update("devices", (did,), {"category": "tablet" if category == "phone" else "phone"})
        apply_price_updates(engine, db, CONFIG, round_seed)
        yield engine.maintain()


@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
def test_vaggs_drift_compares_what_it_ran(order):
    """Borrowing, Vagg is predicted without the statements it bound, and
    its observed/predicted EWMAs stay within the monitor's band; lending,
    its drift is a solo engine's."""
    engine, db = _engine(order)
    model = engine.views["Vagg"].cost_model
    priced = 0
    for reports in _category_and_price_rounds(engine, db):
        report = reports["Vagg"]
        reused = tuple(name for name, _ in report.reused)
        assert bool(reused) == (order[0] == "V")
        key = tuple(report.diff_sizes.items())
        less = model.predict_from_diff_sizes(report.diff_sizes, key, reused)
        assert report.predicted_counts == less
        whole = model.predict_from_diff_sizes(report.diff_sizes, key)
        priced += sum(p["total"] for p in whole.values()) > sum(p["total"] for p in less.values())
    drift = engine.drift.snapshot()["views"]["Vagg"]
    if order[0] == "Vagg":
        solo, solo_db = _engine(["Vagg"])
        for _ in _category_and_price_rounds(solo, solo_db):
            pass
        assert drift == solo.drift.snapshot()["views"]["Vagg"]
        return
    assert priced, "no reused statement carried a predicted cost"
    for metric, state in drift.items():
        assert drift_mod.LOW <= state["ewma"] <= drift_mod.HIGH, (metric, state)


def test_a_single_view_engine_wraps_nothing():
    engine, _db = _engine(["V"])
    script = engine.views["V"].script
    assert script._shared == {}
    kernels = script._kernels
    for i, (run, _phase) in enumerate(script.exec_plan()):
        assert run == kernels.get(i, script.steps[i].run)  # a bound method is made per access


def test_the_decision_is_visible():
    with metrics.scoped():
        engine, db = _engine(["V", "Vagg"])
        _churn(engine, db, 0)
        with recording() as recorder:
            reports = engine.maintain()
        reused = reports["Vagg"].reused
        assert metrics.counter("engine.shared_statements").value == len(reused)
        stamped = {
            span.attrs["stmt"]: span.attrs["shared_from"]
            for span in recorder.find(kind="stmt") if "shared_from" in span.attrs
        }
        assert stamped == dict(reused)


# ----------------------------------------------------------------------
# SHARE704: the lint groups statements with the engine's key function
# ----------------------------------------------------------------------
def _lint_groups(targets) -> dict:
    facts = [_lint_view_entry(label, plan, db, None)[1] for label, plan, db in targets]
    return {key: set(labels) for key, labels in share_groups(facts).items()}


def _engine_groups(engine) -> dict:
    return {
        key: {view.name for view in holders}
        for key, holders in engine.share_holders.items() if len(holders) > 1
    }


def test_the_lint_groups_what_the_engine_shares_on_the_devices_pair():
    engine, db = _engine(["V", "Vagg"])
    groups = _lint_groups((name, BUILDERS[name](db, CONFIG), db) for name in ("V", "Vagg"))
    assert groups == _engine_groups(engine)
    assert len(groups) == len(engine.views["Vagg"].share_keys) == 41


def test_the_lint_groups_what_the_engine_shares_on_the_bsma_views():
    config = BsmaConfig(n_users=40)
    db = build_bsma_database(config)
    engine = IdIvmEngine(db)
    for name in sorted(BSMA_QUERIES):
        engine.define_view(name, BSMA_QUERIES[name](db, config))
    groups = _lint_groups((name, BSMA_QUERIES[name](db, config), db) for name in sorted(BSMA_QUERIES))
    assert groups and groups == _engine_groups(engine)
    log_user_updates(engine, db, config, 5)
    engine.maintain()
    for view in engine.views.values():
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


# ----------------------------------------------------------------------
# SHARE703: the lint binds hosted views with the engine's class
# ----------------------------------------------------------------------
@pytest.mark.parametrize("order", [("V", "Vagg"), ("Vagg", "V")], ids="-then-".join)
def test_the_lint_hosts_what_the_engine_hosts_on_the_devices_pair(order):
    db = build_devices_database(CONFIG)
    engine = IdIvmEngine(db)
    plans = {"V": build_flat_view, "Vagg": build_aggregate_view}
    for name in order:
        engine.define_view(name, plans[name](db, CONFIG))
    facts = [_lint_view_entry(name, plans[name](db, CONFIG), db, None)[1] for name in order]
    assert hosted_views(facts) == engine.hosting.hosts
    assert {name: host for name, (host, _) in engine.hosting.hosts.items()} == {"V": "Vagg"}
    report = analyze_catalog(facts)
    assert [(d.rule_id, d.location) for d in report.diagnostics if d.rule_id == "SHARE703"] == [
        ("SHARE703", "V")
    ]
    # a hosted view holds no round-share key, in the lint as in the engine
    assert share_groups(facts) == {} == _engine_groups(engine)


def test_the_lint_hosts_nothing_on_the_bsma_views():
    config = BsmaConfig(n_users=40)
    db = build_bsma_database(config)
    engine = IdIvmEngine(db)
    for name in sorted(BSMA_QUERIES):
        engine.define_view(name, BSMA_QUERIES[name](db, config))
    facts = [
        _lint_view_entry(name, BSMA_QUERIES[name](db, config), db, None)[1]
        for name in sorted(BSMA_QUERIES)
    ]
    assert hosted_views(facts) == engine.hosting.hosts == {}
