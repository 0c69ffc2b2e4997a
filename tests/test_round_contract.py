"""The round contract every engine inherits from
:class:`repro.core.engine.MaintenanceEngine`: one ``maintain``, one
``_round``, the same trace / metrics / freshness / pre-state behaviour —
whatever rules the engine applies per view.
"""

from __future__ import annotations

import pickle
import sys
from collections import Counter
from contextlib import ExitStack
from unittest import mock

import pytest

from repro.algebra import evaluate_plan, group_by, natural_join, scan
from repro.baselines import RecomputeEngine, SdbtEngine, TupleIvmEngine
import repro.analysis as analysis_mod
import repro.baselines.recompute as recompute_mod
import repro.core.engine as engine_mod
import repro.core.modlog as modlog_mod
import repro.core.script as script_mod
import repro.core.sharded as sharded_mod
from repro.core import EagerIvmEngine, IdIvmEngine, ShardedEngine
from repro.core.compile import bind_kernels
from repro.core.diffs import UPDATE
from repro.core.engine import EXEC_BACKENDS, MaintenanceEngine, MaterializedView
from repro.core.modlog import schema_instance_name
from repro.core.rules.aggregate import AssociativeAggregateStep
from repro.core.script import ApplyDiffStep
from repro.crosscheck.invariants import check_table
from repro.expr import col
from repro.obs import (
    SpanRecorder,
    load_trace,
    metrics,
    reconcile_trace,
    recording,
    validate_trace,
    write_trace,
)
from repro.shard import build_blueprint
from repro.shard.workers import _WorkerState
from repro.storage import Database, Table
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
from tests.conftest import (
    assert_views_at_their_cursors,
    build_view_v,
    build_view_v_prime,
    unhosted,
    view_bag,
)

CONFIG = DevicesConfig(n_parts=60, n_devices=60, diff_size=12)

ENGINES = {
    "id": IdIvmEngine,
    "sharded": lambda db: ShardedEngine(db, shards=2),
    "eager": EagerIvmEngine,
    "tuple": TupleIvmEngine,
    "sdbt": SdbtEngine,
    "recompute": RecomputeEngine,
}
ENGINE_CLASSES = (
    IdIvmEngine, ShardedEngine, EagerIvmEngine, TupleIvmEngine, SdbtEngine,
    RecomputeEngine,
)


def _engine_with_views(kind: str, names=("V",)):
    db = build_devices_database(CONFIG)
    engine = ENGINES[kind](db)
    views = [engine.define_view(n, build_aggregate_view(db, CONFIG)) for n in names]
    return db, engine, views


@pytest.mark.parametrize("engine_cls", ENGINE_CLASSES, ids=lambda c: c.__name__)
def test_one_round_loop(engine_cls):
    assert engine_cls.maintain is MaintenanceEngine.maintain
    for cls in engine_cls.__mro__:
        if cls is not MaintenanceEngine:
            assert "_round" not in vars(cls), cls.__name__


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_recorded_round_validates_and_reconciles(kind, tmp_path):
    db, engine, (view,) = _engine_with_views(kind)
    apply_price_updates(engine, db, CONFIG)
    recorder = SpanRecorder()
    with recording(recorder):
        report = engine.maintain()["V"]
    assert report.total_cost > 0
    path = str(tmp_path / "round.jsonl")
    write_trace(recorder, path)
    assert validate_trace(path) == []
    assert reconcile_trace(load_trace(path)) == []
    (round_span,) = recorder.find(kind="engine", name="maintain")
    assert round_span.attrs["engine"] == type(engine).__name__
    assert [sp.name for sp in recorder.find(kind="view")] == ["view:V"]
    assert recorder.find(kind="phase")
    assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_round_feeds_metrics_and_freshness(kind):
    db, engine, _ = _engine_with_views(kind)
    rounds = metrics.counter("engine.maintain_rounds")
    for number in range(1, 3):
        n_entries = apply_price_updates(engine, db, CONFIG, round_seed=number)
        assert engine.freshness.staleness("V").pending == n_entries
        report = engine.maintain()["V"]
        assert rounds.value == number
        assert engine.freshness.staleness("V").pending == 0
        assert engine.last_reports["V"] is report


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_live_database_is_copied_at_most_once(kind):
    """Round 1 builds the ``Input_pre`` replica: one copy of the live
    database holding exactly the tables the views declare (none for
    recomputation, nor for the ID rules on this view).  No engine copies
    any database after that (SDBT's sequential hybrid state included)."""
    db, engine, (view,) = _engine_with_views(kind)
    real_copy, copied = Database.copy, []

    def spy(self, *args, **kwargs):
        clone = real_copy(self, *args, **kwargs)
        copied.append((self is db, set(clone.tables)))
        return clone

    declared = {"devices", "devices_parts", "parts"} if kind in ("tuple", "sdbt") else set()
    assert view.pre_tables == engine._pre.tables == declared
    with mock.patch.object(Database, "copy", spy):
        for number in range(3):
            apply_price_updates(engine, db, CONFIG, round_seed=number)
            engine.maintain()
            assert copied == [(True, declared)]


@pytest.mark.parametrize("kind", ["tuple", "sdbt"])
def test_log_is_folded_once_per_round_not_per_view(kind):
    """The tuple and SDBT baselines fold the log once a round, not once a
    view: both views of a round propagate the very net changes the
    round's entries memoise."""
    db, engine, views = _engine_with_views(kind, names=("A", "B"))
    real_fold, folds = modlog_mod._fold, []
    real_maintain, nets = type(engine)._maintain_view, []

    def spy_fold(*args):
        folds.append(1)
        return real_fold(*args)

    def spy_maintain(self, view, db_pre, entries, *rest):
        report = real_maintain(self, view, db_pre, entries, *rest)
        nets.append(entries.net)
        return report

    with mock.patch.object(modlog_mod, "_fold", spy_fold), mock.patch.object(
        type(engine), "_maintain_view", spy_maintain
    ):
        for number in range(1, 3):
            apply_price_updates(engine, db, CONFIG, round_seed=number)
            engine.maintain()
            assert len(folds) == number
            first, second = nets[-2:]
            assert first is not None and first is second
    assert nets[0] is not nets[2]
    for view in views:
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_the_log_is_folded_once_per_round_by_every_engine(kind):
    """Every view's i-diff population, every view of the tuple and SDBT
    baselines and the replica's roll-forward read the one fold the
    round's entries memoise.  Recomputation reads none of it, but its
    round folds the log all the same: the round refuses a log that does
    not fold before any view runs, whatever the engine."""
    db, engine, views = _engine_with_views(kind, names=("A", "B"))
    real_fold, folds = modlog_mod._fold, []

    def spy(*args):
        folds.append(1)
        return real_fold(*args)

    with mock.patch.object(modlog_mod, "_fold", spy):
        for number in range(1, 4):
            apply_price_updates(engine, db, CONFIG, round_seed=number)
            engine.maintain()
            assert len(folds) == number
    for view in views:
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()
    assert_same_rows(engine._pre.db, db, engine._pre.tables)


def assert_same_rows(replica, live, tables):
    assert replica.tables.keys() == tables
    for name in tables:
        assert replica.tables[name].as_set() == live.tables[name].as_set(), name


def _instances_per_view(engine):
    """``maintain()`` once; the instances each view's round was handed."""
    real, handed = engine_mod.populate_instances, {}

    def spy(layout, entries, db):
        out = real(layout, entries, db)
        view = next(v for v in engine.views.values() if v.instance_layout is layout)
        handed[view.name] = out
        return out

    with mock.patch.object(engine_mod, "populate_instances", spy):
        engine.maintain()
    return handed


def test_views_with_equal_schema_sets_are_handed_the_same_instances():
    db = build_devices_database(CONFIG)
    engine = IdIvmEngine(db)
    flat = engine.define_view("V", unhosted(build_flat_view(db, CONFIG)))
    agg = engine.define_view("Vagg", build_aggregate_view(db, CONFIG))
    apply_price_updates(engine, db, CONFIG)
    handed = _instances_per_view(engine)
    assert handed["V"].keys() == handed["Vagg"].keys()
    filled = [name for name, diff in handed["V"].items() if diff.rows]
    assert filled == ["base_u_parts__price"]
    assert handed["V"][filled[0]] is handed["Vagg"][filled[0]]
    for view in (flat, agg):
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


def test_views_with_different_update_schemas_route_independently():
    """BSMA ``Q7`` and ``Q*1`` both read updates of ``users`` through
    different sets of update schemas: an update routes to the minimal
    cover *within the view's set*, so neither may be handed the other's
    instances."""
    config = BsmaConfig(n_users=60)
    db = build_bsma_database(config)
    engine = IdIvmEngine(db)
    views = {
        name: engine.define_view(name, BSMA_QUERIES[name](db, config))
        for name in ("Q7", "Q*1")
    }
    on_users = {
        name: {
            schema_instance_name(s) for s in view.instance_layout
            if s.target == "users" and s.kind == UPDATE
        }
        for name, view in views.items()
    }
    assert on_users["Q7"] != on_users["Q*1"]
    log_user_updates(engine, db, config, 12, round_seed=3)
    handed = _instances_per_view(engine)
    for name, instances in handed.items():
        filled = {n for n, diff in instances.items() if diff.rows}
        assert filled and filled <= on_users[name], name
    for view in views.values():
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


def test_eager_engine_passes_constructor_options_through():
    db = build_devices_database(CONFIG)
    engine = EagerIvmEngine(db, cache_policy="never", exec_backend="interp")
    assert engine.cache_policy == "never" and engine.exec_backend == "interp"
    view = engine.define_view("V", build_aggregate_view(db, CONFIG))
    assert view.script is view.generated.script
    # cache_policy="never": the script places no intermediate cache
    assert view.generated.cache_specs == [] and list(view.caches) == [view.plan.node_id]
    engine.update("parts", ("P0",), {"price": 4242})
    assert len(engine.rounds) == 1
    assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


BIG = DevicesConfig(n_parts=500, n_devices=120, diff_size=400)
COUNTED_WRITERS = (
    "update_many", "insert_many", "delete_many",
    "insert", "insert_checked", "write_at", "delete_at",
)


def _big_round(**engine_options):
    """A 400-update round over a flat view V and the aggregate view V′."""
    db = build_devices_database(BIG)
    engine = IdIvmEngine(db, **engine_options)
    engine.define_view("V", unhosted(build_flat_view(db, BIG)))
    engine.define_view("Vagg", build_aggregate_view(db, BIG))
    apply_price_updates(engine, db, BIG)
    return db, engine


def test_round_is_batched_by_call_count():
    """One counted ``Table`` write call per APPLY step and one per γ
    flush: the calls are bounded by the script, not by the rows written."""
    db, engine = _big_round()
    calls: list[str] = []

    def spy(name):
        real = getattr(Table, name)

        def writer(self, *args, **kwargs):
            calls.append(name)
            return real(self, *args, **kwargs)

        return writer

    with ExitStack() as stack:
        for name in COUNTED_WRITERS:
            stack.enter_context(mock.patch.object(Table, name, spy(name)))
        reports = engine.maintain()
    steps = [step for view in engine.views.values() for step in view.script.steps]
    batched = [
        s for s in steps if isinstance(s, (ApplyDiffStep, AssociativeAggregateStep))
    ]
    writes = sum(r.phase_counts["__total__"].tuple_writes for r in reports.values())
    assert writes > 10 * len(steps)
    assert 0 < len(calls) <= len(batched) <= len(steps)
    assert set(calls) <= {"update_many", "insert_many", "delete_many"}
    # ... and the same accesses, phase by phase, as the reference executor.
    _, reference = _big_round(exec_backend="interp")
    expected = reference.maintain()
    for name, view in engine.views.items():
        assert reports[name].phase_counts == expected[name].phase_counts
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


def test_blueprint_pickles_after_a_round_has_run():
    """The stored script's step objects travel in every worker blueprint:
    whatever a round lowers (γ argument closures, exec plans) must not
    stick to them.  A view defined after round 1 re-boots the pool."""
    db = build_devices_database(CONFIG)
    engine = ShardedEngine(db, shards=2, backend="process")
    try:
        engine.define_view("V", build_aggregate_view(db, CONFIG))
        apply_price_updates(engine, db, CONFIG)
        engine.maintain()
        pickle.dumps(build_blueprint(
            engine.db, engine.views, engine.exec_backend, engine._pre.tables
        ))
        engine.define_view("W", build_flat_view(db, CONFIG))
        apply_price_updates(engine, db, CONFIG, round_seed=1)
        engine.maintain()
        for view in engine.views.values():
            assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()
    finally:
        engine.close()


# ----------------------------------------------------------------------
# one ∆-script per view: what is routed, analyzed and executed is
# ``view.generated.script`` — identity, not equality — on both backends
# ----------------------------------------------------------------------
ONE_SCRIPT_ENGINES = {
    "id": IdIvmEngine,
    "eager": EagerIvmEngine,
    "sharded-inline": lambda db, **kw: ShardedEngine(db, shards=2, **kw),
    "sharded-process": lambda db, **kw: ShardedEngine(
        db, shards=2, backend="process", **kw
    ),
}


def _recording_first_arg(real, seen):
    def spy(first, *args, **kwargs):
        seen.append(first)
        return real(first, *args, **kwargs)

    return spy


@pytest.mark.parametrize("exec_backend", EXEC_BACKENDS)
@pytest.mark.parametrize("kind", sorted(ONE_SCRIPT_ENGINES))
def test_one_script_is_routed_analyzed_and_executed(kind, exec_backend):
    db = build_devices_database(CONFIG)
    engine = ONE_SCRIPT_ENGINES[kind](db, exec_backend=exec_backend)
    routed, analyzed, executed = [], [], []
    execute_spy = _recording_first_arg(script_mod.execute_script, executed)
    with ExitStack() as stack:
        stack.callback(getattr(engine, "close", lambda: None))
        for target, name, spy in (
            (sharded_mod, "plan_route", _recording_first_arg(sharded_mod.plan_route, routed)),
            # the engine binds the name at import, run_shard at call time
            (engine_mod, "execute_script", execute_spy),
            (script_mod, "execute_script", execute_spy),
            (
                analysis_mod,
                "run_passes",
                lambda ctx, names=None: analyzed.append(ctx.script) or ctx.report,
            ),
        ):
            stack.enter_context(mock.patch.object(target, name, spy))
        # the flat view routes parallel on price updates, γ broadcasts
        views = [
            engine.define_view("V", unhosted(build_flat_view(db, CONFIG))),
            engine.define_view("A", build_aggregate_view(db, CONFIG)),
        ]
        for view in views:
            assert view.script is view.generated.script
            assert bool(view.script._kernels) == (exec_backend == "compiled")
            analysis_mod.analyze_generated(view.generated, db=db)
        apply_price_updates(engine, db, CONFIG)
        engine.maintain()
    scripts = [view.generated.script for view in views]
    assert [s is t for s, t in zip(analyzed, scripts)] == [True, True]
    if kind.startswith("sharded"):
        assert [s is t for s, t in zip(routed, scripts)] == [True, True]
    # in-process executions: every shard of V plus A's broadcast; the
    # process backend runs V in its workers (their replica: next test)
    assert executed and all(any(s is t for t in scripts) for s in executed)
    assert any(s is scripts[1] for s in executed)
    assert any(s is scripts[0] for s in executed) == (kind != "sharded-process")
    for view in views:
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


@pytest.mark.parametrize("exec_backend", EXEC_BACKENDS)
def test_worker_builds_the_same_view_and_binds_its_one_script(exec_backend):
    db = build_devices_database(CONFIG)
    engine = IdIvmEngine(db, exec_backend=exec_backend)
    engine.define_view("V", build_flat_view(db, CONFIG))
    blueprint = build_blueprint(db, engine.views, exec_backend, engine._pre.tables)
    # what crosses the pipe carries no kernels, whatever the coordinator bound
    wired = pickle.loads(pickle.dumps(blueprint))
    assert not wired["views"][0]["generated"].script._kernels
    view = _WorkerState(wired).views["V"]
    assert type(view) is MaterializedView
    assert view.script is view.generated.script
    assert view.table is view.caches[view.plan.node_id]
    assert bool(view.script._kernels) == (exec_backend == "compiled")


def test_misspelt_backend_is_refused_not_interpreted():
    """``script_for(generated, "complied")`` used to hand back the
    interpretable script without a word, on the coordinator and in every
    worker."""
    db = build_devices_database(CONFIG)
    engine = IdIvmEngine(db)
    engine.define_view("V", build_flat_view(db, CONFIG))
    with pytest.raises(ValueError, match="complied"):
        build_blueprint(db, engine.views, "complied", engine._pre.tables)
    blueprint = build_blueprint(db, engine.views, "compiled", engine._pre.tables)
    blueprint["exec_backend"] = "complied"
    with pytest.raises(ValueError, match="complied"):
        _WorkerState(blueprint)


def test_pickled_plan_runs_interpreted_until_kernels_are_rebound():
    def twin():
        db = build_devices_database(CONFIG)
        engine = IdIvmEngine(db)
        return db, engine, engine.define_view("V", build_aggregate_view(db, CONFIG))

    def round_(db, engine, seed):
        apply_price_updates(engine, db, CONFIG, round_seed=seed)
        recorder = SpanRecorder()
        with recording(recorder):
            report = engine.maintain()["V"]
        return report.phase_counts, len(recorder.find(kind="ir_op"))

    db, engine, view = twin()
    db2, engine2, view2 = twin()
    view2.generated = pickle.loads(pickle.dumps(view2.generated))
    assert view.script._kernels and not view2.script._kernels
    counts, ir_ops = round_(db, engine, 0)
    counts2, ir_ops2 = round_(db2, engine2, 0)
    assert counts2 == counts and ir_ops == 0 < ir_ops2
    assert bind_kernels(view2.script, "compiled") is view2.generated.script
    assert view2.script._kernels.keys() == view.script._kernels.keys()
    counts, _ = round_(db, engine, 1)
    counts2, ir_ops2 = round_(db2, engine2, 1)
    assert counts2 == counts and ir_ops2 == 0
    assert view2.table.as_set() == evaluate_plan(view2.plan, db2).as_set()


# ----------------------------------------------------------------------
# one ledger of what each view absorbed: maintaining one view of several
# (i) and a view failing before its first write (ii) lose nothing; the
# ShardedEngine's cases run in tests/test_sharded.py, on every backend
# ----------------------------------------------------------------------
CURSOR_KINDS = sorted(set(ENGINES) - {"sharded"})


class Boom(RuntimeError):
    pass


def _two_view_engine(kind: str, db, build_b=build_view_v_prime):
    """Views A (flat) and B (by default a γ-sum) over the running
    example, each keeping its own state; SDBT takes aggregates over SPJ
    only, so its A is a γ-count."""
    engine = ENGINES[kind](db)
    a = build_view_v_prime(db)
    engine.define_view(
        "A",
        group_by(a.child, ("did",), [("count", None, "parts")])
        if kind == "sdbt" else unhosted(build_view_v(db)),
    )
    engine.define_view("B", build_b(db))
    for price in range(11, 31):   # 20 updates of P1
        engine.log.update("parts", ("P1",), {"price": price})
    return engine


def _second_view_fails(kind: str):
    """Make the round's second view raise before its first write: at the
    ∆-script's entry, SDBT's first map write, or the recomputation."""
    owner, name = {
        "sdbt": (SdbtEngine, "_maintain_maps"),
        "recompute": (recompute_mod, "counted_phase"),
    }.get(kind, (engine_mod, "execute_script"))
    real, calls = getattr(owner, name), []

    def second_call_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise Boom("injected")
        return real(*args, **kwargs)

    return mock.patch.object(owner, name, second_call_fails)


def _assert_b_kept_its_entries_then_converges(engine, db) -> None:
    log = engine.log
    assert log.cursors == {"A": 20, "B": 0} and len(log.entries) == 20
    assert engine.freshness.staleness("B").pending == 20
    assert_views_at_their_cursors(engine, db)
    engine.maintain()
    assert log.cursors == {"A": 20, "B": 20} and log.entries == []
    assert_views_at_their_cursors(engine, db)


@pytest.mark.parametrize("kind", CURSOR_KINDS)
def test_maintaining_one_view_of_several_loses_nothing(kind, running_example_db):
    engine = _two_view_engine(kind, running_example_db)
    engine.maintain("A")
    _assert_b_kept_its_entries_then_converges(engine, running_example_db)


@pytest.mark.parametrize("kind", CURSOR_KINDS)
def test_a_view_that_fails_keeps_its_entries(kind, running_example_db):
    engine = _two_view_engine(kind, running_example_db)
    with _second_view_fails(kind), pytest.raises(Boom):
        engine.maintain()
    _assert_b_kept_its_entries_then_converges(engine, running_example_db)


@pytest.mark.parametrize("kind", CURSOR_KINDS)
def test_a_failed_round_keeps_the_telemetry_of_the_views_that_committed(
    kind, running_example_db
):
    """Round 2 fails in B: A committed before it, so A's report, round
    count and lag observations are folded in; B's stay at round 1."""
    engine = _two_view_engine(kind, running_example_db)
    engine.maintain()
    first = engine.last_reports["A"]
    for price in range(31, 36):
        engine.log.update("parts", ("P1",), {"price": price})
    with _second_view_fails(kind), pytest.raises(Boom):
        engine.maintain()
    assert engine.log.cursors == {"A": 25, "B": 20}
    assert engine.last_reports["A"] is not first
    views = engine.freshness.report()["views"]
    assert (views["A"]["rounds"], views["B"]["rounds"]) == (2, 1)
    assert engine.freshness.lag_histogram("A").count == 25
    assert engine.freshness.lag_histogram("B").count == 20


def _idle_pair_engine(kind: str, db):
    """B (a γ-sum over the running example) and C, a γ-count over a
    table of its own, ``suppliers``, that B does not read."""
    db.create_table("suppliers", ("sid", "city"), ("sid",))
    db.table("suppliers").load([("S1", "Oslo"), ("S2", "Oslo"), ("S3", "Rome")])
    engine = ENGINES[kind](db)
    engine.define_view("B", build_view_v_prime(db))
    engine.define_view(
        "C", group_by(scan(db, "suppliers"), ("city",), [("count", None, "n")])
    )
    return engine


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_an_idle_view_round_costs_nothing(kind, running_example_db):
    """ROADMAP item 19(a): a range that changes none of C's base tables
    leaves C an idle round on every engine — no journal armed on its
    tables, no instance populated, no script run, no prediction, drift
    or per-view sample — while its cursor moves, its freshness is noted
    and the round still reports it, at no cost."""
    db = running_example_db
    engine = _idle_pair_engine(kind, db)
    c = engine.views["C"]
    owned = {id(t) for t in (c.table, *c.written_tables)}
    armed, populated, executed, maintained = [], [], [], []
    real_begin, real_populate = Table.begin_journal, engine_mod.populate_instances
    real_execute, real_maintain = engine_mod.execute_script, type(engine)._maintain_view

    def begin_journal(self):
        armed.append(id(self))
        return real_begin(self)

    def populate(layout, *args):
        populated.append(layout)
        return real_populate(layout, *args)

    def execute(script, ctx):
        executed.append(script)
        return real_execute(script, ctx)

    def maintain_view(self, view, *args):
        maintained.append(view.name)
        return real_maintain(self, view, *args)

    for price in range(11, 16):
        engine.log.update("parts", ("P1",), {"price": price})
    with metrics.scoped() as reg, ExitStack() as stack:
        stack.enter_context(mock.patch.object(Table, "begin_journal", begin_journal))
        stack.enter_context(mock.patch.object(engine_mod, "populate_instances", populate))
        stack.enter_context(mock.patch.object(engine_mod, "execute_script", execute))
        stack.enter_context(mock.patch.object(type(engine), "_maintain_view", maintain_view))
        reports = engine.maintain()
    assert maintained == ["B"]
    # B's journals only (recomputation journals nothing)
    assert bool(armed) == bool(engine.views["B"].written_tables)
    assert not owned & set(armed)
    assert all(layout is not getattr(c, "instance_layout", None) for layout in populated)
    assert all(script is not getattr(c, "script", None) for script in executed)
    assert reports["C"].total_cost == 0 and reports["C"].phase_counts == {}
    assert reports["C"].predicted_counts is None
    assert reports["B"].total_cost > 0
    assert engine.last_reports["C"] is reports["C"]
    assert engine.log.cursors == {"B": 5, "C": 5} and engine.log.entries == []
    assert engine.freshness.staleness("C").rounds == 1
    assert engine.freshness.lag_histogram("C").count == 5
    assert "C" not in {view for view, _metric in engine.drift._states}
    # only B's round is sampled
    assert reg.loghist("engine.round_cost").count == 1
    assert reg.loghist("view.round_seconds.C").count == 0
    assert reg.loghist("view.round_seconds.B").count == 1
    # a change on C's table makes its next round a real one
    engine.log.update("suppliers", ("S3",), {"city": "Oslo"})
    reports = engine.maintain()
    assert reports["C"].total_cost > 0 and reports["B"].total_cost == 0
    assert engine.freshness.staleness("C").rounds == 2
    for name, view in engine.views.items():
        assert view_bag(engine, name) == Counter(evaluate_plan(view.plan, db).rows), name


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_a_traced_idle_view_round_validates_and_reconciles(kind, running_example_db, tmp_path):
    db = running_example_db
    engine = _idle_pair_engine(kind, db)
    engine.log.update("parts", ("P2",), {"price": 21})
    recorder = SpanRecorder()
    with recording(recorder):
        engine.maintain()
    spans = {sp.name: sp for sp in recorder.find(kind="view")}
    assert spans["view:C"].attrs["idle"] is True
    assert spans["view:C"].attrs["total_cost"] == 0
    assert spans["view:B"].attrs["total_cost"] > 0
    path = str(tmp_path / "round.jsonl")
    write_trace(recorder, path)
    assert validate_trace(path) == []
    assert reconcile_trace(load_trace(path)) == []


def _in_view(engine, name: str):
    """A patch of the engine's ``_maintain_view`` and the list it keeps
    ``[True]`` while view *name* is maintained (``[False]`` for another
    view, empty between views)."""
    real_view, inside = type(engine)._maintain_view, []

    def maintain_view(self, view, *args, **kwargs):
        inside[:] = [view.name == name]
        try:
            return real_view(self, view, *args, **kwargs)
        finally:
            inside.clear()

    return mock.patch.object(type(engine), "_maintain_view", maintain_view), inside


def _fails_after_its_first_write(engine, stack):
    """B raises right after its first counted write (a ``Table._account``
    tail with rows)."""
    patch, in_b = _in_view(engine, "B")
    real_account = Table._account

    def account(self, changes, *args, **kwargs):
        real_account(self, changes, *args, **kwargs)
        if changes and in_b == [True]:
            raise Boom("injected after a write")

    stack.enter_context(patch)
    stack.enter_context(mock.patch.object(Table, "_account", account))


def _fails_inside_a_bulk_batch(engine, stack):
    """B raises at the second row a bulk writer stores or drops: the
    writer's ``finally`` charges the row before it."""
    patch, in_b = _in_view(engine, "B")
    real_store, real_discard = Table._store, Table._discard
    bulk = {"update_rows", "insert_many", "delete_many"}
    rows_of: Counter = Counter()

    def second_row_raises():
        caller = sys._getframe(2)
        if in_b == [True] and caller.f_code.co_name in bulk:
            rows_of[id(caller)] += 1
            if rows_of[id(caller)] == 2:
                raise Boom("injected inside a bulk batch")

    def store(self, *args, **kwargs):
        second_row_raises()
        real_store(self, *args, **kwargs)

    def discard(self, *args, **kwargs):
        second_row_raises()
        real_discard(self, *args, **kwargs)

    stack.enter_context(patch)
    stack.enter_context(mock.patch.object(Table, "_store", store))
    stack.enter_context(mock.patch.object(Table, "_discard", discard))


def _fails_after_its_group_pass(engine, stack):
    """B's γ pass writes its groups, then raises."""
    view = engine.views["B"]
    holders = [view] if hasattr(view, "group_pass") else [
        step._bound for step in view.script.steps
        if isinstance(step, AssociativeAggregateStep)
    ]
    for holder in holders:
        real = holder.group_pass

        def group_pass(changes, real=real):
            real(changes)
            raise Boom("injected after the group pass")

        stack.enter_context(mock.patch.object(holder, "group_pass", group_pass))


FAILURE_POINTS = {
    "first_write": _fails_after_its_first_write,
    "bulk_batch": _fails_inside_a_bulk_batch,
    "group_pass": _fails_after_its_group_pass,
}


def _snapshot(table: Table) -> tuple:
    return dict(table._rows), {
        columns: {value: set(keys) for value, keys in index.buckets.items()}
        for columns, index in table._indexes.items()
    }


def _two_aggregates(db):
    """Per device, its parts' total price joined with its placement
    count: a price update reaches the first γ, its caches and the view,
    and leaves the second γ's output and operator cache alone."""
    cost = group_by(
        natural_join(scan(db, "parts"), scan(db, "devices_parts")),
        ("did",), [("sum", col("price"), "cost")],
    )
    placed = group_by(scan(db, "devices_parts"), ("did",), [("count", None, "n")])
    return natural_join(cost, placed)


@pytest.mark.parametrize("kind,point", [
    pytest.param(kind, point, id=kind if point == "first_write" else f"{kind}-{point}")
    for kind in sorted(ENGINES) for point in FAILURE_POINTS
    # recomputation fills a fresh table row by row: no batch, no γ pass
    if kind != "recompute" or point == "first_write"
])
def test_a_view_that_fails_after_its_first_write_converges(kind, point, running_example_db):
    """ROADMAP item 1b: a view that fails after a write — its first, one
    inside a bulk batch, or its γ pass — is rolled back whole: its round
    journals every table the view owns, each of them (written or not)
    holds the rows and index buckets it held before the round, the
    restore charges nothing, and a retry converges."""
    db = running_example_db
    # SDBT takes aggregates over SPJ only
    engine = _two_view_engine(kind, db, build_view_v_prime if kind == "sdbt" else _two_aggregates)
    b = engine.views["B"]
    tables = {id(t): t for t in (b.table, *b.written_tables)}.values()
    before = [_snapshot(t) for t in tables]
    rollbacks = metrics.counter("engine.view_rollbacks")
    armed, restores, in_round = [], [], []
    real_round = type(engine)._view_round
    real_begin, real_end = Table.begin_journal, Table.end_journal

    def view_round(self, view, *args):
        in_round[:] = [view.name]
        try:
            return real_round(self, view, *args)
        finally:
            in_round.clear()

    def begin_journal(self):
        # the round's own journal, not a shard's savepoint inside it
        if in_round == ["B"] and self._journal is None:
            armed.append(self)
        real_begin(self)

    def end_journal(self, commit=True, write_set=False):
        counts = self.counters.snapshot()
        got = real_end(self, commit, write_set)
        if not commit:
            restores.append((self, self.counters.snapshot() == counts))
        return got

    with ExitStack() as stack:
        FAILURE_POINTS[point](engine, stack)
        stack.enter_context(mock.patch.object(type(engine), "_view_round", view_round))
        stack.enter_context(mock.patch.object(Table, "begin_journal", begin_journal))
        stack.enter_context(mock.patch.object(Table, "end_journal", end_journal))
        with pytest.raises(Boom):
            engine.maintain()
    assert rollbacks.value == 1
    assert [table for table, _ in restores] == armed and all(ok for _, ok in restores)
    if kind == "recompute":
        assert armed == []  # it swaps a fresh table in on success
    else:
        assert armed == list(b.written_tables), [t.name for t in armed]
    assert engine.log.cursors == {"A": 20, "B": 0}
    for table, (rows, buckets) in zip(tables, before):
        assert _snapshot(table)[0] == rows, table.name
        for columns, bucket in buckets.items():
            assert _snapshot(table)[1][columns] == bucket, (table.name, columns)
        assert check_table(table, table.name) == []
    engine.maintain()
    assert rollbacks.value == 1
    for name, view in engine.views.items():
        assert view_bag(engine, name) == Counter(evaluate_plan(view.plan, db).rows), name
