"""The round contract every engine inherits from
:class:`repro.core.engine.MaintenanceEngine`: one ``maintain``, one
``_round``, the same trace / metrics / freshness / pre-state behaviour —
whatever rules the engine applies per view.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.algebra import evaluate_plan, where
from repro.baselines import RecomputeEngine, SdbtEngine, TupleIvmEngine, sdbt, tuple_ivm
from repro.core import EagerIvmEngine, IdIvmEngine, ShardedEngine
from repro.core.engine import MaintenanceEngine
from repro.errors import StaticAnalysisError
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
from repro.storage import Database
from repro.workloads import (
    DevicesConfig,
    apply_price_updates,
    build_aggregate_view,
    build_devices_database,
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
    """Round 1 builds the ``Input_pre`` replica; recomputation reads no
    pre-state and never pays for one."""
    db, engine, _ = _engine_with_views(kind)
    real_copy, live_copies = Database.copy, []

    def spy(self, *args, **kwargs):
        if self is db:
            live_copies.append(1)
        return real_copy(self, *args, **kwargs)

    with mock.patch.object(Database, "copy", spy):
        for number in range(3):
            apply_price_updates(engine, db, CONFIG, round_seed=number)
            engine.maintain()
            assert len(live_copies) == (0 if kind == "recompute" else 1)


@pytest.mark.parametrize(
    "kind, module", [("tuple", tuple_ivm), ("sdbt", sdbt)], ids=["tuple", "sdbt"]
)
def test_log_is_folded_once_per_round_not_per_view(kind, module):
    db, engine, views = _engine_with_views(kind, names=("A", "B"))
    real_fold, folds = module.fold_log, []

    def spy(*args, **kwargs):
        folds.append(1)
        return real_fold(*args, **kwargs)

    with mock.patch.object(module, "fold_log", spy):
        for number in range(1, 3):
            apply_price_updates(engine, db, CONFIG, round_seed=number)
            engine.maintain()
            assert len(folds) == number
    for view in views:
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


def test_eager_engine_passes_constructor_options_through():
    db = build_devices_database(CONFIG)
    engine = EagerIvmEngine(db, strict=True, exec_backend="interp")
    assert engine.strict and engine.exec_backend == "interp"
    view = engine.define_view("V", build_aggregate_view(db, CONFIG))
    assert view.script is view.generated.script
    # strict=True: a non-boolean filter predicate is refused at define time
    with pytest.raises(StaticAnalysisError):
        engine.define_view("bad", where(build_aggregate_view(db, CONFIG), col("cost") + 1))
    engine.update("parts", ("P0",), {"price": 4242})
    assert len(engine.rounds) == 1
    assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()
