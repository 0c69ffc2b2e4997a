"""A round re-derives nothing its statements fixed at definition.

What a stored ∆-script's statements resolve of their tables — the
emitted diff schemas of a γ step, its generated pass, an
``update_many``'s finder, touched indexes and row patcher, an APPLY's
column reorder, a t-diff's row extractors — is bound once and read by
every later round; a steady round builds none of it, and a γ step's
pass is generated at definition, not in the first round.  Also pinned here:
what invalidates the table memo, that a γ step's emitted diffs are unique
on their IDs (they are adopted without validation), that a logged update
folds from the post row it carries exactly as from a patched one, and
the interleaved A/B rig.
"""

from __future__ import annotations

import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

import repro.core.compile as compile_mod
import repro.core.rules.aggregate as aggregate_mod
from repro.algebra.evaluate import evaluate_plan
from repro.baselines import TupleIvmEngine
from repro.core import IdIvmEngine
from repro.core.apply import EffectiveDiffs
from repro.core.diffs import DiffSchema, Diff
from repro.core.modlog import LoggedModification, ModificationLog, RoundEntries
from repro.errors import SchemaError
from repro.storage import Database, TableSchema, row_extractor
from repro.workloads import (
    BSMA_QUERIES,
    BsmaConfig,
    DevicesConfig,
    build_aggregate_view,
    build_bsma_database,
    build_devices_database,
    build_flat_view,
    log_user_updates,
)
from repro.workloads.devices import log_batch, mixed_modification_batch
from tests.conftest import unhosted

REPO_ROOT = Path(__file__).resolve().parents[1]
DEV_CONFIG = DevicesConfig(n_parts=80, n_devices=80, diff_size=24)
BSMA_CONFIG = BsmaConfig(n_users=60)
ENGINES = {"id": IdIvmEngine, "tuple": TupleIvmEngine}


def _devices(engine_cls):
    db = build_devices_database(DEV_CONFIG)
    engine = engine_cls(db)
    engine.define_view("V", unhosted(build_flat_view(db, DEV_CONFIG)))
    engine.define_view("Vagg", build_aggregate_view(db, DEV_CONFIG))

    def one_round(seed: int) -> None:
        log_batch(engine, mixed_modification_batch(
            db, DEV_CONFIG, updates=4, inserts=2, deletes=1, round_seed=seed
        ))

    return db, engine, one_round


def _bsma(engine_cls):
    db = build_bsma_database(BSMA_CONFIG)
    engine = engine_cls(db)
    for name, make in sorted(BSMA_QUERIES.items()):
        engine.define_view(name, make(db, BSMA_CONFIG))

    def one_round(seed: int) -> None:
        log_user_updates(engine, db, BSMA_CONFIG, n_updates=5, round_seed=seed)

    return db, engine, one_round


# ----------------------------------------------------------------------
# steady rounds bind nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stream", [_devices, _bsma], ids=["devices", "bsma"])
@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_steady_rounds_construct_no_definition_time_constant(kind, stream):
    db, engine, one_round = stream(ENGINES[kind])
    assert engine.exec_backend == "compiled"
    for seed in range(6):  # warm-up: lazy indexes, slices, first binds
        one_round(seed)
        engine.maintain()
    made: Counter = Counter()

    def spy(owner, name: str):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            made[name] += 1
            return real(*args, **kwargs)

        return mock.patch.object(owner, name, counted)

    patches = [
        spy(DiffSchema, "__init__"),
        spy(aggregate_mod, "lower_group_pass"),
        spy(aggregate_mod._ChangeCollector, "__init__"),
        spy(TableSchema, "positions"),
        spy(TableSchema, "mutable_positions"),
    ]
    # every module that imported the extractor builder
    patches += [
        spy(module, "row_extractor")
        for module in list(sys.modules.values())
        if getattr(module, "row_extractor", None) is row_extractor
    ]
    for patch in patches:
        patch.start()
    try:
        for seed in range(6, 12):
            one_round(seed)
            reports = engine.maintain()
            assert sum(report.total_cost for report in reports.values()) > 0
    finally:
        for patch in patches:
            patch.stop()
    assert made == Counter()
    for view in engine.views.values():
        assert view.table.as_set() == frozenset(evaluate_plan(view.plan, db).rows)


@pytest.mark.parametrize("stream", [_devices, _bsma], ids=["devices", "bsma"])
@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_no_gamma_pass_is_generated_inside_a_round(kind, stream):
    """Each γ-delta step generates its pass when its view is defined:
    the first round compiles no ``<delta:gamma…>`` source."""
    db, engine, one_round = stream(ENGINES[kind])
    steps = [
        step for view in engine.views.values() for step in view.script.steps
        if isinstance(step, aggregate_mod.AssociativeAggregateStep)
    ]
    assert steps and all(step.group_pass is not None for step in steps)
    compiled: Counter = Counter()

    def counted(source, filename, *args, **kwargs):
        compiled[filename] += 1
        return compile(source, filename, *args, **kwargs)

    def gamma_sources() -> int:
        return sum(n for name, n in compiled.items() if name.startswith("<delta:gamma"))

    one_round(0)
    with mock.patch.object(compile_mod, "compile", counted, create=True):
        engine.maintain()
        assert gamma_sources() == 0
        bound = steps[0]._bound  # the spy sees a pass being generated
        compile_mod.lower_group_pass(steps[0].gnode, bound.output, bound.opcache)
        assert gamma_sources() == 1
    for view in engine.views.values():
        assert view.table.as_set() == frozenset(evaluate_plan(view.plan, db).rows)


@pytest.mark.parametrize("stream", [_devices, _bsma], ids=["devices", "bsma"])
@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_no_subview_reader_is_generated_inside_a_round(kind, stream):
    """Every subview read a script makes — its kernels' and its rule
    steps' — has its reader generated when its view is defined: the
    first round, which reads through them, compiles no ``<delta:read…>``
    source."""
    db, engine, one_round = stream(ENGINES[kind])
    built = {name: dict(view.script.readers.built) for name, view in engine.views.items()}
    assert any(built.values())
    compiled: Counter = Counter()

    def counted(source, filename, *args, **kwargs):
        compiled[filename] += 1
        return compile(source, filename, *args, **kwargs)

    def read_sources() -> int:
        return sum(n for name, n in compiled.items() if name.startswith("<delta:read"))

    one_round(0)
    with mock.patch.object(compile_mod, "compile", counted, create=True):
        engine.maintain()
        assert read_sources() == 0
        compile_mod.lower_reader(next(iter(engine.views.values())).plan, "post", None)
        assert read_sources() == 1  # the spy sees a reader being generated
    for name, view in engine.views.items():
        assert view.script.readers.built == built[name]
        assert view.table.as_set() == frozenset(evaluate_plan(view.plan, db).rows)


# ----------------------------------------------------------------------
# the table memo: dropped with the index set, never copied or pickled
# ----------------------------------------------------------------------
def _table():
    db = Database()
    table = db.create_table("t", ("k", "a", "b"), ("k",))
    table.load([(1, "x", 10), (2, "y", 20), (3, "x", 30)])
    return table


def test_update_many_binds_once_and_a_new_index_drops_the_binding():
    table = _table()
    assert table.update_many(("a",), ("b",), [("x", 11)]) == [
        ((1, "x", 10), (1, "x", 11)), ((3, "x", 30), (3, "x", 11)),
    ]
    bound = table._bound[("u", ("a",), ("b",), ((0,), (1,)), True)]
    table.update_many(("a",), ("b",), [("y", 21)])
    assert table._bound[("u", ("a",), ("b",), ((0,), (1,)), True)] is bound
    table.create_index(("b",))
    assert table._bound == {}
    # the touched index is maintained by the rebound writer
    table.update_many(("a",), ("b",), [("x", 12)])
    assert sorted(table._indexes[("b",)].buckets) == [(12,), (21,)]
    assert table.lookup(("b",), (12,)) and not table.lookup(("b",), (11,))


def test_the_memo_is_not_copied_or_pickled_and_refuses_key_columns_each_call():
    table = _table()
    table.update_many(("k",), ("a", "b"), [(1, "z", 1)])
    assert table.get_uncounted((1,)) == (1, "z", 1)
    assert table._bound
    assert table.copy()._bound == {}
    clone = pickle.loads(pickle.dumps(table))
    assert clone._bound == {} and clone.as_set() == table.as_set()
    for _ in range(2):
        with pytest.raises(SchemaError):
            table.update_many(("a",), ("k",), [("z", 9)])


def test_a_repeated_attribute_takes_its_last_value():
    table = _table()
    table.update_many(("k",), ("b", "b"), [(2, 7, 8)])
    assert table.get_uncounted((2,)) == (2, "y", 8)


# ----------------------------------------------------------------------
# a γ step's emitted diffs are unique on their IDs
# ----------------------------------------------------------------------
def _bsma_churn(engine, db, config: BsmaConfig, rng: random.Random, fresh: list) -> None:
    """Inserts, deletes and updates on ``retweets`` and ``mentions`` and on
    ``microblog``, plus the paper's user updates."""
    log = engine.log
    for table in ("retweets", "mentions"):
        rows = sorted(db.table(table).rows_uncounted())
        for row in rng.sample(rows, 3):
            log.delete(table, row[:1])
        rows = sorted(db.table(table).rows_uncounted())
        for row in rng.sample(rows, 4):
            column = rng.choice(("mid", "uid"))
            limit = config.n_tweets if column == "mid" else config.n_users
            log.update(table, row[:1], {column: rng.randrange(limit)})
        fresh[0] += 1
        row = (10_000 + fresh[0], rng.randrange(config.n_tweets), rng.randrange(config.n_users))
        log.insert(table, row + ((rng.randrange(1000),) if table == "retweets" else ()))
    mids = sorted(db.table("microblog").rows_uncounted())
    for row in rng.sample(mids, 2):
        log.update("microblog", row[:1], {"ts": rng.randrange(1000)})
    log_user_updates(engine, db, config, n_updates=5, round_seed=rng.randrange(1000))


@pytest.mark.parametrize("family", ["devices", "bsma"])
@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_emitted_group_diffs_are_unique_on_their_ids(kind, family):
    checked = Counter()
    real = EffectiveDiffs.adopt

    def validated(self, change_kind, rows):
        diff = real(self, change_kind, rows)
        if diff.rows:
            assert Diff(diff.schema, diff.rows).rows == diff.rows
            checked[change_kind] += 1
        return diff

    rng = random.Random(7)
    with mock.patch.object(EffectiveDiffs, "adopt", validated):
        if family == "devices":
            db, engine, one_round = _devices(ENGINES[kind])
        else:
            db = build_bsma_database(BSMA_CONFIG)
            engine = ENGINES[kind](db)
            for name, make in sorted(BSMA_QUERIES.items()):
                engine.define_view(name, make(db, BSMA_CONFIG))
            fresh = [0]

            def one_round(seed: int) -> None:
                _bsma_churn(engine, db, BSMA_CONFIG, rng, fresh)

        for seed in range(8):
            one_round(seed)
            engine.maintain()
    assert sum(checked.values()) > 0
    for view in engine.views.values():
        assert view.table.as_set() == frozenset(evaluate_plan(view.plan, db).rows)


# ----------------------------------------------------------------------
# logged updates carry their post row
# ----------------------------------------------------------------------
def _net(entries, db) -> dict:
    return {
        table: {key: (c.kind, c.pre_row, c.post_row) for key, c in per_key.items()}
        for table, per_key in RoundEntries(entries).folded(db).items()
    }


def test_a_logged_update_folds_alike_with_and_without_its_post_row():
    db = Database()
    db.create_table("t", ("k", "a", "b"), ("k",)).load(
        [(1, "x", 10), (2, "y", 20), (3, "z", 30)]
    )
    log = ModificationLog(db)
    log.update("t", (1,), {"a": "p"})        # update ∘ update
    log.update("t", (1,), {"b": 11})
    log.insert("t", (4, "w", 40))            # insert ∘ update
    log.update("t", (4,), {"b": 41})
    log.delete("t", (2,))                    # delete ∘ insert ∘ update
    log.insert("t", (2, "y", 22))
    log.update("t", (2,), {"a": "q"})
    log.update("t", (3,), {"a": "s"})        # update ∘ update back
    log.update("t", (3,), {"a": "z"})
    updates = [e for e in log.entries if e.kind == "u"]
    assert all(e.post == db.table("t").schema.patched(e.row, e.changes) for e in updates)
    bare = [
        LoggedModification(e.kind, e.table, e.key, row=e.row, changes=e.changes)
        for e in log.entries
    ]
    assert all(e.post is None for e in bare)
    net = _net(log.entries, db)
    assert net == _net(bare, db)
    assert net == {"t": {
        (1,): ("u", (1, "x", 10), (1, "p", 11)),
        (4,): ("+", None, (4, "w", 41)),
        (2,): ("u", (2, "y", 20), (2, "q", 22)),
    }}


# ----------------------------------------------------------------------
# the interleaved A/B rig
# ----------------------------------------------------------------------
def test_ab_rounds_runs_one_tree_against_itself_with_equal_counts():
    workloads = ("bsma_8views_d5", "devices_churn_m98")
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "ab_rounds.py"), "--base", str(REPO_ROOT),
         "--smoke", "--gc", "--workloads", ",".join(workloads)],
        capture_output=True, text=True, timeout=300, cwd=REPO_ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "access counts equal on every round" in done.stdout
    # each side alone collects alike: gen0 / gen1 / gen2 runs per round
    table = done.stdout.split("collections per timed round", 1)[1]
    rows = {line.split()[0]: line.split()[1:] for line in table.splitlines()[2:] if line}
    assert sorted(rows) == sorted(workloads)
    for counts in rows.values():
        assert len(counts) == 6 and counts[:3] == counts[3:]
