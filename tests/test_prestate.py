"""``Input_pre`` as a replica rolled forward by the log
(:class:`repro.core.engine.PreState`), of the tables the views declare.

The replica must equal what the old per-round reconstruction built —
``_reconstruct_pre(live, entries, tables)`` is the oracle — on each
replicated table, before every round, on every engine, whatever the
round before it did: maintained a subset of the views, failed mid-way,
or ran after the catalog grew.  Every test runs views that read
pre-state (a ▷ view, or the tuple rules), so none passes by comparing
two empty catalogs.  And a round must cost the diff, not the database.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import equi_join, evaluate_plan, group_by, rename, scan, where
from repro.algebra.plan import AntiJoin
from repro.analysis import cost as cost_module
from repro.baselines import SdbtEngine, TupleIvmEngine, sdbt
from repro.core import IdIvmEngine, wire
from repro.core import engine as engine_module
from repro.core import script as script_module
from repro.core.engine import PreState, _reconstruct_pre
from repro.core.sharded import ShardedEngine
from repro.errors import IntegrityError
from repro.expr import col, lit
from repro.obs import metrics
from repro.shard.workers import _WorkerState, build_blueprint
from repro.storage import Database, Table, load_rows
from repro.workloads import (
    DevicesConfig,
    apply_price_updates,
    build_aggregate_view,
    build_devices_database,
    build_flat_view,
)
from repro.workloads.devices import log_batch, mixed_modification_batch
from tests.conftest import assert_views_at_their_cursors, build_view_v_prime, view_bag


# ----------------------------------------------------------------------
# a small database: view A reads the devices tables, view B reads
# ``notes``, nothing reads ``scratch``
# ----------------------------------------------------------------------
def make_db() -> Database:
    db = Database()
    db.create_table("devices", ("did", "category"), ("did",))
    db.create_table("parts", ("pid", "price"), ("pid",))
    db.create_table("devices_parts", ("did", "pid"), ("did", "pid"))
    db.create_table("notes", ("nid", "kind", "weight"), ("nid",))
    db.create_table("scratch", ("sid", "payload"), ("sid",))
    load_rows(db, "devices", [(f"D{i}", ("phone", "tablet")[i % 2]) for i in range(6)])
    load_rows(db, "parts", [(f"P{i}", 10 * i) for i in range(8)])
    load_rows(
        db, "devices_parts",
        [(f"D{(i + j) % 6}", f"P{i}") for i in range(8) for j in (0, 3)],
    )
    load_rows(db, "notes", [(f"N{i}", ("a", "b")[i % 2], i) for i in range(4)])
    load_rows(db, "scratch", [(f"S{i}", i) for i in range(3)])
    return db


def view_b(db: Database):
    return group_by(scan(db, "notes"), ("kind",), [("sum", col("weight"), "total")])


def unused_parts(db: Database):
    """Parts no phone holds: ``parts ▷ (devices_parts ⋈ phones)``, whose
    ID rules read ``devices`` and ``devices_parts`` in pre-state."""
    phones = where(
        equi_join(
            scan(db, "devices_parts"),
            rename(scan(db, "devices"), {"did": "d_did"}),
            [("did", "d_did")],
        ),
        col("category").eq(lit("phone")),
    )
    held = rename(phones, {"pid": "h_pid", "did": "h_did"})
    return AntiJoin(scan(db, "parts"), held, col("pid").eq(col("h_pid")))


def late_view(kind: str, db: Database, table: str):
    """A view reading the late *table* in pre-state: ``parts ▷ table``
    (SDBT takes aggregates only: a γ over it)."""
    if kind == "sdbt":
        return group_by(scan(db, table), ("v",), [("count", None, "n")])
    late = rename(scan(db, table), {"k": "l_k", "v": "l_v"})
    return AntiJoin(scan(db, "parts"), late, col("price").eq(col("l_v")))


def oracle(engine, live: Database, entries) -> Database:
    """The engine's replicated tables as of before *entries*."""
    assert engine._pre.tables, "a test of the replica needs a non-empty one"
    return _reconstruct_pre(live, entries, engine._pre.tables)


A_OPS = ("price", "flip", "add_part", "chain", "ins_upd", "del_link", "del_ins")
OPS = A_OPS + ("note", "scratch")

ops_strategy = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 50), st.integers(0, 99)),
    min_size=1, max_size=6,
)
rounds_strategy = st.lists(
    st.tuples(st.sampled_from(("all", "only_A", "fail", "late")), ops_strategy),
    min_size=2, max_size=5,
)


class _Fresh:
    """Key supply for inserted rows (never reuses a key)."""

    def __init__(self) -> None:
        self.n = 0

    def __call__(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}x{self.n}"


def _pick(db: Database, table: str, i: int):
    keys = sorted(db.table(table)._rows)
    return keys[i % len(keys)] if keys else None


def _churn(log: ModificationLog, db: Database, table: str, row: tuple, column: str, i, v):
    """insert / update / delete on a one-column-payload table, by v."""
    key = _pick(db, table, i)
    if v % 3 == 0 or key is None:
        log.insert(table, row)
    elif v % 3 == 1:
        log.update(table, key, {column: v})
    else:
        log.delete(table, key)


def apply_op(log: ModificationLog, db: Database, op, fresh: _Fresh) -> None:
    """Interpret one drawn op against the current state (always valid)."""
    name, i, v = op
    if name == "price":
        log.update("parts", _pick(db, "parts", i), {"price": v})
    elif name == "flip":
        did = _pick(db, "devices", i)
        now = db.table("devices").get_uncounted(did)[1]
        log.update("devices", did, {"category": "tablet" if now == "phone" else "phone"})
    elif name in ("add_part", "ins_upd", "chain"):
        pid, (did,) = fresh("P"), _pick(db, "devices", i)
        log.insert("parts", (pid, v))
        log.insert("devices_parts", (did, pid))
        if name != "add_part":
            log.update("parts", (pid,), {"price": v + 1})
        if name == "chain":  # insert∘update∘delete nets to nothing
            log.delete("devices_parts", (did, pid))
            log.delete("parts", (pid,))
    elif name == "del_link":
        key = _pick(db, "devices_parts", i)
        if key is not None:
            log.delete("devices_parts", key)
    elif name == "del_ins":  # delete∘insert nets to an update
        key = _pick(db, "parts", i)
        log.delete("parts", key)
        log.insert("parts", (key[0], v + 1000))
    elif name == "note":
        _churn(log, db, "notes", (fresh("N"), ("a", "b")[v % 2], v), "weight", i, v)
    else:
        _churn(log, db, "scratch", (fresh("S"), v), "payload", i, v)


# ----------------------------------------------------------------------
# comparing two databases: rows as bags, indexes by what they answer
# ----------------------------------------------------------------------
def assert_same_database(actual: Database, expected: Database) -> None:
    assert sorted(actual.tables) == sorted(expected.tables)
    for name, table in actual.tables.items():
        rows = expected.table(name).rows_uncounted()
        assert Counter(table.rows_uncounted()) == Counter(rows), name
        schema = table.schema
        for columns, index in table._indexes.items():
            answers: dict[tuple, set] = {}
            for row in rows:
                answers.setdefault(schema.project(row, columns), set()).add(
                    schema.key_of(row)
                )
            # same answer to every probe, and no bucket for a value no
            # row holds any more
            assert index.buckets == answers, (name, columns)


def assert_views_fresh(engine, db: Database) -> None:
    for name, view in engine.views.items():
        assert view_bag(engine, name) == Counter(evaluate_plan(view.plan, db).rows), name


class Boom(RuntimeError):
    pass


def _boom(*_args, **_kwargs):
    raise Boom("injected")


#: engine under test -> (factory, where a round of it can be made to fail
#: after the pre-state was read and before a view's first write)
ENGINES = {
    "interp": (
        lambda db: IdIvmEngine(db, exec_backend="interp"),
        [(engine_module, "execute_script")],
    ),
    "compiled": (IdIvmEngine, [(engine_module, "execute_script")]),
    "sharded_inline": (
        lambda db: ShardedEngine(db, shards=2),
        [(engine_module, "execute_script"), (script_module, "execute_script")],
    ),
    "tuple": (TupleIvmEngine, [(engine_module, "execute_script")]),
    # the first map write, or — a round that changes no map — the end of
    # the view-round, after a view write the rollback undoes
    "sdbt": (SdbtEngine, [(SdbtEngine, "_maintain_maps"), (sdbt, "counts_since")]),
}


@pytest.mark.parametrize("kind", sorted(ENGINES))
@settings(max_examples=40)
@given(rounds=rounds_strategy)
def test_replica_equals_reconstruction_before_every_round(kind, rounds):
    factory, fault_sites = ENGINES[kind]
    db = make_db()
    engine = factory(db)
    engine.define_view("A", build_view_v_prime(db))
    engine.define_view("B", view_b(db))
    if kind != "sdbt":  # SDBT takes aggregates only
        engine.define_view("C", unused_parts(db))
    assert {"devices", "devices_parts"} <= engine._pre.tables
    fresh = _Fresh()
    checked = []
    real_begin = PreState.begin

    def checked_begin(self, entries):
        pre = real_begin(self, entries)
        assert_same_database(pre, _reconstruct_pre(self.live, entries, self.tables))
        checked.append(len(entries))
        return pre

    rebuilds = metrics.counter("engine.prestate_rebuilds")
    with mock.patch.object(PreState, "begin", checked_begin):
        for number, (mode, ops) in enumerate(rounds):
            rebuilt_before, replica_before = rebuilds.value, engine._pre.db
            late = f"late{number}"
            if mode == "late":
                db.create_table(late, ("k", "v"), ("k",))
                load_rows(db, late, [(1, 2), (3, 4)])
                if number % 2:  # a view that reads it: the replica widens
                    engine.define_view(late, late_view(kind, db, late))
            for op in ops:
                apply_op(engine.log, db, op, fresh)
            pending = len(engine.log.entries)
            if mode == "fail":
                patches = [mock.patch.object(m, a, _boom) for m, a in fault_sites]
                for patch in patches:
                    patch.start()
                try:
                    with pytest.raises(Boom):
                        engine.maintain()
                finally:
                    for patch in patches:
                        patch.stop()
            elif mode == "only_A":
                engine.maintain("A")
            else:
                engine.maintain()
            # begin ran once, over the whole pending log
            assert len(checked) == number + 1 and checked[-1] == pending
            # between rounds: live minus the retained log
            assert_same_database(engine._pre.db, oracle(engine, db, engine.log.entries))
            # only a late table a view reads enters the replica: rebuilt,
            # and not counted (nothing changed behind the log's back)
            rebuilt = replica_before is not None and engine._pre.db is not replica_before
            assert rebuilt == (late in engine._pre.tables and number > 0)
            assert rebuilds.value == rebuilt_before
            assert_views_at_their_cursors(engine, db)
        engine.maintain()
        assert_views_fresh(engine, db)


@settings(max_examples=40)
@given(rounds=st.lists(ops_strategy, min_size=2, max_size=5))
def test_worker_replica_follows_the_round_messages(rounds):
    """A process worker's state, driven in-process by the messages the
    coordinator sends: no end-of-round message exists, so the replica
    absorbs a round's log when the next ``round`` arrives."""
    db = make_db()
    coordinator = IdIvmEngine(db)
    coordinator.define_view("C", unused_parts(db))
    log = coordinator.log
    fresh = _Fresh()
    state = None
    for ops in rounds:
        for op in ops:
            apply_op(log, db, op, fresh)
        entries = log.take()
        if state is None:   # booted from a blueprint that holds round 1
            state = _WorkerState(build_blueprint(
                db, coordinator.views, "compiled", coordinator._pre.tables
            ))
            state.begin_round(wire.encode_log_batch(entries), sync=False)
        else:
            state.begin_round(wire.encode_log_batch(entries), sync=True)
        assert state._pre.tables == {"devices", "devices_parts"}
        assert_same_database(state.db, db)
        assert_same_database(state._pre.db, oracle(coordinator, db, entries))


# ----------------------------------------------------------------------
# deterministic: cost, failure, staleness
# ----------------------------------------------------------------------
def _round_costs(n_parts: int, rounds: int = 4):
    """Per round of a d=20 price-update stream: (Database.copy calls,
    Table.copy calls, uncounted write calls that landed on the replica,
    log entries).  ``Vp`` reads no table in pre-state: the one copy is
    of an empty replica, and the stream never writes it."""
    config = DevicesConfig(n_parts=n_parts, n_devices=n_parts // 10, fanout=2, diff_size=20)
    db = build_devices_database(config)
    # Cost-model inference evaluates the plan several times over: most of
    # define_view at 20k parts, and nothing this test looks at.
    engine = IdIvmEngine(db, exec_backend="compiled", cost_select=False)
    with mock.patch.object(cost_module, "price_script", lambda *_: None):
        engine.define_view("Vp", build_aggregate_view(db, config))
    calls = Counter()
    replica_writes = []

    def spy(cls, name, key):
        real = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls[key] += 1
            if key == "write":
                replica_writes.append(self)
            return real(self, *args, **kwargs)

        return mock.patch.object(cls, name, wrapper)

    assert engine._pre.tables == frozenset()
    out = []
    with spy(Database, "copy", "db_copy"), spy(Table, "copy", "table_copy"), \
            spy(Table, "insert_uncounted", "write"), \
            spy(Table, "delete_uncounted", "write"), \
            spy(Table, "update_uncounted", "write"), \
            spy(Table, "roll_forward", "write"):
        for number in range(rounds):
            calls.clear()
            del replica_writes[:]
            n_entries = apply_price_updates(engine, db, config, round_seed=number)
            engine.maintain()
            replica = set(map(id, engine._pre.db.tables.values()))
            on_replica = sum(1 for table in replica_writes if id(table) in replica)
            out.append((calls["db_copy"], calls["table_copy"], on_replica, n_entries))
    return out


def test_one_copy_ever_and_rounds_cost_the_diff_at_any_database_size():
    small, large = _round_costs(2_000), _round_costs(20_000)
    for costs in (small, large):
        (db_copies, table_copies, _, _), later = costs[0], costs[1:]
        assert (db_copies, table_copies) == (1, 0)     # the one (empty) replica build
        for db_copies, table_copies, writes, n_entries in later:
            assert (db_copies, table_copies, writes) == (0, 0, 0)
            assert n_entries > 0
    assert small[1:] == large[1:]


def test_failed_view_keeps_its_entries_and_a_retry_converges(running_example_db):
    db = running_example_db
    engine = TupleIvmEngine(db)
    engine.define_view("A", build_view_v_prime(db))
    engine.define_view("B", build_view_v_prime(db))
    engine.log.update("parts", ("P1",), {"price": 11})
    engine.maintain()
    engine.log.update("parts", ("P1",), {"price": 12})
    engine.log.insert("parts", ("P3", 5))
    real, calls = engine_module.execute_script, []

    def second_call_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise Boom("injected")
        return real(*args, **kwargs)

    with mock.patch.object(engine_module, "execute_script", second_call_fails):
        with pytest.raises(Boom):
            engine.maintain()
    # A absorbed the round, B keeps both entries, and the replica sits
    # where B is: live minus the retained log
    assert engine.log.cursors == {"A": 3, "B": 1}
    assert len(engine.log.entries) == 2
    assert_same_database(engine._pre.db, oracle(engine, db, engine.log.entries))
    assert_views_at_their_cursors(engine, db)
    engine.log.delete("parts", ("P3",))
    entries = list(engine.log.entries)
    assert_same_database(engine._pre.begin(entries), oracle(engine, db, entries))
    engine.maintain()
    assert_views_fresh(engine, db)
    assert engine.log.entries == [] and engine.log.cursors == {"A": 4, "B": 4}
    assert_same_database(engine._pre.db, oracle(engine, db, []))


def test_a_subset_round_moves_the_replica_past_a_lagging_view_and_back(running_example_db):
    db = running_example_db
    engine = TupleIvmEngine(db)
    engine.define_view("A", build_view_v_prime(db))
    engine.define_view("B", build_view_v_prime(db))
    engine.log.update("parts", ("P1",), {"price": 11})
    engine.log.insert("parts", ("P3", 5))
    engine.maintain("A")
    # A read the pre-state at its cursor; the replica is back at B's
    assert engine.log.cursors == {"A": 2, "B": 0} and engine._pre.position == 0
    assert_same_database(engine._pre.db, oracle(engine, db, engine.log.entries))
    engine.log.insert("parts", ("P4", 6))
    with mock.patch.object(engine_module, "execute_script", _boom), pytest.raises(Boom):
        engine.maintain("A")
    # A failed at its cursor: the replica stays there until the next
    # round moves it back to the floor before reading anything
    assert engine.log.cursors == {"A": 2, "B": 0} and engine._pre.position == 2
    engine.maintain()
    assert_views_fresh(engine, db)
    assert_same_database(engine._pre.db, oracle(engine, db, []))
    assert metrics.counter("engine.prestate_rebuilds").value == 0


def test_stale_replica_is_rebuilt_and_counted(running_example_db):
    db = running_example_db
    engine = TupleIvmEngine(db)
    view = engine.define_view("Vp", build_view_v_prime(db))
    rebuilds = metrics.counter("engine.prestate_rebuilds")
    engine.log.update("parts", ("P1",), {"price": 11})
    engine.maintain()
    assert rebuilds.value == 0
    # rows loaded behind the log's back
    db.table("parts").insert_uncounted(("P9", 1))
    engine.log.update("parts", ("P1",), {"price": 12})
    engine.maintain()
    assert rebuilds.value == 1
    # a table created after the first round is read by no view: the
    # replica does not hold it, so there is nothing to rebuild
    db.create_table("late", ("k",), ("k",))
    engine.log.update("parts", ("P2",), {"price": 21})
    engine.maintain()
    assert rebuilds.value == 1 and "late" not in engine._pre.db.tables
    # and a healthy round after that rebuilds nothing
    engine.log.update("parts", ("P2",), {"price": 22})
    engine.maintain()
    assert rebuilds.value == 1
    assert_same_database(engine._pre.db, oracle(engine, db, []))
    assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


def test_strict_engine_refuses_a_stale_replica(running_example_db):
    db = running_example_db
    engine = TupleIvmEngine(db, strict=True)
    engine.define_view("Vp", build_view_v_prime(db))
    engine.log.update("parts", ("P1",), {"price": 11})
    engine.maintain()
    db.table("parts").insert_uncounted(("P9", 1))
    engine.log.update("parts", ("P1",), {"price": 12})
    with pytest.raises(IntegrityError, match="stale"):
        engine.maintain()
    assert metrics.counter("engine.prestate_rebuilds").value == 0
    # the refused replica is gone; the next round starts from a fresh one
    engine.log.update("parts", ("P1",), {"price": 13})
    engine.maintain()
    assert_same_database(engine._pre.db, oracle(engine, db, []))


def test_process_workers_serve_the_pre_state_across_rounds():
    config = DevicesConfig(n_parts=60, n_devices=60, fanout=3, diff_size=12)
    db = build_devices_database(config)
    with ShardedEngine(db, shards=2, backend="process") as engine:
        flat = engine.define_view("V", build_flat_view(db, config))
        agg = engine.define_view("Vp", build_aggregate_view(db, config))
        unused = engine.define_view("C", unused_parts(db))
        assert engine._pre.tables == {"devices", "devices_parts"}
        for number in range(4):
            if number % 2:
                log_batch(engine, mixed_modification_batch(db, config, 6, 3, 3, round_seed=number))
            else:
                apply_price_updates(engine, db, config, round_seed=number)
            reports = engine.maintain()
            for view in (flat, agg, unused):
                assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()
        assert reports["V"].backend == "process"


# ----------------------------------------------------------------------
# the bulk roll-forward: the replica catches up from the round's net
# changes, one write per table, and must land where the raw log lands
# ----------------------------------------------------------------------
def test_seeded_mixed_rounds_keep_the_replica_on_the_reconstruction():
    config = DevicesConfig(n_parts=60, n_devices=60, fanout=3, diff_size=12)
    db = build_devices_database(config)
    engine = IdIvmEngine(db)
    flat = engine.define_view("V", build_flat_view(db, config))
    agg = engine.define_view("Vp", build_aggregate_view(db, config))
    unused = engine.define_view("C", unused_parts(db))
    for number in range(6):
        log_batch(engine, mixed_modification_batch(db, config, 8, 4, 3, round_seed=number))
        entries = list(engine.log.entries)
        if number:  # round 0 builds the replica from this very oracle
            assert_same_database(engine._pre.begin(entries), oracle(engine, db, entries))
        engine.maintain()
        assert_same_database(engine._pre.db, oracle(engine, db, []))
        for view in (flat, agg, unused):
            assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


def test_modification_chains_on_one_key_roll_forward_to_the_live_rows(running_example_db):
    db = running_example_db
    engine = TupleIvmEngine(db)
    view = engine.define_view("Vp", build_view_v_prime(db))
    engine.log.update("parts", ("P1",), {"price": 11})
    engine.maintain()
    rolled = []
    real = Table.roll_forward
    log = engine.log
    # insert∘update∘delete nets to nothing; delete∘insert to an update;
    # insert∘update to an insert of the final row; update∘delete to a delete
    log.insert("parts", ("P7", 1)); log.update("parts", ("P7",), {"price": 2}); log.delete("parts", ("P7",))
    log.delete("parts", ("P2",)); log.insert("parts", ("P2", 99))
    log.insert("parts", ("P8", 3)); log.update("parts", ("P8",), {"price": 4})
    log.insert("devices_parts", ("D1", "P8"))
    log.update("parts", ("P1",), {"price": 12}); log.delete("devices_parts", ("D1", "P1"))
    entries = list(log.entries)
    assert_same_database(engine._pre.begin(entries), oracle(engine, db, entries))
    with mock.patch.object(
        Table, "roll_forward",
        lambda self, changes: rolled.append((self.name, sorted(changes))) or real(self, changes),
    ):
        engine.maintain()
    assert_same_database(engine._pre.db, oracle(engine, db, []))
    assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()
    # one bulk write per modified table, of net changes only (P7 is gone)
    assert sorted(rolled) == [
        ("devices_parts", [(("D1", "P1"), None), (("D1", "P8"), ("D1", "P8"))]),
        ("parts", [(("P1",), ("P1", 12)), (("P2",), ("P2", 99)), (("P8",), ("P8", 4))]),
    ]


def test_a_log_that_does_not_fold_drops_the_replica(running_example_db):
    from repro.core.modlog import LoggedModification
    from repro.errors import DiffError

    db = running_example_db
    engine = TupleIvmEngine(db)
    view = engine.define_view("Vp", build_view_v_prime(db))
    engine.log.update("parts", ("P1",), {"price": 11})
    engine.maintain()
    assert engine._pre.db is not None
    # a second, hand-appended insert of the tuple the log just inserted
    # (a part no device holds: no view row depends on it): the fold
    # refuses the log, in the round and again in the roll-forward
    engine.log.insert("parts", ("P9", 5))
    engine.log.entries.append(LoggedModification("+", "parts", ("P9",), row=("P9", 6)))
    with pytest.raises(DiffError):
        engine.maintain()
    assert engine._pre.db is None
    engine.log.update("parts", ("P2",), {"price": 21})
    engine.maintain()   # rebuilt from the live tables, and in step again
    assert_same_database(engine._pre.db, oracle(engine, db, []))
    assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()
