"""The bound per-row paths from log to view.

* The trigger writer: ``ModificationLog.update`` writes through the
  table's writer bound to the changed columns (``Table.patcher``); a
  column set that cannot bind binds nothing, so every bad call raises.
* Bulk APPLY keeps ``(pre, post)`` pairs only for a reader: a
  RETURNING-less ``apply_diff`` charges and journals exactly what a
  RETURNING one does, batches that raise half-way included.
* The lag intake: ``FreshnessTracker.round_lags`` computes one bucket per
  run of lags in one bucket and equals one-by-one observation field by
  field.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apply import apply_diff
from repro.core.diffs import DELETE, INSERT, UPDATE, Diff, DiffSchema
from repro.core.modlog import ModificationLog
from repro.crosscheck.invariants import check_table
from repro.errors import IntegrityError, SchemaError, UnknownColumnError, WorkloadError
from repro.obs import hist
from repro.obs.freshness import FreshnessTracker
from repro.obs.hist import LogHistogram, bucket_bounds
from repro.storage import Database, Table, TableSchema


# ----------------------------------------------------------------------
# (a) the trigger writer, bound per changed-column set
# ----------------------------------------------------------------------
def _logged():
    db = Database()
    table = db.create_table("t", ("k", "a", "b"), ("k",))
    table.load([(1, "x", 10), (2, "y", 20), (3, "x", 30)])
    return db, table, ModificationLog(db)


@pytest.mark.parametrize("changes, error", [
    ({"k": 9}, WorkloadError),             # a key column
    ({"a": "z", "k": 9}, WorkloadError),   # ... among others
    ({"nope": 1}, UnknownColumnError),     # an unknown column
    ({"a": "z", "nope": 1}, UnknownColumnError),
])
def test_a_column_set_that_cannot_bind_raises_on_every_call(changes, error):
    db, table, log = _logged()
    rows = table.as_set()
    for _ in range(3):
        with pytest.raises(error):
            log.update("t", (1,), changes)
    assert table.as_set() == rows and log.entries == [] and log.position == 0
    assert table._bound == {}
    assert db.counters.total.total == 0


def test_an_absent_key_raises_on_every_call_bound_or_not():
    db, table, log = _logged()
    log.update("t", (1,), {"a": "q"})  # binds ("a",)
    assert ("p", ("a",)) in table._bound
    for _ in range(2):
        with pytest.raises(WorkloadError, match="absent key"):
            log.update("t", (9,), {"a": "z"})
        # an unbindable set on an absent key reports the key, as before
        with pytest.raises(WorkloadError, match="absent key"):
            log.update("t", (9,), {"nope": 1})
        with pytest.raises(WorkloadError, match="immutable"):
            log.update("t", (9,), {"k": 1})
    assert len(log.entries) == 1


def test_a_no_op_update_logs_and_writes_nothing():
    db, table, log = _logged()
    stored = table.get_uncounted((2,))
    table.begin_journal()
    log.update("t", (2,), {"a": "y", "b": 20})
    assert table.get_uncounted((2,)) is stored
    assert log.entries == [] and log.position == 0
    assert table.end_journal(write_set=True) == [] and db.counters.total.total == 0
    # a real change through the same binding is logged with both rows
    log.update("t", (2,), {"a": "y", "b": 21})
    (entry,) = log.entries
    assert (entry.row, entry.post, entry.changes) == ((2, "y", 20), (2, "y", 21), {"a": "y", "b": 21})


def test_a_new_index_on_a_changed_column_is_maintained():
    _, table, log = _logged()
    log.update("t", (1,), {"a": "p"})  # bound while no index exists
    table.create_index(("a",))
    assert table._bound == {}
    log.update("t", (2,), {"a": "p"})
    log.update("t", (3,), {"b": 31})
    log.update("t", (1,), {"a": "q"})
    assert check_table(table, "log") == []
    assert sorted(table.lookup(("a",), ("p",))) == [(2, "p", 20)]
    assert sorted(table.lookup(("a",), ("x",))) == [(3, "x", 31)]


# ----------------------------------------------------------------------
# (b) RETURNING-less APPLY: no pairs, the same accesses and journal
# ----------------------------------------------------------------------
SCHEMA = TableSchema("r", ("k", "a", "b"), ("k",))


def _table(seed: int, arm: str):
    table = Table(SCHEMA)
    table.create_index(("a",))  # touched by the ∆u on a
    rng = random.Random(seed)
    table.load([(k, rng.randrange(4), rng.randrange(100)) for k in range(12)])
    if arm != "none":  # the write-set capture, or the RACE604 check
        table.begin_journal()
    return table


def _diffs(seed: int, poisoned: bool) -> list[Diff]:
    """A ∆u on the key setting the indexed a, a ∆u on a setting b, a ∆+
    and a ∆−; *poisoned*: each raises half-way (an unhashable ident, a
    conflicting insert)."""
    rng = random.Random(seed)
    keys = rng.sample(range(12), 6)
    by_key = [(k, None, rng.randrange(4)) for k in keys]
    by_a = [(a, None, rng.randrange(100)) for a in rng.sample(range(4), 2)]
    inserts = [(k, rng.randrange(4), rng.randrange(100)) for k in range(20, 24)]
    deletes = [(k,) for k in keys[:3]]
    if poisoned:
        by_key.insert(3, ([0], None, 1))
        by_a.insert(1, ([0], None, 1))
        inserts.insert(2, (keys[0], -1, -1))
        deletes.insert(2, ([0],))
    return [
        Diff.trusted(DiffSchema(UPDATE, "r", ("k",), ("a",), ("a",)), by_key),
        Diff.trusted(DiffSchema(UPDATE, "r", ("a",), ("b",), ("b",)), by_a),
        Diff.trusted(DiffSchema(INSERT, "r", ("k",), post_attrs=("a", "b")), inserts),
        Diff.trusted(DiffSchema(DELETE, "r", ("k",)), deletes),
    ]


def _state(table: Table) -> tuple:
    return (
        dict(table._rows),
        {columns: index.buckets for columns, index in table._indexes.items()},
        table.counters.snapshot(),
    )


@pytest.mark.parametrize("arm", ["none", "capture", "audit"])
@pytest.mark.parametrize("poisoned", [False, True], ids=["whole", "raises-half-way"])
@pytest.mark.parametrize("seed", range(4))
def test_returningless_apply_keeps_no_pairs_and_charges_the_same(seed, poisoned, arm, monkeypatch):
    accounted: list = []
    real_account = Table._account

    def spying_account(self, changes, entries, lookups=0):
        accounted.append(changes)
        return real_account(self, changes, entries, lookups)

    monkeypatch.setattr(Table, "_account", spying_account)
    reading, blind = _table(seed, arm), _table(seed, arm)
    for diff in _diffs(seed, poisoned):
        outcomes = []
        for table, returning in ((reading, True), (blind, False)):
            del accounted[:]
            try:
                applied = apply_diff(table, diff, returning)
            except (TypeError, IntegrityError) as exc:
                outcomes.append(type(exc))
            else:
                outcomes.append(None if applied is None else len(applied))
                if returning:
                    assert all(isinstance(c, list) for c in accounted)
                else:
                    # the blind APPLY built no pairs, journaled or not:
                    # its tail got a number
                    assert accounted and all(isinstance(c, int) for c in accounted)
        if poisoned:
            assert outcomes[0] is outcomes[1] is not None, outcomes
        else:
            assert isinstance(outcomes[0], int) and outcomes[1] is None, outcomes
        assert _state(reading) == _state(blind), diff.schema
        assert check_table(blind, "blind") == []
    if arm == "capture":
        ops = blind.end_journal(write_set=True)
        assert ops and ops == reading.end_journal(write_set=True)
    if arm == "audit":  # as ShardedEngine's check reports a written table
        audited = [t.name for t in (reading, blind) if t.end_journal(write_set=True)]
        assert audited == ["r", "r"]


def test_the_update_loop_reads_a_diff_in_place_and_binds_per_layout():
    table = _table(0, "none")
    rows = [(k, "ignored", 7) for k in range(3)]
    assert table.update_many(("k",), ("b",), rows, ((0,), (2,)), returning=False) is None
    assert [table.get_uncounted((k,))[2] for k in range(3)] == [7, 7, 7]
    shapes = [key for key in table._bound if key[0] == "u"]
    assert shapes == [("u", ("k",), ("b",), ((0,), (2,)), False)]
    with pytest.raises(SchemaError):
        table.update_many(("k",), ("b",), rows, ((0,), (1, 2)))


# ----------------------------------------------------------------------
# (c) the run-length lag intake
# ----------------------------------------------------------------------
def _edges() -> list[float]:
    """Lags on bucket bounds, either side of them, and clamped ones."""
    out = [-1.0, -0.0, 0.0]
    for index in (-40, -9, -1, 0, 3, 4, 17, 40):
        lower, upper = bucket_bounds(index)
        out += [lower, upper, (lower + upper) / 2]
    return out


def _observed_one_by_one(stamps: list[float], now: float) -> LogHistogram:
    single = LogHistogram(unit="seconds")
    for t in stamps:
        lag = now - t
        single.observe(lag if lag > 0.0 else 0.0)
    return single


def _assert_same(batch: LogHistogram, single: LogHistogram) -> None:
    fields = ("count", "zero_count", "buckets", "min", "max", "total")
    assert [getattr(batch, f) for f in fields] == [getattr(single, f) for f in fields]
    assert type(batch.total) is type(single.total)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            st.sampled_from(_edges()),
        ),
        max_size=40,
    ),
    st.sampled_from([0.0, 1.0, 12.5]),
    st.booleans(),
)
def test_round_lags_equals_one_by_one_observation(lags, now, monotone):
    # stamps whose lags are exactly *lags* at now == 0.0 (t = -lag is
    # exact), ties and clamped negatives included; sorted like a log's
    stamps = [now - lag if now else -lag for lag in lags]
    if monotone:
        stamps.sort()
    batch = FreshnessTracker(log=None).round_lags(iter(stamps), now)
    _assert_same(batch, _observed_one_by_one(stamps, now))


def test_monotone_stamps_cost_one_bucket_computation_per_run(monkeypatch):
    calls: list[float] = []
    real = hist.bucket_index
    monkeypatch.setattr(hist, "bucket_index", lambda value: calls.append(value) or real(value))
    assert bucket_bounds(12) == (4.0, 5.0) and bucket_bounds(11) == (3.5, 4.0)
    # lags 4.95 .. 4.05 (one run), a tie in the bucket below, a clamped one
    stamps = [0.1 * i for i in range(10)] + [1.01, 1.01, 7.0]
    batch = FreshnessTracker(log=None).round_lags(stamps, 4.95)
    assert len(calls) == 2
    assert batch.buckets == {12: 10, 11: 2} and batch.zero_count == 1
    _assert_same(batch, _observed_one_by_one(stamps, 4.95))
