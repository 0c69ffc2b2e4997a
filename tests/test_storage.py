"""Unit tests for the storage substrate (tables, indexes, counters)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crosscheck.invariants import check_table
from repro.errors import IntegrityError, SchemaError, UnknownColumnError, UnknownTableError
from repro.storage import CounterSet, Database, Table, TableSchema


@pytest.fixture
def parts() -> Table:
    table = Table(TableSchema("parts", ("pid", "price"), ("pid",)))
    table.load([("P1", 10), ("P2", 20), ("P3", 30)])
    return table


def update(table: Table, key: tuple, changes: dict) -> tuple:
    """APPLY's update of one row: ``locate`` it by key, then ``write_at``."""
    (located,) = table.locate(table.schema.key, key)
    return table.write_at(located, changes)


def delete(table: Table, key: tuple) -> tuple:
    """APPLY's delete of one row: ``locate`` it by key, then ``delete_at``."""
    (located,) = table.locate(table.schema.key, key)
    return table.delete_at(located)


class TestTableSchema:
    def test_positions_and_key(self):
        schema = TableSchema("r", ("a", "b", "c"), ("a", "b"))
        assert schema.position("c") == 2
        assert schema.key_of((1, 2, 3)) == (1, 2)
        assert schema.non_key_columns == ("c",)

    def test_rejects_missing_key_column(self):
        with pytest.raises(SchemaError):
            TableSchema("r", ("a",), ("b",))

    def test_rejects_duplicate_columns(self):
        with pytest.raises(SchemaError):
            TableSchema("r", ("a", "a"), ("a",))

    def test_rejects_empty_key(self):
        with pytest.raises(SchemaError):
            TableSchema("r", ("a",), ())

    def test_unknown_column(self):
        schema = TableSchema("r", ("a",), ("a",))
        with pytest.raises(UnknownColumnError):
            schema.position("zzz")

    def test_key_of_keeps_a_tuple_and_survives_pickling(self):
        """The extractors are built once (no generator per call) and must
        travel in a worker blueprint."""
        import pickle

        single = TableSchema("parts", ("pid", "price"), ("pid",))
        pair = TableSchema("dp", ("x", "did", "pid"), ("pid", "did"))
        for schema in (single, pickle.loads(pickle.dumps(single))):
            assert schema.key_of(("P1", 10)) == ("P1",)
        for schema in (pair, pickle.loads(pickle.dumps(pair))):
            assert schema.key_of((0, "D1", "P1")) == ("P1", "D1")
        # an index over no columns has one bucket, keyed ()
        table = Table(single)
        table.create_index(())
        table.load([("P1", 10), ("P2", 20)])
        assert sorted(table.lookup((), ())) == [("P1", 10), ("P2", 20)]

    def test_project(self):
        schema = TableSchema("r", ("a", "b", "c"), ("a",))
        assert schema.project((1, 2, 3), ("c", "a")) == (3, 1)


class TestTableBasics:
    def test_insert_get(self, parts):
        assert parts.get(("P1",)) == ("P1", 10)
        assert parts.get(("P9",)) is None
        assert len(parts) == 3

    def test_duplicate_key_rejected(self, parts):
        with pytest.raises(IntegrityError):
            parts.insert(("P1", 99))

    def test_update(self, parts):
        old = update(parts, ("P1",), {"price": 11})
        assert old == ("P1", 10)
        assert parts.get(("P1",)) == ("P1", 11)

    def test_update_missing_key_returns_none(self, parts):
        assert parts.locate(("pid",), ("P9",)) == []
        assert parts.update_uncounted(("P9",), {"price": 1}) is None

    def test_update_key_column_rejected(self, parts):
        with pytest.raises(SchemaError):
            parts.write_at(("P1",), {"pid": "P9"})
        with pytest.raises(SchemaError):
            parts.update_uncounted(("P1",), {"pid": "P9"})
        assert parts.get(("P1",)) == ("P1", 10)

    def test_delete(self, parts):
        assert delete(parts, ("P2",)) == ("P2", 20)
        assert parts.get(("P2",)) is None
        assert parts.locate(("pid",), ("P2",)) == []
        assert parts.delete_uncounted(("P2",)) is None

    def test_scan(self, parts):
        assert sorted(parts.scan()) == [("P1", 10), ("P2", 20), ("P3", 30)]

    def test_wrong_arity_rejected(self, parts):
        with pytest.raises(SchemaError):
            parts.insert(("P9",))


class TestSecondaryIndexes:
    def test_lookup_via_secondary_index(self):
        table = Table(TableSchema("dp", ("did", "pid"), ("did", "pid")))
        table.load([("D1", "P1"), ("D2", "P1"), ("D1", "P2")])
        table.create_index(("pid",))
        rows = table.lookup(("pid",), ("P1",))
        assert sorted(rows) == [("D1", "P1"), ("D2", "P1")]

    def test_auto_index_creation(self):
        table = Table(TableSchema("dp", ("did", "pid"), ("did", "pid")), auto_index=True)
        table.load([("D1", "P1"), ("D2", "P1")])
        assert not table.has_index(("pid",))
        assert len(table.lookup(("pid",), ("P1",))) == 2
        assert table.has_index(("pid",))

    def test_no_auto_index_falls_back_to_scan(self):
        counters = CounterSet()
        table = Table(
            TableSchema("dp", ("did", "pid"), ("did", "pid")),
            counters=counters,
            auto_index=False,
        )
        table.load([("D1", "P1"), ("D2", "P1"), ("D3", "P2")])
        rows = table.lookup(("pid",), ("P1",))
        assert len(rows) == 2
        assert counters.total.tuple_reads == 3  # full scan
        assert counters.total.index_lookups == 0

    def test_index_maintained_across_writes(self):
        table = Table(TableSchema("dp", ("did", "pid"), ("did", "pid")))
        table.create_index(("pid",))
        table.insert(("D1", "P1"))
        table.insert(("D2", "P1"))
        delete(table, ("D1", "P1"))
        assert table.lookup(("pid",), ("P1",)) == [("D2", "P1")]

    def test_index_maintained_across_updates(self):
        table = Table(TableSchema("parts", ("pid", "cat"), ("pid",)))
        table.create_index(("cat",))
        table.insert(("P1", "phone"))
        update(table, ("P1",), {"cat": "tablet"})
        assert table.lookup(("cat",), ("phone",)) == []
        assert table.lookup(("cat",), ("tablet",)) == [("P1", "tablet")]


    def test_emptied_buckets_are_dropped(self):
        """N insert+delete cycles of distinct values must not leave N
        empty buckets behind (the leak was unbounded under churn)."""
        table = Table(TableSchema("dp", ("did", "pid"), ("did", "pid")))
        table.create_index(("pid",))
        table.insert(("D0", "keep"))
        for i in range(200):
            table.insert(("D1", f"P{i}"))
            table.insert_uncounted(("D2", f"P{i}"))
            update(table, ("D1", f"P{i}"), {})
            delete(table, ("D1", f"P{i}"))
            table.delete_uncounted(("D2", f"P{i}"))
        buckets = table._indexes[("pid",)].buckets
        assert buckets == {("keep",): {("D0", "keep")}}
        assert table.lookup(("pid",), ("P7",)) == []

    def test_copy_carries_indexes_without_sharing_them(self):
        table = Table(TableSchema("dp", ("did", "pid"), ("did", "pid")))
        table.load([("D1", "P1"), ("D2", "P1"), ("D1", "P2")])
        table.create_index(("pid",))
        table.create_index(("did",))
        clone = table.copy()
        assert clone.index_columns() == table.index_columns()
        for columns in table.index_columns():
            assert clone._indexes[columns].buckets == table._indexes[columns].buckets
        delete(clone, ("D1", "P1"))
        clone.insert(("D3", "P3"))
        assert sorted(table.lookup(("pid",), ("P1",))) == [("D1", "P1"), ("D2", "P1")]
        assert table.lookup(("pid",), ("P3",)) == []
        assert clone.lookup(("pid",), ("P1",)) == [("D2", "P1")]
        assert clone.lookup(("did",), ("D3",)) == [("D3", "P3")]


class TestCounters:
    def test_pk_lookup_costs(self, parts):
        parts.counters.reset()
        parts.get(("P1",))
        assert parts.counters.total.index_lookups == 1
        assert parts.counters.total.tuple_reads == 1

    def test_miss_costs_one_lookup(self, parts):
        parts.counters.reset()
        parts.get(("P9",))
        assert parts.counters.total.index_lookups == 1
        assert parts.counters.total.tuple_reads == 0

    def test_secondary_lookup_costs_one_plus_m(self):
        table = Table(TableSchema("dp", ("did", "pid"), ("did", "pid")))
        table.load([("D1", "P1"), ("D2", "P1"), ("D1", "P2")])
        table.create_index(("pid",))
        table.counters.reset()
        table.lookup(("pid",), ("P1",))
        assert table.counters.total.index_lookups == 1
        assert table.counters.total.tuple_reads == 2

    def test_scan_costs_n_reads(self, parts):
        parts.counters.reset()
        list(parts.scan())
        assert parts.counters.total.tuple_reads == 3
        assert parts.counters.total.index_lookups == 0

    def test_write_costs(self, parts):
        parts.counters.reset()
        parts.insert(("P4", 40))
        update(parts, ("P1",), {"price": 11})   # locate: 1 lookup, write_at: 1 write
        delete(parts, ("P2",))
        assert parts.counters.total.tuple_writes == 3
        assert parts.counters.total.index_lookups == 3
        assert parts.counters.total.tuple_reads == 0

    def test_phases(self, parts):
        parts.counters.reset()
        with parts.counters.phase("view_update"):
            parts.get(("P1",))
        parts.get(("P2",))
        snap = parts.counters.snapshot()
        assert snap["view_update"].index_lookups == 1
        assert snap["default"].index_lookups == 1
        assert snap["__total__"].index_lookups == 2

    def test_nested_phases_attribute_to_innermost(self, parts):
        parts.counters.reset()
        with parts.counters.phase("outer"):
            with parts.counters.phase("inner"):
                parts.get(("P1",))
        snap = parts.counters.snapshot()
        assert snap["inner"].index_lookups == 1
        assert "outer" not in snap

    def test_uncounted_helpers(self, parts):
        parts.counters.reset()
        parts.rows_uncounted()
        parts.get_uncounted(("P1",))
        assert parts.counters.total.total == 0


class TestDatabase:
    def test_create_and_fetch(self):
        db = Database()
        db.create_table("r", ("a", "b"), ("a",))
        assert db.table("r").schema.columns == ("a", "b")
        assert db.has_table("r")
        with pytest.raises(UnknownTableError):
            db.table("zzz")

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("r", ("a",), ("a",))
        with pytest.raises(SchemaError):
            db.create_table("r", ("a",), ("a",))

    def test_shared_counters(self):
        db = Database()
        r = db.create_table("r", ("a",), ("a",))
        s = db.create_table("s", ("a",), ("a",))
        r.load([(1,)])
        s.load([(2,)])
        r.get((1,))
        s.get((2,))
        assert db.counters.total.index_lookups == 2

    def test_copy_is_independent(self):
        db = Database()
        r = db.create_table("r", ("a", "b"), ("a",))
        r.load([(1, 10)])
        clone = db.copy()
        update(clone.table("r"), (1,), {"b": 99})
        assert db.table("r").get_uncounted((1,)) == (1, 10)
        assert clone.table("r").get_uncounted((1,)) == (1, 99)

    def test_copy_does_not_count(self):
        db = Database()
        r = db.create_table("r", ("a",), ("a",))
        r.load([(i,) for i in range(100)])
        db.counters.reset()
        db.copy()
        assert db.counters.total.total == 0

    def test_foreign_keys(self):
        db = Database()
        db.create_table("parent", ("id",), ("id",))
        db.create_table("child", ("cid", "pid"), ("cid",))
        db.add_foreign_key("child", ("pid",), "parent")
        fks = db.foreign_keys_of("child")
        assert len(fks) == 1
        assert fks[0].parent_table == "parent"
        assert db.foreign_keys_of("parent") == []


class TestIndexMaintenanceAccounting:
    """Cost-accounting consistency of the write paths (paper Section 6).

    Index maintenance is tracked in its own counter (excluded from the
    paper's ``total`` per the Section 7.2 courtesy), uniformly across
    every counted write path; the ``*_uncounted`` paths the modification
    log uses must stay exactly count-neutral.
    """

    def _table(self):
        db = Database()
        t = db.create_table("r", ("k", "a", "b"), ("k",))
        t.load([(1, 10, "x"), (2, 20, "y"), (3, 30, "z")])
        t.create_index(("a",))
        t.create_index(("b",))
        return db, t

    def test_counted_writes_track_index_maintenance(self):
        db, t = self._table()
        db.counters.reset()
        t.insert((4, 40, "w"))          # 1 entry added per index
        assert db.counters.total.index_maintenance == 2
        t.write_at((4,), {"a": 41})     # remove + add in the index on a
        assert db.counters.total.index_maintenance == 4
        t.delete_at((4,))               # 1 entry removed per index
        assert db.counters.total.index_maintenance == 6
        t.insert_checked((4, 40, "w"))
        assert db.counters.total.index_maintenance == 8
        # The paper's headline metric is unaffected.
        assert db.counters.total.total == (
            db.counters.total.index_lookups
            + db.counters.total.tuple_reads
            + db.counters.total.tuple_writes
        )

    def test_update_of_a_non_indexed_column_mutates_no_entry(self):
        db = Database()
        t = db.create_table("r", ("k", "a", "b"), ("k",))
        t.load([(1, 10, "x"), (2, 10, "y")])
        t.create_index(("a",))
        db.counters.reset()
        t.write_at((1,), {"b": "z"})
        assert t.update_many(("a",), ("b",), [((10,), ("w",))]) == [
            ((1, 10, "z"), (1, 10, "w")), ((2, 10, "y"), (2, 10, "w")),
        ]
        assert db.counters.total.index_maintenance == 0
        assert db.counters.total.tuple_writes == 3
        t.update_many(("k",), ("a", "b"), [((1,), (11, "v"))])
        assert db.counters.total.index_maintenance == 2

    def test_duplicate_insert_checked_is_maintenance_free(self):
        db, t = self._table()
        db.counters.reset()
        assert t.insert_checked((1, 10, "x")) is False
        assert db.counters.total.index_maintenance == 0
        assert db.counters.total.tuple_writes == 0

    def test_uncounted_modlog_paths_are_count_neutral(self):
        from repro.core.modlog import ModificationLog

        db, t = self._table()
        log = ModificationLog(db)
        db.counters.reset()
        log.insert("r", (5, 50, "q"))
        log.update("r", (5,), {"a": 51})
        log.delete("r", (5,))
        snap = db.counters.total
        assert (
            snap.index_lookups,
            snap.tuple_reads,
            snap.tuple_writes,
            snap.index_maintenance,
        ) == (0, 0, 0, 0)
        # The indexes were still maintained correctly, just uncounted.
        assert t.lookup(("a",), (10,)) == [(1, 10, "x")]
        db.counters.reset()
        t.load([(6, 60, "p")])
        assert db.counters.total.index_maintenance == 0

    def test_index_maintenance_excluded_from_total(self):
        from repro.storage import AccessCounts

        counts = AccessCounts(1, 2, 3, 99)
        assert counts.total == 6
        assert counts.as_dict()["index_maintenance"] == 99
        assert AccessCounts.from_dict(counts.as_dict()) == counts
        delta = counts - AccessCounts(0, 0, 0, 9)
        assert delta.index_maintenance == 90


class TestWriteSetCapture:
    """begin_capture / end_capture / replay_writes edge cases.

    These primitives carry the process-backend write-set merge AND the
    dynamic shard race detector; their edge semantics (no nesting, replay
    is uncounted, op order is the mutation order) are load-bearing.
    """

    def _fresh(self):
        table = Table(TableSchema("parts", ("pid", "price"), ("pid",)))
        table.load([("P1", 10), ("P2", 20)])
        return table

    def test_nested_capture_is_an_error(self):
        from repro.errors import ScriptError

        table = self._fresh()
        table.begin_capture()
        with pytest.raises(ScriptError):
            table.begin_capture()
        # The original capture stays armed and intact.
        table.insert(("P3", 30))
        ops = table.end_capture()
        assert ops == [("s", ("P3",), ("P3", 30))]

    def test_end_capture_without_begin_is_empty(self):
        table = self._fresh()
        assert table.end_capture() == []

    def test_capture_stops_recording_after_end(self):
        table = self._fresh()
        table.begin_capture()
        table.insert(("P3", 30))
        ops = table.end_capture()
        table.insert(("P4", 40))
        assert ops == [("s", ("P3",), ("P3", 30))]

    def test_replay_is_count_neutral(self):
        source = self._fresh()
        source.begin_capture()
        source.insert(("P3", 30))
        update(source, ("P1",), {"price": 11})
        delete(source, ("P2",))
        ops = source.end_capture()

        replica = self._fresh()
        counters = replica.counters
        before = counters.total.total + counters.total.index_maintenance
        replica.replay_writes(ops)
        after = counters.total.total + counters.total.index_maintenance
        assert after == before, "replay must not count work twice"
        assert replica.as_set() == source.as_set()

    def test_replay_preserves_op_order(self):
        """delete + reinsert of the same key must land in capture order,
        or the replica converges to the wrong row."""
        source = self._fresh()
        source.begin_capture()
        delete(source, ("P1",))
        source.insert(("P1", 99))
        update(source, ("P1",), {"price": 100})
        ops = source.end_capture()
        assert [op[0] for op in ops] == ["d", "s", "s"]

        replica = self._fresh()
        replica.replay_writes(ops)
        assert replica.get(("P1",)) == ("P1", 100)
        assert replica.as_set() == source.as_set()

    def test_replay_is_idempotent(self):
        source = self._fresh()
        source.begin_capture()
        source.insert(("P3", 30))
        delete(source, ("P2",))
        ops = source.end_capture()
        replica = self._fresh()
        replica.replay_writes(ops)
        replica.replay_writes(ops)  # upserts overwrite, deletes no-op
        assert replica.as_set() == source.as_set()

    def test_uncaptured_audit_fires_only_without_capture(self):
        table = self._fresh()
        hits: list[str] = []
        table.audit_uncaptured(hits.append)
        table.insert(("P3", 30))
        assert hits == ["parts"]
        # An armed capture silences the audit (the write is recorded).
        table.begin_capture()
        table.insert(("P4", 40))
        table.end_capture()
        assert hits == ["parts"]
        # Clearing the hook stops the audit.
        table.audit_uncaptured(None)
        table.insert(("P5", 50))
        assert hits == ["parts"]


WRITERS = (
    "insert", "insert_checked", "write_at", "delete_at", "insert_uncounted",
    "load", "delete_uncounted", "update_uncounted", "replay_writes",
)


class TestOneWritePath:
    """Every public writer ends in the same two primitives, so any
    sequence of them reduces to the upsert/delete ops a capture records."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(WRITERS),
                st.integers(0, 4), st.integers(0, 2), st.integers(0, 2),
            ),
            max_size=25,
        )
    )
    def test_any_writer_sequence_replays_from_its_capture(self, steps):
        table = Table(TableSchema("r", ("k", "a", "b"), ("k",)))
        table.create_index(("a",))
        table.create_index(("a", "b"))
        table.load([(0, 0, 0), (1, 1, 1)])
        replica = table.copy(counters=CounterSet())
        # The sink takes the counted writes; the uncounted writers record
        # nothing, so the test appends the op each of them amounts to.
        log = table.begin_capture()
        for writer, k, a, b in steps:
            key, row = (k,), (k, a, b)
            stored = table.get_uncounted(key)
            counts = table.counters.snapshot()
            if writer in ("insert", "insert_uncounted", "load"):
                write = getattr(table, writer)
                arg = [row] if writer == "load" else row
                if stored is None:
                    write(arg)
                    if writer != "insert":
                        log.append(("s", key, row))
                else:
                    with pytest.raises(IntegrityError):
                        write(arg)
            elif writer == "insert_checked":
                if stored is None or stored == row:
                    assert table.insert_checked(row) is (stored is None)
                else:
                    with pytest.raises(IntegrityError):
                        table.insert_checked(row)
            elif writer == "write_at":
                if stored is None:
                    with pytest.raises(KeyError):
                        table.write_at(key, {"a": a, "b": b})
                else:
                    assert table.write_at(key, {"a": a, "b": b}) == stored
            elif writer == "delete_at":
                if stored is None:
                    with pytest.raises(KeyError):
                        table.delete_at(key)
                else:
                    assert table.delete_at(key) == stored
            elif writer == "delete_uncounted":
                assert table.delete_uncounted(key) == stored
                log.append(("d", key))
            elif writer == "update_uncounted":
                assert table.update_uncounted(key, {"b": b}) == stored
                if stored is not None:
                    log.append(("s", key, stored[:2] + (b,)))
            else:
                ops = [("s", key, row), ("d", ((k + 1) % 5,))]
                table.replay_writes(ops)
                log.extend(ops)
            if writer not in ("insert", "insert_checked", "write_at", "delete_at"):
                assert table.counters.snapshot() == counts, writer
            assert check_table(table, writer) == []
            for index in table._indexes.values():
                assert all(index.buckets.values()), "an emptied bucket stayed"
        assert table.end_capture() is log
        replica.replay_writes(log)
        assert replica._rows == table._rows
        assert list(replica._rows) == list(table._rows)  # same insertion order
        for columns in table.index_columns():
            assert replica._indexes[columns].buckets == table._indexes[columns].buckets


# ----------------------------------------------------------------------
# bulk APPLY writers vs the per-row loop they replace in core/apply.py
# ----------------------------------------------------------------------
def update_rows(table: Table, columns, attrs, pairs) -> list[tuple]:
    """The per-row APPLY ∆u loop: ``locate`` then ``write_at``."""
    out = []
    for ident, values in pairs:
        for key in table.locate(columns, ident):
            old = table.write_at(key, dict(zip(attrs, values)))
            out.append((old, table.get_uncounted(key)))
    return out


def delete_rows(table: Table, columns, idents) -> list[tuple]:
    """The per-row APPLY ∆− loop: ``locate`` then ``delete_at``."""
    out = []
    for ident in idents:
        for key in table.locate(columns, ident):
            out.append((table.delete_at(key), None))
    return out


def insert_rows(table: Table, rows) -> list[tuple]:
    """The per-row APPLY ∆+ loop: ``insert_checked``."""
    return [(None, row) for row in rows if table.insert_checked(row)]


small = st.integers(0, 3)
# (writer, ID columns, updated attributes): keys, an indexed column, an
# indexed pair, and ("b",) — no index, so auto-created or scanned; the
# update of ("a", "b") by ("a",) moves rows between the buckets probed.
BULK_SHAPES = (
    [("update", c, a) for c in (("k",), ("a",), ("a", "b"), ("b",)) for a in (("b",), ("a", "b"))]
    + [("delete", c, ()) for c in (("k",), ("a",), ("a", "b"), ("b",))]
    + [("insert", ("k",), ())]
)
bulk_ops = st.lists(
    st.tuples(
        st.sampled_from(BULK_SHAPES),
        st.lists(st.tuples(small, small, small), max_size=6),  # may repeat an ident
    ),
    min_size=1, max_size=4,
)


class TestBulkWriters:
    """``update_many`` / ``delete_many`` / ``insert_many`` against the
    per-row ``locate`` + ``write_at`` / ``delete_at`` / ``insert_checked``
    loops on an identically built table."""

    @staticmethod
    def build(initial, auto_index: bool, capture: bool):
        table = Table(TableSchema("r", ("k", "a", "b"), ("k",)), auto_index=auto_index)
        table.create_index(("a",))
        table.create_index(("a", "b"))
        table.load(dict((row[0], row) for row in initial).values())
        audited: list[str] = []
        sink = table.begin_capture() if capture else None
        table.audit_uncaptured(audited.append)
        return table, sink, audited

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 5), small, small), max_size=6),
        st.booleans(), st.booleans(), bulk_ops,
    )
    def test_bulk_equals_the_per_row_loop(self, initial, auto_index, capture, ops):
        # Two tables with one history: a bucket's iteration order is a
        # function of its history, and both paths iterate a copy of it.
        bulk, bulk_sink, bulk_audited = self.build(initial, auto_index, capture)
        ref, ref_sink, ref_audited = self.build(initial, auto_index, capture)
        for (writer, columns, attrs), batch in ops:
            idents = [row[: len(columns)] for row in batch]
            calls = {
                "update": (
                    lambda t: t.update_many(
                        columns, attrs, [(i, r[-len(attrs):]) for i, r in zip(idents, batch)]
                    ),
                    lambda t: update_rows(
                        t, columns, attrs, [(i, r[-len(attrs):]) for i, r in zip(idents, batch)]
                    ),
                ),
                "delete": (
                    lambda t: t.delete_many(columns, idents),
                    lambda t: delete_rows(t, columns, idents),
                ),
                "insert": (lambda t: t.insert_many(batch), lambda t: insert_rows(t, batch)),
            }[writer]
            indexes_before = bulk.index_columns()
            counts_before = bulk.counters.snapshot()
            results = []
            for table, call in zip((bulk, ref), calls):
                with table.counters.phase("view_update"):
                    try:
                        results.append(call(table))
                    except IntegrityError as exc:  # a conflicting insert mid-batch
                        results.append(type(exc))
            assert results[0] == results[1], (writer, columns, batch)
            if not batch:
                assert bulk.index_columns() == indexes_before
                assert bulk.counters.snapshot() == counts_before
            assert list(bulk._rows.items()) == list(ref._rows.items())
            assert bulk.index_columns() == ref.index_columns()
            for columns_, index in bulk._indexes.items():
                assert index.buckets == ref._indexes[columns_].buckets
            assert bulk.counters.snapshot() == ref.counters.snapshot(), (writer, columns, batch)
            assert bulk_sink == ref_sink
            assert bulk_audited == ref_audited
            assert check_table(bulk, writer) == []

    def test_empty_batch_resolves_no_index(self, parts):
        """Most APPLY steps of a round carry an empty diff; the per-row
        loop never probed for them, so no index may appear."""
        assert parts.update_many(("price",), ("price",), []) == []
        assert parts.delete_many(("price",), []) == []
        assert parts.insert_many([]) == []
        assert parts.index_columns() == []
        assert parts.counters.total == CounterSet().total
        assert parts.counters.phases == {}

    def test_scans_without_an_index(self):
        """``auto_index=False``: a batch keeps ``locate``'s counted scan."""
        table = Table(TableSchema("r", ("k", "a"), ("k",)), auto_index=False)
        table.load([(1, "x"), (2, "y"), (3, "x")])
        written = table.delete_many(("a",), [("x",), ("x",), ("z",)])
        assert written == [((1, "x"), None), ((3, "x"), None)]
        assert table.index_columns() == []
        total = table.counters.total
        # scans of 3, 1 and 1 rows; no index to look up
        assert (total.index_lookups, total.tuple_reads, total.tuple_writes) == (0, 5, 2)

    def test_key_columns_are_immutable(self, parts):
        sink = parts.begin_capture()
        with pytest.raises(SchemaError):
            parts.update_many(("pid",), ("pid",), [(("P1",), ("P9",))])
        assert sink == [] and parts.counters.total == CounterSet().total
        assert parts.get_uncounted(("P1",)) == ("P1", 10)

    def test_conflicting_insert_charges_the_rows_before_it(self, parts):
        sink = parts.begin_capture()
        with pytest.raises(IntegrityError):
            parts.insert_many([("P4", 40), ("P1", 10), ("P2", 99), ("P5", 50)])
        assert sink == [("s", ("P4",), ("P4", 40))]
        assert parts.get_uncounted(("P5",)) is None
        total = parts.counters.total
        # P4 stored, P1 identical (skipped), P2 conflicts: three probes, one write
        assert (total.index_lookups, total.tuple_writes) == (3, 1)


class TestTouchedIndexMaintenance:
    """An update maintains only the indexes whose columns it changes:
    whatever the writer, every index equals a rebuild from the rows, and
    ``index_maintenance`` is the number of index entries a counted write
    actually added or removed (0 for the uncounted ones)."""

    #: (writer, WHERE columns, updated attributes).  ("a",)/("a",) and
    #: ("a", "b")/("b",) update a column of the very index that serves
    #: the WHERE: its bucket must be read from a copy, not in place.
    SHAPES = (
        [("update_many", c, a)
         for c in (("k",), ("a",), ("a", "b"), ("c",))
         for a in (("a",), ("b",), ("c",), ("a", "c"))]
        + [(w, ("k",), ()) for w in (
            "insert_many", "delete_many", "write_at", "update_uncounted",
            "patch_uncounted", "replay_writes", "roll_forward",
        )]
    )
    batches = st.lists(
        st.tuples(
            st.sampled_from(SHAPES),
            st.lists(st.tuples(st.integers(0, 5), small, small, small), max_size=6),
        ),
        min_size=1, max_size=5,
    )

    @staticmethod
    def rebuilt(table: Table) -> dict:
        fresh = Table(table.schema, auto_index=False)
        fresh.load(table.rows_uncounted())
        for columns in table.index_columns():
            fresh.create_index(columns)
        return {c: fresh._indexes[c].buckets for c in fresh.index_columns()}

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 5), small, small, small), max_size=6),
        batches,
    )
    def test_every_writer_leaves_every_index_equal_to_a_rebuild(self, initial, ops):
        from repro.storage.table import _SecondaryIndex

        table = Table(TableSchema("r", ("k", "a", "b", "c"), ("k",)))
        table.create_index(("a",))
        table.create_index(("a", "b"))
        table.load(dict((row[0], row) for row in initial).values())
        mutated = []
        real_add, real_remove = _SecondaryIndex.add, _SecondaryIndex.remove

        def add(index, key, row):
            mutated.append(1)
            real_add(index, key, row)

        def remove(index, key, row):
            mutated.append(key in index.buckets.get(index.value_of(row), ()))
            real_remove(index, key, row)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_SecondaryIndex, "add", add)
            patch.setattr(_SecondaryIndex, "remove", remove)
            for (writer, columns, attrs), batch in ops:
                del mutated[:]
                before = table.counters.snapshot()["__total__"].index_maintenance
                n_indexes = len(table.index_columns())
                if writer == "update_many":
                    pos = table.schema.positions
                    table.update_many(columns, attrs, [
                        (tuple(r[i] for i in pos(columns)), tuple(r[i] for i in pos(attrs)))
                        for r in batch
                    ])
                elif writer == "insert_many":
                    try:
                        table.insert_many(batch)
                    except IntegrityError:
                        pass  # a conflicting row: the rows before it stay
                elif writer == "delete_many":
                    table.delete_many(columns, [r[:1] for r in batch])
                elif writer == "replay_writes":
                    table.replay_writes(
                        [("d", r[:1]) if r[3] == 0 else ("s", r[:1], r) for r in batch]
                    )
                elif writer == "roll_forward":
                    table.roll_forward(
                        [(r[:1], None if r[3] == 0 else r) for r in batch]
                    )
                else:
                    for r in batch:
                        key, changes = r[:1], {"b": r[2], "c": r[3]}
                        if table.get_uncounted(key) is None:
                            continue
                        if writer == "write_at":
                            table.write_at(key, changes)
                        elif writer == "update_uncounted":
                            table.update_uncounted(key, {"a": r[1], **changes})
                        else:
                            pre, post = table.patch_uncounted(key, {"a": r[1]})
                            assert post == pre[:1] + (r[1],) + pre[2:]
                            assert (post is pre) == (post == pre)
                n_mutated = sum(mutated)
                assert check_table(table, writer) == []
                built = {c: table._indexes[c].buckets for c in table.index_columns()}
                assert built == self.rebuilt(table), (writer, columns, attrs, batch)
                counted = (
                    table.counters.snapshot()["__total__"].index_maintenance - before
                )
                if writer in ("update_many", "insert_many", "delete_many", "write_at"):
                    # an index auto-created for the WHERE is built, not maintained
                    built_here = len(table.index_columns()) - n_indexes
                    assert counted == n_mutated - built_here * len(table), (
                        writer, columns, attrs, batch,
                    )
                else:
                    assert counted == 0

    def test_update_of_the_serving_index_column_reads_a_copy_of_its_bucket(self):
        table = Table(TableSchema("r", ("k", "a"), ("k",)))
        table.create_index(("a",))
        table.load([(k, 1) for k in range(50)])
        # Every row moves out of the bucket the WHERE is served from.
        written = table.update_many(("a",), ("a",), [((1,), (2,))])
        assert len(written) == 50 and table.lookup(("a",), (1,)) == []
        assert len(table.lookup(("a",), (2,))) == 50
        assert table.counters.total.index_maintenance == 100
