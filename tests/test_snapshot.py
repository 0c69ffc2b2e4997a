"""Tests for database snapshots and the ad-hoc query API."""

import pytest

from repro import query
from repro.errors import SchemaError
from repro.storage import (
    database_from_dict,
    database_to_dict,
    load_database,
    save_database,
)


class TestSnapshot:
    def test_round_trip(self, running_example_db, tmp_path):
        path = tmp_path / "db.json"
        save_database(running_example_db, path)
        restored = load_database(path)
        assert restored.table_names() == running_example_db.table_names()
        for name in restored.table_names():
            assert (
                restored.table(name).as_set()
                == running_example_db.table(name).as_set()
            )
            assert (
                restored.table(name).schema
                == running_example_db.table(name).schema
            )
        assert len(restored.foreign_keys) == len(running_example_db.foreign_keys)

    def test_restored_database_maintains_views(self, running_example_db, tmp_path):
        from repro.core import IdIvmEngine
        from tests.conftest import build_view_v_prime

        path = tmp_path / "db.json"
        save_database(running_example_db, path)
        db = load_database(path)
        engine = IdIvmEngine(db)
        view = engine.define_view("Vp", build_view_v_prime(db))
        engine.log.update("parts", ("P1",), {"price": 11})
        engine.maintain()
        assert view.table.as_set() == {("D1", 31), ("D2", 11)}

    def test_rows_restored_as_tuples(self, running_example_db):
        payload = database_to_dict(running_example_db)
        restored = database_from_dict(payload)
        row = next(iter(restored.table("parts").rows_uncounted()))
        assert isinstance(row, tuple)

    def test_schema_round_trips(self, tmp_path):
        """Declared ``nullable`` columns and ``types`` survive a save and
        load (the schema's ``==`` compares only name, columns and key)."""
        from repro.storage import Database

        db = Database()
        db.create_table("t", ("k", "a", "b"), ("k",), nullable=("a",), types={"a": "int", "b": "str"})
        db.create_table("u", ("k", "v"), ("k",))  # the defaults: every non-key column nullable
        path = tmp_path / "db.json"
        save_database(db, path)
        restored = load_database(path)
        for name in ("t", "u"):
            before, after = db.table(name).schema, restored.table(name).schema
            assert (after.nullable, after.types) == (before.nullable, before.types)
        assert restored.table("t").schema.nullable == {"a"}
        assert restored.table("t").schema.types == {"a": "int", "b": "str"}

    def test_snapshot_without_schema_fields_loads(self, running_example_db):
        payload = database_to_dict(running_example_db)
        for spec in payload["tables"]:
            del spec["nullable"], spec["types"]
        schema = database_from_dict(payload).table("parts").schema
        assert (schema.nullable, schema.types) == ({"price"}, {})

    def test_unknown_format_rejected(self):
        with pytest.raises(SchemaError):
            database_from_dict({"format": 99, "tables": []})


class TestAdHocQuery:
    def test_query_returns_relation(self, running_example_db):
        result = query(
            running_example_db,
            "SELECT did, SUM(price) AS cost FROM parts NATURAL JOIN "
            "devices_parts NATURAL JOIN devices WHERE category = 'phone' "
            "GROUP BY did",
        )
        assert result.columns == ("did", "cost")
        assert result.as_set() == {("D1", 30), ("D2", 10)}

    def test_query_counts_accesses(self, running_example_db):
        running_example_db.counters.reset()
        query(running_example_db, "SELECT * FROM parts")
        assert running_example_db.counters.total.tuple_reads == 2


class TestSnapshotIndexes:
    """Restore must rebuild secondary indexes and reset counters —
    stale index entries after restore would silently corrupt the
    diff-driven lookups the ∆-scripts rely on."""

    def _db(self):
        from repro.storage import Database

        db = Database()
        t = db.create_table("parts", ("pid", "price", "vendor"), ("pid",))
        t.load([(1, 10, "acme"), (2, 20, "acme"), (3, 30, "bolt")])
        t.create_index(("vendor",))
        return db

    def test_round_trip_rebuilds_secondary_indexes(self, tmp_path):
        db = self._db()
        path = tmp_path / "db.json"
        save_database(db, path)
        # Mutations after the snapshot must not leak into the restore.
        db.table("parts").delete_uncounted((1,))
        db.table("parts").insert_uncounted((4, 40, "bolt"))
        restored = load_database(path)
        t = restored.table("parts")
        assert t.has_index(("vendor",))
        # Probe through the secondary index: pre-mutation contents only.
        assert sorted(t.lookup(("vendor",), ("acme",))) == [
            (1, 10, "acme"),
            (2, 20, "acme"),
        ]
        assert t.lookup(("vendor",), ("bolt",)) == [(3, 30, "bolt")]
        # The probe used the rebuilt index, not a counted full scan.
        assert restored.counters.total.index_lookups == 2
        assert restored.counters.total.tuple_reads == 3

    def test_restore_resets_counters(self, tmp_path):
        db = self._db()
        list(db.table("parts").scan())  # dirty the live counters
        assert db.counters.total.total > 0
        path = tmp_path / "db.json"
        save_database(db, path)
        restored = load_database(path)
        assert restored.counters.total.total == 0
        assert restored.counters.phases == {}

    def test_legacy_snapshot_without_index_fields_loads(self):
        db = self._db()
        payload = database_to_dict(db)
        for spec in payload["tables"]:
            spec.pop("indexes")
        restored = database_from_dict(payload)
        assert restored.table("parts").as_set() == db.table("parts").as_set()

    def test_snapshot_with_the_retired_index_flag_loads(self):
        """Files written while tables could opt out of lazy indexes carry
        a top-level ``auto_index`` flag; it is ignored, and the restored
        tables build their indexes on first use."""
        db = self._db()
        payload = {**database_to_dict(db), "auto_index": False}
        for spec in payload["tables"]:
            spec.pop("indexes")
        t = database_from_dict(payload).table("parts")
        assert t.lookup(("vendor",), ("bolt",)) == [(3, 30, "bolt")]
        assert t.has_index(("vendor",))
        assert t.counters.total.index_lookups == 1

