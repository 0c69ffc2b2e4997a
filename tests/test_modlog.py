"""Tests for the modification logger and i-diff instance generator
(paper Section 5)."""

import pytest

from repro.core.diffs import DELETE, INSERT, UPDATE, DiffSchema, update_schema_for
from repro.core.modlog import (
    InstanceLayout,
    ModificationLog,
    fold_log,
    populate_instances,
    schema_instance_name,
)
from repro.core.schema_gen import generate_base_schemas
from repro.errors import DiffError, WorkloadError
from repro.storage import Database
from tests.conftest import build_view_v


@pytest.fixture
def db():
    database = Database()
    database.create_table("r", ("k", "a", "b"), ("k",))
    database.table("r").load([(1, 10, "x"), (2, 20, "y")])
    return database


class TestLogging:
    def test_modifications_hit_the_live_db(self, db):
        log = ModificationLog(db)
        log.insert("r", (3, 30, "z"))
        log.update("r", (1,), {"a": 11})
        log.delete("r", (2,))
        assert db.table("r").as_set() == {(1, 11, "x"), (3, 30, "z")}
        assert len(log.entries) == 3

    def test_logging_is_uncounted(self, db):
        log = ModificationLog(db)
        db.counters.reset()
        log.update("r", (1,), {"a": 99})
        assert db.counters.total.total == 0

    def test_update_captures_pre_row(self, db):
        log = ModificationLog(db)
        log.update("r", (1,), {"a": 11})
        assert log.entries[0].row == (1, 10, "x")

    def test_bad_operations_rejected(self, db):
        log = ModificationLog(db)
        with pytest.raises(WorkloadError):
            log.delete("r", (99,))
        with pytest.raises(WorkloadError):
            log.update("r", (99,), {"a": 1})
        with pytest.raises(WorkloadError):
            log.update("r", (1,), {"k": 5})

    def test_take_drains(self, db):
        log = ModificationLog(db)
        log.update("r", (1,), {"a": 11})
        assert len(log.take()) == 1
        assert log.take() == []


class TestFolding:
    def test_update_then_update_merges(self, db):
        log = ModificationLog(db)
        log.update("r", (1,), {"a": 11})
        log.update("r", (1,), {"b": "q"})
        net = fold_log(log.take(), db)["r"]
        change = net[(1,)]
        assert change.kind == UPDATE
        assert change.pre_row == (1, 10, "x")
        assert change.post_row == (1, 11, "q")

    def test_insert_then_update_is_insert(self, db):
        log = ModificationLog(db)
        log.insert("r", (3, 30, "z"))
        log.update("r", (3,), {"a": 31})
        net = fold_log(log.take(), db)["r"]
        change = net[(3,)]
        assert change.kind == INSERT
        assert change.post_row == (3, 31, "z")

    def test_insert_then_delete_vanishes(self, db):
        log = ModificationLog(db)
        log.insert("r", (3, 30, "z"))
        log.delete("r", (3,))
        net = fold_log(log.take(), db)
        assert (3,) not in net.get("r", {})

    def test_update_then_delete_is_delete_with_original_pre(self, db):
        log = ModificationLog(db)
        log.update("r", (1,), {"a": 11})
        log.delete("r", (1,))
        change = fold_log(log.take(), db)["r"][(1,)]
        assert change.kind == DELETE
        assert change.pre_row == (1, 10, "x")

    def test_delete_then_reinsert_is_update(self, db):
        log = ModificationLog(db)
        log.delete("r", (1,))
        log.insert("r", (1, 99, "x"))
        change = fold_log(log.take(), db)["r"][(1,)]
        assert change.kind == UPDATE
        assert change.pre_row == (1, 10, "x")
        assert change.post_row == (1, 99, "x")

    def test_delete_then_identical_reinsert_vanishes(self, db):
        log = ModificationLog(db)
        log.delete("r", (1,))
        log.insert("r", (1, 10, "x"))
        net = fold_log(log.take(), db)
        assert (1,) not in net.get("r", {})

    def test_noop_update_vanishes(self, db):
        log = ModificationLog(db)
        log.update("r", (1,), {"a": 10})
        net = fold_log(log.take(), db)
        assert (1,) not in net.get("r", {})

    def test_update_cycle_vanishes(self, db):
        log = ModificationLog(db)
        log.update("r", (1,), {"a": 11})
        log.update("r", (1,), {"a": 10})
        net = fold_log(log.take(), db)
        assert (1,) not in net.get("r", {})


class TestInstanceGeneration:
    def test_routing_into_schemas(self, running_example_db):
        plan = build_view_v(running_example_db)
        from repro.core import annotate_plan

        schemas = generate_base_schemas(annotate_plan(plan), running_example_db)
        log = ModificationLog(running_example_db)
        log.update("parts", ("P1",), {"price": 11})
        log.insert("devices", ("D4", "phone"))
        log.delete("devices_parts", ("D1", "P2"))
        instances = populate_instances(
            InstanceLayout(schemas), log.take(), running_example_db
        )
        non_empty = {name for name, diff in instances.items() if len(diff)}
        assert "base_u_parts__price" in non_empty
        assert "base_ins_devices" in non_empty
        assert "base_del_devices_parts" in non_empty
        # Every schema gets an (often empty) instance.
        assert len(instances) == len(schemas)

    def test_update_routed_to_minimal_covering_schema(self, db):
        """Each net tuple-update lands in exactly ONE schema: the
        smallest whose post attributes cover the modified set (splitting
        a change across instances would entangle them)."""
        from repro.core.diffs import update_schema_for

        schema_a = update_schema_for(db.table("r").schema, ("a",))
        schema_b = update_schema_for(db.table("r").schema, ("b",))
        schema_ab = update_schema_for(db.table("r").schema, ("a", "b"))
        log = ModificationLog(db)
        log.update("r", (1,), {"a": 11})
        log.update("r", (2,), {"a": 21, "b": "q"})
        instances = populate_instances(
            InstanceLayout([schema_a, schema_b, schema_ab]), log.take(), db
        )
        assert len(instances[schema_instance_name(schema_a)]) == 1
        assert len(instances[schema_instance_name(schema_b)]) == 0
        assert len(instances[schema_instance_name(schema_ab)]) == 1

    def test_uncovered_update_raises(self, db):
        from repro.core.diffs import update_schema_for
        from repro.errors import DiffError

        schema_a = update_schema_for(db.table("r").schema, ("a",))
        log = ModificationLog(db)
        log.update("r", (1,), {"b": "zzz"})
        import pytest as _pytest

        with _pytest.raises(DiffError):
            populate_instances(InstanceLayout([schema_a]), log.take(), db)

    def test_instance_names_are_stable(self, db):
        from repro.core.diffs import delete_schema_for, insert_schema_for

        assert schema_instance_name(insert_schema_for(db.table("r").schema)) == (
            "base_ins_r"
        )
        assert schema_instance_name(delete_schema_for(db.table("r").schema)) == (
            "base_del_r"
        )


class TestFoldLogProperty:
    """Property test: folding the log and replaying the net changes must
    reach exactly the state the raw log produced — across random
    insert/update/delete interleavings per key, including the fold-table
    edge cases (insert∘delete, delete∘insert-equal, update-back-to-
    original)."""

    N_KEYS = 6
    N_OPS = 40
    N_TRIALS = 60

    def _fresh_db(self):
        database = Database()
        database.create_table("r", ("k", "a", "b"), ("k",))
        database.table("r").load(
            [(k, k * 10, "x") for k in range(0, self.N_KEYS, 2)]
        )
        return database

    def _random_ops(self, rng):
        """A random but always-legal op sequence, tracked per key."""
        live = {k for k in range(0, self.N_KEYS, 2)}
        rows = {k: (k, k * 10, "x") for k in live}
        ops = []
        for _ in range(self.N_OPS):
            k = rng.randrange(self.N_KEYS)
            if k in live:
                choice = rng.choice(("update", "update_back", "delete"))
                if choice == "delete":
                    ops.append(("delete", k, None))
                    live.discard(k)
                    rows.pop(k)
                elif choice == "update_back":
                    # Re-assert current values: a net no-op update.
                    _, a, b = rows[k]
                    ops.append(("update", k, {"a": a, "b": b}))
                else:
                    changes = {}
                    if rng.random() < 0.8:
                        changes["a"] = rng.randrange(100)
                    if not changes or rng.random() < 0.5:
                        changes["b"] = rng.choice("xyz")
                    ops.append(("update", k, changes))
                    new = list(rows[k])
                    for col, val in changes.items():
                        new[{"a": 1, "b": 2}[col]] = val
                    rows[k] = tuple(new)
            else:
                # Re-insert sometimes equals the deleted row exactly
                # (the delete∘insert-equal fold case).
                row = (
                    (k, k * 10, "x")
                    if rng.random() < 0.4
                    else (k, rng.randrange(100), rng.choice("xyz"))
                )
                ops.append(("insert", k, row))
                live.add(k)
                rows[k] = row
        return ops

    def test_fold_matches_raw_replay(self):
        import random

        rng = random.Random(20260805)
        for _ in range(self.N_TRIALS):
            db = self._fresh_db()
            pre_rows = db.table("r").as_set()
            log = ModificationLog(db)
            for op, k, payload in self._random_ops(rng):
                if op == "insert":
                    log.insert("r", payload)
                elif op == "delete":
                    log.delete("r", (k,))
                else:
                    log.update("r", (k,), payload)
            entries = log.take()
            net = fold_log(entries, db)

            # Replay the folded net changes onto the pre-state.
            replayed = dict()
            for row in pre_rows:
                replayed[(row[0],)] = row
            for key, change in net.get("r", {}).items():
                if change.kind == INSERT:
                    assert key not in replayed
                    assert change.pre_row is None
                    replayed[key] = change.post_row
                elif change.kind == DELETE:
                    assert replayed.pop(key) == change.pre_row
                    assert change.post_row is None
                else:
                    assert replayed[key] == change.pre_row
                    assert change.pre_row != change.post_row
                    replayed[key] = change.post_row
            assert set(replayed.values()) == db.table("r").as_set()


class TestNoOpUpdateFolding:
    """An UPDATE whose new values equal the old ones is a no-op: it must
    not survive into the log (count-neutrality — the next maintenance
    round must cost exactly what an empty round costs)."""

    def test_same_value_update_is_not_logged(self, db):
        log = ModificationLog(db)
        log.update("r", (1,), {"a": 10})  # a is already 10
        assert log.entries == []
        assert db.table("r").as_set() == {(1, 10, "x"), (2, 20, "y")}

    def test_multi_column_noop_update_is_not_logged(self, db):
        log = ModificationLog(db)
        log.update("r", (1,), {"a": 10, "b": "x"})
        assert log.entries == []

    def test_partial_noop_update_is_logged(self, db):
        log = ModificationLog(db)
        log.update("r", (1,), {"a": 10, "b": "q"})  # b actually changes
        assert len(log.entries) == 1
        net = fold_log(log.take(), db)["r"]
        assert net[(1,)].post_row == (1, 10, "q")

    def test_fold_log_still_guards_hand_built_logs(self, db):
        from repro.core.modlog import LoggedModification

        entries = [
            LoggedModification(
                UPDATE, "r", (1,), row=(1, 10, "x"), changes={"a": 10}
            )
        ]
        assert fold_log(entries, db) == {"r": {}}

    def test_noop_update_round_is_count_neutral(self, db):
        from repro.core import IdIvmEngine
        from repro.expr import col, lit
        from repro.algebra import scan, where

        engine = IdIvmEngine(db)
        view = engine.define_view("V", where(scan(db, "r"), col("a").le(lit(50))))
        empty_report = engine.maintain()["V"]
        engine.log.update("r", (1,), {"a": 10})  # no-op
        noop_report = engine.maintain()["V"]
        assert noop_report.total_cost == empty_report.total_cost == 0
        assert view.table.as_set() == {(1, 10, "x"), (2, 20, "y")}


# ----------------------------------------------------------------------
# InstanceLayout: the schemas' statics resolved once per view
# ----------------------------------------------------------------------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import repro.core.modlog as modlog_mod  # noqa: E402

_KEYS = st.integers(min_value=0, max_value=5)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["r", "s"]),
        _KEYS,
        st.integers(min_value=0, max_value=3),
        st.sampled_from("xyz"),
    ),
    max_size=25,
)


def _two_table_db():
    database = Database()
    for name in ("r", "s", "t"):
        database.create_table(name, ("k", "a", "b"), ("k",))
        database.table(name).load([(k, k * 10, "x") for k in range(0, 6, 2)])
    return database


def _all_schemas(database):
    from repro.core.diffs import delete_schema_for, insert_schema_for, update_schema_for

    schemas = []
    for name in ("r", "s", "t"):
        table_schema = database.table(name).schema
        schemas += [
            insert_schema_for(table_schema),
            delete_schema_for(table_schema),
            update_schema_for(table_schema, ("a",)),
            update_schema_for(table_schema, ("a", "b")),
        ]
    return schemas


def _log_ops(log, database, ops):
    """Whatever legal modification each (table, key, a, b) draw allows."""
    for table, k, a, b in ops:
        current = database.table(table).get_uncounted((k,))
        if current is None:
            log.insert(table, (k, a, b))
        elif a == 0:
            log.delete(table, (k,))
        else:
            log.update(table, (k,), {"a": a} if a % 2 else {"a": a, "b": b})


class TestInstanceLayout:
    def test_iterates_as_the_schemas(self):
        database = _two_table_db()
        schemas = _all_schemas(database)
        layout = InstanceLayout(schemas)
        assert list(layout) == schemas and len(layout) == len(schemas)
        assert layout[0] is schemas[0]
        assert list(layout.names) == [schema_instance_name(s) for s in schemas]

    @settings(max_examples=60, deadline=None)
    @given(rounds=st.lists(_OPS, min_size=1, max_size=4))
    def test_resolved_once_equals_a_fresh_resolution(self, rounds):
        """One layout reused across rounds returns what a layout
        resolved afresh for the call returns: same names, in the same
        order, same schemas, same rows."""
        database = _two_table_db()
        schemas = _all_schemas(database)
        layout = InstanceLayout(schemas)
        log = ModificationLog(database)
        for ops in rounds:
            _log_ops(log, database, ops)
            entries = log.take()
            once = populate_instances(layout, entries, database)
            # (a plain list: shares nothing with the round's memo)
            fresh = populate_instances(InstanceLayout(schemas), list(entries), database)
            assert list(once) == list(fresh) == list(layout.names)
            for name in fresh:
                assert once[name].schema == fresh[name].schema
                assert once[name].rows == fresh[name].rows

    def test_untouched_tables_build_no_projector(self, monkeypatch):
        database = _two_table_db()
        schemas = _all_schemas(database)
        built = []
        real = modlog_mod.lower_instance_row
        monkeypatch.setattr(
            modlog_mod, "lower_instance_row",
            lambda name, parts: built.append(name) or real(name, parts),
        )
        log = ModificationLog(database)
        # an empty log: no table is touched, nothing is resolved
        instances = populate_instances(InstanceLayout(schemas), [], database)
        assert built == [] and len(instances) == len(schemas)
        # a log on r alone resolves r's four schemas (one row display each)
        log.update("r", (0,), {"a": 5})
        layout = InstanceLayout(schemas)
        populate_instances(layout, log.take(), database)
        assert len(built) == 4 and set(layout._tables) == {"r"}
        # ... once: the next round on r builds nothing more
        log.update("r", (2,), {"a": 6})
        log.insert("t", (9, 1, "z"))
        populate_instances(layout, log.take(), database)
        assert len(built) == 8 and set(layout._tables) == {"r", "t"}


class TestRoundEntries:
    """``take()`` hands out the round's entries with what the round
    derives from them memoised on them: one fold for every reader, one
    populated instance per table and schema set for every view."""

    @staticmethod
    def _count_folds(monkeypatch) -> list:
        folds, real = [], modlog_mod._fold
        monkeypatch.setattr(
            modlog_mod, "_fold", lambda *args: folds.append(1) or real(*args)
        )
        return folds

    def test_every_reader_of_the_round_shares_one_fold(self, monkeypatch):
        database = _two_table_db()
        schemas = _all_schemas(database)
        log = ModificationLog(database)
        log.update("r", (0,), {"a": 5})
        log.insert("t", (9, 1, "z"))
        folds = self._count_folds(monkeypatch)
        entries = log.take()
        assert isinstance(entries, list) and len(entries) == 2 and folds == []
        net = fold_log(entries, database)
        assert fold_log(entries, database) is net
        populate_instances(InstanceLayout(schemas), entries, database)
        populate_instances(InstanceLayout(schemas[:2]), entries, database)
        assert folds == [1]
        assert log.take() == [] and log.entries == []

    def test_a_hand_built_list_folds_every_time_and_shares_nothing(self, monkeypatch):
        database = _two_table_db()
        schemas = _all_schemas(database)
        log = ModificationLog(database)
        log.update("r", (0,), {"a": 5})
        entries = list(log.take())
        folds = self._count_folds(monkeypatch)
        first, again = fold_log(entries, database), fold_log(entries, database)
        assert first is not again and first.keys() == again.keys() == {"r"}
        assert first["r"][(0,)].post_row == again["r"][(0,)].post_row == (0, 5, "x")
        one = populate_instances(InstanceLayout(schemas), entries, database)
        two = populate_instances(InstanceLayout(schemas), entries, database)
        assert len(folds) == 4
        filled = [name for name, diff in one.items() if diff.rows]
        assert filled and all(
            one[n].rows == two[n].rows and one[n] is not two[n] for n in filled
        )

    def test_views_reading_the_same_schemas_get_the_same_instances(self):
        database = _two_table_db()
        schemas = _all_schemas(database)
        log = ModificationLog(database)
        log.update("r", (0,), {"a": 5})
        log.insert("t", (9, 1, "z"))
        entries = log.take()
        one = populate_instances(InstanceLayout(schemas), entries, database)
        two = populate_instances(InstanceLayout(list(schemas)), entries, database)
        filled = [name for name, diff in one.items() if diff.rows]
        assert len(filled) == 2 and all(one[name] is two[name] for name in filled)

    def test_update_routing_follows_the_whole_schema_set_of_the_view(self):
        """Keyed by one schema, the second view would be handed the
        first one's routing: its catch-all instance would stay empty."""
        db = Database()
        db.create_table("r", ("k", "a", "b"), ("k",))
        db.table("r").load([(1, 10, "x"), (2, 20, "y")])
        narrow = update_schema_for(db.table("r").schema, ("a",))
        wide = update_schema_for(db.table("r").schema, ("a", "b"))
        log = ModificationLog(db)
        log.update("r", (1,), {"a": 11})
        entries = log.take()
        both = populate_instances(InstanceLayout([narrow, wide]), entries, db)
        only_wide = populate_instances(InstanceLayout([wide]), entries, db)
        wide_name = schema_instance_name(wide)
        assert len(both[schema_instance_name(narrow)]) == 1 and not both[wide_name].rows
        assert only_wide[wide_name].rows == [(1, 10, "x", 11, "x")]

    def test_base_instances_are_adopted_unvalidated_only_on_the_full_key(self):
        db = Database()
        db.create_table("r", ("k", "j", "a"), ("k", "j"))
        db.table("r").load([(1, 1, 10), (1, 2, 20)])
        log = ModificationLog(db)
        log.update("r", (1, 1), {"a": 11})
        log.update("r", (1, 2), {"a": 21})
        entries = log.take()
        full = update_schema_for(db.table("r").schema, ("a",))
        assert len(populate_instances(InstanceLayout([full]), entries, db)[
            schema_instance_name(full)
        ]) == 2
        # IDs that are not the table's key: the rows (key + pre + post) do
        # not fit the schema, and the validating constructor says so.
        partial = DiffSchema(UPDATE, "r", ("k",), ("a",), ("a",))
        with pytest.raises(DiffError):
            populate_instances(InstanceLayout([partial]), list(entries), db)
