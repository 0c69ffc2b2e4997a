"""Tests for the i-diff formalism and APPLY semantics (paper Section 2)."""

import pickle

import pytest

from repro.core.apply import apply_diff
from repro.core.diffs import (
    DELETE,
    INSERT,
    UPDATE,
    Diff,
    DiffSchema,
    delete_schema_for,
    insert_schema_for,
    is_effective,
    merge_diffs,
    update_schema_for,
)
from repro.errors import DiffError, IntegrityError
from repro.storage import Table, TableSchema


@pytest.fixture
def view_table() -> Table:
    """The initial view instance V(DB) of Figure 2."""
    table = Table(TableSchema("V", ("did", "pid", "price"), ("did", "pid")))
    table.load([("D1", "P1", 10), ("D2", "P1", 10), ("D1", "P2", 20)])
    return table


class TestDiffSchema:
    def test_columns_layout(self):
        schema = DiffSchema(UPDATE, "V", ("pid",), ("price",), ("price",))
        assert schema.columns == ("pid", "price__pre", "price__post")

    def test_insert_rejects_pre(self):
        with pytest.raises(DiffError):
            DiffSchema(INSERT, "V", ("pid",), pre_attrs=("price",), post_attrs=("price",))

    def test_delete_rejects_post(self):
        with pytest.raises(DiffError):
            DiffSchema(DELETE, "V", ("pid",), post_attrs=("price",))

    def test_update_requires_post(self):
        with pytest.raises(DiffError):
            DiffSchema(UPDATE, "V", ("pid",), pre_attrs=("price",))

    def test_requires_ids(self):
        with pytest.raises(DiffError):
            DiffSchema(UPDATE, "V", (), post_attrs=("price",))

    def test_id_attr_cannot_also_be_value_attr(self):
        with pytest.raises(DiffError):
            DiffSchema(UPDATE, "V", ("pid",), post_attrs=("pid",))

    def test_canonical_base_schemas(self):
        ts = TableSchema("parts", ("pid", "price"), ("pid",))
        ins = insert_schema_for(ts)
        assert (ins.kind, ins.id_attrs, ins.post_attrs) == (INSERT, ("pid",), ("price",))
        dele = delete_schema_for(ts)
        assert (dele.kind, dele.pre_attrs) == (DELETE, ("price",))
        upd = update_schema_for(ts, ("price",))
        assert upd.pre_attrs == ("price",) and upd.post_attrs == ("price",)


class _NoIteration(list):
    """A row list that fails the test if anything walks it."""

    def __iter__(self):
        raise AssertionError("rows were iterated")


class TestDiffInstance:
    def test_dedupes_identical_rows(self):
        schema = DiffSchema(DELETE, "V", ("pid",))
        diff = Diff(schema, [("P1",), ("P1",)])
        assert len(diff) == 1

    def test_conflicting_ids_rejected(self):
        schema = DiffSchema(UPDATE, "V", ("pid",), (), ("price",))
        with pytest.raises(DiffError):
            Diff(schema, [("P1", 11), ("P1", 12)])

    def test_arity_checked(self):
        schema = DiffSchema(DELETE, "V", ("pid",))
        with pytest.raises(DiffError):
            Diff(schema, [("P1", 99)])

    def test_accessors(self):
        schema = DiffSchema(UPDATE, "V", ("pid",), ("price",), ("price",))
        diff = Diff(schema, [("P1", 10, 11)])
        row = diff.rows[0]
        assert diff.id_of(row) == ("P1",)
        assert diff.post_value(row, "price") == 11

    def test_validation_merges_duplicates_in_first_seen_order(self):
        schema = DiffSchema(INSERT, "t", ("k",), (), ("a", "b"))
        diff = Diff(schema, [(1, "x", 2), (2, "y", 3), (1, "x", 2)])
        assert diff.rows == [(1, "x", 2), (2, "y", 3)]
        assert len(diff) == 2 and not diff.is_empty()

    def test_empty_list_returns_early(self):
        schema = DiffSchema(DELETE, "V", ("pid",))
        rows = _NoIteration()
        diff = Diff(schema, rows)
        assert diff.rows is rows and diff.is_empty()
        assert Diff(schema, iter(())).rows == []

    def test_trusted_shares_rows_without_iterating(self):
        schema = DiffSchema(UPDATE, "V", ("pid",), (), ("price",))
        rows = _NoIteration([("P1", 11), ("P2", 12)])
        diff = Diff.trusted(schema, rows)
        assert type(diff) is Diff and diff.schema is schema
        assert diff.rows is rows and len(diff) == 2

    def test_pickle_round_trip(self):
        # The process shard backend pickles result diffs.
        schema = DiffSchema(UPDATE, "V", ("pid",), (), ("price",))
        rows = [("P1", 11), ("P2", 12)]
        for diff in (Diff(schema, rows), Diff.trusted(schema, rows)):
            back = pickle.loads(pickle.dumps(diff))
            assert type(back) is Diff
            assert back.schema == schema and back.rows == rows

    def test_merge(self):
        schema = DiffSchema(DELETE, "V", ("pid",))
        merged = merge_diffs([Diff(schema, [("P1",)]), Diff(schema, [("P2",)])])
        assert len(merged) == 2

    def test_merge_rejects_mixed_schemas(self):
        a = Diff(DiffSchema(DELETE, "V", ("pid",)))
        b = Diff(DiffSchema(DELETE, "V", ("did",)))
        with pytest.raises(DiffError):
            merge_diffs([a, b])


class TestApplyUpdate:
    def test_example_2_2(self, view_table):
        """Updating P1's price hits both P1 view tuples via one diff row."""
        schema = DiffSchema(UPDATE, "V", ("pid",), ("price",), ("price",))
        diff = Diff(schema, [("P1", 10, 11)])
        applied = apply_diff(view_table, diff)
        assert view_table.as_set() == {
            ("D1", "P1", 11),
            ("D2", "P1", 11),
            ("D1", "P2", 20),
        }
        assert len(applied) == 2

    def test_dummy_update_is_noop(self, view_table):
        """Overestimated i-diffs touch nothing (the P3 discussion, §1)."""
        schema = DiffSchema(UPDATE, "V", ("pid",), ("price",), ("price",))
        diff = Diff(schema, [("P3", 20, 21)])
        applied = apply_diff(view_table, diff)
        assert len(applied) == 0
        assert len(view_table) == 3

    def test_update_costs(self, view_table):
        """Appendix A: |∆| index lookups + p tuple accesses."""
        schema = DiffSchema(UPDATE, "V", ("pid",), ("price",), ("price",))
        diff = Diff(schema, [("P1", 10, 11)])
        view_table.counters.reset()
        apply_diff(view_table, diff)
        counts = view_table.counters.total
        assert counts.index_lookups == 1
        assert counts.tuple_writes == 2
        assert counts.tuple_reads == 0

    def test_expansion_returning(self, view_table):
        schema = DiffSchema(UPDATE, "V", ("pid",), ("price",), ("price",))
        diff = Diff(schema, [("P1", 10, 11)])
        applied = apply_diff(view_table, diff)
        expansion = applied.expansion()
        assert expansion.columns == ("did", "pid", "price__pre", "price__post")
        assert expansion.as_set() == {
            ("D1", "P1", 10, 11),
            ("D2", "P1", 10, 11),
        }


class TestApplyInsert:
    def test_example_2_3(self, view_table):
        schema = DiffSchema(
            INSERT, "V", ("did", "pid"), post_attrs=("price",)
        )
        diff = Diff(schema, [("D3", "P2", 20), ("D4", "P3", 30)])
        applied = apply_diff(view_table, diff)
        assert len(applied) == 2
        assert ("D3", "P2", 20) in view_table.as_set()
        assert ("D4", "P3", 30) in view_table.as_set()

    def test_duplicate_identical_insert_skipped(self, view_table):
        """The NOT IN guard lets several i-diffs insert the same tuple."""
        schema = DiffSchema(INSERT, "V", ("did", "pid"), post_attrs=("price",))
        diff = Diff(schema, [("D1", "P1", 10)])
        applied = apply_diff(view_table, diff)
        assert len(applied) == 0
        assert len(view_table) == 3

    def test_conflicting_insert_raises(self, view_table):
        schema = DiffSchema(INSERT, "V", ("did", "pid"), post_attrs=("price",))
        diff = Diff(schema, [("D1", "P1", 999)])
        with pytest.raises(IntegrityError):
            apply_diff(view_table, diff)


class TestApplyDelete:
    def test_example_2_4(self, view_table):
        """Deleting by pid=P1 removes both P1 tuples."""
        schema = DiffSchema(DELETE, "V", ("pid",), pre_attrs=("price",))
        diff = Diff(schema, [("P1", 10)])
        applied = apply_diff(view_table, diff)
        assert len(applied) == 2
        assert view_table.as_set() == {("D1", "P2", 20)}

    def test_overestimated_delete_noop(self, view_table):
        schema = DiffSchema(DELETE, "V", ("pid",))
        diff = Diff(schema, [("P9",)])
        applied = apply_diff(view_table, diff)
        assert len(applied) == 0
        assert len(view_table) == 3

    def test_delete_by_full_key(self, view_table):
        schema = DiffSchema(DELETE, "V", ("did", "pid"))
        apply_diff(view_table, Diff(schema, [("D1", "P2")]))
        assert view_table.as_set() == {("D1", "P1", 10), ("D2", "P1", 10)}


class TestEffectiveness:
    def test_effective_insert(self, view_table):
        schema = DiffSchema(INSERT, "V", ("did", "pid"), post_attrs=("price",))
        diff = Diff(schema, [("D3", "P2", 20)])
        apply_diff(view_table, diff)
        assert is_effective(diff, view_table)

    def test_ineffective_insert(self, view_table):
        schema = DiffSchema(INSERT, "V", ("did", "pid"), post_attrs=("price",))
        diff = Diff(schema, [("D9", "P9", 1)])
        assert not is_effective(diff, view_table)

    def test_effective_delete(self, view_table):
        schema = DiffSchema(DELETE, "V", ("pid",))
        diff = Diff(schema, [("P1",)])
        apply_diff(view_table, diff)
        assert is_effective(diff, view_table)

    def test_ineffective_delete(self, view_table):
        schema = DiffSchema(DELETE, "V", ("pid",))
        assert not is_effective(Diff(schema, [("P1",)]), view_table)

    def test_effective_update(self, view_table):
        schema = DiffSchema(UPDATE, "V", ("pid",), ("price",), ("price",))
        diff = Diff(schema, [("P1", 10, 11)])
        apply_diff(view_table, diff)
        assert is_effective(diff, view_table)

    def test_ineffective_update(self, view_table):
        schema = DiffSchema(UPDATE, "V", ("pid",), ("price",), ("price",))
        diff = Diff(schema, [("P1", 10, 11)])
        assert not is_effective(diff, view_table)

    def test_update_on_absent_id_is_effective(self, view_table):
        """Dummy (overestimated) diff rows do not break effectiveness."""
        schema = DiffSchema(UPDATE, "V", ("pid",), ("price",), ("price",))
        diff = Diff(schema, [("P9", 1, 2)])
        assert is_effective(diff, view_table)

    def test_order_independence_of_effective_set(self, view_table):
        """Effective i-diffs commute (Section 2): any order, same result."""
        upd = Diff(
            DiffSchema(UPDATE, "V", ("pid",), ("price",), ("price",)),
            [("P2", 20, 25)],
        )
        ins = Diff(
            DiffSchema(INSERT, "V", ("did", "pid"), post_attrs=("price",)),
            [("D3", "P3", 30)],
        )
        dele = Diff(DiffSchema(DELETE, "V", ("pid",)), [("P1",)])

        import itertools

        results = []
        for order in itertools.permutations([upd, ins, dele]):
            table = Table(TableSchema("V", ("did", "pid", "price"), ("did", "pid")))
            table.load([("D1", "P1", 10), ("D2", "P1", 10), ("D1", "P2", 20)])
            for diff in order:
                apply_diff(table, diff)
            results.append(table.as_set())
        assert all(r == results[0] for r in results)
