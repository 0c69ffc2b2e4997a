"""Rule-level tests for antisemijoin propagation (paper Table 13)."""

from pathlib import Path

import pytest

from repro.algebra import AntiJoin, SemiJoin, rename, scan
from repro.core import IdIvmEngine
from repro.core.diffs import DELETE, INSERT, UPDATE, Diff, DiffSchema
from repro.core.idinfer import annotate_plan
from repro.core.ir import DiffSource
from repro.core.ir_exec import IrContext, run_ir
from repro.core.minimize import minimize_ir
from repro.core.rules.antijoin import propagate_antijoin
from repro.expr import col
from repro.storage import Database


@pytest.fixture
def db():
    """Products and orders; the antijoin lists unordered products."""
    database = Database()
    database.create_table("products", ("sku", "price"), ("sku",))
    database.create_table("orders", ("oid", "o_sku"), ("oid",))
    database.table("products").load([("A", 10), ("B", 20), ("C", 30)])
    database.table("orders").load([(1, "A"), (2, "A"), (3, "B")])
    return database


@pytest.fixture
def plan(db):
    return annotate_plan(
        AntiJoin(
            scan(db, "products"),
            rename(scan(db, "orders"), {"oid": "o_oid", "o_sku": "o_sku"}),
            col("sku").eq(col("o_sku")),
        )
    )


def run_rule(db, plan, side, in_schema, rows, db_pre=None):
    """Execute the instantiated rules; *db_pre* defaults to the live db
    (fine for rules that only read the post state)."""
    ctx = IrContext(db_pre if db_pre is not None else db, db)
    ctx.diffs["in"] = Diff(in_schema, rows)
    outputs = propagate_antijoin(plan, DiffSource("in", in_schema), in_schema, side)
    return [
        (schema, Diff.from_relation(schema, run_ir(minimize_ir(ir), ctx)))
        for schema, ir in outputs
    ]


def left_schema(plan, kind, **kwargs):
    return DiffSchema(kind, f"n{plan.left.node_id}", ("sku",), **kwargs)


def right_schema(plan, kind, **kwargs):
    return DiffSchema(kind, f"n{plan.children[1].node_id}", ("o_oid",), **kwargs)


class TestLeftSide:
    def test_insert_kept_only_without_match(self, db, plan):
        schema = left_schema(plan, INSERT, post_attrs=("price",))
        db.table("products").insert_uncounted(("D", 40))
        db.table("products").insert_uncounted(("E", 50))
        db.table("orders").insert_uncounted((9, "E"))
        [(out_schema, diff)] = run_rule(
            db, plan, 0, schema, [("D", 40), ("E", 50)]
        )
        assert out_schema.kind == INSERT
        assert diff.rows == [("D", 40)]

    def test_delete_passes_through(self, db, plan):
        schema = left_schema(plan, DELETE, pre_attrs=("price",))
        [(out_schema, diff)] = run_rule(db, plan, 0, schema, [("C", 30)])
        assert out_schema.kind == DELETE
        assert len(diff) == 1

    def test_nonconditional_update_passes_through(self, db, plan):
        schema = left_schema(plan, UPDATE, pre_attrs=("price",), post_attrs=("price",))
        outputs = run_rule(db, plan, 0, schema, [("C", 30, 35)])
        assert len(outputs) == 1
        assert outputs[0][0].kind == UPDATE


class TestRightSide:
    def test_insert_deletes_newly_matched_left(self, db, plan):
        """A new order for C removes C from the unordered view."""
        schema = right_schema(plan, INSERT, post_attrs=("o_sku",))
        db.table("orders").insert_uncounted((9, "C"))
        [(out_schema, diff)] = run_rule(db, plan, 1, schema, [(9, "C")])
        assert out_schema.kind == DELETE
        assert out_schema.id_attrs == ("sku",)
        assert diff.rows == [("C",)]

    def test_insert_for_already_matched_is_dummy_delete(self, db, plan):
        schema = right_schema(plan, INSERT, post_attrs=("o_sku",))
        db.table("orders").insert_uncounted((9, "A"))
        [(_, diff)] = run_rule(db, plan, 1, schema, [(9, "A")])
        # A was already matched -> the delete is overestimated but its
        # target is not in the view, so APPLY absorbs it.
        assert diff.rows == [("A",)]

    def test_delete_reinstates_left_rows(self, db, plan):
        """Deleting B's only order puts B back into the view."""
        schema = right_schema(plan, DELETE, pre_attrs=("o_sku",))
        db_pre = db.copy()
        db.table("orders").delete_uncounted((3,))
        [(out_schema, diff)] = run_rule(db, plan, 1, schema, [(3, "B")], db_pre)
        assert out_schema.kind == INSERT
        assert diff.rows == [("B", 20)]

    def test_delete_with_surviving_match_inserts_nothing(self, db, plan):
        schema = right_schema(plan, DELETE, pre_attrs=("o_sku",))
        db_pre = db.copy()
        db.table("orders").delete_uncounted((1,))
        [(_, diff)] = run_rule(db, plan, 1, schema, [(1, "A")], db_pre)
        assert len(diff) == 0  # order 2 still matches A

    def test_update_moves_match(self, db, plan):
        """Re-pointing B's order to C: B re-enters, C leaves."""
        schema = right_schema(
            plan, UPDATE, pre_attrs=("o_sku",), post_attrs=("o_sku",)
        )
        db_pre = db.copy()
        db.table("orders").update_uncounted((3,), {"o_sku": "C"})
        outputs = run_rule(db, plan, 1, schema, [(3, "B", "C")], db_pre)
        by_kind = {s.kind: d for s, d in outputs}
        assert by_kind[DELETE].rows == [("C",)]
        assert by_kind[INSERT].rows == [("B", 20)]

    def test_update_on_nonjoin_attr_not_triggered(self, db):
        database = db
        database.create_table("extra", ("eid", "e_sku", "note"), ("eid",))
        database.table("extra").load([(1, "A", "x")])
        plan = annotate_plan(
            AntiJoin(
                scan(database, "products"),
                scan(database, "extra"),
                col("sku").eq(col("e_sku")),
            )
        )
        schema = DiffSchema(
            UPDATE, f"n{plan.children[1].node_id}", ("eid",),
            pre_attrs=("note",), post_attrs=("note",),
        )
        ctx = IrContext(database, database)
        ctx.diffs["in"] = Diff(schema, [(1, "x", "y")])
        outputs = propagate_antijoin(plan, DiffSource("in", schema), schema, 1)
        assert outputs == []


@pytest.mark.parametrize("name, operator", [("semijoin", SemiJoin), ("antijoin", AntiJoin)])
def test_generated_script_matches_golden(name, operator):
    """The semijoin and the antisemijoin instantiate one rule body at two
    polarities; the ∆-script each view generates — every left- and
    right-side diff kind, equi pair plus residual — is pinned to the text
    recorded when they were two separate modules (tests/golden/)."""
    database = Database()
    database.create_table("products", ("sku", "price"), ("sku",))
    database.create_table("orders", ("oid", "o_sku", "qty"), ("oid",))
    view = IdIvmEngine(database).define_view(
        "V",
        operator(
            scan(database, "products"),
            rename(scan(database, "orders"), {"oid": "o_oid"}),
            col("sku").eq(col("o_sku")) & col("price").gt(col("qty")),
        ),
    )
    golden = Path(__file__).parent / "golden" / f"{name}_script.txt"
    assert view.describe_script() + "\n" == golden.read_text()
