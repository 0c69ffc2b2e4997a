"""Rule-level tests for union-all (Table 5) and the blocking aggregate
steps (Tables 7, 9, 11, 12)."""

import random

import pytest

from repro.algebra import UnionAll, group_by, scan, where
from repro.core.compile import lower_group_pass
from repro.core.diffs import DELETE, INSERT, UPDATE, Diff, DiffSchema
from repro.core.idinfer import annotate_plan
from repro.core.ir import DiffSource
from repro.core.ir_exec import IrContext, run_ir
from repro.core.minimize import minimize_ir
from repro.core.rules.aggregate import (
    AssociativeAggregateStep,
    GeneralAggregateStep,
    OpCacheSpec,
)
from repro.core.rules.union import propagate_union
from repro.algebra.evaluate import evaluate_plan, materialize
from repro.expr import col, lit
from repro.storage import Database


@pytest.fixture
def db():
    database = Database()
    database.create_table("m", ("k", "g", "v"), ("k",))
    database.table("m").load([(1, "a", 5), (2, "a", 7), (3, "b", 2)])
    return database


class TestUnionRule:
    @pytest.fixture
    def plan(self, db):
        low = where(scan(db, "m"), col("v").le(lit(4)))
        high = where(scan(db, "m"), col("v").gt(lit(4)))
        return annotate_plan(UnionAll(low, high))

    def test_branch_tag_appended_as_id(self, db, plan):
        schema = DiffSchema(
            DELETE, f"n{plan.children[1].node_id}", ("k",), pre_attrs=("g", "v")
        )
        ctx = IrContext(db, db)
        ctx.diffs["in"] = Diff(schema, [(1, "a", 5)])
        [(out_schema, ir)] = propagate_union(
            plan, DiffSource("in", schema), schema, 1
        )
        assert out_schema.id_attrs == ("k", "b")
        diff = Diff.from_relation(out_schema, run_ir(minimize_ir(ir), ctx))
        assert diff.rows[0][:2] == (1, 1)  # right branch -> b = 1

    def test_left_branch_tag_zero(self, db, plan):
        schema = DiffSchema(
            INSERT, f"n{plan.children[0].node_id}", ("k",), post_attrs=("g", "v")
        )
        ctx = IrContext(db, db)
        ctx.diffs["in"] = Diff(schema, [(9, "c", 1)])
        [(out_schema, ir)] = propagate_union(
            plan, DiffSource("in", schema), schema, 0
        )
        diff = Diff.from_relation(out_schema, run_ir(minimize_ir(ir), ctx))
        assert diff.rows[0][1] == 0


def _setup_aggregate(db, aggs):
    plan = annotate_plan(group_by(scan(db, "m"), ("g",), aggs))
    out_table = materialize(plan, db, "OUT")
    spec = OpCacheSpec(plan, "opc")
    opcache = spec.build(evaluate_plan(plan.child, db), db.counters)
    return plan, out_table, opcache


def _run_step(db_pre, db_post, plan, out_table, opcache, diffs, associative=True):
    ctx = IrContext(db_pre, db_post)
    ctx.caches[plan.node_id] = out_table
    ctx.operator_caches[plan.node_id] = opcache
    inputs = []
    for i, diff in enumerate(diffs):
        name = f"in{i}"
        ctx.diffs[name] = diff
        inputs.append(("diff", name))
    step_cls = AssociativeAggregateStep if associative else GeneralAggregateStep
    if associative:
        step = step_cls(plan, inputs, "opc", "emit", "view_update")
    else:
        step = step_cls(plan, inputs, "emit", "view_update")
    step.run(ctx)
    return ctx


class TestAssociativeStep:
    def test_update_shifts_sum(self, db):
        plan, out, opc = _setup_aggregate(db, [("sum", col("v"), "s")])
        schema = DiffSchema(
            UPDATE, f"n{plan.child.node_id}", ("k",),
            pre_attrs=("g", "v"), post_attrs=("v",),
        )
        db_pre = db.copy()
        db.table("m").update_uncounted((1,), {"v": 8})
        _run_step(db_pre, db, plan, out, opc, [Diff(schema, [(1, "a", 5, 8)])])
        assert out.as_set() == {("a", 15), ("b", 2)}

    def test_insert_creates_group(self, db):
        plan, out, opc = _setup_aggregate(db, [("sum", col("v"), "s")])
        schema = DiffSchema(
            INSERT, f"n{plan.child.node_id}", ("k",), post_attrs=("g", "v")
        )
        db_pre = db.copy()
        db.table("m").insert_uncounted((9, "c", 4))
        ctx = _run_step(db_pre, db, plan, out, opc, [Diff(schema, [(9, "c", 4)])])
        assert ("c", 4) in out.as_set()
        assert len(ctx.diffs["emit_ins"]) == 1

    def test_delete_empties_group(self, db):
        plan, out, opc = _setup_aggregate(db, [("sum", col("v"), "s")])
        schema = DiffSchema(
            DELETE, f"n{plan.child.node_id}", ("k",), pre_attrs=("g", "v")
        )
        db_pre = db.copy()
        db.table("m").delete_uncounted((3,))
        ctx = _run_step(db_pre, db, plan, out, opc, [Diff(schema, [(3, "b", 2)])])
        assert out.as_set() == {("a", 12)}
        assert len(ctx.diffs["emit_del"]) == 1

    def test_avg_uses_operator_cache(self, db):
        plan, out, opc = _setup_aggregate(db, [("avg", col("v"), "mean")])
        assert "__sum_mean" in opc.schema.columns
        schema = DiffSchema(
            UPDATE, f"n{plan.child.node_id}", ("k",),
            pre_attrs=("g", "v"), post_attrs=("v",),
        )
        db_pre = db.copy()
        db.table("m").update_uncounted((2,), {"v": 9})
        _run_step(db_pre, db, plan, out, opc, [Diff(schema, [(2, "a", 7, 9)])])
        assert out.as_set() == {("a", 7.0), ("b", 2.0)}

    def test_sum_to_null_when_all_values_null(self, db):
        plan, out, opc = _setup_aggregate(db, [("sum", col("v"), "s")])
        schema = DiffSchema(
            UPDATE, f"n{plan.child.node_id}", ("k",),
            pre_attrs=("g", "v"), post_attrs=("v",),
        )
        db_pre = db.copy()
        db.table("m").update_uncounted((3,), {"v": None})
        _run_step(db_pre, db, plan, out, opc, [Diff(schema, [(3, "b", 2, None)])])
        assert ("b", None) in out.as_set()

    def test_zero_delta_costs_nothing(self, db):
        plan, out, opc = _setup_aggregate(db, [("sum", col("v"), "s")])
        schema = DiffSchema(
            UPDATE, f"n{plan.child.node_id}", ("k",),
            pre_attrs=("g", "v"), post_attrs=("v",),
        )
        db.counters.reset()
        before = db.counters.total.total
        _run_step(db, db, plan, out, opc, [Diff(schema, [(1, "a", 5, 5)])])
        # The probe of Input_pre costs, but no output writes happen.
        assert out.as_set() == {("a", 12), ("b", 2)}
        assert db.counters.total.tuple_writes == before

    def test_blocking_combines_branches(self, db):
        """Two branches' deltas on the same group combine before the
        single output write (Example 4.4's blocking behaviour)."""
        plan, out, opc = _setup_aggregate(db, [("sum", col("v"), "s")])
        upd = DiffSchema(
            UPDATE, f"n{plan.child.node_id}", ("k",),
            pre_attrs=("g", "v"), post_attrs=("v",),
        )
        db_pre = db.copy()
        db.table("m").update_uncounted((1,), {"v": 6})
        db.table("m").update_uncounted((2,), {"v": 8})
        _run_step(
            db_pre, db, plan, out, opc,
            [Diff(upd, [(1, "a", 5, 6)]), Diff(upd, [(2, "a", 7, 8)])],
        )
        assert ("a", 14) in out.as_set()


    def test_queued_updates_keep_the_write_order(self, db):
        """Live groups whose bookkeeping does not move are written in one
        batch, flushed before every group creation / deletion: same rows,
        same order of writes, same accesses as one write per group."""
        db.table("m").load([(4, "c", 1), (5, "d", 3)])
        plan, out, opc = _setup_aggregate(
            db, [("sum", col("v"), "s"), ("count", None, "n")]
        )
        changes = [
            ((1, "a", 5), (1, "a", 6)),    # a: sum moves
            (None, (9, "e", 4)),           # e: group created
            ((3, "b", 2), (3, "b", 9)),    # b: sum moves
            ((4, "c", 1), None),           # c: last row gone, group deleted
            ((5, "d", 3), (5, "d", 0)),    # d: sum moves
            ((2, "a", 7), (2, "a", 8)),    # a again: folded into one write
        ]
        group_pass = lower_group_pass(plan, out, opc)
        db.counters.reset()
        out.begin_journal()
        ins, dels, upd = group_pass(changes)
        # effective rows per kind: key + values, key + old + new values
        assert ins == [("e", 4, 1)]
        assert dels == [("c", 1, 1)]
        assert upd == [("a", 12, 2, 14, 2), ("b", 2, 1, 9, 1), ("d", 3, 1, 0, 1)]
        assert [op[:2] for op in out.end_journal(write_set=True)] == [
            ("s", ("a",)), ("s", ("e",)), ("s", ("b",)), ("d", ("c",)), ("s", ("d",)),
        ]
        assert opc.as_set() == {("a", 2, 2), ("b", 1, 1), ("d", 1, 1), ("e", 1, 1)}
        total = db.counters.total
        # Output: a lookup and a write per group, and the NOT-IN probe of
        # e's insert.  Opcache: e probed (absent) and inserted behind its
        # own probe, c probed (found) and deleted; a, b, d untouched.
        assert (total.index_lookups, total.tuple_reads, total.tuple_writes) == (9, 1, 7)


class TestGeneralStep:
    def test_minmax_recompute(self, db):
        plan, out, opc = _setup_aggregate(
            db, [("min", col("v"), "lo"), ("max", col("v"), "hi")]
        )
        schema = DiffSchema(
            UPDATE, f"n{plan.child.node_id}", ("k",),
            pre_attrs=("g", "v"), post_attrs=("v",),
        )
        db_pre = db.copy()
        db.table("m").update_uncounted((2,), {"v": 1})
        _run_step(
            db_pre, db, plan, out, opc,
            [Diff(schema, [(2, "a", 7, 1)])], associative=False,
        )
        assert out.as_set() == {("a", 1, 5), ("b", 2, 2)}

    def test_group_deletion_via_recompute(self, db):
        plan, out, opc = _setup_aggregate(db, [("max", col("v"), "hi")])
        schema = DiffSchema(
            DELETE, f"n{plan.child.node_id}", ("k",), pre_attrs=("g", "v")
        )
        db_pre = db.copy()
        db.table("m").delete_uncounted((3,))
        ctx = _run_step(
            db_pre, db, plan, out, opc,
            [Diff(schema, [(3, "b", 2)])], associative=False,
        )
        assert out.as_set() == {("a", 7)}
        assert len(ctx.diffs["emit_del"]) == 1


def _minmax_engines():
    """Every maintenance strategy with a min/max rescan path."""
    from repro.baselines import TupleIvmEngine
    from repro.core import IdIvmEngine

    return [
        pytest.param(lambda db: IdIvmEngine(db, optimize=False), id="eager"),
        pytest.param(lambda db: IdIvmEngine(db, optimize=True), id="minimized"),
        pytest.param(TupleIvmEngine, id="tuple"),
    ]


@pytest.mark.parametrize("make_engine", _minmax_engines())
class TestMinMaxDeleteRescan:
    """DELETE of the cached extremum must fire the Table 7 rescan —
    including with duplicate extrema, NULL-only groups and NULL/mixed
    group keys (which Python's ``sorted`` cannot order)."""

    def _engine(self, make_engine, rows):
        db = Database()
        db.create_table("m", ("k", "g", "v"), ("k",))
        db.table("m").load(rows)
        engine = make_engine(db)
        plan = group_by(
            scan(db, "m"), ("g",),
            [("min", col("v"), "lo"), ("max", col("v"), "hi")],
        )
        view = engine.define_view("V", plan)
        return engine, view

    def test_delete_unique_extremum_rescans_and_is_costed(self, make_engine):
        engine, view = self._engine(
            make_engine, [(1, "a", 5), (2, "a", 7), (3, "b", 2)]
        )
        engine.log.delete("m", (2,))
        report = engine.maintain()["V"]
        assert view.table.as_set() == {("a", 5, 5), ("b", 2, 2)}
        # The rescan touched the surviving group members and was counted.
        total = report.phase_counts["__total__"]
        assert total.tuple_reads > 0
        assert total.tuple_writes > 0
        assert report.total_cost > 0

    def test_delete_duplicate_extremum_keeps_value(self, make_engine):
        engine, view = self._engine(
            make_engine, [(1, "a", 7), (2, "a", 7), (3, "a", 1)]
        )
        engine.log.delete("m", (2,))
        engine.maintain()
        assert view.table.as_set() == {("a", 1, 7)}

    def test_delete_last_extremum_drops_to_next(self, make_engine):
        engine, view = self._engine(
            make_engine, [(1, "a", 7), (2, "a", 7), (3, "a", 1)]
        )
        engine.log.delete("m", (1,))
        engine.log.delete("m", (2,))
        engine.maintain()
        assert view.table.as_set() == {("a", 1, 1)}

    def test_null_only_group_survives_extremum_delete(self, make_engine):
        engine, view = self._engine(
            make_engine, [(1, "a", None), (2, "a", None), (3, "b", 4)]
        )
        engine.log.delete("m", (1,))
        engine.maintain()
        # The group still has a member; min/max over all-NULL is NULL.
        assert view.table.as_set() == {("a", None, None), ("b", 4, 4)}
        engine.log.delete("m", (2,))
        engine.maintain()
        assert view.table.as_set() == {("b", 4, 4)}

    def test_null_group_key_delete_does_not_crash_sort(self, make_engine):
        # Pre-fix: sorted() over {("a",), (None,)} raised TypeError.
        engine, view = self._engine(
            make_engine, [(1, None, 5), (2, None, 7), (3, "a", 2)]
        )
        engine.log.delete("m", (2,))
        engine.maintain()
        assert view.table.as_set() == {(None, 5, 5), ("a", 2, 2)}

    def test_mixed_type_group_keys_delete(self, make_engine):
        # Pre-fix: sorted() over {(1,), ("a",)} raised TypeError.
        engine, view = self._engine(
            make_engine, [(1, 1, 5), (2, 1, 9), (3, "a", 2)]
        )
        engine.log.delete("m", (2,))
        engine.maintain()
        assert view.table.as_set() == {(1, 5, 5), ("a", 2, 2)}


class TestOperatorCacheBuild:
    """The opcache is filled by the γ-delta accumulation a round runs,
    fed every child row as an insert: NULL enters no count, and a sum /
    avg argument is added as the round adds it (a bool as its int)."""

    @staticmethod
    def _build(rows):
        db = Database()
        db.create_table("m", ("k", "g", "v"), ("k",)).load(rows)
        plan = annotate_plan(group_by(scan(db, "m"), ("g",), [
            ("sum", col("v"), "s"), ("avg", col("v"), "m"),
            ("count", col("v"), "c"), ("count", None, "n"),
        ]))
        return OpCacheSpec(plan, "opc").build(evaluate_plan(plan.child, db), db.counters)

    def test_null_and_non_numeric_sum_arguments(self):
        opcache = self._build([
            (1, "a", None), (2, "a", True), (3, "a", 2), (4, "a", 2.5),
            (5, "b", None), (6, "b", None),
        ])
        assert opcache.schema.columns == ("g", "__n", "__cnt_s", "__cnt_m", "__sum_m")
        assert opcache.rows_uncounted() == [("a", 4, 3, 3, 5.5), ("b", 2, 0, 0, 0)]

    def test_a_string_sum_argument_raises(self):
        with pytest.raises(TypeError):
            self._build([(1, "a", 1), (2, "a", "x")])


# ----------------------------------------------------------------------
# the γ pass against a sequential reference, over seeded change lists
# ----------------------------------------------------------------------
SWEEP_COLUMNS = ("k", "g", "h", "i", "f", "x")
SWEEP_PLANS = {
    # NULL-heavy ints and dyadic floats: every sum is exact, so the
    # output and opcache must equal a definition over the post rows.
    # With an avg, a moving sum moves the book: every group is written
    # by its own calls.
    "exact": [
        ("count", None, "n"), ("count", col("i"), "ci"), ("sum", col("i"), "si"),
        ("avg", col("i"), "ai"), ("sum", col("f"), "sf"), ("avg", col("f"), "af"),
    ],
    # without one, a live group whose sums alone move is queued
    "exact_sums": [("count", None, "n"), ("sum", col("i"), "si"), ("sum", col("f"), "sf")],
    # floats of mixed magnitude: the order of the additions shows, and
    # a sum that moves can leave the value unchanged (1e16 + 1.0)
    "float": [("count", col("x"), "cx"), ("sum", col("x"), "sx"), ("avg", col("x"), "ax")],
    "float_sum": [("sum", col("x"), "sx")],
    "count": [("count", None, "n")],
}


def _sweep_row(rng, k: int, group) -> tuple:
    def maybe(value):
        return None if rng.random() < 0.4 else value

    return (
        k, *group, maybe(rng.randint(-5, 9)), maybe(rng.randint(-40, 40) / 4),
        maybe(rng.choice((1e16, -1e16, 1.0, 0.1, 3.3, -2.7)) * rng.uniform(0.5, 2)),
    )


def _sweep_stream(seed: int):
    """Initial rows, then ``(pre, post)`` changes that update in place,
    move rows between groups, create groups, delete whole groups and
    touch one key in several changes (as several branches do)."""
    rng = random.Random(seed)
    groups = [(g, h) for g in "abcd" for h in (0, 1)]
    current = {k: _sweep_row(rng, k, rng.choice(groups)) for k in range(24)}
    initial = list(current.values())
    changes, touched, fresh = [], [], [100]

    def change(k, post):
        pre = current.pop(k, None)
        if post is not None:
            current[k] = post
        changes.append((pre, post))
        touched.append(k)

    for _ in range(rng.randint(1, 30)):
        op = rng.random()
        live = sorted(current)
        if touched and rng.random() < 0.3:
            live = sorted(set(touched) & set(current)) or live
        k = rng.choice(live) if live else None
        if op < 0.3 and k is not None:  # values change in place
            change(k, _sweep_row(rng, k, current[k][1:3]))
        elif op < 0.5 and k is not None:  # the row moves to another group
            change(k, _sweep_row(rng, k, rng.choice(groups)))
        elif op < 0.7:  # an insert, into a new group now and then
            fresh[0] += 1
            group = (f"z{fresh[0]}", 0) if rng.random() < 0.3 else rng.choice(groups)
            change(fresh[0], _sweep_row(rng, fresh[0], group))
        elif op < 0.85 and k is not None:
            change(k, None)
        elif k is not None:  # every row of a group goes
            group = current[k][1:3]
            for other in sorted(current):
                if current[other][1:3] == group:
                    change(other, None)
    return initial, changes, list(current.values())


def _sweep_define(rows, aggs):
    db = Database()
    db.create_table("m", SWEEP_COLUMNS, ("k",)).load(rows)
    plan = annotate_plan(group_by(scan(db, "m"), ("g", "h"), aggs))
    out = materialize(plan, db, "OUT")
    opc = OpCacheSpec(plan, "opc").build(evaluate_plan(plan.child, db), db.counters)
    return db, plan, out, opc


def _reference(plan, changes, out_rows: dict, book_rows: dict):
    """The γ-delta of *changes* by the rules, sequentially: per group,
    ``n`` and per aggregate the non-NULL count and the sum, pre side
    then post side, change by change; then per group the one
    read-modify-write, charged as the per-group calls charge it.
    Updates *out_rows* / *book_rows* (key -> row) in place; returns the
    charges ``(lookups, reads, writes)`` and the output's write ops."""
    aggs = plan.aggs
    at = {c: i for i, c in enumerate(plan.child.columns)}
    book_columns = OpCacheSpec(plan, "opc").columns[len(plan.keys):]
    deltas: dict = {}
    for pre, post in changes:
        for row, sign in ((pre, -1), (post, 1)):
            if row is None:
                continue
            d = deltas.setdefault(tuple(row[at[k]] for k in plan.keys), {
                "n": 0, "cnt": [0] * len(aggs), "sum": [0] * len(aggs),
            })
            d["n"] += sign
            for i, agg in enumerate(aggs):
                v = None if agg.arg is None else row[at[agg.arg.name]]
                if v is not None:
                    d["cnt"][i] += sign
                    d["sum"][i] = d["sum"][i] - v if sign < 0 else d["sum"][i] + v
    has_avg = any(a.func == "avg" for a in aggs)
    summed = [i for i, a in enumerate(aggs) if a.func in ("sum", "avg")]
    lookups = reads = writes = 0
    ops = []

    def values(old, d, book):
        out = []
        for i, agg in enumerate(aggs):
            prior = 0 if old is None else (old[len(plan.keys) + i] or 0)
            if agg.func == "count":
                out.append(prior + (d["n"] if agg.arg is None else d["cnt"][i]))
            elif book[f"__cnt_{agg.name}"] == 0:
                out.append(None)
            elif agg.func == "sum":
                out.append(prior + d["sum"][i] if old is not None else d["sum"][i])
            else:
                out.append(book[f"__sum_{agg.name}"] / book[f"__cnt_{agg.name}"])
        return tuple(out)

    def bumped(book, d, n):
        new = dict(book) if book else dict.fromkeys(book_columns, 0)
        new["__n"] = n
        for i, agg in enumerate(aggs):
            if agg.func in ("sum", "avg"):
                new[f"__cnt_{agg.name}"] += d["cnt"][i]
            if agg.func == "avg":
                new[f"__sum_{agg.name}"] += d["sum"][i]
        return new

    books = {g: dict(zip(book_columns, row[len(g):])) for g, row in book_rows.items()}
    for g, d in deltas.items():
        old, book = out_rows.get(g), books.get(g)
        touch = d["n"] != 0 or any(d["cnt"]) or (has_avg and any(d["sum"][i] for i in summed))
        if not touch:
            if not any(d["sum"][i] for i in summed):
                continue
            if old is not None and book is not None and book["__n"]:
                new = values(old, d, book)
                if new != old[len(g):]:  # queued into the one update_many
                    lookups, writes = lookups + 1, writes + 1
                    out_rows[g] = g + new
                    ops.append(("s", g))
                    continue
        lookups += 2 if touch else 1  # the book (when it moves), locate
        reads += 1 if touch and book is not None else 0
        if old is not None:
            n = (book["__n"] if book else 0) + d["n"]
            if n == 0:
                writes += 2
                del out_rows[g], books[g]
                ops.append(("d", g))
                continue
            new_book = bumped(book, d, n)
            new = values(old, d, new_book)
            if new != old[len(g):]:
                writes += 1
                out_rows[g] = g + new
                ops.append(("s", g))
            if touch:
                lookups, writes = lookups + (book is None), writes + 1
                books[g] = new_book
        elif d["n"] > 0:
            books[g] = bumped(None, d, d["n"])
            out_rows[g] = g + values(None, d, books[g])
            lookups, writes = lookups + 2, writes + 2
            ops.append(("s", g))
    book_rows.clear()
    book_rows.update({g: g + tuple(b[c] for c in book_columns) for g, b in books.items()})
    return (lookups, reads, writes), ops


@pytest.mark.parametrize("seed", range(40))
def test_group_pass_matches_the_sequential_reference(seed):
    initial, changes, post_rows = _sweep_stream(seed)
    for name, aggs in SWEEP_PLANS.items():
        db, plan, out, opc = _sweep_define(initial, aggs)
        before = {row[:2]: row for row in out.rows_uncounted()}
        expected_out, expected_book = dict(before), {r[:2]: r for r in opc.rows_uncounted()}
        charges, ops = _reference(plan, changes, expected_out, expected_book)
        group_pass = lower_group_pass(plan, out, opc)
        db.counters.reset()
        out.begin_journal()
        ins, dels, upd = group_pass(changes)
        assert [op[:2] for op in out.end_journal(write_set=True)] == ops, name
        total = db.counters.total
        assert (total.index_lookups, total.tuple_reads, total.tuple_writes) == charges, name
        # bit for bit: repr tells -0.0 from 0.0 and 1e16 + 1.0 from 1e16
        after = {row[:2]: row for row in out.rows_uncounted()}
        assert repr(sorted(after.items())) == repr(sorted(expected_out.items())), name
        books = {row[:2]: row for row in opc.rows_uncounted()}
        assert repr(sorted(books.items())) == repr(sorted(expected_book.items())), name
        # the emitted rows are the difference of the output's snapshots
        assert sorted(ins) == sorted(after[g] for g in after.keys() - before.keys())
        assert sorted(dels) == sorted(before[g] for g in before.keys() - after.keys())
        assert sorted(upd) == sorted(
            g + before[g][2:] + after[g][2:]
            for g in after.keys() & before.keys() if after[g] != before[g]
        )
        if name.startswith("exact") or name == "count":
            _, _, rebuilt, rebuilt_book = _sweep_define(post_rows, aggs)
            assert out.as_set() == rebuilt.as_set(), name
            assert opc.as_set() == rebuilt_book.as_set(), name
