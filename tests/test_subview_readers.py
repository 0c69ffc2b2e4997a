"""A generated subview reader reads what the interpreter reads.

``core.compile.lower_reader`` lowers the interpretive diff-driven loop
(``algebra.delta_eval.fetch``) into one function per ``(node, state,
binding columns, cached)``; every subview read of a round goes through
one.  The contract is the interpreter's, read for read: for every form
(σ / π / ⋈ / ⋉ / ▷ / ∪ / γ), over base tables and over caches, in either
state, the reader returns the same bag of rows and charges the same
accesses to the same phase — every row and bound reads, duplicate and
NULL probe values, a table without indexes — and builds the same lazy
indexes.  ``Table.probe`` and ``Diff``'s validating constructor are
pinned here too.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.algebra.delta_eval import Bindings, fetch
from repro.algebra.evaluate import evaluate_plan
from repro.algebra.plan import (
    AggSpec,
    AntiJoin,
    GroupBy,
    Join,
    Project,
    Scan,
    Select,
    SemiJoin,
    UnionAll,
)
from repro.core.compile import SubviewReaders, lower_reader
from repro.core.diffs import INSERT, Diff, DiffSchema
from repro.core.idinfer import annotate_plan
from repro.core.ir import POST, PRE
from repro.core.ir_exec import IrContext
from repro.errors import DiffError, PlanError
from repro.expr.ast import Arith, Cmp, Col, Lit
from repro.storage import CounterSet, Database, Table, TableSchema

SEED = 20240601
VALUES = [None, 0, 1, 2, 3]


def _world(rng_seed: int, indexed: bool):
    """Pre and post databases of ``r(rk, a, b)`` and ``s(sk, a2, c)``
    (nullable ``a`` / ``a2`` / ``b``), sharing one counter set; post is
    pre plus a few inserts, deletes and updates.  *indexed*: every
    non-key column has a secondary index up front; otherwise none does
    until a read builds it."""
    rng = random.Random(rng_seed)
    counters = CounterSet()
    dbs = {}
    for state in (PRE, POST):
        db = dbs[state] = Database(counters=counters)
        db.create_table("r", ("rk", "a", "b"), ("rk",), nullable=("a", "b"))
        db.create_table("s", ("sk", "a2", "c"), ("sk",), nullable=("a2",))
        if indexed:
            for table in db.tables.values():
                for column in table.schema.non_key_columns:
                    table.create_index((column,))
    for k in range(14):
        row = (k, rng.choice(VALUES), rng.choice(VALUES))
        dbs[PRE].table("r").insert_uncounted(row)
        dbs[POST].table("r").insert_uncounted(row if rng.random() < 0.8 else (k, rng.choice(VALUES), row[2]))
    for k in range(9):
        row = (k, rng.choice(VALUES), rng.randrange(5))
        dbs[PRE].table("s").insert_uncounted(row)
        if rng.random() < 0.85:
            dbs[POST].table("s").insert_uncounted(row)
    dbs[POST].table("s").insert_uncounted((100, 2, 4))
    dbs[POST].table("r").insert_uncounted((100, None, 3))
    return dbs


def _plans(schemas):
    """One annotated plan per form, over scans of ``r`` and ``s``."""
    def r():
        return Scan(schemas["r"])

    def s():
        return Scan(schemas["s"])

    on = Cmp("=", Col("a"), Col("a2"))
    residual = Cmp("<", Col("b"), Col("c"))
    forms = {
        "scan": r(),
        "select": Select(r(), Cmp(">", Col("b"), Lit(1))),
        "project": Project(r(), [("x", Col("a")), ("y", Arith("+", Col("b"), Lit(1))), ("rk", Col("rk"))]),
        "join": Join(r(), s(), on),
        "join_residual": Join(r(), s(), on & residual),
        "theta_join": Join(r(), s(), residual),
        "semijoin": SemiJoin(r(), s(), on),
        "semijoin_residual": SemiJoin(r(), s(), on & residual),
        "antijoin": AntiJoin(r(), s(), on),
        "union": UnionAll(
            Project(r(), [("k", Col("rk")), ("v", Col("a"))]),
            Project(s(), [("k", Col("sk")), ("v", Col("a2"))]),
            "br",
        ),
        "groupby": GroupBy(r(), ("a",), (AggSpec("count", None, "n"), AggSpec("sum", Col("b"), "t"))),
        "project_over_select": Project(
            Select(Join(r(), s(), on), Cmp("<>", Col("c"), Lit(0))),
            [("rk", Col("rk")), ("sk", Col("sk")), ("a", Col("a"))],
        ),
    }
    return {name: annotate_plan(plan) for name, plan in forms.items()}


def _bindings(node, rng: random.Random):
    """Binding column sets of *node* and values for them: values taken
    from the domain (NULL included), duplicated, some absent."""
    columns = list(node.columns)
    sets = [(c,) for c in columns] + [tuple(rng.sample(columns, 2)) for _ in range(2)]
    for attrs in sets:
        values = [tuple(rng.choice(VALUES + [7, 8, 100]) for _ in attrs) for _ in range(5)]
        yield attrs, values + values[:2]  # duplicates
    yield (columns[0],), []  # an empty probe reads nothing


def _caches(plan, dbs, where: str):
    """Per node of *plan* (``"all"``, ``"inner"`` = all but the root, or
    ``"none"``): a cache table of its rows in each state, stored in
    reversed column order."""
    if where == "none":
        return {}
    caches = {}
    for node in plan.walk():
        if where == "inner" and node is plan:
            continue
        rows = {state: evaluate_plan(node, dbs[state]).rows for state in (PRE, POST)}
        columns = tuple(reversed(node.columns))
        table = Table(
            TableSchema(f"cache_n{node.node_id}", columns, columns),
            counters=dbs[PRE].counters,
        )
        flip = [node.columns.index(c) for c in columns]
        table.load({tuple(row[i] for i in flip) for row in rows[PRE]})
        caches[node.node_id] = (table, {tuple(row[i] for i in flip) for row in rows[POST]})
    return caches


def _context(dbs, caches, marked: bool) -> IrContext:
    """A context over *dbs* whose caches hold the pre state, or — when
    *marked* — the post state of every cached node."""
    tables = {}
    for nid, (table, post_rows) in caches.items():
        if marked:
            table = Table(table.schema, counters=table.counters)
            table.load(post_rows)
        tables[nid] = table
    ctx = IrContext(dbs[PRE], dbs[POST], caches=tables)
    if marked:
        for nid in tables:
            ctx.mark_cache_updated(nid)
    return ctx


def _counts(counters: CounterSet) -> dict:
    return {name: c.as_dict() for name, c in counters.phases.items()}


def _indexes(ctx: IrContext) -> dict:
    tables = {**ctx.db_pre.tables, **{f"post.{k}": t for k, t in ctx.db_post.tables.items()}}
    tables.update({f"cache.{nid}": t for nid, t in ctx.caches.items()})
    return {name: table.index_columns() for name, table in tables.items()}


@pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "unindexed"])
@pytest.mark.parametrize("cached", ["none", "inner", "all", "marked"])
def test_every_form_reads_what_the_interpreter_reads(indexed, cached):
    rng = random.Random(SEED)
    schemas = {name: t.schema for name, t in _world(SEED, indexed)[PRE].tables.items()}
    reads = 0
    for name, plan in _plans(schemas).items():
        for state in (PRE, POST):
            for attrs, values in [(None, None), *_bindings(plan, rng)]:
                for use_caches in (True, False):
                    # two identical worlds: the interpreter reads one, the reader the other
                    worlds = []
                    for _ in range(2):
                        dbs = _world(SEED, indexed)
                        caches = _caches(plan, dbs, "all" if cached == "marked" else cached)
                        worlds.append(_context(dbs, caches, cached == "marked"))
                    oracle, lowered = worlds
                    bindings = None if attrs is None else Bindings(attrs, values)
                    counters = oracle.db_pre.counters
                    counters.reset()
                    with counters.phase("p"):
                        expected = oracle.resolve_subview(plan, state, bindings, use_caches).rows
                    want = _counts(counters)
                    reader = lower_reader(plan, state, attrs, use_caches)
                    assert hasattr(reader, "__source__"), (name, attrs)
                    counters = lowered.db_pre.counters
                    counters.reset()
                    with counters.phase("p"):
                        got = reader(lowered, values)
                    case = (name, state, attrs, values, use_caches)
                    assert Counter(got) == Counter(expected), case
                    assert _counts(counters) == want, case
                    assert _indexes(lowered) == _indexes(oracle), case
                    reads += 1
    assert reads > 300


def test_readers_are_shared_per_key():
    dbs = _world(SEED, True)
    plans = _plans({name: t.schema for name, t in dbs[PRE].tables.items()})
    readers = SubviewReaders()
    plan = plans["project"]
    assert readers(plan, POST, ("x",)) is readers(plan, POST, ["x"])
    assert readers(plan, POST, ("x",)) is not readers(plan, POST, ("x",), False)
    assert readers(plan, POST, ()) is readers(plan, POST, None)


def test_bindings_a_node_does_not_produce_fail_at_lowering():
    """The reader is not generated — ``PlanError``, as the interpreter's
    ``fetch`` raises for the same read."""
    dbs = _world(SEED, True)
    plan = _plans({name: t.schema for name, t in dbs[PRE].tables.items()})["project"]
    with pytest.raises(PlanError, match="nope"):
        lower_reader(plan, POST, ("nope",))
    with pytest.raises(PlanError, match="nope"):
        fetch(plan, dbs[POST], Bindings(("nope",), [(1,)]))


# ----------------------------------------------------------------------
# Table.probe: a lookup loop's rows and totals, charged once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("indexed", [True, False])
@pytest.mark.parametrize("columns", [("k",), ("a",), ("a", "b"), ("b", "k")])
def test_probe_is_a_counted_lookup_loop(indexed, columns):
    """*indexed*: the index on *columns* exists before the first read;
    otherwise the first ``lookup`` / ``probe`` builds it."""
    rng = random.Random(SEED)
    tables = []
    for _ in range(2):
        table = Table(TableSchema("t", ("k", "a", "b"), ("k",), nullable=("a",)))
        if indexed:
            table.create_index(columns)
        table.load((k, rng.choice([None, 1, 2]), k % 3) for k in range(12))
        tables.append(table)
        rng.seed(SEED)
    looped, probed = tables
    values = [tuple(rng.choice([None, 0, 1, 2, 5]) for _ in columns) for _ in range(8)] * 2
    expected = [row for value in values for row in looped.lookup(columns, value)]
    got = probed.probe(columns)(values)
    assert Counter(got) == Counter(expected)
    assert probed.counters.total == looped.counters.total
    assert probed.index_columns() == looped.index_columns()
    assert probed.probe(columns) is probed.probe(columns)  # bound once
    counters = probed.counters.total.copy()
    assert probed.probe(columns)([]) == [] and probed.counters.total == counters
    assert probed.read_all() and probed.counters.total.tuple_reads == counters.tuple_reads + 12


def test_probe_rebinds_when_an_index_is_built():
    table = Table(TableSchema("t", ("k", "a", "b"), ("k",)))
    table.load([(1, "x", 0), (2, "y", 0), (3, "x", 1)])
    first = table.probe(("a",))
    assert table.index_columns() == [("a",)]  # built at the bind
    assert sorted(first([("x",)])) == [(1, "x", 0), (3, "x", 1)]
    table.create_index(("b",))
    assert table.probe(("a",)) is not first
    assert sorted(table.probe(("a",))([("x",)])) == [(1, "x", 0), (3, "x", 1)]
    total = table.counters.total
    assert (total.index_lookups, total.tuple_reads) == (2, 4)


# ----------------------------------------------------------------------
# Diff: valid rows at C speed, the row loop otherwise
# ----------------------------------------------------------------------
def _diff_schema():
    return DiffSchema(INSERT, "t", ("k",), (), ("a",))


def test_diff_keeps_valid_rows_in_a_new_list():
    rows = [(1, "x"), (2, "y"), (3, None)]
    diff = Diff(_diff_schema(), rows)
    assert diff.rows == rows and diff.rows is not rows
    assert Diff(_diff_schema(), iter(rows)).rows == rows


def test_diff_merges_exact_duplicates_at_their_first_position():
    diff = Diff(_diff_schema(), [(1, "x"), (2, "y"), (1, "x"), (3, "z"), (2, "y")])
    assert diff.rows == [(1, "x"), (2, "y"), (3, "z")]


def test_diff_rejects_a_conflict_or_a_bad_arity_as_the_loop_does():
    with pytest.raises(DiffError, match="conflicting diff rows for ID"):
        Diff(_diff_schema(), [(1, "x"), (2, "y"), (1, "z")])
    with pytest.raises(DiffError, match="arity 3 != schema arity 2"):
        Diff(_diff_schema(), [(1, "x"), (2, "y", 0)])
    with pytest.raises(DiffError, match="arity 1 != schema arity 2"):
        Diff(_diff_schema(), [(1,), (2,)])  # one arity, the wrong one
    # the first bad row raises, whatever follows
    with pytest.raises(DiffError, match="arity 1"):
        Diff(_diff_schema(), [(1, "x"), (2,), (1, "z")])
