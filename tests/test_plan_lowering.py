"""Generated plan operators against the interpretive reference.

:func:`repro.core.compile.lower_plan` turns each plan operator into one
generated function; definitions and the recompute baseline run them,
while :func:`repro.algebra.evaluate_plan` stays the interpretive oracle.
For every sub-plan of random plans both must agree: equal columns, equal
bags of rows, equal per-phase ``CounterSet.as_dict()``.  One difference
is allowed, the one ``test_emitted_source_evaluates_like_the_evaluator``
allows: a generated filter may decide by short-circuit before reaching an
operand that raises, so where the reference raises the generated operator
may return — never the other way round.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.builder import scan
from repro.algebra.evaluate import evaluate_plan
from repro.algebra.plan import (
    AggSpec,
    AntiJoin,
    GroupBy,
    Join,
    PlanNode,
    Project,
    Select,
    SemiJoin,
    UnionAll,
)
from repro.analysis.cost import PlanStats
from repro.core import IdIvmEngine
from repro.core.compile import LoweredPlan, lower_plan
from repro.core.idinfer import annotate_plan
from repro.core.modlog import ModificationLog
from repro.crosscheck.generate import generate_case
from repro.crosscheck.runner import oracle_states, run_case
from repro.crosscheck.spec import apply_modification, build_database, build_plan
from repro.errors import PlanError, UnknownColumnError
from repro.expr import And, Arith, Call, Cmp, InList, Not, Or, col, lit
from repro.storage import Database
from repro.workloads import (
    DevicesConfig,
    build_aggregate_view,
    build_devices_database,
    build_flat_view,
)

#: Type chaos: NULL, bools (numeric to Python, not to sum/avg), ints,
#: floats and strings in one column.
CHAOS = (None, True, False, 0, 1, 2, -1, 1.5, "", "x", "a")


def _outcome(evaluate, node, db):
    db.counters.reset()
    try:
        rel = evaluate(node, db)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raised", type(exc)
    return "value", rel.columns, Counter(rel.rows), db.counters.as_dict()


def assert_lowered_like_reference(plan, db) -> None:
    """Every sub-plan of *plan*, through its generated operators and
    through the reference."""
    lowered = LoweredPlan(plan)
    for node in plan.walk():
        expected = _outcome(evaluate_plan, node, db)
        actual = _outcome(lowered.evaluate, node, db)
        if expected[0] == "value" or actual[0] == "raised":
            assert actual == expected, (node, lower_plan(node).__source__)


# ----------------------------------------------------------------------
# crosscheck plans and data
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_crosscheck_plans_evaluate_like_the_reference(seed):
    """σ / π / ⋈ / ▷ / ∪ / γ over NULL-heavy, duplicate-heavy, type-chaos
    data, before and after every batch of the case's modifications."""
    case = generate_case(seed, 0)
    db = build_database(case)
    plan = annotate_plan(build_plan(case["plan"], db))
    log = ModificationLog(db)
    assert_lowered_like_reference(plan, db)
    for batch in case["batches"]:
        for op in batch:
            apply_modification(log, op)
        log.take()
        assert_lowered_like_reference(plan, db)


# ----------------------------------------------------------------------
# hand-built forms: NULL keys, empty inputs, residuals, mixed aggregates
# ----------------------------------------------------------------------
def _database(r_rows, s_rows) -> Database:
    db = Database()
    db.create_table("r", ("rk", "ra", "rb"), ("rk",)).load(r_rows)
    db.create_table("s", ("sk", "sa", "sb"), ("sk",)).load(s_rows)
    return db


def _rows(prefix_key: int):
    return st.lists(
        st.tuples(st.sampled_from(CHAOS), st.sampled_from(CHAOS)), max_size=8
    ).map(lambda values: [(prefix_key + i,) + v for i, v in enumerate(values)])


def _exprs(columns):
    """Expressions over *columns* in every form the emitter knows."""
    leaves = st.one_of(st.sampled_from(columns).map(col), st.sampled_from(CHAOS).map(lit))

    def grow(children):
        some = st.lists(children, min_size=1, max_size=3).map(tuple)
        return st.one_of(
            st.builds(Arith, st.sampled_from(["+", "-", "*", "/"]), children, children),
            st.builds(Cmp, st.sampled_from(["=", "<>", "<", ">="]), children, children),
            st.builds(Not, children),
            st.builds(And, some),
            st.builds(Or, some),
            st.builds(InList, children, st.lists(st.sampled_from(CHAOS), max_size=3).map(tuple)),
            st.builds(lambda a, b: Call("is_distinct", (a, b)), children, children),
            st.builds(lambda args: Call("coalesce", args), some),
        )

    return st.recursive(leaves, grow, max_leaves=5)


R_COLUMNS, S_COLUMNS = ("rk", "ra", "rb"), ("sk", "sa", "sb")


@st.composite
def _plans(draw):
    """A database of chaos values and one operator over its two scans."""
    db = _database(draw(_rows(0)), draw(_rows(100)))
    r, s = scan(db, "r"), scan(db, "s")
    shape = draw(st.sampled_from(
        ["select", "project", "join", "cross", "theta", "semi", "anti", "self", "union", "group"]
    ))
    equi = Cmp("=", col(draw(st.sampled_from(R_COLUMNS))), col(draw(st.sampled_from(S_COLUMNS))))
    both = R_COLUMNS + S_COLUMNS
    residual = draw(st.one_of(st.just(None), _exprs(both)))
    condition = equi if residual is None else And((equi, residual))
    if shape == "select":
        plan = Select(r, draw(_exprs(R_COLUMNS)))
    elif shape == "project":
        items = draw(st.lists(_exprs(R_COLUMNS), min_size=1, max_size=3))
        plan = Project(r, [("rk", col("rk"))] + [(f"p{i}", e) for i, e in enumerate(items)])
    elif shape == "join":
        plan = Join(r, s, condition)
    elif shape == "cross":
        plan = Join(r, s, None)
    elif shape == "theta":
        plan = Join(r, s, draw(_exprs(both)))
    elif shape in ("semi", "anti"):
        plan = (SemiJoin if shape == "semi" else AntiJoin)(r, s, condition)
    elif shape == "self":
        # Both sides name the same columns: a name reads the right row.
        equi = Cmp("=", col(draw(st.sampled_from(R_COLUMNS))), col(draw(st.sampled_from(R_COLUMNS))))
        residual = draw(st.one_of(st.just(None), _exprs(R_COLUMNS)))
        kind = draw(st.sampled_from([SemiJoin, AntiJoin]))
        plan = kind(r, scan(db, "r"), equi if residual is None else And((equi, residual)))
    elif shape == "union":
        plan = UnionAll(Select(r, draw(_exprs(R_COLUMNS))), r, "b")
    else:
        keys = draw(st.lists(st.sampled_from(("ra", "rb")), min_size=1, max_size=2, unique=True))
        arg = draw(st.sampled_from(R_COLUMNS))
        plan = GroupBy(r, keys, [
            AggSpec("count", None, "n"),
            AggSpec("count", col(arg), "c"),
            AggSpec("sum", col(arg), "total"),
            AggSpec("avg", col(arg), "mean"),
            AggSpec("min", col(arg), "lo"),
            AggSpec("max", col(arg), "hi"),
        ])
    return plan, db


@settings(max_examples=150, deadline=None)
@given(case=_plans())
def test_every_operator_form_evaluates_like_the_reference(case):
    plan, db = case
    assert_lowered_like_reference(plan, db)


def test_null_join_keys_never_join():
    db = _database([(1, None, 1), (2, 1, None), (3, 1, 1)], [(10, None, 1), (11, 1, 2)])
    r, s = scan(db, "r"), scan(db, "s")
    for condition in (
        Cmp("=", col("ra"), col("sa")),
        And((Cmp("=", col("ra"), col("sa")), Cmp("=", col("rb"), col("sb")))),
        And((Cmp("=", col("ra"), col("sa")), Cmp("<", col("rb"), col("sb")))),
    ):
        for plan in (Join(r, s, condition), SemiJoin(r, s, condition), AntiJoin(r, s, condition)):
            assert_lowered_like_reference(plan, db)
    joined = LoweredPlan(Join(r, s, Cmp("=", col("ra"), col("sa"))))
    assert sorted(joined.evaluate(joined.plan, db).rows) == [(2, 1, None, 11, 1, 2), (3, 1, 1, 11, 1, 2)]


def test_a_name_on_both_sides_reads_the_right_row():
    """A semijoin may name a column on both sides; its residual then
    reads the right row's, as the reference's combined positions do."""
    db = _database([(1, 1, 2), (2, 2, 1), (3, 5, 5)], [])
    r = scan(db, "r")
    condition = And((Cmp("=", col("ra"), col("rb")), Cmp(">", col("rk"), lit(1))))
    for kind in (SemiJoin, AntiJoin):
        assert_lowered_like_reference(kind(r, scan(db, "r"), condition), db)
    plan = SemiJoin(r, scan(db, "r"), condition)
    assert LoweredPlan(plan).evaluate(plan, db).rows == [(1, 1, 2), (3, 5, 5)]


def test_empty_inputs():
    db = _database([], [])
    r, s = scan(db, "r"), scan(db, "s")
    for plan in (
        Join(r, s, None),
        AntiJoin(r, s, Cmp("=", col("ra"), col("sa"))),
        GroupBy(r, ("ra",), [AggSpec("count", None, "n")]),
    ):
        assert_lowered_like_reference(plan, db)
        db.counters.reset()
        LoweredPlan(plan).evaluate(plan, db)
        # An empty table reads nothing — no phase bucket appears either.
        assert db.counters.phases == {}


def test_aggregates_over_mixed_types():
    """sum / avg see numeric non-bool values only, count(col) every
    non-NULL one, min / max order mixed types by the reference's rule."""
    db = _database([(i, 0, v) for i, v in enumerate(CHAOS)], [])
    plan = GroupBy(scan(db, "r"), ("ra",), [
        AggSpec("count", None, "n"),
        AggSpec("count", col("rb"), "c"),
        AggSpec("sum", col("rb"), "total"),
        AggSpec("avg", col("rb"), "mean"),
        AggSpec("min", col("rb"), "lo"),
        AggSpec("max", col("rb"), "hi"),
    ])
    assert_lowered_like_reference(plan, db)
    (row,) = LoweredPlan(plan).evaluate(plan, db).rows
    assert row[:5] == (0, len(CHAOS), len(CHAOS) - 1, 3.5, 3.5 / 5)


# ----------------------------------------------------------------------
# a form the emitter cannot lower: an error at lowering
# ----------------------------------------------------------------------
class _Unknown(PlanNode):
    """An operator neither the emitter nor the reference knows."""

    def __init__(self, child):
        super().__init__()
        self.child = child

    @property
    def columns(self):
        return self.child.columns

    @property
    def children(self):
        return (self.child,)


def test_an_unknown_operator_raises_at_lowering():
    """The emitter raises the reference's ``PlanError`` when the plan is
    lowered — the reference raises it when the operator is evaluated —
    and a stale column reference its ``UnknownColumnError``."""
    db = _database([(1, 2, 3), (2, None, 1)], [])
    unknown = _Unknown(scan(db, "r"))
    with pytest.raises(PlanError, match="cannot evaluate plan node"):
        LoweredPlan(unknown)
    with pytest.raises(PlanError, match="cannot evaluate plan node"):
        evaluate_plan(unknown, db)
    plan = Select(scan(db, "r"), Cmp(">", col("ra"), lit(1)))
    plan.predicate = Cmp(">", col("nope"), lit(1))  # left stale by a rewrite
    with pytest.raises(UnknownColumnError, match="nope"):
        LoweredPlan(plan)
    with pytest.raises(UnknownColumnError, match="nope"):
        evaluate_plan(plan, db)


def test_shipped_definitions_lower_every_operator(monkeypatch):
    """Defining the shipped views evaluates through generated operators
    only: the reference operator never runs."""
    import repro.algebra.evaluate as reference

    calls = []
    monkeypatch.setattr(reference, "apply_operator", lambda *args: calls.append(args))
    config = DevicesConfig(n_parts=40, n_devices=40, diff_size=8)
    db = build_devices_database(config)
    engine = IdIvmEngine(db)
    engine.define_view("V", build_flat_view(db, config))
    engine.define_view("Vagg", build_aggregate_view(db, config))
    assert calls == []


def test_plan_stats_keeps_one_kernel_per_fingerprint():
    config = DevicesConfig(n_parts=40, n_devices=40, diff_size=8)
    db = build_devices_database(config)
    plan = build_aggregate_view(db, config)
    stats = PlanStats(db)
    first = annotate_plan(plan)
    assert stats.kernel(first) is stats.kernel(annotate_plan(plan))
    assert Counter(stats.rows(first).rows) == Counter(evaluate_plan(first, db).rows)


# ----------------------------------------------------------------------
# the crosscheck runner checks the generated path too
# ----------------------------------------------------------------------
def test_oracle_states_reports_a_generated_mismatch(monkeypatch):
    case = generate_case(0, 1)
    found: list = []
    clean = oracle_states(case, plan_eval=found)
    assert found == []

    def broken(self, node, db, inputs):
        out = self.kernels[id(node)](db, inputs)
        out.rows.append(out.rows[0] if out.rows else (None,) * len(out.columns))
        return out

    monkeypatch.setattr(LoweredPlan, "_operator", broken)
    assert oracle_states(case, plan_eval=found) == clean
    assert found and {d.kind for d in found} == {"plan_eval"}
    assert {d.kind for d in run_case(case, strategies=()).divergences} == {"plan_eval"}


@pytest.mark.parametrize("index", range(3))
def test_fuzz_cases_show_no_plan_eval_divergence(index):
    result = run_case(generate_case(0, index), strategies=())
    assert not [d for d in result.divergences if d.kind == "plan_eval"]
