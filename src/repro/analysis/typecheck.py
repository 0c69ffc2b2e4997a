"""Pass 1: 3VL-aware type & nullability inference (rules TC1xx).

Infers a :class:`ColumnFact` (declared type + nullability) for every
column of every plan subview and every generated IR relation, seeded
from the catalog's declared column metadata, and checks expressions
against the evaluator's actual 3VL semantics (:mod:`repro.expr.eval`):

* TC101 — an ordering comparison between incompatible declared types is
  *always* UNKNOWN (``compare`` maps the TypeError to NULL); an equality
  between them is a constant.
* TC102 — a filter-position expression whose inferred type is known and
  not boolean can never be True: the filter drops every row.
* TC103 — a generated split complement using plain ``Not(φ)`` where
  ``Not(is_true(φ))`` is required: when φ is UNKNOWN the plain form
  drops the row instead of keeping it (the σ update-split bug class).
* TC104 — sum/avg over an argument of known non-numeric type.
* TC106 — arithmetic whose operand types guarantee a TypeError at run
  time (``evaluate`` does not catch it: the maintenance round crashes).

The fact model is deliberately conservative: an unknown type checks
against everything; only *declared-and-wrong* combinations fire.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..algebra.plan import (
    AggSpec,
    AntiJoin,
    GroupBy,
    Join,
    PlanNode,
    Project,
    Scan,
    SemiJoin,
    Select,
    UnionAll,
)
from ..core.diffs import DiffSchema, post_col, pre_col
from ..core.idinfer import node_by_id
from ..core.ir import (
    SUB_PREFIX,
    AppliedSource,
    Compute,
    DiffSource,
    Distinct,
    Empty,
    Filter,
    GroupAgg,
    IrNode,
    ProbeJoin,
    ProbeSemi,
    SubviewSource,
    UnionRows,
)
from ..core.script import ApplyDiffStep, ComputeDiffStep
from ..errors import PlanError
from ..expr import (
    And,
    Arith,
    Call,
    Cmp,
    Col,
    Expr,
    InList,
    Lit,
    Not,
    Or,
    columns_of,
    conjuncts_of,
    equi_join_pairs,
    may_be_null,
)
from .diagnostics import AnalysisReport
from .registry import AnalysisContext

NUMERIC_TYPES = frozenset(("int", "float", "bool"))
ORDERING_OPS = frozenset(("<", "<=", ">", ">="))

_NODE_TARGET = re.compile(r"^n(\d+)$")


@dataclass(frozen=True)
class ColumnFact:
    """What is statically known about one column's values."""

    type: Optional[str] = None  # a COLUMN_TYPES name, or None (unknown)
    nullable: bool = True


UNKNOWN = ColumnFact()


def _lit_fact(value) -> ColumnFact:
    if value is None:
        return ColumnFact(None, True)
    if isinstance(value, bool):
        return ColumnFact("bool", False)
    if isinstance(value, int):
        return ColumnFact("int", False)
    if isinstance(value, float):
        return ColumnFact("float", False)
    if isinstance(value, str):
        return ColumnFact("str", False)
    return ColumnFact(None, False)


def _merge_fact(a: ColumnFact, b: ColumnFact) -> ColumnFact:
    return ColumnFact(
        a.type if a.type == b.type else None, a.nullable or b.nullable
    )


def _arith_crashes(op: str, lt: Optional[str], rt: Optional[str]) -> bool:
    """Whether ``evaluate`` raises TypeError for these operand types.

    Mirrors Python's operator semantics, which the evaluator applies
    directly once both operands are non-NULL: str+str concatenates and
    str*int repeats, but every other str/number combination raises.
    """
    if lt is None or rt is None:
        return False
    if lt == "str" and rt == "str":
        return op != "+"
    if "str" in (lt, rt):
        other = rt if lt == "str" else lt
        if op == "*" and other in ("int", "bool"):
            return False
        return True
    return False


def _arith_type(op: str, lt: Optional[str], rt: Optional[str]) -> Optional[str]:
    if lt == "str" and rt == "str" and op == "+":
        return "str"
    if lt in NUMERIC_TYPES and rt in NUMERIC_TYPES:
        if op == "/":
            return "float"
        if "float" in (lt, rt):
            return "float"
        return "int"
    return None


# ----------------------------------------------------------------------
# expression checking (infer + report in one walk)
# ----------------------------------------------------------------------
def check_expr(
    expr: Expr,
    facts: dict[str, ColumnFact],
    where: str,
    report: AnalysisReport,
) -> ColumnFact:
    """Infer the fact for *expr*, reporting TC101/TC106 along the way."""
    if isinstance(expr, Col):
        return facts.get(expr.name, UNKNOWN)
    if isinstance(expr, Lit):
        return _lit_fact(expr.value)
    if isinstance(expr, Arith):
        left = check_expr(expr.left, facts, where, report)
        right = check_expr(expr.right, facts, where, report)
        if _arith_crashes(expr.op, left.type, right.type):
            report.add(
                "TC106",
                where,
                f"arithmetic {expr.op!r} over {left.type}/{right.type} operands "
                f"raises TypeError at run time: {expr!r}",
                hint="cast the column or fix the declared column types",
            )
        return ColumnFact(
            _arith_type(expr.op, left.type, right.type),
            left.nullable or right.nullable,
        )
    if isinstance(expr, Cmp):
        left = check_expr(expr.left, facts, where, report)
        right = check_expr(expr.right, facts, where, report)
        incompatible = (
            left.type is not None
            and right.type is not None
            and (left.type == "str") != (right.type == "str")
        )
        if incompatible:
            if expr.op in ORDERING_OPS:
                report.add(
                    "TC101",
                    where,
                    f"ordering {left.type} {expr.op} {right.type} is always "
                    f"UNKNOWN under 3VL: {expr!r}",
                    hint="mixed-type orderings degrade to NULL; compare "
                    "same-typed values",
                )
            else:
                report.add(
                    "TC101",
                    where,
                    f"equality between {left.type} and {right.type} is a "
                    f"constant ({'False' if expr.op == '=' else 'True'}): "
                    f"{expr!r}",
                )
        return ColumnFact(
            "bool", left.nullable or right.nullable or incompatible
        )
    if isinstance(expr, (And, Or)):
        nullable = False
        for item in expr.items:
            fact = check_expr(item, facts, where, report)
            nullable = nullable or fact.nullable
        return ColumnFact("bool", nullable)
    if isinstance(expr, Not):
        fact = check_expr(expr.item, facts, where, report)
        return ColumnFact("bool", fact.nullable)
    if isinstance(expr, InList):
        fact = check_expr(expr.item, facts, where, report)
        return ColumnFact(
            "bool", fact.nullable or any(v is None for v in expr.values)
        )
    if isinstance(expr, Call):
        arg_facts = [check_expr(a, facts, where, report) for a in expr.args]
        return _call_fact(expr.func, arg_facts)
    return UNKNOWN


def _call_fact(func: str, args: list[ColumnFact]) -> ColumnFact:
    any_nullable = any(a.nullable for a in args)
    if func in ("is_true", "is_distinct"):
        return ColumnFact("bool", False)
    if func == "coalesce":
        merged = args[0] if args else UNKNOWN
        for a in args[1:]:
            merged = _merge_fact(merged, a)
        return ColumnFact(merged.type, all(a.nullable for a in args))
    if func == "length":
        return ColumnFact("int", any_nullable)
    if func in ("lower", "upper", "concat"):
        return ColumnFact("str", any_nullable)
    if func in ("floor", "ceil", "sign", "mod"):
        return ColumnFact("int", any_nullable)
    if func in ("abs", "round", "greatest", "least"):
        merged = args[0] if args else UNKNOWN
        for a in args[1:]:
            merged = _merge_fact(merged, a)
        return ColumnFact(merged.type, any_nullable)
    return ColumnFact(None, any_nullable)


def check_boolean(
    expr: Expr,
    facts: dict[str, ColumnFact],
    where: str,
    report: AnalysisReport,
) -> None:
    """TC102: filter positions require a boolean (or unknown) type."""
    fact = check_expr(expr, facts, where, report)
    if fact.type is not None and fact.type != "bool":
        report.add(
            "TC102",
            where,
            f"filter predicate has type {fact.type!r}, not boolean: {expr!r}; "
            f"it is never True, so every row is dropped",
            hint="wrap the value in a comparison (e.g. <> 0)",
        )


# ----------------------------------------------------------------------
# the TC103 split-complement shape
# ----------------------------------------------------------------------
def _expr_key(expr: Expr):
    """Structural identity of an expression (for shape comparison)."""
    if isinstance(expr, Col):
        return ("col", expr.name)
    if isinstance(expr, Lit):
        return ("lit", repr(expr.value))
    if isinstance(expr, Arith):
        return ("arith", expr.op, _expr_key(expr.left), _expr_key(expr.right))
    if isinstance(expr, Cmp):
        return ("cmp", expr.op, _expr_key(expr.left), _expr_key(expr.right))
    if isinstance(expr, And):
        return ("and",) + tuple(_expr_key(i) for i in expr.items)
    if isinstance(expr, Or):
        return ("or",) + tuple(_expr_key(i) for i in expr.items)
    if isinstance(expr, Not):
        return ("not", _expr_key(expr.item))
    if isinstance(expr, InList):
        return ("in", _expr_key(expr.item), tuple(repr(v) for v in expr.values))
    if isinstance(expr, Call):
        return ("call", expr.func) + tuple(_expr_key(a) for a in expr.args)
    return ("?", repr(expr))


def _strip_states(expr: Expr) -> Expr:
    """Rename ``a__pre`` / ``a__post`` references back to bare ``a``."""
    from ..expr import rename_columns

    mapping = {}
    for c in columns_of(expr):
        for suffix in ("__pre", "__post"):
            if c.endswith(suffix):
                mapping[c] = c[: -len(suffix)]
    return rename_columns(expr, mapping) if mapping else expr


def _state_refs(expr: Expr) -> frozenset[str]:
    out = set()
    for c in columns_of(expr):
        if c.endswith("__pre"):
            out.add("pre")
        elif c.endswith("__post"):
            out.add("post")
    return frozenset(out)


def check_split_complement(
    predicate: Expr,
    facts: dict[str, ColumnFact],
    where: str,
    report: AnalysisReport,
) -> None:
    """TC103: the update-split shape ``φ_pre ∧ Not(φ_post)``.

    A split complement must be ``Not(is_true(φ))`` — the plain form maps
    UNKNOWN φ to UNKNOWN and the filter drops the row, losing the
    delete/insert half of the update split.  The gate requires the
    un-negated counterpart of φ (same shape, opposite state) as a
    sibling conjunct, which distinguishes a generated complement from a
    user-authored negation (whose drop-UNKNOWN semantics match the view
    definition and are correct).
    """
    conjs = conjuncts_of(predicate)
    if len(conjs) < 2:
        return
    stripped = [_expr_key(_strip_states(c)) for c in conjs]
    states = [_state_refs(c) for c in conjs]
    nullable_cols = {name for name, f in facts.items() if f.nullable}
    for i, conj in enumerate(conjs):
        if not isinstance(conj, Not):
            continue
        inner = conj.item
        if isinstance(inner, Call) and inner.func == "is_true":
            continue
        inner_key = _expr_key(_strip_states(inner))
        inner_states = _state_refs(inner)
        if not inner_states:
            continue
        counterpart = any(
            j != i
            and stripped[j] == inner_key
            and states[j]
            and states[j].isdisjoint(inner_states)
            for j in range(len(conjs))
        )
        if counterpart and may_be_null(inner, nullable_cols):
            report.add(
                "TC103",
                where,
                f"split complement uses plain Not over a nullable predicate: "
                f"{conj!r}; when the predicate is UNKNOWN the row is dropped "
                f"instead of kept",
                hint="wrap the negated predicate: Not(is_true(φ))",
            )


# ----------------------------------------------------------------------
# column facts for plan subviews
# ----------------------------------------------------------------------
def plan_column_facts(node: PlanNode) -> dict[str, ColumnFact]:
    """Infer per-column facts for the subview rooted at *node*."""
    report = AnalysisReport()  # discarded: fact inference only
    if isinstance(node, Scan):
        return {
            c: ColumnFact(node.schema.column_type(c), node.schema.is_nullable(c))
            for c in node.schema.columns
        }
    if isinstance(node, Select):
        return plan_column_facts(node.child)
    if isinstance(node, Project):
        child = plan_column_facts(node.child)
        return {
            name: check_expr(expr, child, "", report)
            for name, expr in node.items
        }
    if isinstance(node, Join):
        facts = dict(plan_column_facts(node.left))
        facts.update(plan_column_facts(node.right))
        if node.condition is not None:
            pairs, _ = equi_join_pairs(
                node.condition, node.left.columns, node.right.columns
            )
            # Surviving rows satisfied the equality (True, not UNKNOWN),
            # so both key columns are non-NULL in the output.
            for lcol, rcol in pairs:
                for c in (lcol, rcol):
                    facts[c] = ColumnFact(facts.get(c, UNKNOWN).type, False)
        return facts
    if isinstance(node, (AntiJoin, SemiJoin)):
        return plan_column_facts(node.left)
    if isinstance(node, UnionAll):
        left = plan_column_facts(node.left)
        right = plan_column_facts(node.right)
        facts = {
            c: _merge_fact(left.get(c, UNKNOWN), right.get(c, UNKNOWN))
            for c in node.left.columns
        }
        facts[node.branch_column] = ColumnFact("int", False)
        return facts
    if isinstance(node, GroupBy):
        child = plan_column_facts(node.child)
        facts = {k: child.get(k, UNKNOWN) for k in node.keys}
        for agg in node.aggs:
            facts[agg.name] = _agg_fact(agg, child, report)
        return facts
    return {c: UNKNOWN for c in node.columns}


def _agg_fact(
    agg: AggSpec, child: dict[str, ColumnFact], report: AnalysisReport
) -> ColumnFact:
    if agg.func == "count":
        return ColumnFact("int", False)
    arg = check_expr(agg.arg, child, "", report)
    if agg.func == "avg":
        return ColumnFact("float", arg.nullable)
    if agg.func == "sum":
        agg_type = arg.type if arg.type in ("int", "float") else None
        return ColumnFact(agg_type, arg.nullable)
    return ColumnFact(arg.type, arg.nullable)  # min / max


# ----------------------------------------------------------------------
# column facts for diffs and generated IR
# ----------------------------------------------------------------------
def facts_for_target(target: str, plan: PlanNode) -> dict[str, ColumnFact]:
    """Facts of the relation a diff targets: a plan node (``n<id>``) or a
    base table (matched through the plan's scans)."""
    m = _NODE_TARGET.match(target)
    if m:
        try:
            return plan_column_facts(node_by_id(plan, int(m.group(1))))
        except PlanError:
            return {}
    for node in plan.walk():
        if isinstance(node, Scan) and node.table == target:
            return plan_column_facts(node)
    return {}


def diff_column_facts(schema: DiffSchema, plan: PlanNode) -> dict[str, ColumnFact]:
    target = facts_for_target(schema.target, plan)
    facts: dict[str, ColumnFact] = {}
    for a in schema.id_attrs:
        facts[a] = target.get(a, UNKNOWN)
    for a in schema.pre_attrs:
        facts[pre_col(a)] = target.get(a, UNKNOWN)
    for a in schema.post_attrs:
        facts[post_col(a)] = target.get(a, UNKNOWN)
    return facts


def ir_column_facts(
    node: IrNode,
    plan: PlanNode,
    expansion_targets: dict[str, int],
) -> dict[str, ColumnFact]:
    """Facts for the rows an IR (sub)tree produces.

    *expansion_targets* maps RETURNING names to the node id of the APPLY
    target (collected while walking the script in order).
    """
    if isinstance(node, DiffSource):
        return diff_column_facts(node.schema, plan)
    if isinstance(node, SubviewSource):
        return plan_column_facts(node.node)
    if isinstance(node, AppliedSource):
        target_id = expansion_targets.get(node.apply_name)
        if target_id is None:
            return {c: UNKNOWN for c in node.columns}
        target = plan_column_facts(node_by_id(plan, target_id))
        facts = {k: target.get(k, UNKNOWN) for k in node.key}
        for a in node.attrs:
            facts[pre_col(a)] = target.get(a, UNKNOWN)
            facts[post_col(a)] = target.get(a, UNKNOWN)
        return facts
    if isinstance(node, Empty):
        return {c: UNKNOWN for c in node.columns}
    if isinstance(node, (Filter, Distinct)):
        return ir_column_facts(node.children()[0], plan, expansion_targets)
    if isinstance(node, Compute):
        child = ir_column_facts(node.child, plan, expansion_targets)
        report = AnalysisReport()
        return {
            name: check_expr(expr, child, "", report)
            for name, expr in node.items
        }
    if isinstance(node, UnionRows):
        parts = [
            ir_column_facts(p, plan, expansion_targets) for p in node.parts
        ]
        merged = dict(parts[0])
        for p in parts[1:]:
            for c in node.columns:
                merged[c] = _merge_fact(merged.get(c, UNKNOWN), p.get(c, UNKNOWN))
        return merged
    if isinstance(node, GroupAgg):
        child = ir_column_facts(node.child, plan, expansion_targets)
        report = AnalysisReport()
        facts = {k: child.get(k, UNKNOWN) for k in node.keys}
        for agg in node.aggs:
            facts[agg.name] = _agg_fact(agg, child, report)
        return facts
    if isinstance(node, ProbeJoin):
        facts = dict(ir_column_facts(node.left, plan, expansion_targets))
        sub = plan_column_facts(node.node)
        for out_name, sub_col in node.keep:
            facts[out_name] = sub.get(sub_col, UNKNOWN)
        return facts
    if isinstance(node, ProbeSemi):
        return ir_column_facts(node.left, plan, expansion_targets)
    return {c: UNKNOWN for c in getattr(node, "columns", ())}


def expansion_targets_of(script) -> dict[str, int]:
    """RETURNING name -> APPLY target node id, for the whole script."""
    out: dict[str, int] = {}
    for step in script.steps:
        if isinstance(step, ApplyDiffStep) and step.returning_name:
            out[step.returning_name] = step.target_node_id
    return out


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------
def typecheck_pass(ctx: AnalysisContext) -> None:
    report = ctx.report
    for node in ctx.plan.walk():
        where = f"plan n{node.node_id} [{node.label()}]"
        if isinstance(node, Select):
            check_boolean(
                node.predicate, plan_column_facts(node.child), where, report
            )
        elif isinstance(node, (Join, AntiJoin, SemiJoin)):
            if getattr(node, "condition", None) is None:
                continue
            facts = dict(plan_column_facts(node.left))
            facts.update(plan_column_facts(node.right))
            check_boolean(node.condition, facts, where, report)
        elif isinstance(node, Project):
            child = plan_column_facts(node.child)
            for name, expr in node.items:
                check_expr(expr, child, f"{where} item {name!r}", report)
        elif isinstance(node, GroupBy):
            child = plan_column_facts(node.child)
            for agg in node.aggs:
                if agg.arg is None:
                    continue
                fact = check_expr(agg.arg, child, f"{where} agg {agg.name!r}", report)
                if (
                    agg.func in ("sum", "avg")
                    and fact.type is not None
                    and fact.type not in NUMERIC_TYPES
                ):
                    report.add(
                        "TC104",
                        f"{where} agg {agg.name!r}",
                        f"{agg.func} over a {fact.type} argument: {agg.arg!r}",
                        hint="sum/avg need numeric input",
                    )
    if ctx.script is None:
        return
    expansions = expansion_targets_of(ctx.script)
    for i, step in enumerate(ctx.script.steps, start=1):
        if not isinstance(step, ComputeDiffStep):
            continue
        for ir_node in step.ir.walk():
            where = f"step {i} ({step.name})"
            if isinstance(ir_node, Filter):
                facts = ir_column_facts(ir_node.child, ctx.plan, expansions)
                check_boolean(ir_node.predicate, facts, where, report)
                check_split_complement(ir_node.predicate, facts, where, report)
            elif isinstance(ir_node, Compute):
                facts = ir_column_facts(ir_node.child, ctx.plan, expansions)
                for name, expr in ir_node.items:
                    check_expr(expr, facts, f"{where} item {name!r}", report)
            elif isinstance(ir_node, ProbeJoin) and ir_node.residual is not None:
                facts = ir_column_facts(ir_node, ctx.plan, expansions)
                check_boolean(ir_node.residual, facts, where, report)
            elif isinstance(ir_node, ProbeSemi) and ir_node.residual is not None:
                facts = dict(
                    ir_column_facts(ir_node.left, ctx.plan, expansions)
                )
                sub = plan_column_facts(ir_node.node)
                for c, fact in sub.items():
                    facts[SUB_PREFIX + c] = fact
                check_boolean(ir_node.residual, facts, where, report)
