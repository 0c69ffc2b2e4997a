"""Codegen: lower stored ∆-script IR trees into specialized closures.

The interpreter (:mod:`repro.core.ir_exec`) walks the IR tree per
execution and dispatches per node — and, inside expressions, per row.
For a *stored* ∆-script all of that dispatch is invariant across
maintenance rounds: the tree shape, the column positions, the probe
attributes, the residual predicates.  :func:`bind_kernels` resolves
every one of those decisions once at view-definition time: it lowers
each :class:`~repro.core.script.ComputeDiffStep` of the view's stored
script to one kernel — pre-resolved attribute offsets, fused
filter/probe loops, compiled predicate closures, direct counted
``Table.lookup`` loops against valid caches and base-table scans,
producing the rows of a :class:`Diff` — and binds the kernels onto that
script as executor state.  There is no second script: the router, the
analysis passes and the cost walker read the object the executor runs,
and a script with no kernels bound (``exec_backend="interp"``, or one
fresh out of a pickle) interprets.

Count invariance is the contract: a compiled closure performs *exactly*
the counted accesses (``index_lookups`` / ``tuple_reads`` /
``tuple_writes``) its interpreted twin performs, per phase.  The fused
probe loops replicate :func:`repro.algebra.delta_eval._fetch_from_table`
(one counted lookup per distinct probe value, order-preserving dedup)
and fall back to :meth:`IrContext.resolve_subview` — the interpreter's
own resolution — whenever the probed subview is neither a valid cache
nor a bare scan, so deep recomputation stays count-identical by
construction.  ``tests/test_compiled.py`` pins per-phase equality on
the devices and BSMA workloads; the crosscheck fuzzer runs the compiled
engine differentially against the recompute oracle.

What compiled execution deliberately does *not* reproduce: the per-IR-op
and per-fetch trace spans (the whole point is eliding that per-node
bookkeeping).  Phase and statement spans still wrap every step, so
per-phase span/counter reconciliation is unaffected.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Optional

from ..algebra.delta_eval import Bindings
from ..algebra.evaluate import aggregate_rows
from ..algebra.plan import PlanNode, Scan
from ..algebra.relation import Relation
from ..errors import ScriptError
from ..expr import evaluate as eval_expr
from ..expr.ast import (
    NULL_TOLERANT_FUNCTIONS,
    SCALAR_FUNCTIONS,
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
)
from ..expr.eval import _ARITH_OPS, compare
from ..obs import metrics
from .diffs import Diff
from .ir import (
    PRE,
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
from .ir_exec import IrContext, _resolve_probe
from .script import ComputeDiffStep, DeltaScript

#: Supported ∆-script execution backends: the closure compiler (the
#: default) and the per-node IR interpreter — the paper-faithful
#: reference the compiled path is pinned against (same counted accesses,
#: more dispatch).
EXEC_BACKENDS = ("interp", "compiled")

#: A compiled IR fragment: context in, diff-shaped row tuples out.
RowsFn = Callable[[IrContext], list]
#: A lowered compute step: binds its diff in the context, returns its
#: row count (what ``ComputeDiffStep.run`` does by interpreting).
Kernel = Callable[[IrContext], int]


class _Fallback(Exception):
    """Raised during expression lowering when a node form is unknown;
    the compiler then falls back to the interpreter for that expression
    (behavior stays identical, only the speedup is lost) and counts it
    in ``compile.expr_fallbacks``."""


# ----------------------------------------------------------------------
# expression lowering
# ----------------------------------------------------------------------
def compile_expr(expr: Expr, positions: dict[str, int]) -> Callable[[tuple], object]:
    """Lower *expr* to ``fn(row) -> value`` mirroring
    :func:`repro.expr.evaluate` exactly (3VL, NULL propagation, the
    UNKNOWN tracking of ``IN`` lists, NULL-tolerant calls)."""
    try:
        return _compile_expr(expr, positions)
    except _Fallback:
        metrics.counter("compile.expr_fallbacks").inc()
        return lambda row: eval_expr(expr, positions, row)


def _compile_expr(expr: Expr, positions: dict[str, int]) -> Callable[[tuple], object]:
    if isinstance(expr, Lit):
        value = expr.value
        return lambda row: value
    if isinstance(expr, Col):
        if expr.name not in positions:
            # Let the interpreter raise its UnknownColumnError at run time.
            raise _Fallback
        i = positions[expr.name]
        return lambda row: row[i]
    if isinstance(expr, Arith):
        left = _compile_expr(expr.left, positions)
        right = _compile_expr(expr.right, positions)
        op = _ARITH_OPS[expr.op]

        def arith(row):
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            return op(a, b)

        return arith
    if isinstance(expr, Cmp):
        left = _compile_expr(expr.left, positions)
        right = _compile_expr(expr.right, positions)
        op = expr.op
        return lambda row: compare(op, left(row), right(row))
    if isinstance(expr, And):
        items = [_compile_expr(e, positions) for e in expr.items]

        def conj(row):
            result: object = True
            for item in items:
                value = item(row)
                if value is False:
                    return False
                if value is None:
                    result = None
            return result

        return conj
    if isinstance(expr, Or):
        items = [_compile_expr(e, positions) for e in expr.items]

        def disj(row):
            result: object = False
            for item in items:
                value = item(row)
                if value is True:
                    return True
                if value is None:
                    result = None
            return result

        return disj
    if isinstance(expr, Not):
        item = _compile_expr(expr.item, positions)

        def negation(row):
            value = item(row)
            if value is None:
                return None
            return not value

        return negation
    if isinstance(expr, InList):
        item = _compile_expr(expr.item, positions)
        values = tuple(expr.values)

        def in_list(row):
            value = item(row)
            if value is None:
                return None
            unknown = False
            for candidate in values:
                verdict = compare("=", value, candidate)
                if verdict is True:
                    return True
                if verdict is None:
                    unknown = True
            return None if unknown else False

        return in_list
    if isinstance(expr, Call):
        args = [_compile_expr(a, positions) for a in expr.args]
        fn = SCALAR_FUNCTIONS[expr.func]
        if expr.func in NULL_TOLERANT_FUNCTIONS:
            if len(args) == 2:  # is_distinct and friends: no list per row
                first, second = args
                return lambda row: fn(first(row), second(row))
            return lambda row: fn(*[a(row) for a in args])

        def call(row):
            values = [a(row) for a in args]
            if any(v is None for v in values):
                return None
            return fn(*values)

        return call
    raise _Fallback


def compile_predicate(expr: Expr, positions: dict[str, int]) -> Callable[[tuple], bool]:
    """Filter-boundary form of :func:`compile_expr`: UNKNOWN is False.

    Lowered directly to boolean-returning closures: under ``is True``
    semantics, 3VL ``And`` is True iff every conjunct is True and ``Or``
    iff any disjunct is — so conjunctions short-circuit without tracking
    UNKNOWN at all.
    """
    try:
        return _compile_bool(expr, positions)
    except _Fallback:
        metrics.counter("compile.expr_fallbacks").inc()
        return lambda row: eval_expr(expr, positions, row) is True


def _compile_bool(expr: Expr, positions: dict[str, int]) -> Callable[[tuple], bool]:
    if isinstance(expr, Cmp):
        left = _compile_expr(expr.left, positions)
        right = _compile_expr(expr.right, positions)
        op = expr.op
        return lambda row: compare(op, left(row), right(row)) is True
    if isinstance(expr, And):
        items = [_compile_bool(e, positions) for e in expr.items]
        if len(items) == 2:
            first, second = items
            return lambda row: first(row) and second(row)

        def conj_true(row):
            for item in items:
                if not item(row):
                    return False
            return True

        return conj_true
    if isinstance(expr, Or):
        items = [_compile_bool(e, positions) for e in expr.items]
        if len(items) == 2:
            first, second = items
            return lambda row: first(row) or second(row)

        def disj_true(row):
            for item in items:
                if item(row):
                    return True
            return False

        return disj_true
    if isinstance(expr, Not):
        # NOT x is True exactly when x is False (UNKNOWN stays UNKNOWN).
        item = _compile_expr(expr.item, positions)
        return lambda row: item(row) is False
    if isinstance(expr, InList):
        item = _compile_expr(expr.item, positions)
        values = tuple(expr.values)

        def in_list_true(row):
            value = item(row)
            if value is None:
                return False
            for candidate in values:
                if compare("=", value, candidate) is True:
                    return True
            return False

        return in_list_true
    fn = _compile_expr(expr, positions)
    return lambda row: fn(row) is True


def _tuple_getter(idx) -> Callable[[tuple], tuple]:
    """``lambda r: tuple(r[i] for i in idx)`` without the genexpr frame."""
    if not idx:
        return lambda row: ()
    if len(idx) == 1:
        i = idx[0]
        return lambda row: (row[i],)
    return itemgetter(*idx)


# ----------------------------------------------------------------------
# subview readers (the counted access paths)
# ----------------------------------------------------------------------
def _compile_subview_reader(
    sub_node: PlanNode, state: str, sub_attrs: Optional[tuple[str, ...]]
) -> Callable[[IrContext, Optional[list]], list]:
    """``reader(ctx, probe_values) -> rows`` in ``sub_node.columns`` order.

    Fast path — the node's own cache is valid for *state*, or the node
    is a bare scan: fused counted ``lookup``/``scan`` loops replicating
    ``_fetch_from_table`` access-for-access (Bindings-style ordered
    dedup of probe values, reorder only when the stored column order
    differs).  Everything else delegates to ``ctx.resolve_subview``,
    the interpreter's exact resolution (counts identical by
    construction).  ``probe_values=None`` means fetch-all.
    """
    node_id = sub_node.node_id
    columns = tuple(sub_node.columns)
    is_scan = isinstance(sub_node, Scan)
    table_name = sub_node.table if is_scan else None
    is_pre = state == PRE

    def reader(ctx: IrContext, probe_values: Optional[list]) -> list:
        table = ctx.caches.get(node_id)
        if table is not None and ctx.cache_state.get(node_id, PRE) != state:
            table = None
        if table is None:
            if is_scan:
                db = ctx.db_pre if is_pre else ctx.db_post
                table = db.table(table_name)
            elif probe_values is None:
                return ctx.resolve_subview(sub_node, state).rows
            else:
                return ctx.resolve_subview(
                    sub_node, state, Bindings(sub_attrs, probe_values)
                ).rows
        if probe_values is None:
            rows = list(table.scan())
        else:
            lookup = table.lookup
            rows = []
            seen = set()
            for value in probe_values:
                if value not in seen:
                    seen.add(value)
                    rows.extend(lookup(sub_attrs, value))
        schema = table.schema
        if columns != schema.columns:
            getter = _tuple_getter(schema.positions(columns))
            rows = [getter(r) for r in rows]
        return rows

    return reader


# ----------------------------------------------------------------------
# IR node lowering
# ----------------------------------------------------------------------
def _compile_node(node: IrNode) -> RowsFn:
    if isinstance(node, DiffSource):
        name = node.name

        def diff_source(ctx: IrContext) -> list:
            diff = ctx.diffs.get(name)
            if diff is None:
                raise ScriptError(f"diff {name!r} has not been computed yet")
            return diff.rows

        return diff_source
    if isinstance(node, SubviewSource):
        reader = _compile_subview_reader(node.node, node.state, None)
        return lambda ctx: reader(ctx, None)
    if isinstance(node, AppliedSource):
        apply_name = node.apply_name
        attrs = node.attrs
        columns = node.columns

        def applied_source(ctx: IrContext) -> list:
            applied = ctx.expansions.get(apply_name)
            if applied is None:
                raise ScriptError(f"APPLY {apply_name!r} has not run yet")
            expansion = applied.expansion(attrs)
            if expansion.columns != columns:
                raise ScriptError(
                    f"expansion columns {expansion.columns} != declared {columns}"
                )
            return expansion.rows

        return applied_source
    if isinstance(node, Empty):
        return lambda ctx: []
    if isinstance(node, Filter):
        child = _compile_node(node.child)
        positions = {c: i for i, c in enumerate(node.child.columns)}
        predicate = compile_predicate(node.predicate, positions)
        return lambda ctx: [r for r in child(ctx) if predicate(r)]
    if isinstance(node, Compute):
        child = _compile_node(node.child)
        positions = {c: i for i, c in enumerate(node.child.columns)}
        if all(isinstance(e, Col) for _, e in node.items):
            getter = _tuple_getter(tuple(positions[e.name] for _, e in node.items))
            return lambda ctx: [getter(r) for r in child(ctx)]
        exprs = [compile_expr(e, positions) for _, e in node.items]
        return lambda ctx: [tuple(fn(r) for fn in exprs) for r in child(ctx)]
    if isinstance(node, Distinct):
        child = _compile_node(node.child)
        # dict.fromkeys == Relation.distinct: first occurrence wins, order kept.
        return lambda ctx: list(dict.fromkeys(child(ctx)))
    if isinstance(node, UnionRows):
        parts = [_compile_node(p) for p in node.parts]

        def union(ctx: IrContext) -> list:
            rows: list = []
            for part in parts:
                rows.extend(part(ctx))
            return rows

        return union
    if isinstance(node, GroupAgg):
        child = _compile_node(node.child)
        child_columns = tuple(node.child.columns)
        keys, aggs = node.keys, node.aggs
        return lambda ctx: aggregate_rows(
            Relation(child_columns, child(ctx)), keys, aggs
        ).rows
    if isinstance(node, ProbeJoin):
        return _compile_probe_join(node)
    if isinstance(node, ProbeSemi):
        return _compile_probe_semi(node)
    raise ScriptError(f"cannot compile IR node {node!r}")


def _compile_probe_join(node: ProbeJoin) -> RowsFn:
    left_fn = _compile_node(node.left)
    left_columns = tuple(node.left.columns)
    sub_columns = tuple(node.node.columns)
    keep = _tuple_getter(tuple(sub_columns.index(c) for _, c in node.keep))
    out_positions = {c: i for i, c in enumerate(node.columns)}
    residual = (
        compile_predicate(node.residual, out_positions)
        if node.residual is not None
        else None
    )
    if not node.on:
        reader = _compile_subview_reader(node.node, node.state, None)

        def cross(ctx: IrContext) -> list:
            left_rows = left_fn(ctx)
            if not left_rows:
                return []
            sub_rows = reader(ctx, None)
            rows: list = []
            for lr in left_rows:
                for sr in sub_rows:
                    combined = lr + keep(sr)
                    if residual is None or residual(combined):
                        rows.append(combined)
            return rows

        return cross
    lget = _tuple_getter(tuple(left_columns.index(a) for a, _ in node.on))
    sub_attrs = tuple(b for _, b in node.on)
    sget = _tuple_getter(tuple(sub_columns.index(b) for b in sub_attrs))
    reader = _compile_subview_reader(node.node, node.state, sub_attrs)

    def probe_join(ctx: IrContext) -> list:
        left_rows = left_fn(ctx)
        if not left_rows:
            return []
        probe_values = [lget(r) for r in left_rows]
        if node.via_output is not None:
            # Section 9 view-reuse hint: delegate to the interpreter's
            # own hit-or-fallback resolution (shared helper, identical
            # counts and metrics).
            sub_rows = _resolve_probe(node, ctx, sub_attrs, probe_values).rows
        else:
            sub_rows = reader(ctx, probe_values)
        buckets: dict[tuple, list] = {}
        for sr in sub_rows:
            key = sget(sr)
            if None in key:
                continue  # SQL: NULL never equi-joins
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [sr]
            else:
                bucket.append(sr)
        rows: list = []
        empty: tuple = ()
        if residual is None:
            for lr, probe in zip(left_rows, probe_values):
                for sr in buckets.get(probe, empty):
                    rows.append(lr + keep(sr))
        else:
            for lr, probe in zip(left_rows, probe_values):
                for sr in buckets.get(probe, empty):
                    combined = lr + keep(sr)
                    if residual(combined):
                        rows.append(combined)
        return rows

    return probe_join


def _compile_probe_semi(node: ProbeSemi) -> RowsFn:
    left_fn = _compile_node(node.left)
    left_columns = tuple(node.left.columns)
    sub_columns = tuple(node.node.columns)
    negated = node.negated
    residual = None
    if node.residual is not None:
        combined_positions = {c: i for i, c in enumerate(left_columns)}
        offset = len(left_columns)
        for i, c in enumerate(sub_columns):
            combined_positions[SUB_PREFIX + c] = offset + i
        residual = compile_predicate(node.residual, combined_positions)
    if not node.on:
        reader = _compile_subview_reader(node.node, node.state, None)

        def semi_all(ctx: IrContext) -> list:
            left_rows = left_fn(ctx)
            if not left_rows:
                return []
            sub_rows = reader(ctx, None)
            if residual is None:
                has = bool(sub_rows)
                return [lr for lr in left_rows if has != negated]
            out: list = []
            for lr in left_rows:
                matched = any(residual(lr + sr) for sr in sub_rows)
                if matched != negated:
                    out.append(lr)
            return out

        return semi_all
    lget = _tuple_getter(tuple(left_columns.index(a) for a, _ in node.on))
    sub_attrs = tuple(b for _, b in node.on)
    sget = _tuple_getter(tuple(sub_columns.index(b) for b in sub_attrs))
    reader = _compile_subview_reader(node.node, node.state, sub_attrs)

    def probe_semi(ctx: IrContext) -> list:
        left_rows = left_fn(ctx)
        if not left_rows:
            return []
        probe_values = [lget(r) for r in left_rows]
        sub_rows = reader(ctx, probe_values)
        buckets: dict[tuple, list] = {}
        for sr in sub_rows:
            key = sget(sr)
            if None in key:
                continue  # SQL: NULL never equi-joins
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [sr]
            else:
                bucket.append(sr)
        if residual is None:
            if negated:
                return [
                    lr
                    for lr, probe in zip(left_rows, probe_values)
                    if probe not in buckets
                ]
            return [
                lr for lr, probe in zip(left_rows, probe_values) if probe in buckets
            ]
        out: list = []
        empty: tuple = ()
        for lr, probe in zip(left_rows, probe_values):
            matched = any(residual(lr + sr) for sr in buckets.get(probe, empty))
            if matched != negated:
                out.append(lr)
        return out

    return probe_semi


# ----------------------------------------------------------------------
# step lowering + binding onto the view's one script
# ----------------------------------------------------------------------
def lower_step(step: ComputeDiffStep) -> Kernel:
    """Lower one compute step's IR tree into its kernel: what
    ``step.run`` does — evaluate, validate through ``Diff``'s
    constructor, bind under ``step.name`` — with the tree walk resolved
    here, once."""
    fn = _compile_node(step.ir)
    name, schema = step.name, step.schema
    ir_columns = tuple(step.ir.columns)
    want = schema.columns
    if ir_columns != want:
        # Diff.from_relation's reorder, resolved once at compile time.
        getter = _tuple_getter(tuple(ir_columns.index(c) for c in want))
        inner = fn
        fn = lambda ctx: [getter(r) for r in inner(ctx)]  # noqa: E731
    # Name of the diff an identity step (``d2 := ∆[d1]``, same columns)
    # passes through, else None.
    renames = (
        step.ir.name
        if isinstance(step.ir, DiffSource) and ir_columns == want
        else None
    )

    def kernel(ctx: IrContext) -> int:
        source = ctx.diffs.get(renames) if renames is not None else None
        if (
            source is not None
            and source.schema.columns == want
            and source.schema.id_attrs == schema.id_attrs
        ):
            # Same columns, same IDs: the rows were validated and
            # deduplicated on exactly these IDs when *source* was built.
            diff = Diff.trusted(schema, source.rows)
        else:
            diff = Diff(schema, fn(ctx))
        ctx.diffs[name] = diff
        return len(diff.rows)

    return kernel


def check_backend(backend: str) -> str:
    """*backend* if it names an execution backend, else ``ValueError``."""
    if backend not in EXEC_BACKENDS:
        raise ValueError(
            f"unknown exec_backend {backend!r}; expected one of {EXEC_BACKENDS}"
        )
    return backend


def bind_kernels(script: DeltaScript, backend: str) -> DeltaScript:
    """Make *script* — a view's one stored ∆-script — execute under
    *backend*, in place: ``"compiled"`` lowers every compute step here
    and now and binds the kernels onto it (closures cannot be pickled,
    so every process that runs the view calls this itself);
    ``"interp"`` binds none.  APPLY, cache marks and the blocking
    aggregate steps are already direct table code with no per-row IR
    dispatch and keep their own ``run``.  Returns *script*."""
    kernels = {}
    if check_backend(backend) == "compiled":
        for i, step in enumerate(script.steps):
            if isinstance(step, ComputeDiffStep):
                kernels[i] = lower_step(step)
    script.bind_kernels(kernels)
    return script
