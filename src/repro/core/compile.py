"""Codegen: lower stored ∆-script compute steps to generated Python source.

The interpreter (:mod:`repro.core.ir_exec`) walks the IR tree per
execution and dispatches per node — and, inside expressions, per row.
For a *stored* ∆-script all of that is invariant across rounds, so
:func:`bind_kernels` resolves it once at view-definition time, the way
the paper's ∆-script is SQL text handed to an engine: :func:`lower_step`
emits the *source* of one Python function per
:class:`~repro.core.script.ComputeDiffStep`, ``compile()``s it under a
file name that names the step (``<delta:d46_upd_n4>``: profiles and
tracebacks name it too) and binds it onto the view's one script as that
step's kernel.  A script with no kernels bound (``"interp"``, or one
fresh out of a pickle) interprets.  ``repro explain --compiled`` prints
what is generated:

* a run of row-wise operators — ``Filter``, ``Compute``, ``Distinct`` /
  ``UnionRows`` around them — is one comprehension, column references
  substituted through the projections and 3VL spelled inline
  (:meth:`_Source.value` mirrors :func:`repro.expr.evaluate`,
  :meth:`_Source.truth` is its filter boundary, ``… is True``);
* ``ProbeJoin`` / ``ProbeSemi`` / ``GroupAgg`` and the sources are
  statements of the same function: the interpreter's ordered probe
  dedup, bucket build and NULL-never-joins rule, reading the subview
  through the one helper that stays a function — the counted reader of
  :func:`_subview_reader`, called once per probe, not per row;
* a γ step's per-group accumulation (:func:`lower_group_deltas`) is one
  loop from the same expression emitter.

Count invariance is the contract: a kernel performs *exactly* the
counted accesses the interpreted step performs, per phase
(``tests/test_compiled.py`` pins it on the devices and BSMA workloads;
the crosscheck fuzzer runs the compiled engine against the recompute
oracle).  A step holding a form the emitter does not know stays on the
interpreter *as a whole step*, counted once in
``compile.step_fallbacks``.  A kernel's rows go through :class:`Diff`'s
validating constructor unless they are unique on the step's IDs by
construction — the step is row-wise over one source diff and every ID
attribute of that diff reaches the output's IDs as a bare column — and
then they are adopted with :meth:`Diff.trusted`, after the run-time
check that the bound source has the IDs the script declared.  What
kernels deliberately do *not* reproduce: the per-IR-op and per-fetch
trace spans; phase and statement spans still wrap every step.
"""

from __future__ import annotations

import linecache
from typing import Callable, Optional, Sequence

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
from ..expr.eval import compare
from ..obs import metrics
from ..storage import row_extractor
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

#: Supported ∆-script execution backends: generated kernels (the
#: default) and the per-node IR interpreter — the reference the kernels
#: are pinned against (same counted accesses, more dispatch).
EXEC_BACKENDS = ("interp", "compiled")

#: A lowered compute step: binds its diff in the context, returns its
#: row count (what ``ComputeDiffStep.run`` does by interpreting).
Kernel = Callable[[IrContext], int]


class _Refused(Exception):
    """Raised while emitting on an unknown node or expression form: the
    step then stays on the interpreter, as a whole."""


def _tuple_of(items: Sequence[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


class _Rows:
    """A row stream inside a generated function: the ``for`` / ``if``
    clauses of a comprehension over it, and the source of every column
    in terms of the clause variables."""

    def __init__(self, clauses: list[str], cols: dict[str, str], whole=None, lineage=None):
        self.clauses = clauses
        self.conds: list[str] = []
        self.cols = cols
        #: ``(list, variable, width)`` while the stream is the tuples of
        #: *list* themselves, one per pass of its only ``for`` clause
        self.whole: Optional[tuple[str, str, int]] = whole
        #: ``(source, variable holding its diff, {column: source
        #: column})`` while every row stems from one row of one diff
        #: *source*: the columns that are bare copies of its columns
        self.lineage: Optional[tuple[DiffSource, str, dict[str, str]]] = lineage


class _Source:
    """The source of one generated function, and the namespace the
    constants and helpers it names are bound in."""

    def __init__(self, name: str):
        self.name = name if name.isidentifier() else "".join(
            c if c.isalnum() else "_" for c in "_" + name
        )
        self.lines: list[str] = []
        self.env: dict[str, object] = {}
        self._serials: dict[str, int] = {}

    def fresh(self, stem: str) -> str:
        serial = self._serials[stem] = self._serials.get(stem, 0) + 1
        return f"{stem}{serial}"

    def bind(self, stem: str, value: object) -> str:
        """The name *value* is bound to in the function's namespace."""
        for name, bound in self.env.items():
            if bound is value:
                return name
        name = "_" + stem if "_" + stem not in self.env else self.fresh("_" + stem)
        self.env[name] = value
        return name

    def emit(self, line: str, depth: int = 1) -> None:
        self.lines.append("    " * depth + line)

    def const(self, value: object) -> str:
        return repr(value) if _is_plain(value) else self.bind("k", value)

    def build(self, args: str) -> Callable:
        source = f"def {self.name}({args}):\n" + "\n".join(self.lines) + "\n"
        filename = f"<delta:{self.name}>"
        exec(compile(source, filename, "exec"), self.env)
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        fn = self.env[self.name]
        fn.__source__ = source
        return fn

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _once(self, expr: Expr, cols: dict[str, str]) -> tuple[str, str]:
        """``(evaluating source, referring source)`` of *expr* for a
        form that names its value more than once: a column or literal
        is its own reference, anything else is bound to a temporary."""
        source = self._subject(expr, cols)
        if isinstance(expr, (Col, Lit)):
            return source, source
        name = self.fresh("t")
        return f"({name} := {source})", name

    def _subject(self, expr: Expr, cols: dict[str, str]) -> str:
        """:meth:`value` as the operand of an ``is`` test: a literal by
        name (``1 is None`` compiles with a SyntaxWarning)."""
        if isinstance(expr, Lit) and type(expr.value) not in (bool, type(None)):
            return self.bind("k", expr.value)
        return self.value(expr, cols)

    def _operands(self, exprs: Sequence[Expr], cols: dict[str, str]) -> tuple[list[str], str]:
        """References to the values of *exprs* and the source of "one of
        them is NULL", which evaluates every operand, in order."""
        refs, tests, bound = [], [], False
        for expr in exprs:
            first, ref = self._once(expr, cols)
            refs.append(ref)
            if isinstance(expr, Lit):
                if expr.value is None:
                    tests.append("True")
                continue
            bound = bound or first != ref
            tests.append(f"{first} is None")
        if not tests:
            return refs, "False"
        # ``|`` where a temporary is bound: ``or`` would skip the binding.
        return refs, " | ".join(f"({t})" for t in tests) if bound else " or ".join(tests)

    def value(self, expr: Expr, cols: dict[str, str]) -> str:
        """Source evaluating to what :func:`repro.expr.evaluate` returns
        for *expr* (3VL, NULL propagation, the UNKNOWN tracking of
        ``IN`` lists, NULL-tolerant calls)."""
        if isinstance(expr, Lit):
            return self.const(expr.value)
        if isinstance(expr, Col):
            if expr.name not in cols:
                # Let the interpreter raise its UnknownColumnError at run time.
                raise _Refused(f"unknown column {expr.name!r}")
            return cols[expr.name]
        if isinstance(expr, Arith):
            (a, b), null = self._operands((expr.left, expr.right), cols)
            return f"(None if {null} else {a} {expr.op} {b})"
        if isinstance(expr, Cmp):
            if expr.op in ("=", "<>"):
                (a, b), null = self._operands((expr.left, expr.right), cols)
                return f"(None if {null} else {a} {'==' if expr.op == '=' else '!='} {b})"
            # Ordering keeps ``compare`` for its TypeError -> UNKNOWN.
            left, right = self.value(expr.left, cols), self.value(expr.right, cols)
            return f"{self.bind('compare', compare)}({expr.op!r}, {left}, {right})"
        if isinstance(expr, (And, Or)):
            # Short-circuits on the first deciding item; UNKNOWN otherwise
            # if any item was, exactly as the interpreter's loop.
            decided, otherwise = ("False", "True") if isinstance(expr, And) else ("True", "False")
            items = [self._once(item, cols) for item in expr.items]
            chain = "".join(f"{decided} if {first} is {decided} else " for first, _ in items)
            unknown = " or ".join(f"{ref} is None" for _, ref in items)
            return f"({chain}None if {unknown} else {otherwise})"
        if isinstance(expr, Not):
            first, ref = self._once(expr.item, cols)
            return f"(None if {first} is None else not {ref})"
        if isinstance(expr, InList):
            first, ref = self._once(expr.item, cols)
            hit = " or ".join(
                f"{ref} == {self.const(v)}" for v in expr.values if v is not None
            )
            miss = "None" if any(v is None for v in expr.values) else "False"
            found = f"True if {hit} else " if hit else ""
            return f"(None if {first} is None else {found}{miss})"
        if isinstance(expr, Call) and expr.func in SCALAR_FUNCTIONS:
            if expr.func == "is_distinct" and len(expr.args) == 2:
                left, right = (self.value(a, cols) for a in expr.args)
                return f"({left} != {right})"
            if expr.func == "is_true" and len(expr.args) == 1:
                return f"({self._subject(expr.args[0], cols)} is True)"
            fn = self.bind(expr.func, SCALAR_FUNCTIONS[expr.func])
            if expr.func in NULL_TOLERANT_FUNCTIONS:
                return f"{fn}({', '.join(self.value(a, cols) for a in expr.args)})"
            refs, null = self._operands(expr.args, cols)
            return f"(None if {null} else {fn}({', '.join(refs)}))"
        raise _Refused(f"expression {expr!r}")

    def truth(self, expr: Expr, cols: dict[str, str]) -> str:
        """Source of ``evaluate(expr) is True`` — the filter boundary,
        where UNKNOWN is False: under ``is True``, 3VL ``And`` is True
        iff every conjunct holds and ``Or`` iff any disjunct is, so both
        short-circuit without tracking UNKNOWN at all."""
        if isinstance(expr, Cmp) and expr.op in ("=", "<>"):
            sides = (expr.left, expr.right)
            if expr.op == "=" and any(isinstance(e, Lit) and e.value is not None for e in sides):
                # NULL equals no literal: no guard, each side named once.
                return f"({self.value(expr.left, cols)} == {self.value(expr.right, cols)})"
            (a, b), null = self._operands(sides, cols)
            return f"(not ({null}) and {a} {'==' if expr.op == '=' else '!='} {b})"
        if isinstance(expr, Or):
            return "(" + " or ".join(self.truth(item, cols) for item in expr.items) + ")"
        if isinstance(expr, And):
            return "(" + " and ".join(self._holds(item, cols) for item in expr.items) + ")"
        if isinstance(expr, Not):
            if _is_3vl(expr.item):
                # NOT x is True exactly when x is False (UNKNOWN stays UNKNOWN).
                return f"({self.value(expr.item, cols)} is False)"
            first, ref = self._once(expr.item, cols)
            return f"({first} is not None and not {ref})"
        if isinstance(expr, InList):
            first, ref = self._once(expr.item, cols)
            values = [self.const(v) for v in expr.values if v is not None]
            if not values:
                return f"({first} is None and False)"
            return "(" + " or ".join(
                f"{first if i == 0 else ref} == {v}" for i, v in enumerate(values)
            ) + ")"
        if isinstance(expr, Call) and expr.func in ("is_distinct", "is_true"):
            return self.value(expr, cols)  # a bool already
        return f"({self._subject(expr, cols)} is True)"

    def _holds(self, expr: Expr, cols: dict[str, str]) -> str:
        """Source of "*expr* leaves a conjunction True": neither False
        nor UNKNOWN — ``is True``, for what evaluates in 3VL."""
        if _is_3vl(expr):
            return self.truth(expr, cols)
        first, ref = self._once(expr, cols)
        return f"({first} is not False and {ref} is not None)"

    # ------------------------------------------------------------------
    # row streams
    # ------------------------------------------------------------------
    def over(self, rows: str, columns: Sequence[str], lineage=None) -> _Rows:
        """The stream of the tuples of the list *rows*, laid out as *columns*."""
        var = self.fresh("r")
        cols = {c: f"{var}[{i}]" for i, c in enumerate(columns)}
        return _Rows([f"for {var} in {rows}"], cols, (rows, var, len(columns)), lineage)

    def listed(self, rows: _Rows, columns: Sequence[str]) -> str:
        """Source of *rows* as a list of tuples laid out as *columns* —
        the list it streams from, when that is what it is."""
        items = [rows.cols[c] for c in columns]
        row = _tuple_of(items)
        if rows.whole is not None:
            source, var, width = rows.whole
            if items == [f"{var}[{i}]" for i in range(width)]:
                if not rows.conds:
                    return source
                row = var
        where = " if " + " and ".join(rows.conds) if rows.conds else ""
        return f"[{row} {' '.join(rows.clauses)}{where}]"

    def named(self, rows: _Rows, columns: Sequence[str], stem: str = "rows") -> str:
        """:meth:`listed`, assigned to a name when it is not one."""
        source = self.listed(rows, columns)
        if source.isidentifier():
            return source
        name = self.fresh(stem)
        self.emit(f"{name} = {source}")
        return name

    def rows_of(self, node: IrNode) -> _Rows:
        """Emit the statements that evaluate *node*; returns its stream."""
        if isinstance(node, DiffSource):
            diff = self.fresh("d")
            self.emit(f"{diff} = ctx.diffs.get({node.name!r})")
            self.emit(f"if {diff} is None:")
            message = f"diff {node.name!r} has not been computed yet"
            self.emit(f"raise {self.bind('ScriptError', ScriptError)}({message!r})", 2)
            return self.over(
                f"{diff}.rows", node.columns, (node, diff, {c: c for c in node.columns})
            )
        if isinstance(node, SubviewSource):
            reader = self.bind("read", _subview_reader(node.node, node.state, None))
            rows = self.fresh("rows")
            self.emit(f"{rows} = {reader}(ctx, None)")
            return self.over(rows, node.columns)
        if isinstance(node, AppliedSource):
            applied, error = self.fresh("a"), self.bind("ScriptError", ScriptError)
            self.emit(f"{applied} = ctx.expansions.get({node.apply_name!r})")
            self.emit(f"if {applied} is None:")
            self.emit(f"raise {error}({f'APPLY {node.apply_name!r} has not run yet'!r})", 2)
            self.emit(f"{applied} = {applied}.expansion({self.const(node.attrs)})")
            self.emit(f"if {applied}.columns != {self.const(node.columns)}:")
            self.emit(
                f"raise {error}('expansion columns %s != declared %s' "
                f"% ({applied}.columns, {self.const(node.columns)}))", 2,
            )
            return self.over(f"{applied}.rows", node.columns)
        if isinstance(node, Empty):
            return self.over("[]", node.columns)
        if isinstance(node, Filter):
            rows = self.rows_of(node.child)
            rows.conds.append(self.truth(node.predicate, rows.cols))
            return rows
        if isinstance(node, Compute):
            rows = self.rows_of(node.child)
            cols = {name: self.value(expr, rows.cols) for name, expr in node.items}
            if rows.lineage is not None:
                source, diff, bare = rows.lineage
                rows.lineage = (source, diff, {
                    name: bare[e.name]
                    for name, e in node.items if isinstance(e, Col) and e.name in bare
                })
            rows.cols = cols
            if all(isinstance(e, (Col, Lit)) for _, e in node.items):
                return rows  # substituted into whatever reads them
            # Computed once per row, whoever reads them above.
            return self.over(self.named(rows, node.columns), node.columns, rows.lineage)
        if isinstance(node, Distinct):
            # dict.fromkeys == Relation.distinct: first occurrence wins, order kept.
            child = self.rows_of(node.child)
            rows = self.fresh("rows")
            self.emit(f"{rows} = list(dict.fromkeys({self.listed(child, node.columns)}))")
            return self.over(rows, node.columns, child.lineage)
        if isinstance(node, UnionRows):
            parts = [self.listed(self.rows_of(p), node.columns) for p in node.parts]
            rows = self.fresh("rows")
            self.emit(f"{rows} = [{', '.join('*' + part for part in parts)}]")
            return self.over(rows, node.columns)
        if isinstance(node, GroupAgg):
            child = self.named(self.rows_of(node.child), node.child.columns)
            relation = f"{self.bind('Relation', Relation)}({self.const(tuple(node.child.columns))}, {child})"
            rows = self.fresh("rows")
            self.emit(
                f"{rows} = {self.bind('aggregate_rows', aggregate_rows)}"
                f"({relation}, {self.bind('keys', node.keys)}, {self.bind('aggs', node.aggs)}).rows"
            )
            return self.over(rows, node.columns)
        if isinstance(node, (ProbeJoin, ProbeSemi)):
            return self._probe(node)
        raise _Refused(f"IR node {node!r}")

    def _probe(self, node) -> _Rows:
        """``left ⋈ / ⋉ / ▷ Subview`` as the interpreter runs it: the
        subview is read — through its counted reader, for the left
        rows' bindings — only when there are left rows; its rows are
        bucketed by the join columns, NULL never joining."""
        semi = isinstance(node, ProbeSemi)
        left_columns, sub_columns = tuple(node.left.columns), tuple(node.node.columns)
        left_rows = self.rows_of(node.left)
        left = self.named(left_rows, left_columns, "left")
        lvar, svar = self.fresh("l"), self.fresh("s")
        cols = {c: f"{lvar}[{i}]" for i, c in enumerate(left_columns)}
        sub_attrs = tuple(b for _, b in node.on)
        if semi:
            seen = {SUB_PREFIX + c: f"{svar}[{i}]" for i, c in enumerate(sub_columns)}
        else:
            seen = {name: f"{svar}[{sub_columns.index(c)}]" for name, c in node.keep}
        seen.update(cols)
        residual = self.truth(node.residual, seen) if node.residual is not None else None
        sub = self.fresh("sub")
        if node.on and getattr(node, "via_output", None) is not None:
            # Section 9 view-reuse hint: the interpreter's own
            # hit-or-fallback resolution (identical counts, metrics).
            resolve, hinted = self.bind("resolve_probe", _resolve_probe), self.bind("node", node)
            read = f"{resolve}({hinted}, ctx, {sub_attrs!r}, {{}}).rows"
        else:
            reader = _subview_reader(node.node, node.state, sub_attrs or None)
            read = f"{self.bind('read', reader)}(ctx, {{}})"
        if not node.on:
            self.emit(f"{sub} = {read.format(None)} if {left} else ()")
            clauses, matches = [f"for {lvar} in {left}"], sub
        else:
            probe, pvar, buckets = self.fresh("probe"), self.fresh("p"), self.fresh("buckets")
            self.emit(f"{probe} = {buckets} = ()")
            self.emit(f"if {left}:")
            values = _tuple_of([cols[a] for a, _ in node.on])
            self.emit(f"{probe} = [{values} for {lvar} in {left}]", 2)
            self.emit(f"{sub} = {read.format(probe)}", 2)
            key, bucket = self.fresh("k"), self.fresh("b")
            self.emit(f"{buckets} = {{}}", 2)
            self.emit(f"for {svar} in {sub}:", 2)
            self.emit(f"{key} = {_tuple_of([f'{svar}[{sub_columns.index(b)}]' for b in sub_attrs])}", 3)
            self.emit(f"if None in {key}:", 3)
            self.emit("continue  # SQL: NULL never equi-joins", 4)
            self.emit(f"{bucket} = {buckets}.get({key})", 3)
            self.emit(f"if {bucket} is None:", 3)
            self.emit(f"{buckets}[{key}] = [{svar}]", 4)
            self.emit("else:", 3)
            self.emit(f"{bucket}.append({svar})", 4)
            clauses, matches = [f"for {lvar}, {pvar} in zip({left}, {probe})"], f"{buckets}.get({pvar}, ())"
        if not semi:
            rows = _Rows(clauses + [f"for {svar} in {matches}"], seen)
            if residual is not None:
                rows.conds.append(residual)
            return rows
        rows = _Rows(clauses, cols, (left, lvar, len(left_columns)), left_rows.lineage)
        if residual is not None:
            found = f"any({residual} for {svar} in {matches})"
        elif node.on:
            found = f"{pvar} in {buckets}"
        else:
            found = f"bool({sub})"
        rows.conds.append(f"not {found}" if node.negated else found)
        return rows


def _is_3vl(expr: Expr) -> bool:
    """Whether *expr* evaluates to True, False or UNKNOWN and nothing else."""
    return isinstance(expr, (Cmp, And, Or, Not, InList)) or (
        isinstance(expr, Call) and expr.func in ("is_distinct", "is_true")
    )


def _is_plain(value: object) -> bool:
    """Whether ``repr(value)`` is source that evaluates to *value*."""
    if isinstance(value, tuple):
        return all(_is_plain(v) for v in value)
    return value is None or type(value) in (bool, int, str)


# ----------------------------------------------------------------------
# subview readers (the counted access paths)
# ----------------------------------------------------------------------
def _subview_reader(
    sub_node: PlanNode, state: str, sub_attrs: Optional[tuple[str, ...]]
) -> Callable[[IrContext, Optional[list]], list]:
    """``reader(ctx, probe_values) -> rows`` in ``sub_node.columns``
    order; ``probe_values=None`` fetches all.  The node's own cache
    valid for *state*, or a bare scan: counted ``lookup``/``scan`` loops
    replicating ``_fetch_from_table`` access for access (ordered dedup
    of probe values, reorder only when the stored column order
    differs).  Everything else is ``ctx.resolve_subview``, the
    interpreter's own resolution."""
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
            getter = row_extractor(schema.positions(columns))
            rows = [getter(r) for r in rows]
        return rows

    return reader


# ----------------------------------------------------------------------
# step lowering + binding onto the view's one script
# ----------------------------------------------------------------------
def lower_step(step: ComputeDiffStep) -> Kernel:
    """Lower one compute step's IR tree into its kernel: what
    ``step.run`` does — evaluate, make the ``Diff``, bind it under
    ``step.name`` — as one generated function (``kernel.__source__``).
    A step holding a form the emitter refuses keeps its own ``run``."""
    src = _Source(step.name)
    schema = step.schema
    try:
        rows = src.rows_of(step.ir)
        if not set(schema.columns) <= set(rows.cols):
            raise _Refused(f"{step.name} does not compute {schema.columns}")
        out = src.named(rows, schema.columns, "out")
    except _Refused:
        metrics.counter("compile.step_fallbacks").inc()
        return step.run
    make, bound = src.bind("Diff", Diff), src.bind("schema", schema)
    validated = f"diff = {make}({bound}, {out})"
    source, diff, bare = rows.lineage or (None, None, {})
    if source is not None and set(source.schema.id_attrs) <= {bare.get(c) for c in schema.id_attrs}:
        # Every ID of the one source diff is a bare column among the
        # step's IDs, and a source row makes one output row at most:
        # unique on those IDs — if the bound source is as declared.
        src.emit(
            f"if {diff}.schema.id_attrs == {src.const(source.schema.id_attrs)} "
            f"and {diff}.schema.columns == {src.const(source.schema.columns)}:"
        )
        src.emit(f"diff = {make}.trusted({bound}, {out})", 2)
        src.emit("else:")
        src.emit(validated, 2)
    else:
        src.emit(validated)
    src.emit(f"ctx.diffs[{step.name!r}] = diff")
    src.emit("return len(diff.rows)")
    return src.build("ctx")


def lower_group_deltas(gnode, new_delta: Callable[[int], object]) -> Callable[[Sequence], dict]:
    """The γ-delta accumulation of *gnode* as one generated loop:
    ``accumulate(changes) -> {group: delta}`` over ``(pre, post)``
    child-row changes, a delta being ``new_delta(len(aggs))`` with the
    row count ``n`` and, per aggregate argument, the non-NULL count
    ``cnts[i]`` and (sum / avg) the running ``sums[i]``."""
    src = _Source(f"gamma_n{gnode.node_id}")
    positions = {c: i for i, c in enumerate(gnode.child.columns)}
    cols = {c: f"r[{i}]" for c, i in positions.items()}
    arguments = []
    for i, agg in enumerate(gnode.aggs):
        if agg.arg is None:
            continue
        try:
            argument = src.value(agg.arg, cols)
        except _Refused:  # this argument alone is interpreted, per row
            metrics.counter("compile.step_fallbacks").inc()
            argument = (
                f"{src.bind('evaluate', eval_expr)}"
                f"({src.bind('arg', agg.arg)}, {src.bind('positions', positions)}, r)"
            )
        arguments.append((i, argument, agg.func in ("sum", "avg")))
    src.emit("deltas = {}")
    src.emit("for pre, post in changes:")
    for side, sign in (("pre", "-"), ("post", "+")):
        src.emit(f"r = {side}", 2)
        src.emit("if r is not None:", 2)
        src.emit(f"g = {_tuple_of([cols[k] for k in gnode.keys])}", 3)
        src.emit("d = deltas.get(g)", 3)
        src.emit("if d is None:", 3)
        src.emit(f"d = deltas[g] = {src.bind('delta', new_delta)}({len(gnode.aggs)})", 4)
        src.emit(f"d.n {sign}= 1", 3)
        for i, argument, summed in arguments:
            src.emit(f"v = {argument}", 3)
            src.emit("if v is not None:", 3)
            src.emit(f"d.cnts[{i}] {sign}= 1", 4)
            if summed:
                src.emit(f"d.sums[{i}] {sign}= v", 4)
    src.emit("return deltas")
    return src.build("changes")


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
    and now and binds the kernels onto it (generated functions cannot
    be pickled, so every process that runs the view calls this itself);
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
