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
  through its reader, called once per probe, not per row;
* a subview read — a kernel's, and the γ and tuple rules' own — is one
  generated reader per ``(node, state, binding columns, cached)``
  (:func:`lower_reader`, ``<delta:read_…>``, shared per view by
  :class:`SubviewReaders`): the interpreter's diff-driven loop
  (``algebra.delta_eval``) for that read, each probe of a stored table
  one batch ``Table.probe``;
* a γ-delta step is one pass per γ node (:func:`lower_group_pass`):
  its accumulation loop, from the same expression emitter, and the
  per-group read-modify-write of its output and operator cache;
* a *plan* operator — σ / π / ⋈ / ⋉ / ▷ / ∪ / γ over the relations of
  its inputs — is one function too (:func:`lower_plan`, ``<delta:plan_nN>``):
  what a definition evaluates (``analysis.cost.PlanStats``) and what the
  recompute baseline re-runs each round.  The interpretive
  :func:`repro.algebra.evaluate_plan` stays the oracle they are checked
  against; it imports nothing from here.

Count invariance is the contract: a kernel performs *exactly* the
counted accesses the interpreted step performs, per phase
(``tests/test_compiled.py`` pins it on the devices and BSMA workloads;
the crosscheck fuzzer runs the compiled engine against the recompute
oracle; ``tests/test_subview_readers.py`` holds every reader form to the
interpretive ``fetch``).  Nothing generated calls back into the
interpreter: a form the emitter cannot lower — a malformed tree, such
as a stale column reference — raises when the view is lowered, the
exception class the interpreter raises for it at run time
(``UnknownColumnError``, ``ExpressionError``, ``PlanError``,
``ScriptError``).  A kernel's rows go through :class:`Diff`'s
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

from ..algebra.evaluate import _lt, aggregate_rows, evaluate_node
from ..algebra.plan import (
    AntiJoin,
    GroupBy,
    Join,
    PlanNode,
    Project,
    Scan,
    Select,
    SemiJoin,
    UnionAll,
)
from ..algebra.relation import Relation
from ..errors import ExpressionError, PlanError, ScriptError, UnknownColumnError
from ..expr import TRUE, equi_join_pairs
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
from ..storage import Database
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

#: A lowered plan operator: its output over the relations of its inputs
#: (what the reference operator of :mod:`repro.algebra.evaluate` does by
#: interpreting).
PlanKernel = Callable[[Database, Sequence[Relation]], Relation]


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

    def __init__(self, name: str, readers: Optional["SubviewReaders"] = None):
        self.name = name if name.isidentifier() else "".join(
            c if c.isalnum() else "_" for c in "_" + name
        )
        self.lines: list[str] = []
        self.env: dict[str, object] = {}
        self._serials: dict[str, int] = {}
        #: the view's readers, which the function's subview reads go through
        self.readers = readers

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
                raise UnknownColumnError(f"column {expr.name!r} not available; have {sorted(cols)}")
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
        raise ExpressionError(f"cannot evaluate expression node {expr!r}")

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
            reader = self.bind("read", self.subview_reader(node, None))
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
        raise ScriptError(f"cannot execute IR node {node!r}")

    def bucket(self, buckets: str, rows: str, var: str, key: str, single: bool, depth: int) -> None:
        """Emit, at *depth*, the build of the dict *buckets* over *rows*
        by *key* (source over the row *var*; one value when *single*,
        else a tuple), NULL never joining."""
        k, bucket = self.fresh("k"), self.fresh("b")
        self.emit(f"{buckets} = {{}}", depth)
        self.emit(f"for {var} in {rows}:", depth)
        self.emit(f"{k} = {key}", depth + 1)
        self.emit(f"if {f'{k} is None' if single else f'None in {k}'}:", depth + 1)
        self.emit("continue  # SQL: NULL never equi-joins", depth + 2)
        self.emit(f"{bucket} = {buckets}.get({k})", depth + 1)
        self.emit(f"if {bucket} is None:", depth + 1)
        self.emit(f"{buckets}[{k}] = [{var}]", depth + 2)
        self.emit("else:", depth + 1)
        self.emit(f"{bucket}.append({var})", depth + 2)

    def subview_reader(self, node, sub_attrs: Optional[tuple[str, ...]]) -> Callable:
        """The view's reader of the IR subview *node* for *sub_attrs*
        (:class:`SubviewReaders`)."""
        if self.readers is None:
            self.readers = SubviewReaders()
        return self.readers(node.node, node.state, sub_attrs)

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
        reader = self.bind("read", self.subview_reader(node, sub_attrs or None))
        if node.on and getattr(node, "via_output", None) is not None:
            # Section 9 view-reuse hint: the interpreter's hit-or-fallback
            # resolution (identical counts, metrics), its misses read by
            # the reader.
            resolve, hinted = self.bind("resolve_probe", _resolve_probe), self.bind("node", node)
            read = f"{resolve}({hinted}, ctx, {sub_attrs!r}, {{}}, {reader}).rows"
        else:
            read = f"{reader}(ctx, {{}})"
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
            key = _tuple_of([f"{svar}[{sub_columns.index(b)}]" for b in sub_attrs])
            self.bucket(buckets, sub, svar, key, False, 2)
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
# subview readers: the counted access paths, one generated function each
# ----------------------------------------------------------------------
#: ``reader(ctx, values) -> rows``: the rows of a subview, in its node's
#: column order, whose binding columns equal one of *values* (every row
#: for a reader without binding columns, which takes ``values=None``)
Reader = Callable[[IrContext, Optional[Sequence[tuple]]], list]


def _always(residual: Optional[Expr]) -> bool:
    """Whether a join residual keeps every pair (none, or the literal TRUE)."""
    return residual is None or residual == TRUE


class _Read:
    """The emitter of one subview reader: :meth:`rows` writes the
    statements that read a plan node's rows the way the interpreter's
    diff-driven loop (``algebra.delta_eval``) reads them — the bindings
    pushed where it pushes them, the probes made in its order and
    counted alike — into the reader's source."""

    def __init__(self, src: _Source, state: str, cached: bool):
        self.src, self.state, self.cached = src, state, cached
        #: value lists tested non-empty; everything a node reads is
        #: emitted inside its test, so they stay so below it
        self.nonempty: set[str] = set()

    def rows(self, node: PlanNode, attrs: Optional[tuple], values: Optional[str], depth: int) -> str:
        """Emit, at *depth*, the read of *node*'s rows whose *attrs* equal
        one of the distinct tuples the variable *values* holds (every row
        for no *attrs*); returns the variable that holds them.  A node
        whose cache holds the state read is read from its cache."""
        src = self.src
        out = src.fresh("rows")
        if attrs is not None:
            unknown = set(attrs) - set(node.columns)
            if unknown:
                raise PlanError(
                    f"bindings reference columns {sorted(unknown)} not produced by {node.label()}"
                )
            if values not in self.nonempty:  # no values, no read
                self.nonempty.add(values)
                src.emit(f"if not {values}:", depth)
                src.emit(f"{out} = []", depth + 1)
                src.emit("else:", depth)
                depth += 1
        if self.cached:
            table, nid = src.fresh("t"), node.node_id
            src.emit(f"{table} = caches.get({nid})", depth)
            src.emit(f"if {table} is not None and marks.get({nid}, {PRE!r}) == {self.state!r}:", depth)
            self.stored(table, node.columns, attrs, values, out, depth + 1)
            src.emit("else:", depth)
            depth += 1
        if isinstance(node, Scan):
            table = src.fresh("t")
            src.emit(f"{table} = db.table({node.table!r})", depth)
            self.stored(table, node.columns, attrs, values, out, depth)
        elif isinstance(node, Select):
            child = self.rows(node.child, attrs, values, depth)
            r = src.fresh("r")
            cols = {c: f"{r}[{i}]" for i, c in enumerate(node.child.columns)}
            src.emit(f"{out} = [{r} for {r} in {child} if {src.truth(node.predicate, cols)}]", depth)
        elif isinstance(node, Project):
            self.project(node, attrs, values, out, depth)
        elif isinstance(node, Join):
            self.join(node, attrs, values, out, depth)
        elif isinstance(node, (SemiJoin, AntiJoin)):
            self.semi(node, attrs, values, out, depth)
        elif isinstance(node, UnionAll):
            self.union(node, attrs, values, out, depth)
        elif isinstance(node, GroupBy):
            self.group(node, attrs, values, out, depth)
        else:
            raise PlanError(f"cannot fetch from plan node {node!r}")
        return out

    def stored(self, table: str, columns, attrs, values, out: str, depth: int) -> None:
        """Counted reads of the stored *table* (base table, cache or
        view): one batch probe (``Table.probe``), or every row; reordered
        when its column order is not *columns*."""
        src = self.src
        if attrs is None:
            src.emit(f"{out} = {table}.read_all()", depth)
        else:
            src.emit(f"{out} = {table}.probe({src.const(attrs)})({values})", depth)
        cols = src.const(tuple(columns))
        src.emit(f"if {table}.schema.columns != {cols}:", depth)
        src.emit(f"{out} = [*map({table}.schema.extractor({cols}), {out})]", depth + 1)

    def keep_bound(self, out: str, columns, attrs, values: str, depth: int) -> None:
        """Keep the rows of *out* whose *attrs* take one of *values* —
        read unbound, filtered after (``_filter_by_bindings``)."""
        src = self.src
        r, allowed = src.fresh("r"), src.fresh("allowed")
        key = _tuple_of([f"{r}[{columns.index(a)}]" for a in attrs])
        src.emit(f"{allowed} = set({values})", depth)
        src.emit(f"{out} = [{r} for {r} in {out} if {key} in {allowed}]", depth)

    def narrowed(self, attrs: tuple, sub: tuple, values: str, depth: int) -> str:
        """The distinct values of the *sub* attributes of *attrs* among
        *values*, as the interpreter projects its bindings."""
        if sub == attrs:
            return values
        v, name = self.src.fresh("v"), self.src.fresh("values")
        picked = _tuple_of([f"{v}[{attrs.index(a)}]" for a in sub])
        self.src.emit(f"{name} = [*dict.fromkeys([{picked} for {v} in {values}])]", depth)
        return name

    def probe(self, outer: str, outer_cols, probed: PlanNode, pairs, depth: int) -> tuple[str, str]:
        """For each row of *outer*, its values on the *pairs* of (outer
        column, *probed* column); *probed* read once, bound to their
        distinct values, and bucketed, NULL never joining.  Returns the
        variables of the values and of the buckets."""
        src = self.src
        d, s = src.fresh("d"), src.fresh("s")
        probe, distinct, buckets = src.fresh("probe"), src.fresh("values"), src.fresh("buckets")
        picked = _tuple_of([f"{d}[{outer_cols.index(a)}]" for a, _ in pairs])
        src.emit(f"{probe} = [{picked} for {d} in {outer}]", depth)
        src.emit(f"{distinct} = [*dict.fromkeys({probe})]", depth)
        attrs = tuple(b for _, b in pairs)
        fetched = self.rows(probed, attrs, distinct, depth)
        key = _tuple_of([f"{s}[{probed.columns.index(b)}]" for b in attrs])
        src.bucket(buckets, fetched, s, key, False, depth)
        return probe, buckets

    def project(self, node: Project, attrs, values, out: str, depth: int) -> None:
        """π: bindings pushed to the child when every bound attribute is a
        bare column passthrough; otherwise every row, filtered after."""
        src = self.src
        child_attrs, filtered = None, False
        if attrs is not None:
            passthrough = {name: e.name for name, e in node.items if isinstance(e, Col)}
            if all(a in passthrough for a in attrs):
                child_attrs = tuple(passthrough[a] for a in attrs)
            else:
                filtered = True
        child = self.rows(node.child, child_attrs, values if child_attrs else None, depth)
        r = src.fresh("r")
        cols = {c: f"{r}[{i}]" for i, c in enumerate(node.child.columns)}
        display = _tuple_of([src.value(e, cols) for _, e in node.items])
        src.emit(f"{out} = [{display} for {r} in {child}]", depth)
        if filtered:
            self.keep_bound(out, node.columns, attrs, values, depth)

    def join(self, node: Join, attrs, values, out: str, depth: int) -> None:
        """⋈: the side the bindings bind is the outer one (the left one
        when both do, the bindings checked again on the result), the
        other side probed once for all outer rows."""
        src = self.src
        left_cols, right_cols = node.left.columns, node.right.columns
        pairs, residual = [], None  # no condition: a cross product
        if node.condition is not None:
            pairs, residual = equi_join_pairs(node.condition, left_cols, right_cols)
        reverse, final = False, None
        if attrs is None:
            outer = self.rows(node.left, None, None, depth)
        else:
            on_left = tuple(a for a in attrs if a in left_cols)
            on_right = tuple(a for a in attrs if a in right_cols)
            if on_left:
                outer = self.rows(node.left, on_left, self.narrowed(attrs, on_left, values, depth), depth)
                final = attrs if on_right else None
            else:
                reverse = True
                outer = self.rows(node.right, on_right, self.narrowed(attrs, on_right, values, depth), depth)
        probed = node.left if reverse else node.right
        d, o = src.fresh("d"), src.fresh("o")
        lvar, rvar = (o, d) if reverse else (d, o)
        cols = {c: f"{lvar}[{i}]" for i, c in enumerate(left_cols)}
        cols.update({c: f"{rvar}[{i}]" for i, c in enumerate(right_cols)})
        test = "" if _always(residual) else f" if {src.truth(residual, cols)}"
        if pairs:
            if reverse:
                pairs = [(b, a) for a, b in pairs]
            probe, buckets = self.probe(
                outer, right_cols if reverse else left_cols, probed, pairs, depth
            )
            p = src.fresh("p")
            clauses = f"for {d}, {p} in zip({outer}, {probe}) for {o} in {buckets}.get({p}, ())"
        else:
            other = self.rows(probed, None, None, depth)
            first, then = (other, outer) if reverse else (outer, other)
            clauses = f"for {lvar} in {first} for {rvar} in {then}"
        src.emit(f"{out} = [{lvar} + {rvar} {clauses}{test}]", depth)
        if final is not None:
            self.keep_bound(out, node.columns, final, values, depth)

    def semi(self, node, attrs, values, out: str, depth: int) -> None:
        """⋉ / ▷: the left rows under the bindings, each kept when some
        right row it equi-joins satisfies the residual (none does, ▷)."""
        src = self.src
        left = self.rows(node.left, attrs, values, depth)
        left_cols, right_cols = node.left.columns, node.right.columns
        pairs, residual = equi_join_pairs(node.condition, left_cols, right_cols)
        lvar, svar = src.fresh("l"), src.fresh("s")
        # a name on both sides reads the right row, as the interpreter's
        # combined positions do
        cols = {c: f"{lvar}[{i}]" for i, c in enumerate(left_cols)}
        cols.update({c: f"{svar}[{i}]" for i, c in enumerate(right_cols)})
        if pairs:
            probe, buckets = self.probe(left, left_cols, node.right, pairs, depth)
            p = src.fresh("p")
            clauses, candidates = f"for {lvar}, {p} in zip({left}, {probe})", f"{buckets}.get({p}, ())"
            hit = f"{p} in {buckets}"
        else:
            candidates = self.rows(node.right, None, None, depth)
            clauses, hit = f"for {lvar} in {left}", f"bool({candidates})"
        if not _always(residual):
            hit = f"any({src.truth(residual, cols)} for {svar} in {candidates})"
        keep = f"not {hit}" if isinstance(node, AntiJoin) else hit
        src.emit(f"{out} = [{lvar} {clauses} if {keep}]", depth)

    def union(self, node: UnionAll, attrs, values, out: str, depth: int) -> None:
        """∪: bindings on the branch column split by its value and routed
        to that branch alone; any others go to both branches."""
        src = self.src
        branch, r = node.branch_column, src.fresh("r")
        if attrs is None or branch not in attrs:
            left = self.rows(node.left, attrs, values, depth)
            right = self.rows(node.right, attrs, values, depth)
            src.emit(f"{out} = [*[{r} + (0,) for {r} in {left}], *[{r} + (1,) for {r} in {right}]]", depth)
            return
        at = attrs.index(branch)
        rest = [i for i, a in enumerate(attrs) if a != branch]
        rest_attrs = tuple(attrs[i] for i in rest)
        by, v = src.fresh("by"), src.fresh("v")
        src.emit(f"{by} = {{0: [], 1: []}}", depth)
        src.emit(f"for {v} in {values}:", depth)
        src.emit(f"if {v}[{at}] in {by}:", depth + 1)
        src.emit(f"{by}[{v}[{at}]].append({_tuple_of([f'{v}[{i}]' for i in rest])})", depth + 2)
        src.emit(f"{out} = []", depth)
        for b, child in ((0, node.left), (1, node.right)):
            src.emit(f"if {by}[{b}]:", depth)
            if rest_attrs:
                part_values = src.fresh("values")
                src.emit(f"{part_values} = [*dict.fromkeys({by}[{b}])]", depth + 1)
                part = self.rows(child, rest_attrs, part_values, depth + 1)
            else:
                part = self.rows(child, None, None, depth + 1)
            src.emit(f"{out} += [{r} + ({b},) for {r} in {part}]", depth + 1)

    def group(self, node: GroupBy, attrs, values, out: str, depth: int) -> None:
        """γ: bindings on group keys only pushed to the child; otherwise
        every group, filtered after."""
        src = self.src
        pushed = attrs is not None and set(attrs) <= set(node.keys)
        child = self.rows(node.child, attrs if pushed else None, values if pushed else None, depth)
        relation = f"{src.bind('Relation', Relation)}({src.const(tuple(node.child.columns))}, {child})"
        src.emit(
            f"{out} = {src.bind('aggregate_rows', aggregate_rows)}"
            f"({relation}, {src.bind('keys', node.keys)}, {src.bind('aggs', node.aggs)}).rows",
            depth,
        )
        if attrs is not None and not pushed:
            self.keep_bound(out, node.columns, attrs, values, depth)


def lower_reader(node: PlanNode, state: str, attrs: Optional[tuple], cached: bool = True) -> Reader:
    """The subview at *node* in *state* as one generated reader,
    ``read_nN_STATE…(ctx, values)`` (``reader.__source__``): the rows
    ``algebra.delta_eval``'s diff-driven loop returns for the bindings
    *attrs* = *values* (values deduplicated in order; every row without
    *attrs*), from the same counted accesses — each probe a batch
    ``Table.probe`` of the same values, each full read a
    ``Table.read_all``.  *cached*: a node whose cache holds *state* is read
    from it (``IrContext.valid_caches``); not: only base tables (the
    tuple rules' reads)."""
    name = f"read_n{node.node_id}_{state}" + (f"_by_{'_'.join(attrs)}" if attrs else "")
    src = _Source(name + ("" if cached else "_base"))
    src.emit(f"db = ctx.{'db_pre' if state == PRE else 'db_post'}")
    if cached:
        src.emit("caches, marks = ctx.caches, ctx.cache_state")
    if attrs is not None:
        src.emit("values = [*dict.fromkeys(values)]")
    rows = _Read(src, state, cached).rows(node, attrs, "values" if attrs else None, 1)
    src.emit(f"return {rows}")
    return src.build("ctx, values")


class SubviewReaders:
    """A view's subview readers — every subview read its kernels and its
    rule steps make — one per ``(node, state, binding columns, cached)``
    (:func:`lower_reader`), generated on the first request for it: at
    definition, where :func:`bind_kernels` lowers the kernels and
    ``Step.bind_tables`` binds the rules' reads (``Step.subview_reads``).
    A view's script holds them (:func:`readers_of`); a pickle drops them."""

    def __init__(self):
        #: key -> reader, in the order they were generated
        self.built: dict[tuple, Reader] = {}

    def __call__(
        self, node: PlanNode, state: str, attrs: Optional[Sequence[str]] = None, cached: bool = True
    ) -> Reader:
        attrs = tuple(attrs) if attrs else None
        key = (node.node_id, state, attrs, cached)
        reader = self.built.get(key)
        if reader is None:
            reader = self.built[key] = lower_reader(node, state, attrs, cached)
        return reader


def readers_of(script: DeltaScript) -> SubviewReaders:
    """The :class:`SubviewReaders` of *script*'s view (made on first use)."""
    if script.readers is None:
        script.readers = SubviewReaders()
    return script.readers


# ----------------------------------------------------------------------
# step lowering + binding onto the view's one script
# ----------------------------------------------------------------------
def lower_step(step: ComputeDiffStep, readers: Optional[SubviewReaders] = None) -> Kernel:
    """Lower one compute step's IR tree into its kernel: what
    ``step.run`` does — evaluate, make the ``Diff``, bind it under
    ``step.name`` — as one generated function (``kernel.__source__``),
    reading its subviews through *readers* (the view's; its own
    otherwise)."""
    src = _Source(step.name, readers)
    schema = step.schema
    rows = src.rows_of(step.ir)
    missing = [c for c in schema.columns if c not in rows.cols]
    if missing:
        raise UnknownColumnError(f"column {missing[0]!r} not in {tuple(rows.cols)}")
    out = src.named(rows, schema.columns, "out")
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


def group_slots(gnode) -> tuple[int, list, list, int]:
    """The payload layout of γ node *gnode*: ``(book width, count slots,
    sum slots, width)``.  A payload is a plain list: slot 0 the row
    count ``n``, then the operator-cache book's slots in its column
    order (per sum / avg the non-NULL count ``__cnt_``, per avg the
    running sum ``__sum_``), then what the book does not keep (the
    non-NULL count of a ``count(col)``, the running sum of a ``sum``);
    the count / sum slot of an aggregate without one is None.
    ``payload[:book width]`` is the book's delta."""
    cnt: list = [None] * len(gnode.aggs)
    total: list = [None] * len(gnode.aggs)
    width = 1
    for i, agg in enumerate(gnode.aggs):
        if agg.func in ("sum", "avg"):
            cnt[i], width = width, width + 1
        if agg.func == "avg":
            total[i], width = width, width + 1
    book = width
    for i, agg in enumerate(gnode.aggs):
        if agg.arg is not None and cnt[i] is None:
            cnt[i], width = width, width + 1
        if agg.func == "sum":
            total[i], width = width, width + 1
    return book, cnt, total, width


def lower_group_pass(gnode, output=None, opcache=None) -> Callable:
    """The γ-delta maintenance of *gnode* as one generated pass,
    ``gamma_nN(changes) -> (ins, dels, upd)`` over ``(pre, post)``
    child-row changes, bound to its *output* table and operator cache
    (paper Tables 9, 11 and 12).  The γ-delta step binds one at
    definition (``rules.aggregate.AssociativeAggregateStep.bind_tables``),
    and so does the SDBT baseline; it holds generated code, so whoever
    keeps one drops it from a pickle.

    Cost, per affected group: one index lookup + one tuple access (the
    Output ⋈ of Table 9 fused with the UPDATE — this is what makes the
    Table 3 view-modification cost |D|pg rather than double).  The
    operator cache's book is touched only when a cardinality / non-null
    count (or an avg's running sum) actually changes, so a pure-update
    round pays nothing for it (*Write* below).

    *Accumulate*: each change folds into its group's payload
    (:func:`group_slots`) — pre side subtracted, then post side added,
    change by change, so float sums are the sequential ones; a change
    that stays in its group (every key equal on both sides) probes the
    payload dict once and leaves ``n`` alone.

    *Write*, per group: one whose book does not move (``n`` and every
    non-NULL count unchanged, and with an avg every running sum) and
    whose live output row changes reads that row and its book uncounted
    and queues ``key + values`` into one ``update_many``; every other
    group — created, deleted, book touched, values unchanged — first
    flushes the queue, then makes the counted per-group calls: the book
    (a lookup when it moves), ``locate`` and the output and book writes.
    Returns the effective rows of the three emitted diffs: ``key +
    values`` inserted and deleted, ``key + old values + new values``
    updated.

    Without tables, the pass stops after accumulating and returns its
    ``{group: payload}`` (``OpCacheSpec.build``)."""
    src = _Source(f"gamma_n{gnode.node_id}")
    book_width, cnt, total, width = group_slots(gnode)
    positions = {c: i for i, c in enumerate(gnode.child.columns)}
    keys = [positions[k] for k in gnode.keys]
    arguments: dict[str, list] = {"pre": [], "post": []}
    for i, agg in enumerate(gnode.aggs):
        if agg.arg is None:
            continue
        for side, folded in arguments.items():
            value = src.value(agg.arg, {c: f"{side}[{j}]" for c, j in positions.items()})
            folded.append((value, cnt[i], total[i]))

    def fold(side: str, sign: str, depth: int) -> None:
        for argument, c, t in arguments[side]:
            src.emit(f"v = {argument}", depth)
            src.emit("if v is not None:", depth)
            src.emit(f"p[{c}] {sign}= 1", depth + 1)
            if t is not None:
                src.emit(f"p[{t}] {sign}= v", depth + 1)

    def fold_both(depth: int) -> None:
        """Pre side out, post side in, of a change within its group: a
        count moves only where one side is NULL, a sum is still
        ``sum - pre + post``, in that order."""
        for (before, c, t), (after, _, _) in zip(arguments["pre"], arguments["post"]):
            src.emit(f"x = {before}", depth)
            src.emit(f"y = {after}", depth)
            src.emit("if x is None:", depth)
            src.emit("if y is not None:", depth + 1)
            src.emit(f"p[{c}] += 1", depth + 2)
            if t is not None:
                src.emit(f"p[{t}] += y", depth + 2)
            src.emit("elif y is None:", depth)
            src.emit(f"p[{c}] -= 1", depth + 1)
            if t is not None:
                src.emit(f"p[{t}] -= x", depth + 1)
                src.emit("else:", depth)
                src.emit(f"p[{t}] = p[{t}] - x + y", depth + 1)

    # one group key is its own dict key (two values are equal and hash
    # alike exactly when their 1-tuples do), several are a tuple
    def group_of(side: str) -> str:
        if len(keys) == 1:
            return f"{side}[{keys[0]}]"
        return _tuple_of([f"{side}[{k}]" for k in keys])

    def probe(side: str, depth: int) -> None:
        src.emit(f"g = {group_of(side)}", depth)
        src.emit("p = get(g)", depth)
        src.emit("if p is None:", depth)
        src.emit(f"p = acc[g] = {[0] * width!r}", depth + 1)

    src.emit("acc = {}")
    src.emit("get = acc.get")
    src.emit("for pre, post in changes:")
    src.emit("if pre is not None:", 2)
    probe("pre", 3)
    same = " and ".join(f"post[{k}] == pre[{k}]" for k in keys) or "True"
    src.emit(f"if post is not None and {same}:", 3)
    fold_both(4)
    src.emit("continue", 4)
    fold("pre", "-", 3)
    src.emit("p[0] -= 1", 3)
    src.emit("if post is None:", 3)
    src.emit("continue", 4)
    probe("post", 2)
    src.emit("p[0] += 1", 2)
    fold("post", "+", 2)
    tupled = "acc" if len(keys) != 1 else "{(g,): p for g, p in acc.items()}"
    if output is None:
        src.emit(f"return {tupled}")
        return src.build("changes")

    for agg in gnode.aggs:
        if agg.func not in ("count", "sum", "avg"):  # the generator routes
            raise ScriptError(f"associative step got {agg.func!r}")  # min / max elsewhere
    out_schema, n_keys = output.schema, len(gnode.keys)
    agg_names = tuple(a.name for a in gnode.aggs)
    at = [out_schema.position(a) for a in agg_names]
    # the two tables' readers and writers: every write is a Table call
    src.env.update(
        _out_get=output.peek(), _locate=output.locate, _update_many=output.update_many,
        _write_at=output.write_at, _delete_at=output.delete_at,
        _insert=output.insert_checked, _book_get=opcache.peek(),
        _book_lookup=opcache.lookup, _book_write_at=opcache.write_at,
        _book_delete_at=opcache.delete_at, _book_insert=opcache.insert_checked,
        _key_of=out_schema.key_of,
        _values_of=out_schema.extractor(out_schema.non_key_columns),
    )
    group_keys, names = src.const(tuple(gnode.keys)), src.const(agg_names)
    old = _tuple_of([f"row[{a}]" for a in at])

    def values(book) -> str:
        """The new values of a live group over its *book* slots."""
        items = []
        for i, agg in enumerate(gnode.aggs):
            c, t = cnt[i], total[i]
            if agg.func == "count":
                items.append(f"(row[{at[i]}] or 0) + p[{0 if c is None else c}]")
            elif agg.func == "sum":
                items.append(f"None if {book(c)} == 0 else (row[{at[i]}] or 0) + p[{t}]")
            else:
                items.append(f"None if {book(c)} == 0 else {book(t)} / {book(c)}")
        return _tuple_of(items)

    def inserted() -> str:
        """The values of a created group: its payload's."""
        items = []
        for i, agg in enumerate(gnode.aggs):
            c, t = cnt[i], total[i]
            if agg.func == "count":
                items.append(f"p[{0 if c is None else c}]")
            elif agg.func == "sum":
                items.append(f"None if p[{c}] == 0 else p[{t}]")
            else:
                items.append(f"None if p[{c}] == 0 else p[{t}] / p[{c}]")
        return _tuple_of(items)

    moved = ["p[0]"] + [f"p[{c}]" for c in cnt if c is not None]
    summed = [f"p[{t}]" for t in total if t is not None]
    if any(a.func == "avg" for a in gnode.aggs):
        moved += summed
    flush = [
        ("if queued:", 2),
        (f"_update_many({group_keys}, {names}, queued, None, False)", 3),
        ("queued = []", 3),
    ]
    src.emit("ins, dels, upd, queued = [], [], [], []")
    if len(keys) == 1:
        src.emit("for k, p in acc.items():")
        src.emit("g = (k,)", 2)
    else:
        src.emit("for g, p in acc.items():")
    src.emit(f"if not ({' or '.join(moved)}):", 2)
    src.emit(f"if not ({' or '.join(summed) or 'False'}):", 3)
    src.emit("continue  # a zero delta", 4)
    if out_schema.key == gnode.keys and out_schema.non_key_columns == agg_names:
        # a live group whose book does not move: its write is queued
        src.emit("row = _out_get(g)", 3)
        src.emit("b = _book_get(g)", 3)
        src.emit(f"if row is not None and b is not None and b[{n_keys}]:", 3)
        src.emit(f"old = {old}", 4)
        src.emit(f"values = {values(lambda j: f'b[{n_keys + j}]')}", 4)
        src.emit("if values != old:", 4)
        src.emit("queued.append(g + values)", 5)
        src.emit("upd.append(g + old + values)", 5)
        src.emit("continue", 5)
    src.emit("touch = False", 3)
    src.emit("else:", 2)
    src.emit("touch = True", 3)
    for line, depth in flush:
        src.emit(line, depth)
    # every other group: the counted per-group read-modify-write
    src.emit("if touch:", 2)
    src.emit(f"b = _book_lookup({src.const(opcache.schema.key)}, g)", 3)
    src.emit("b = b[0] if b else None", 3)
    src.emit("else:", 2)
    src.emit("b = _book_get(g)", 3)
    src.emit(f"located = _locate({group_keys}, g)", 2)
    src.emit("if located:", 2)
    src.emit("k = located[0]", 3)
    src.emit("row = _out_get(k)", 3)
    src.emit("missing = b is None", 3)
    src.emit("if missing:", 3)
    src.emit(f"b = {(0,) * (n_keys + book_width)!r}", 4)
    src.emit(f"n = b[{n_keys}] + p[0]", 3)
    src.emit("if n == 0:", 3)
    src.emit("_delete_at(k)", 4)
    src.emit("if touch:", 4)
    src.emit("_book_delete_at(g)", 5)
    src.emit("dels.append(_key_of(row) + _values_of(row))", 4)
    src.emit("continue", 4)
    book = ["n"] + [f"b[{n_keys + j}] + p[{j}]" for j in range(1, book_width)]
    src.emit(f"nb = {_tuple_of(book)}", 3)
    src.emit(f"values = {values(lambda j: f'nb[{j}]')}", 3)
    src.emit(f"if values != {old}:", 3)
    written = ", ".join(f"{a!r}: values[{i}]" for i, a in enumerate(agg_names))
    src.emit(f"_write_at(k, {{{written}}})", 4)
    src.emit("new = _out_get(k)", 4)
    src.emit("upd.append(_key_of(new) + _values_of(row) + _values_of(new))", 4)
    src.emit("if touch:", 3)
    src.emit("if missing:", 4)
    src.emit("_book_insert(g + nb)", 5)
    src.emit("else:", 4)
    book_columns = opcache.schema.columns[n_keys:]
    slots = ", ".join(f"{c!r}: nb[{j}]" for j, c in enumerate(book_columns))
    src.emit(f"_book_write_at(g, {{{slots}}})", 5)
    src.emit("elif p[0] > 0:  # else a dummy delta of a group that never existed", 2)
    src.emit(f"nb = {_tuple_of([f'p[{j}]' for j in range(book_width)])}", 3)
    src.emit(f"row = g + {inserted()}", 3)
    src.emit("_insert(row)", 3)
    src.emit("_book_insert(g + nb)", 3)
    src.emit("ins.append(_key_of(row) + _values_of(row))", 3)
    for line, depth in flush:
        src.emit(line, depth - 1)
    src.emit("return ins, dels, upd")
    return src.build("changes")


def lower_instance_row(name: str, parts: Sequence[tuple[str, int]]) -> Callable[[tuple, tuple], tuple]:
    """One base-table i-diff instance row as a generated tuple display:
    ``row(pre, post)`` of the ``(side, position)`` *parts*, side
    ``"pre"`` or ``"post"`` — e.g. ``(post[0], pre[2], post[2])`` for
    key + pre + post of an update (``core.modlog``'s instance fill)."""
    src = _Source(name)
    src.emit(f"return {_tuple_of([f'{side}[{i}]' for side, i in parts])}")
    return src.build("pre, post")


# ----------------------------------------------------------------------
# plan lowering: one generated function per plan operator
# ----------------------------------------------------------------------
def _key_of(var: str, positions: Sequence[int]) -> str:
    """Source of a hash key over *positions* of the row *var*: the value
    itself for one position (equal and hashing alike to its 1-tuple)."""
    if len(positions) == 1:
        return f"{var}[{positions[0]}]"
    return _tuple_of([f"{var}[{i}]" for i in positions])


def _plan_join(src: _Source, node) -> str:
    """``⋈`` / ``⋉`` / ``▷`` as the reference runs it: the right side
    bucketed by the equi-join columns, NULL never joining, and the
    residual inline — dropped when it is the literal TRUE."""
    left_columns, right_columns = node.left.columns, node.right.columns
    lvar, svar = src.fresh("l"), src.fresh("s")
    cols = {c: f"{lvar}[{i}]" for i, c in enumerate(left_columns)}
    # A name on both sides of a semijoin reads the right row, as the
    # reference's combined positions do.
    cols.update({c: f"{svar}[{i}]" for i, c in enumerate(right_columns)})
    pairs, residual = [], None
    if node.condition is not None:
        pairs, residual = equi_join_pairs(node.condition, left_columns, right_columns)
    if not pairs:
        residual = node.condition  # what the reference tests then, whole
    test = None if residual is None or residual == TRUE else src.truth(residual, cols)
    src.emit("left, right = inputs[0].rows, inputs[1].rows")
    matches = "right"
    if pairs:
        lkey = _key_of(lvar, [left_columns.index(a) for a, _ in pairs])
        rkey = _key_of(svar, [right_columns.index(b) for _, b in pairs])
        buckets = src.fresh("buckets")
        src.bucket(buckets, "right", svar, rkey, len(pairs) == 1, 1)
        matches = f"{buckets}.get({lkey}, ())"
    if isinstance(node, Join):
        where = f" if {test}" if test else ""
        return f"[{lvar} + {svar} for {lvar} in left for {svar} in {matches}{where}]"
    if test:
        found = f"any({test} for {svar} in {matches})"
    else:
        found = f"{lkey} in {buckets}" if pairs else "right"
    keep = f"not {found}" if isinstance(node, AntiJoin) else found
    return f"[{lvar} for {lvar} in left if {keep}]"


def _plan_group(src: _Source, node: GroupBy) -> str:
    """γ as one accumulation loop with ``_Accumulator``'s semantics: NULL
    enters nothing but ``count(*)``, sum / avg take numeric non-bool
    values only, min / max order by the mixed-type ``_lt``."""
    columns = node.child.columns
    cols = {c: f"r[{i}]" for i, c in enumerate(columns)}
    init, updates, results = ["0"], [], []
    for agg in node.aggs:
        at = len(init)
        if agg.arg is None:
            results.append("a[0]")
            continue
        updates.append((src.value(agg.arg, cols), agg.func, at))
        if agg.func == "count":
            init.append("0")
            results.append(f"a[{at}]")
        elif agg.func in ("sum", "avg"):
            init += ["0", "0"]
            total = f"a[{at}] / a[{at + 1}]" if agg.func == "avg" else f"a[{at}]"
            results.append(f"({total} if a[{at + 1}] else None)")
        else:
            init.append("None")
            results.append(f"a[{at}]")
    src.emit("groups = {}")
    src.emit("for r in inputs[0].rows:")
    src.emit(f"g = {_key_of('r', [columns.index(k) for k in node.keys])}", 2)
    src.emit("a = groups.get(g)", 2)
    src.emit("if a is None:", 2)
    src.emit(f"a = groups[g] = [{', '.join(init)}]", 3)
    src.emit("a[0] += 1", 2)
    for value, func, at in updates:
        src.emit(f"v = {value}", 2)
        if func == "count":
            src.emit("if v is not None:", 2)
            src.emit(f"a[{at}] += 1", 3)
        elif func in ("sum", "avg"):
            src.emit("if isinstance(v, (int, float)) and not isinstance(v, bool):", 2)
            src.emit(f"a[{at}] += v", 3)
            src.emit(f"a[{at + 1}] += 1", 3)
        else:
            lt = src.bind("lt", _lt)
            order = f"{lt}(v, m)" if func == "min" else f"{lt}(m, v)"
            src.emit("if v is not None:", 2)
            src.emit(f"m = a[{at}]", 3)
            src.emit(f"if m is None or {order}:", 3)
            src.emit(f"a[{at}] = v", 4)
    group = "(g,)" if len(node.keys) == 1 else "g"
    return f"[{group} + {_tuple_of(results)} for g, a in groups.items()]"


def _plan_rows(src: _Source, node: PlanNode) -> str:
    """Emit *node*'s operator over ``inputs`` into *src*; returns the
    source of its output rows."""
    if isinstance(node, Scan):
        # One counted bulk read: the counts of a per-row scan, in the
        # same phase bucket (none at all for an empty table).
        return f"db.table({node.table!r}).read_all()"
    if isinstance(node, (Select, Project)):
        rows = src.over("inputs[0].rows", node.child.columns)
        if isinstance(node, Select):
            rows.conds.append(src.truth(node.predicate, rows.cols))
        else:
            rows.cols = {name: src.value(expr, rows.cols) for name, expr in node.items}
        return src.listed(rows, node.columns)
    if isinstance(node, (Join, SemiJoin, AntiJoin)):
        return _plan_join(src, node)
    if isinstance(node, UnionAll):
        return "[*[r + (0,) for r in inputs[0].rows], *[r + (1,) for r in inputs[1].rows]]"
    if isinstance(node, GroupBy):
        return _plan_group(src, node)
    raise PlanError(f"cannot evaluate plan node {node!r}")


def lower_plan(node: PlanNode) -> PlanKernel:
    """One plan operator — *node* over the relations of its inputs — as
    one generated function ``plan_nN(db, inputs)`` (``kernel.__source__``):
    what the reference operator of :mod:`repro.algebra.evaluate` does,
    set at a time, with the same counted reads.  An operator it does not
    know raises the reference's ``PlanError`` here, at lowering."""
    src = _Source(f"plan_n{node.node_id}")
    rows = _plan_rows(src, node)
    src.emit(f"return {src.bind('Relation', Relation)}({src.const(tuple(node.columns))}, {rows})")
    return src.build("db, inputs")


class LoweredPlan:
    """The generated operators of one plan, each lowered once
    (*lower*: :func:`lower_plan`, or a definition's
    ``PlanStats.kernel``): :meth:`evaluate` runs a sub-plan of it through
    them, traced like the reference (:func:`evaluate_node`)."""

    def __init__(self, plan: PlanNode, lower: Callable[[PlanNode], PlanKernel] = lower_plan):
        #: the nodes stay alive, so their ids stay theirs
        self.plan = plan
        self.kernels = {id(node): lower(node) for node in plan.walk()}

    def evaluate(self, node: PlanNode, db: Database) -> Relation:
        return evaluate_node(node, db, self.evaluate, self._operator)

    def _operator(self, node: PlanNode, db: Database, inputs: list) -> Relation:
        return self.kernels[id(node)](db, inputs)


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
    dispatch and keep their own ``run`` — the blocking steps read their
    subviews through the view's readers under either backend
    (``Step.bind_tables``).  Returns *script*."""
    kernels = {}
    if check_backend(backend) == "compiled":
        readers = readers_of(script)
        for i, step in enumerate(script.steps):
            if isinstance(step, ComputeDiffStep):
                kernels[i] = lower_step(step, readers)
    script.bind_kernels(kernels)
    return script
