"""Execution of diff-query IR trees against a maintenance-time context."""

from __future__ import annotations

from typing import Callable, Optional

from ..algebra.delta_eval import Bindings, fetch
from ..algebra.evaluate import aggregate_rows
from ..algebra.plan import PlanNode
from ..algebra.relation import Relation
from ..errors import ScriptError
from ..expr import evaluate as eval_expr, matches
from ..obs import metrics
from ..obs import spans as obs
from ..storage import Database, Table
from .apply import AppliedChanges
from .diffs import Diff
from .ir import (
    POST,
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


class IrContext:
    """Everything an IR tree may reference while executing.

    * ``db_pre`` / ``db_post`` — the base database before/after the logged
      modifications (deferred IVM: the live database *is* the post state;
      the pre state is implied by the diffs).
    * ``diffs`` — named diff instances (base-table i-diffs and the
      intermediates computed by earlier script steps).
    * ``caches`` — node_id -> materialized table for every cache, plus the
      view at the root.  ``cache_state`` tracks whether each cache still
      holds its pre-state content or has been brought up to date; subview
      references only read a cache whose state matches, and recompute
      through base-table indexes otherwise.
    * ``expansions`` — named ``UPDATE ... RETURNING`` results of APPLY
      steps.
    """

    def __init__(
        self,
        db_pre: Database,
        db_post: Database,
        diffs: Optional[dict[str, Diff]] = None,
        caches: Optional[dict[int, Table]] = None,
    ):
        self.db_pre = db_pre
        self.db_post = db_post
        self.diffs: dict[str, Diff] = dict(diffs) if diffs else {}
        self.caches: dict[int, Table] = dict(caches) if caches else {}
        self.cache_state: dict[int, str] = dict.fromkeys(self.caches, PRE)
        self.expansions: dict[str, AppliedChanges] = {}
        #: node_id -> hidden bookkeeping table of a γ node (Table 12's
        #: operator caches, generalized); maintained by the aggregate steps.
        self.operator_caches: dict[int, Table] = {}
        #: base tables with no modifications in this batch — gates the
        #: Section 9 view-reuse probes (set by the engine per round).
        self.unchanged_tables: frozenset[str] = frozenset()
        #: rows per named diff of the executed round, the zeros of the
        #: statements it skipped included (set by ``execute_script``).
        self.diff_sizes: dict[str, int] = {}
        #: round-share key -> ``(view, rows)`` computed this round, shared
        #: by the views at one log cursor (``RoundEntries.derived``); None:
        #: this execution shares nothing (``core.script.shared_run``)
        self.derived: Optional[dict[str, tuple[str, list]]] = None
        #: ``(statement, lender view)`` of each statement this execution
        #: bound from another view's rows
        self.reused: list[tuple[str, str]] = []
        #: the live slice ``execute_script`` runs (``core.script.LiveSlice``),
        #: resolved by ``core.engine.round_context``
        self.live = None
        #: where the execution's samples go (``core.script.ScriptSamples``),
        #: observed by whoever set it
        self.samples = None

    # ------------------------------------------------------------------
    def database_for(self, state: str) -> Database:
        return self.db_pre if state == PRE else self.db_post

    def valid_caches(self, state: str) -> dict[int, Table]:
        return {
            nid: table
            for nid, table in self.caches.items()
            if self.cache_state.get(nid, PRE) == state
        }

    def mark_cache_updated(self, node_id: int) -> None:
        if node_id not in self.caches:
            raise ScriptError(f"no cache registered for node {node_id}")
        self.cache_state[node_id] = POST

    def resolve_subview(
        self,
        node: PlanNode,
        state: str,
        bindings: Optional[Bindings] = None,
        cached: bool = True,
    ) -> Relation:
        """Rows of the subview at *node* in *state* (optionally filtered).

        Reads the node's own cache when its content matches *state*; other
        matching caches shortcut recomputation below it either way.  Not
        *cached*: recomputed from the base tables, whatever is materialized
        (the tuple rule set's probes, Section 6.2).
        """
        return fetch(
            node,
            self.database_for(state),
            bindings,
            caches=self.valid_caches(state) if cached else None,
        )


def run_ir(node: IrNode, ctx: IrContext) -> Relation:
    """Evaluate an IR tree to a relation of diff-shaped rows.

    With a span recorder installed, every IR operator gets a span
    recording its output (and, derived from its children, input) row
    counts plus the access-count delta it incurred; with tracing off the
    only overhead is one global read per node.
    """
    recorder = obs.current_recorder()
    if recorder is None:
        return _run_ir(node, ctx)
    with recorder.span(
        type(node).__name__,
        kind="ir_op",
        counters=ctx.db_post.counters,
        op=type(node).__name__,
    ) as sp:
        out = _run_ir(node, ctx)
        rows_in = sum(
            child.attrs["rows_out"]
            for child in sp.children
            if "rows_out" in child.attrs
        )
        sp.set(rows_out=len(out.rows), rows_in=rows_in)
        return out


def _run_ir(node: IrNode, ctx: IrContext) -> Relation:
    if isinstance(node, DiffSource):
        diff = ctx.diffs.get(node.name)
        if diff is None:
            raise ScriptError(f"diff {node.name!r} has not been computed yet")
        return Relation(node.columns, diff.rows)
    if isinstance(node, SubviewSource):
        return ctx.resolve_subview(node.node, node.state)
    if isinstance(node, AppliedSource):
        applied = ctx.expansions.get(node.apply_name)
        if applied is None:
            raise ScriptError(f"APPLY {node.apply_name!r} has not run yet")
        expansion = applied.expansion(node.attrs)
        if expansion.columns != node.columns:
            raise ScriptError(
                f"expansion columns {expansion.columns} != declared {node.columns}"
            )
        return expansion
    if isinstance(node, Empty):
        return Relation(node.columns, [])
    if isinstance(node, Filter):
        child = run_ir(node.child, ctx)
        pos = child.positions
        return Relation(
            node.columns, [r for r in child.rows if matches(node.predicate, pos, r)]
        )
    if isinstance(node, Compute):
        from ..expr import Col

        child = run_ir(node.child, ctx)
        pos = child.positions
        if all(isinstance(e, Col) for _, e in node.items):
            idx = [pos[e.name] for _, e in node.items]
            return Relation(
                node.columns, [tuple(r[i] for i in idx) for r in child.rows]
            )
        exprs = [e for _, e in node.items]
        return Relation(
            node.columns,
            [tuple(eval_expr(e, pos, r) for e in exprs) for r in child.rows],
        )
    if isinstance(node, Distinct):
        return run_ir(node.child, ctx).distinct()
    if isinstance(node, UnionRows):
        rows: list[tuple] = []
        for part in node.parts:
            rows.extend(run_ir(part, ctx).rows)
        return Relation(node.columns, rows)
    if isinstance(node, GroupAgg):
        child = run_ir(node.child, ctx)
        return aggregate_rows(child, node.keys, node.aggs)
    if isinstance(node, ProbeJoin):
        return _run_probe_join(node, ctx)
    if isinstance(node, ProbeSemi):
        return _run_probe_semi(node, ctx)
    raise ScriptError(f"cannot execute IR node {node!r}")


def driving_sources(node: IrNode) -> Optional[set[str]]:
    """Diff names that *drive* the tree, or ``None`` if it has a source
    that is read regardless of diff contents.

    A tree is diff-driven when every counted access is reached through
    rows originating in a :class:`DiffSource` — probe joins/semis read
    their subview side only for a non-empty left (both backends return
    early on an empty probe side), so only the left child drives.  For a
    diff-driven tree whose driving diffs are all empty this round, the
    result is empty and no counted access happens — which is what lets a
    round skip the statement outright, under either backend
    (:func:`repro.core.script.step_liveness`).
    """
    if isinstance(node, DiffSource):
        return {node.name}
    if isinstance(node, Empty):
        return set()
    if isinstance(node, (Filter, Compute, Distinct, GroupAgg)):
        return driving_sources(node.child)
    if isinstance(node, UnionRows):
        names: set[str] = set()
        for part in node.parts:
            sub = driving_sources(part)
            if sub is None:
                return None
            names |= sub
        return names
    if isinstance(node, (ProbeJoin, ProbeSemi)):
        return driving_sources(node.left)
    # SubviewSource / AppliedSource (and anything unknown): read
    # unconditionally, so the step can produce rows and counted accesses
    # even when every diff is empty.
    return None


def _run_probe_join(node: ProbeJoin, ctx: IrContext) -> Relation:
    left = run_ir(node.left, ctx)
    if not left.rows:
        return Relation(node.columns, [])
    if node.on:
        lpos = [left.position(a) for a, _ in node.on]
        sub_attrs = tuple(b for _, b in node.on)
        probe_values = [tuple(r[i] for i in lpos) for r in left.rows]
        sub = _resolve_probe(node, ctx, sub_attrs, probe_values)
        spos = [sub.position(b) for b in sub_attrs]
        buckets: dict[tuple, list[tuple]] = {}
        for sr in sub.rows:
            key = tuple(sr[i] for i in spos)
            if None in key:
                continue  # SQL: NULL never equi-joins
            buckets.setdefault(key, []).append(sr)
        matches_for = lambda probe: buckets.get(probe, ())  # noqa: E731
    else:
        sub = ctx.resolve_subview(node.node, node.state)
        all_rows = sub.rows
        probe_values = [() for _ in left.rows]
        matches_for = lambda _probe: all_rows  # noqa: E731
    keep_pos = [sub.position(c) for _, c in node.keep]
    out_positions = {c: i for i, c in enumerate(node.columns)}
    rows: list[tuple] = []
    for lr, probe in zip(left.rows, probe_values):
        for sr in matches_for(probe):
            combined = lr + tuple(sr[i] for i in keep_pos)
            if node.residual is None or matches(node.residual, out_positions, combined):
                rows.append(combined)
    return Relation(node.columns, rows)


def _resolve_probe(
    node: ProbeJoin, ctx: IrContext, sub_attrs: tuple, probe_values: list[tuple],
    read: Optional[Callable[[IrContext, list], list]] = None,
) -> Relation:
    """Fetch the probed subview rows, opportunistically through an
    ancestor materialization (Section 9's insert i-diff extension).

    Applicable only when the hinted guard tables carry no modifications
    in this batch: then every materialization row holds a genuine,
    current row of the probed subview.  Per-value misses (the subview
    row exists but no view row exposes it) fall back to the ordinary
    base probe: ``read(ctx, values)`` — a compiled kernel's reader of the
    subview — or the interpreter's own resolution.
    """
    if read is None:

        def read(ctx: IrContext, values: list) -> list:
            return ctx.resolve_subview(node.node, node.state, Bindings(sub_attrs, values)).rows

    hint = node.via_output
    usable = (
        hint is not None
        and set(hint.guard_tables) <= ctx.unchanged_tables
        and hint.mat_node_id in ctx.caches
    )
    if not usable:
        return Relation(node.node.columns, read(ctx, probe_values))
    mat = ctx.caches[hint.mat_node_id]
    mat_attrs = tuple(hint.column_map[a] for a in sub_attrs)
    sub_columns = node.node.columns
    mat_positions = [mat.schema.position(hint.column_map[c]) for c in sub_columns]
    rows: list[tuple] = []
    missed: list[tuple] = []
    # The probe's on-columns cover the target's IDs, so the target
    # portion is functionally determined by the looked-up values: one
    # exemplar materialization row per value suffices (LIMIT 1).
    for value in dict.fromkeys(tuple(v) for v in probe_values):
        mat_row = mat.lookup_one(mat_attrs, value)
        if mat_row is not None:
            rows.append(tuple(mat_row[i] for i in mat_positions))
        else:
            missed.append(value)
    metrics.counter("view_reuse.probe_hits").inc(len(rows))
    metrics.counter("view_reuse.probe_misses").inc(len(missed))
    if missed:
        rows.extend(read(ctx, missed))
    return Relation(sub_columns, rows)


def _run_probe_semi(node: ProbeSemi, ctx: IrContext) -> Relation:
    left = run_ir(node.left, ctx)
    if not left.rows:
        return Relation(node.columns, [])
    if node.on:
        lpos = [left.position(a) for a, _ in node.on]
        sub_attrs = tuple(b for _, b in node.on)
        probe_values = [tuple(r[i] for i in lpos) for r in left.rows]
        sub = ctx.resolve_subview(
            node.node, node.state, Bindings(sub_attrs, probe_values)
        )
        spos = [sub.position(b) for b in sub_attrs]
        buckets: dict[tuple, list[tuple]] = {}
        for sr in sub.rows:
            key = tuple(sr[i] for i in spos)
            if None in key:
                continue  # SQL: NULL never equi-joins
            buckets.setdefault(key, []).append(sr)
        candidates_for = lambda probe: buckets.get(probe, ())  # noqa: E731
    else:
        sub = ctx.resolve_subview(node.node, node.state)
        all_rows = sub.rows
        probe_values = [() for _ in left.rows]
        candidates_for = lambda _probe: all_rows  # noqa: E731

    if node.residual is not None:
        combined_positions = {c: i for i, c in enumerate(left.columns)}
        offset = len(left.columns)
        for i, c in enumerate(node.node.columns):
            combined_positions[SUB_PREFIX + c] = offset + i

        def has_match(lr: tuple, probe: tuple) -> bool:
            return any(
                matches(node.residual, combined_positions, lr + sr)
                for sr in candidates_for(probe)
            )

    else:

        def has_match(lr: tuple, probe: tuple) -> bool:
            return bool(candidates_for(probe))

    rows = [
        lr
        for lr, probe in zip(left.rows, probe_values)
        if has_match(lr, probe) != node.negated
    ]
    return Relation(node.columns, rows)
