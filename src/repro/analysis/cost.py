"""Pass 4: symbolic cost inference over ∆-scripts (COST5xx).

Walks a generated ∆-script step by step — replaying the same cache
apply→mark state machine the executor runs — and derives, per maintenance
phase, a closed-form :class:`~repro.costmodel.symbolic.CostVector` over
workload parameters: base i-diff cardinalities ``card[...]``, probe
fanouts ``f[...]``, selectivities ``s[...]`` and grouping compressions
``g[...]``.  Cardinality symbols are derived from the plan structure
alone — materializing a node changes the *cost* of probing it, never
the estimated row counts — so cached and cache-free variants of the
same pipeline are priced over identical cardinalities.  This
generalizes the
two hand-derived closed forms in :mod:`repro.costmodel.model` (Table 2
SPJ, Table 3 aggregate) to every view the generator can produce.

The model is an *upper bound given observed cardinalities*: probe costs
are charged per left row (the executor dedupes probe values), filter and
semijoin retentions default to 1, and operator-cache bookkeeping is
charged whenever it *may* be touched.  Index lookups of pure
apply/locate phases (SPJ update rounds) carry no estimated symbols and
are exact.

Which script a view ships and what it costs is decided here, once per
definition, by :func:`define_script` (every engine and ``repro lint``
define through it); the model travels with the script as
``GeneratedPlan.cost_model``.  Three consumers of the model:

* the ``cost`` pass — minimality lints COST501 (the emitted
  script predicts costlier than an enumerated generator alternative) and
  COST502 (intermediate caches whose predicted amortized benefit is
  negative under the no-cache alternative);
* :func:`reconcile_counts` / :func:`cost_diagnostics` — COST503,
  flagging measured ``MaintenanceReport.phase_counts`` that *exceed* the
  prediction beyond the per-metric tolerance (the S2 counters report
  work the model cannot account for);
* :func:`estimate_chain_parameters` — derives the paper's (a, p, g)
  workload parameters from a plan + database, replacing hand-entered
  constants in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Optional, Sequence

from ..algebra.evaluate import evaluate_node
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
from ..core.compile import PlanKernel, lower_plan
from ..core.diffs import DELETE, INSERT, UPDATE, DiffSchema
from ..core.generator import ID_RULES, GeneratedPlan, RuleSet, ScriptGenerator
from ..core.ir import (
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
from ..core.modlog import schema_instance_name
from ..core.rules.aggregate import AssociativeAggregateStep, GeneralAggregateStep
from ..core.script import (
    PHASE_CACHE_DIFF,
    PHASE_CACHE_UPDATE,
    PHASE_VIEW_DIFF,
    PHASE_VIEW_UPDATE,
    ApplyDiffStep,
    ComputeDiffStep,
    MarkCacheUpdatedStep,
)
from ..costmodel.symbolic import (
    CostExpr,
    CostVector,
    ScriptCostModel,
    card_symbol,
    lookups,
    reads,
    writes,
)
from ..expr import Col, columns_of, equi_join_pairs
from ..storage import Database, row_extractor
from .diagnostics import AnalysisReport
from .fingerprint import _PlanWalker
from .registry import AnalysisContext

#: Nominal per-instance diff cardinality used when no observation binds
#: the base ``card[...]`` symbols (the minimality lint's working point).
NOMINAL_DIFF_CARD = 16.0

#: The four ∆-script phases the model predicts (measured phases outside
#: this set — instance population, setup — are not part of the script).
SCRIPT_PHASES = (
    PHASE_CACHE_DIFF,
    PHASE_CACHE_UPDATE,
    PHASE_VIEW_DIFF,
    PHASE_VIEW_UPDATE,
)

#: COST503 tolerance per metric: ``(relative, absolute)``.  A measured
#: count deviates when ``measured > predicted * (1 + rel) + abs``.  The
#: check is one-sided — the model is a documented upper bound, so only
#: *under*-prediction (counters reporting work the formulas cannot
#: explain) is a defect.  See docs/COST_MODEL.md for the policy.
RECONCILE_TOLERANCES: dict[str, tuple[float, float]] = {
    "index_lookups": (0.25, 4.0),
    "tuple_reads": (0.50, 12.0),
    "tuple_writes": (0.25, 6.0),
}

#: Margin for the minimality comparisons (COST501/COST502): predicted
#: totals within ``max(ABS, REL * baseline)`` are considered equal.
_MARGIN_ABS = 8.0
_MARGIN_REL = 0.05


# ----------------------------------------------------------------------
# node statistics
# ----------------------------------------------------------------------
class PlanStats:
    """One evaluation of a plan, shared by everyone defining a view from
    it: the rows of each sub-plan somebody asked for and the scalar
    statistics read off them, computed at most once.  Keys are *exact*
    sub-plan fingerprints, so a re-annotated copy of the plan (cost
    selection's cache-free candidate) hits the original's entries; a
    plan with no fingerprint (e.g. a ``Decimal`` literal) raises
    :class:`~repro.analysis.fingerprint.FingerprintError` at definition.

    Evaluation runs the generated operators
    (:func:`repro.core.compile.lower_plan`), one kernel per key kept
    beside the rows.  ``define_view`` and :func:`lint_definition` hold one
    in a local, so nothing here outlives the database state it was read
    from.  Evaluation is counted like the reference's; ``define_view``
    resets the counters after it.
    """

    def __init__(self, db: Database):
        self.db = db
        self._prints = _PlanWalker(db, alpha=False)
        #: every node fingerprinted: the walker memoises by id(), which
        #: a collected node would hand to the next one allocated
        self._pinned: dict[int, PlanNode] = {}
        #: key -> Relation, (key, statistic, columns) -> scalar
        self._memo: dict = {}
        #: key -> the node's generated operator
        self._kernels: dict = {}
        #: operators evaluated / sub-plans answered from the memo
        self.evaluations = self.hits = 0

    def _key(self, node: PlanNode) -> str:
        self._pinned[id(node)] = node
        return self._prints.visit(node)[0]

    def lookup(self, node: PlanNode) -> Optional[Relation]:
        """The question asked at every node on the way down; a miss is
        an operator evaluated next."""
        rel = self._memo.get(self._key(node))
        if rel is None:
            self.evaluations += 1
        else:
            self.hits += 1
        return rel

    def rows(self, node: PlanNode) -> Relation:
        """The rows of *node*, kept: the sub-plans under it are read from
        the memo where somebody asked for them before."""
        rel = self._evaluate(node, self.db)
        self._memo[self._key(node)] = rel
        return rel

    def _evaluate(self, node: PlanNode, db: Database) -> Relation:
        rel = self.lookup(node)
        if rel is None:
            rel = evaluate_node(node, db, self._evaluate, self._operator)
        return rel

    def _operator(self, node: PlanNode, db: Database, inputs: list) -> Relation:
        return self.kernel(node)(db, inputs)

    def kernel(self, node: PlanNode) -> PlanKernel:
        """*node*'s generated operator, lowered once per key."""
        key = self._key(node)
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = self._kernels[key] = lower_plan(node)
        return kernel

    def _stat(self, name: str, node: PlanNode, cols: Sequence[str], compute):
        key = (self._key(node), name, tuple(cols))
        if key not in self._memo:
            self._memo[key] = compute(self.rows(node))
        return self._memo[key]

    def n(self, node: PlanNode) -> int:
        return len(self.rows(node).rows)

    def distinct(self, node: PlanNode, cols: Sequence[str]) -> int:
        def count(rel: Relation) -> int:
            return len(set(map(row_extractor([rel.position(c) for c in cols]), rel.rows)))

        return self._stat("distinct", node, cols, count)

    def fanout(self, node: PlanNode, cols: Sequence[str]) -> float:
        """Average matching rows per distinct value of *cols*."""
        n = self.n(node)
        return n / max(self.distinct(node, cols), 1) if n else 0.0

    def has_nulls(self, node: PlanNode, cols: Sequence[str]) -> bool:
        def any_null(rel: Relation) -> bool:
            values = row_extractor([rel.position(c) for c in cols if c in rel.columns])
            return None in chain.from_iterable(map(values, rel.rows))

        return self._stat("has_nulls", node, cols, any_null)

    def grouping_compression(
        self, node: PlanNode, id_cols: Sequence[str], key_cols: Sequence[str]
    ) -> float:
        """Average ``distinct(key_cols) / rows`` within each *id_cols*
        group — the paper's g: groups touched per view row touched."""
        rel = self.rows(node)
        if not rel.rows:
            return 1.0
        id_of = row_extractor([rel.position(c) for c in id_cols])
        key_of = row_extractor([rel.position(c) for c in key_cols])
        groups: dict[tuple, list[tuple]] = {}
        for ident, key in zip(map(id_of, rel.rows), map(key_of, rel.rows)):
            groups.setdefault(ident, []).append(key)
        ratios = [len(set(keys)) / len(keys) for keys in groups.values()]
        return sum(ratios) / len(ratios)


# ----------------------------------------------------------------------
# the script walker
# ----------------------------------------------------------------------
class CostInferenceError(Exception):
    """The walker met a construct it cannot cost."""


class _CostWalker:
    def __init__(self, generated: object, stats: PlanStats):
        self.plan: PlanNode = generated.plan  # type: ignore[attr-defined]
        self.script = generated.script  # type: ignore[attr-defined]
        self.model = ScriptCostModel(generated.view_name)  # type: ignore[attr-defined]
        self.stats = stats
        self.nodes: dict[int, PlanNode] = {n.node_id: n for n in self.plan.walk()}
        cache_specs = list(generated.cache_specs)  # type: ignore[attr-defined]
        self.cache_ids: set[int] = {s.node_id for s in cache_specs}
        self.cache_ids.add(self.script.view_node_id)
        self.cache_state: dict[int, str] = {nid: "pre" for nid in self.cache_ids}
        self.diff_schemas: dict[str, DiffSchema] = {}
        #: RETURNING expansion name -> the diff name whose APPLY produced it
        self.returning_source: dict[str, str] = {}
        for schema in generated.base_schemas:  # type: ignore[attr-defined]
            name = schema_instance_name(schema)
            self.diff_schemas[name] = schema
            self.model.estimate(card_symbol(name), NOMINAL_DIFF_CARD)

    # -- symbols -------------------------------------------------------
    def _sym(self, name: str, estimate: float) -> CostExpr:
        self.model.estimate(name, estimate)
        return CostExpr.var(name)

    def _fan(self, node: PlanNode, attrs: Sequence[str]) -> CostExpr:
        """Rows matched per probe value on *node* bound by *attrs*."""
        if set(attrs) >= set(node.ids):
            return CostExpr.const(1.0)
        label = ",".join(sorted(attrs))
        return self._sym(
            f"f[n{node.node_id}.{label}]", self.stats.fanout(node, attrs)
        )

    def _valid_caches(self, state: str) -> set[int]:
        return {nid for nid, st in self.cache_state.items() if st == state}

    # -- probe row estimates -------------------------------------------
    def probe_rows(self, node: PlanNode, attrs: Sequence[str]) -> CostExpr:
        """Expected rows of the subview at *node* matching one binding
        value on *attrs*.

        Cardinality is a property of the *plan*, not of which nodes
        happen to be materialized, so this never consults cache state —
        it always derives the estimate structurally.  (Reading the
        fanout off a cache's contents instead conditions the average on
        values present in the materialized output; a selection below
        the cache then inflates the estimate, and every downstream
        statement of the cached pipeline inherits the inflation.  That
        bias is what made cost selection drop measured-beneficial
        caches.)"""
        attrs = tuple(attrs)
        if isinstance(node, Select):
            rows = self.probe_rows(node.child, attrs)
            n_child = self.stats.n(node.child)
            sel_est = self.stats.n(node) / n_child if n_child else 1.0
            return rows * self._sym(f"s[n{node.node_id}]", sel_est)
        if isinstance(node, Project):
            passthrough = {
                name: expr.name
                for name, expr in node.items
                if isinstance(expr, Col)
            }
            if all(a in passthrough for a in attrs):
                return self.probe_rows(
                    node.child, tuple(passthrough[a] for a in attrs)
                )
            return self._fan(node, attrs)
        if isinstance(node, Join):
            left_cols = set(node.left.columns)
            attrs_left = tuple(a for a in attrs if a in left_cols)
            attrs_right = tuple(a for a in attrs if a not in left_cols)
            pairs, _res = (
                equi_join_pairs(
                    node.condition, node.left.columns, node.right.columns
                )
                if node.condition is not None
                else ([], None)
            )
            if attrs_left:
                rows = self.probe_rows(node.left, attrs_left)
                if pairs:
                    return rows * self.probe_rows(
                        node.right, tuple(b for _, b in pairs)
                    )
                return rows * self.stats.n(node.right)
            rows = self.probe_rows(node.right, attrs_right)
            if pairs:
                return rows * self.probe_rows(
                    node.left, tuple(a for a, _ in pairs)
                )
            return rows * self.stats.n(node.left)
        if isinstance(node, (SemiJoin, AntiJoin)):
            return self.probe_rows(node.left, attrs)  # retention ≤ 1
        if isinstance(node, UnionAll):
            branch = node.branch_column
            child_attrs = tuple(a for a in attrs if a != branch)
            return self.probe_rows(node.left, child_attrs) + self.probe_rows(
                node.right, child_attrs
            )
        # Scans and grouped outputs: the measured per-value fanout of the
        # node itself (1 when the binding covers the node's ids).
        return self._fan(node, attrs)

    # -- probe unit costs ----------------------------------------------
    def probe_unit(
        self, node: PlanNode, attrs: Sequence[str], state: str
    ) -> tuple[CostVector, CostExpr]:
        """(cost, matching rows) for probing *node* with one binding value
        on *attrs*, mirroring :func:`repro.algebra.delta_eval.fetch`."""
        attrs = tuple(attrs)
        if node.node_id in self._valid_caches(state):
            fan = self.probe_rows(node, attrs)
            return lookups(1) + reads(fan), fan
        if isinstance(node, Scan):
            fan = self._fan(node, attrs)
            return lookups(1) + reads(fan), fan
        if isinstance(node, Select):
            vec, rows = self.probe_unit(node.child, attrs, state)
            n_child = self.stats.n(node.child)
            sel_est = self.stats.n(node) / n_child if n_child else 1.0
            sel = self._sym(f"s[n{node.node_id}]", sel_est)
            return vec, rows * sel
        if isinstance(node, Project):
            passthrough = {
                name: expr.name
                for name, expr in node.items
                if isinstance(expr, Col)
            }
            if all(a in passthrough for a in attrs):
                return self.probe_unit(
                    node.child, tuple(passthrough[a] for a in attrs), state
                )
            # fetch-all and filter (counted) — charged once per value.
            return self.cost_full(node.child, state), self._fan(node, attrs)
        if isinstance(node, Join):
            return self._probe_join_node(node, attrs, state)
        if isinstance(node, (SemiJoin, AntiJoin)):
            vec, rows = self.probe_unit(node.left, attrs, state)
            pairs, _res = equi_join_pairs(
                node.condition, node.left.columns, node.right.columns
            )
            if pairs:
                rvec, _rrows = self.probe_unit(
                    node.right, tuple(b for _, b in pairs), state
                )
                vec = vec + rvec.scale(rows)
            else:
                vec = vec + self.cost_full(node.right, state)
            return vec, rows  # retention ≤ 1: upper bound
        if isinstance(node, UnionAll):
            branch = node.branch_column
            child_attrs = tuple(a for a in attrs if a != branch)
            lvec, lrows = self.probe_unit(node.left, child_attrs, state)
            rvec, rrows = self.probe_unit(node.right, child_attrs, state)
            return lvec + rvec, lrows + rrows
        if isinstance(node, GroupBy):
            if set(attrs) <= set(node.keys):
                vec, _crows = self.probe_unit(node.child, attrs, state)
                return vec, self._fan(node, attrs)
            return self.cost_full(node.child, state), self._fan(node, attrs)
        raise CostInferenceError(f"cannot cost probe into {node.label()!r}")

    def _probe_join_node(
        self, node: Join, attrs: tuple[str, ...], state: str
    ) -> tuple[CostVector, CostExpr]:
        left_cols = set(node.left.columns)
        right_cols = set(node.right.columns)
        attrs_left = tuple(a for a in attrs if a in left_cols)
        attrs_right = tuple(a for a in attrs if a in right_cols)
        pairs, _res = (
            equi_join_pairs(node.condition, node.left.columns, node.right.columns)
            if node.condition is not None
            else ([], None)
        )
        if attrs_left:
            vec, rows = self.probe_unit(node.left, attrs_left, state)
            if pairs:
                rvec, rrows = self.probe_unit(
                    node.right, tuple(b for _, b in pairs), state
                )
                return vec + rvec.scale(rows), rows * rrows
            return vec + self.cost_full(node.right, state), rows * self.stats.n(
                node.right
            )
        # Bindings only on the right side: drive from the right.
        vec, rows = self.probe_unit(node.right, attrs_right, state)
        if pairs:
            lvec, lrows = self.probe_unit(
                node.left, tuple(a for a, _ in pairs), state
            )
            return vec + lvec.scale(rows), rows * lrows
        return vec + self.cost_full(node.left, state), rows * self.stats.n(node.left)

    def cost_full(self, node: PlanNode, state: str) -> CostVector:
        """Cost of fetching *node* without bindings (full recompute or a
        cache scan); row counts come from the measured statistics."""
        if node.node_id in self._valid_caches(state) or isinstance(node, Scan):
            return reads(self.stats.n(node))
        if isinstance(node, (Select, Project, GroupBy)):
            child = node.children[0]
            return self.cost_full(child, state)
        if isinstance(node, Join):
            vec = self.cost_full(node.left, state)
            pairs, _res = (
                equi_join_pairs(node.condition, node.left.columns, node.right.columns)
                if node.condition is not None
                else ([], None)
            )
            if pairs:
                rvec, _rows = self.probe_unit(
                    node.right, tuple(b for _, b in pairs), state
                )
                return vec + rvec.scale(self.stats.n(node.left))
            return vec + self.cost_full(node.right, state)
        if isinstance(node, (SemiJoin, AntiJoin)):
            vec = self.cost_full(node.left, state)
            pairs, _res = equi_join_pairs(
                node.condition, node.left.columns, node.right.columns
            )
            if pairs:
                rvec, _rows = self.probe_unit(
                    node.right, tuple(b for _, b in pairs), state
                )
                return vec + rvec.scale(self.stats.n(node.left))
            return vec + self.cost_full(node.right, state)
        if isinstance(node, UnionAll):
            return self.cost_full(node.left, state) + self.cost_full(node.right, state)
        raise CostInferenceError(f"cannot cost full fetch of {node.label()!r}")

    # -- IR costing ----------------------------------------------------
    def ir_cost(self, node: IrNode) -> tuple[CostVector, CostExpr]:
        """(cost, output cardinality) of evaluating an IR tree once."""
        if isinstance(node, DiffSource):
            return CostVector(), CostExpr.var(card_symbol(node.name))
        if isinstance(node, AppliedSource):
            return CostVector(), CostExpr.var(card_symbol(node.apply_name))
        if isinstance(node, SubviewSource):
            pnode = node.node
            return self.cost_full(pnode, node.state), CostExpr.const(
                self.stats.n(pnode)
            )
        if isinstance(node, Empty):
            return CostVector(), CostExpr.zero()
        if isinstance(node, Filter):
            return self.ir_cost(node.child)  # retention ≤ 1: upper bound
        if isinstance(node, (Compute, Distinct)):
            return self.ir_cost(node.child)
        if isinstance(node, UnionRows):
            vec = CostVector()
            card = CostExpr.zero()
            for part in node.parts:
                pvec, pcard = self.ir_cost(part)
                vec = vec + pvec
                card = card + pcard
            return vec, card
        if isinstance(node, GroupAgg):
            return self.ir_cost(node.child)  # groups ≤ rows: upper bound
        if isinstance(node, ProbeJoin):
            lvec, lcard = self.ir_cost(node.left)
            if node.on:
                sub_attrs = tuple(b for _, b in node.on)
                uvec, urows = self.probe_unit(node.node, sub_attrs, node.state)
                return lvec + uvec.scale(lcard), lcard * urows
            vec = lvec + self.cost_full(node.node, node.state)
            return vec, lcard * self.stats.n(node.node)
        if isinstance(node, ProbeSemi):
            lvec, lcard = self.ir_cost(node.left)
            if node.on:
                sub_attrs = tuple(b for _, b in node.on)
                uvec, _urows = self.probe_unit(node.node, sub_attrs, node.state)
                return lvec + uvec.scale(lcard), lcard
            return lvec + self.cost_full(node.node, node.state), lcard
        raise CostInferenceError(f"cannot cost IR node {node!r}")

    # -- steps ---------------------------------------------------------
    def walk(self) -> ScriptCostModel:
        for step in self.script.steps:
            if isinstance(step, ComputeDiffStep):
                self._compute_step(step)
            elif isinstance(step, ApplyDiffStep):
                self._apply_step(step)
            elif isinstance(step, MarkCacheUpdatedStep):
                self.cache_state[step.node_id] = "post"
            elif isinstance(step, AssociativeAggregateStep):
                self._assoc_step(step)
            elif isinstance(step, GeneralAggregateStep):
                self._general_step(step)
            else:
                raise CostInferenceError(f"unknown step type {type(step).__name__}")
        return self.model

    def _compute_step(self, step: ComputeDiffStep) -> None:
        vec, card = self.ir_cost(step.ir)
        self.model.add(f"COMPUTE {step.name}", step.phase, vec)
        self.model.define_card(card_symbol(step.name), card)
        self.diff_schemas[step.name] = step.schema

    def _apply_locate_fan(self, schema: DiffSchema, target: PlanNode) -> CostExpr:
        key = tuple(target.ids)
        if set(schema.id_attrs) >= set(key):
            return CostExpr.const(1.0)
        # Rows located per diff row — the same structural estimate the
        # probe path derives for this subview, so the RETURNING
        # expansion's cardinality does not depend on the target being
        # materialized (see probe_rows).
        return self.probe_rows(target, schema.id_attrs)

    def _apply_step(self, step: ApplyDiffStep) -> None:
        schema = self.diff_schemas.get(step.diff_name)
        if schema is None:
            raise CostInferenceError(f"APPLY of unknown diff {step.diff_name!r}")
        target = self.nodes.get(step.target_node_id)
        if target is None:
            raise CostInferenceError(f"APPLY to unknown node n{step.target_node_id}")
        card = CostExpr.var(card_symbol(step.diff_name))
        if schema.kind == INSERT:
            vec = lookups(card) + writes(card)
            touched = card
        else:
            loc = self._apply_locate_fan(schema, target)
            touched = card * loc
            vec = lookups(card) + writes(touched)
        self.model.add(f"APPLY {step.diff_name} -> {step.target_label}", step.phase, vec)
        if step.returning_name is not None:
            self.model.define_card(card_symbol(step.returning_name), touched)
            self.returning_source[step.returning_name] = step.diff_name

    # -- aggregate steps -----------------------------------------------
    def _agg_input_schema(self, source_kind: str, name: str) -> Optional[DiffSchema]:
        if source_kind == "expansion":
            source = self.returning_source.get(name)
            return self.diff_schemas.get(source) if source else None
        return self.diff_schemas.get(name)

    def _assoc_step(self, step: AssociativeAggregateStep) -> None:
        gnode = step.gnode
        child = gnode.child
        vec = CostVector()
        changes: dict[str, CostExpr] = {
            INSERT: CostExpr.zero(),
            DELETE: CostExpr.zero(),
            UPDATE: CostExpr.zero(),
        }
        key_moving = False
        arg_cols: list[str] = []
        for agg in gnode.aggs:
            if agg.arg is not None:
                arg_cols.extend(columns_of(agg.arg))
        for source_kind, name in step.inputs:
            schema = self._agg_input_schema(source_kind, name)
            if schema is None:
                raise CostInferenceError(f"aggregate input {name!r} has no schema")
            card = CostExpr.var(card_symbol(name))
            if source_kind == "diff":
                # Counted Input_pre probes (Table 9's ∆ ⋈ Input_pre).
                uvec, urows = self.probe_unit(child, schema.id_attrs, "pre")
                vec = vec + uvec.scale(card)
                n_changes = card if schema.kind == INSERT else card * urows
            else:
                n_changes = card  # RETURNING expansions are free
            changes[schema.kind] = changes[schema.kind] + n_changes
            if schema.kind == UPDATE and set(schema.post_attrs) & set(gnode.keys):
                key_moving = True
        has_avg = any(a.func == "avg" for a in gnode.aggs)
        touch_updates = (
            has_avg or key_moving or self.stats.has_nulls(child, arg_cols)
        )
        g = self._sym(f"g[n{gnode.node_id}]", 1.0)
        emit_ins = changes[INSERT] * g
        emit_del = changes[DELETE] * g
        emit_upd = changes[UPDATE] * g
        if key_moving:
            # A group-key update bumps two groups; either may be created
            # or emptied by the move.
            emit_ins = emit_ins + changes[UPDATE] * g
            emit_del = emit_del + changes[UPDATE] * g
        for kind, expr in ((INSERT, emit_ins), (DELETE, emit_del), (UPDATE, emit_upd)):
            self.model.define_card(card_symbol(step.emitted[kind]), expr)
            self.diff_schemas[step.emitted[kind]] = _emitted_schema(gnode, kind)
        e_ins = CostExpr.var(card_symbol(step.emitted[INSERT]))
        e_del = CostExpr.var(card_symbol(step.emitted[DELETE]))
        e_upd = CostExpr.var(card_symbol(step.emitted[UPDATE]))
        t = 1.0 if touch_updates else 0.0
        # Per-group read-modify-write costs by emitted kind (the write
        # half of compile.lower_group_pass): update = book(t) + locate +
        # write(+book) — a queued update_many row when the book does not
        # move; delete = book + locate + delete + book-delete; insert =
        # book miss + locate miss + out insert + book insert.
        vec = vec + lookups(e_upd * (1.0 + t)) + reads(e_upd * t) + writes(
            e_upd * (1.0 + t)
        )
        vec = vec + lookups(e_del * 2.0) + reads(e_del) + writes(e_del * 2.0)
        vec = vec + lookups(e_ins * 4.0) + writes(e_ins * 2.0)
        self.model.add(f"γ-delta n{gnode.node_id}", step.phase, vec)
        self.cache_state[gnode.node_id] = "post"

    def _general_step(self, step: GeneralAggregateStep) -> None:
        gnode = step.gnode
        child = gnode.child
        vec = CostVector()
        groups = CostExpr.zero()
        for source_kind, name in step.inputs:
            schema = self._agg_input_schema(source_kind, name)
            if schema is None:
                raise CostInferenceError(f"aggregate input {name!r} has no schema")
            card = CostExpr.var(card_symbol(name))
            if source_kind == "expansion":
                groups = groups + card * 2.0  # pre+post group keys per change
                continue
            # Counted pre- AND post-state probes of the child.
            for state in ("pre", "post"):
                uvec, urows = self.probe_unit(child, schema.id_attrs, state)
                vec = vec + uvec.scale(card)
                groups = groups + card * urows
            if schema.kind == INSERT:
                groups = groups + card
        g_sym = card_symbol(f"{step.emit_prefix}__groups")
        self.model.define_card(g_sym, groups)
        g_var = CostExpr.var(g_sym)
        # Recompute γ(∆ ⋉ Input_post) per affected group: the γ probe
        # pushes the group-key binding down to the child.
        uvec, _rows = self.probe_unit(gnode, gnode.keys, "post")
        vec = vec + uvec.scale(g_var)
        vec = vec + lookups(g_var)  # out_table.locate per group
        for kind in (INSERT, DELETE, UPDATE):
            self.diff_schemas[step.emitted[kind]] = _emitted_schema(gnode, kind)
        # A-priori: assume every affected group yields an update; inserts
        # and deletes are observed at reconciliation time.
        self.model.define_card(card_symbol(step.emitted[UPDATE]), g_var)
        self.model.define_card(card_symbol(step.emitted[INSERT]), CostExpr.zero())
        self.model.define_card(card_symbol(step.emitted[DELETE]), CostExpr.zero())
        e_ins = CostExpr.var(card_symbol(step.emitted[INSERT]))
        e_del = CostExpr.var(card_symbol(step.emitted[DELETE]))
        e_upd = CostExpr.var(card_symbol(step.emitted[UPDATE]))
        vec = vec + lookups(e_ins) + writes(e_ins + e_del + e_upd)
        self.model.add(f"γ-recompute n{gnode.node_id}", step.phase, vec)
        self.cache_state[gnode.node_id] = "post"


def _emitted_schema(gnode: GroupBy, kind: str) -> DiffSchema:
    non_ids = tuple(c for c in gnode.columns if c not in set(gnode.keys))
    target = f"n{gnode.node_id}"
    if kind == INSERT:
        return DiffSchema(INSERT, target, gnode.keys, post_attrs=non_ids)
    if kind == DELETE:
        return DiffSchema(DELETE, target, gnode.keys, pre_attrs=non_ids)
    return DiffSchema(
        UPDATE, target, gnode.keys, pre_attrs=non_ids, post_attrs=non_ids
    )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def infer_script_cost(
    generated: object, db: Database, stats: Optional[PlanStats] = None
) -> ScriptCostModel:
    """Symbolic per-phase cost model for a :class:`GeneratedPlan`.

    *stats* is the :class:`PlanStats` of the definition this runs in;
    without one the run evaluates its own.
    Raises :class:`CostInferenceError` on constructs the walker cannot
    cost, and nothing catches it: a script that cannot be priced fails
    its definition and its lint.
    """
    return _CostWalker(generated, stats or PlanStats(db)).walk()


@dataclass(frozen=True)
class CostDeviation:
    """One COST503 finding: a measured count the model cannot explain."""

    phase: str
    metric: str
    predicted: float
    measured: float

    def render(self) -> str:
        return (
            f"{self.phase}/{self.metric}: measured {self.measured:g} > "
            f"predicted {self.predicted:g}"
        )


def reconcile_counts(
    predicted: Mapping[str, Mapping[str, float]],
    measured: Mapping[str, Mapping[str, float]],
) -> list[CostDeviation]:
    """Compare per-phase predicted vs measured counts (COST503 policy).

    One-sided: flags phases where the measured counters exceed the
    predicted upper bound beyond the per-metric tolerance.  Phases
    outside the four script phases are ignored (instance population and
    setup are not part of the ∆-script).
    """
    deviations: list[CostDeviation] = []
    for phase in SCRIPT_PHASES:
        measured_phase = measured.get(phase, {})
        predicted_phase = predicted.get(phase, {})
        for metric, (rel, abs_slack) in RECONCILE_TOLERANCES.items():
            m = float(measured_phase.get(metric, 0.0))
            p = float(predicted_phase.get(metric, 0.0))
            if m > p * (1.0 + rel) + abs_slack:
                deviations.append(CostDeviation(phase, metric, p, m))
    return deviations


def reconcile_report(report: object) -> list[CostDeviation]:
    """COST503 deviations for a finished ``MaintenanceReport`` carrying a
    ``predicted_counts`` block (empty when no prediction is attached)."""
    predicted = getattr(report, "predicted_counts", None)
    if not predicted:
        return []
    measured = {
        phase: counts.as_dict()
        for phase, counts in report.phase_counts.items()  # type: ignore[attr-defined]
        if phase in SCRIPT_PHASES
    }
    return reconcile_counts(predicted, measured)


def cost_diagnostics(report: object, analysis_report: object) -> list[CostDeviation]:
    """Append COST503 diagnostics for *report* to *analysis_report*."""
    deviations = reconcile_report(report)
    for dev in deviations:
        analysis_report.add(  # type: ignore[attr-defined]
            "COST503",
            f"phase:{dev.phase}",
            f"measured {dev.metric} {dev.measured:g} exceeds predicted "
            f"{dev.predicted:g} beyond tolerance",
            hint="the symbolic model missed an access path; see docs/COST_MODEL.md",
        )
    return deviations


def drift_diagnostics(monitor: object, analysis_report: object) -> list:
    """Append COST504 informational diagnostics for every active alert
    of a :class:`repro.obs.drift.DriftMonitor`.

    COST504 is the *chronic* counterpart of the per-round COST503 check:
    an EWMA of observed/predicted sitting outside the monitor's band
    over several rounds.  Over-prediction is the live confirmation of a
    COST502 negative-benefit cache (the model keeps charging work the
    workload never performs); under-prediction is a COST503 that
    tolerances alone didn't catch.  Informational severity: drift asks
    for model re-calibration, not a broken script.
    """
    alerts = monitor.alerts()  # type: ignore[attr-defined]
    for alert in alerts:
        analysis_report.add(  # type: ignore[attr-defined]
            "COST504",
            f"view:{alert.view}",
            alert.render(),
            hint=(
                "re-derive the cost model against current statistics; "
                "sustained over-prediction often marks a COST502 "
                "negative-benefit cache (see docs/COST_MODEL.md)"
            ),
        )
    return alerts


# ----------------------------------------------------------------------
# the one definition pipeline: which script ships, and what it costs
# ----------------------------------------------------------------------
def _margin(baseline: float) -> float:
    return max(_MARGIN_ABS, _MARGIN_REL * baseline)


def family_totals(
    model: ScriptCostModel, families: Sequence[str]
) -> dict[str, float]:
    """Predicted accesses/round with one base diff family active at the
    nominal cardinality and every other family empty."""
    out: dict[str, float] = {}
    for fam in families:
        sizes = {f: (NOMINAL_DIFF_CARD if f == fam else 0.0) for f in families}
        pred = model.predict_from_diff_sizes(sizes, (tuple(families), fam))
        out[fam] = sum(p["total"] for p in pred.values())
    return out


def dominated_by(
    current: ScriptCostModel,
    alternative: ScriptCostModel,
    families: Sequence[str],
) -> bool:
    """True when *alternative* is an unambiguous improvement: cheaper at
    the uniform working point AND no costlier in any single diff family.

    Summed totals weigh every family equally, but real workloads don't —
    a variant that wins the sum by saving on families the workload never
    produces, while losing on the one family it does, is not an
    improvement.  Requiring per-family no-regression removes that
    workload dependence from the comparison."""
    cur_total = current.total()
    alt_total = alternative.total()
    if not cur_total > alt_total + _margin(alt_total):
        return False
    cur_f = family_totals(current, families)
    alt_f = family_totals(alternative, families)
    return all(alt_f[f] <= cur_f[f] + _margin(cur_f[f]) for f in families)


def _families(generated: GeneratedPlan) -> list[str]:
    return [schema_instance_name(s) for s in generated.base_schemas]


def _alternative(
    generated: GeneratedPlan, optimize: bool, cache_policy: str, view_reuse: bool = False
) -> GeneratedPlan:
    """*generated*'s view through the generator with other knobs."""
    generator = ScriptGenerator(
        generated.view_name, generated.plan, optimize, cache_policy, view_reuse
    )
    return generator.generate(generated.base_schemas)


def define_script(
    view_name: str,
    plan: PlanNode,
    stats: PlanStats,
    optimize: bool = True,
    cache_policy: str = "equi",
    view_reuse: bool = False,
    cost_select: bool = True,
    rules: RuleSet = ID_RULES,
) -> GeneratedPlan:
    """The ∆-script a view ships and its cost model
    (``generated.cost_model``), decided once from the definition's
    *stats*: generate (:class:`ScriptGenerator`, with *rules*), price,
    and select; the analyzer's gate is :func:`lint_definition`.  A t-diff script
    (``rules.full_rows``, the tuple-based baseline) is generated only:
    the cost model and the analyzer speak of i-diff scripts.

    Selection (*cost_select*) ships the cache-free alternative only when
    it *dominates* the requested script (:func:`dominated_by`) — a
    summed-total win can hide a regression in the one diff family a
    workload produces; ties keep the requested script.  Only cache
    placement varies: un-minimizing is never an unambiguous win, the
    minimizer being strictly cheaper on the update rounds it targets."""
    generator = ScriptGenerator(view_name, plan, optimize, cache_policy, view_reuse, rules)
    generated = generator.generate(rules.base_schemas(generator.plan, stats.db))
    if rules.full_rows:
        return generated
    generated.cost_model = infer_script_cost(generated, stats.db, stats=stats)
    if cost_select and cache_policy != "never":
        candidate = _alternative(generated, optimize, "never", view_reuse)
        candidate.cost_model = infer_script_cost(candidate, stats.db, stats=stats)
        if dominated_by(generated.cost_model, candidate.cost_model, _families(generated)):
            generated = candidate
    return generated


def define_alone(label: str, plan: PlanNode, db: Database) -> tuple[GeneratedPlan, PlanStats]:
    """The script an engine would ship for *plan* over *db*
    (:func:`define_script` with the engines' defaults) and the
    :class:`PlanStats` it was decided from, outside any engine."""
    stats = PlanStats(db)
    return define_script(label, plan, stats), stats


def lint_definition(
    label: str, plan: PlanNode, db: Database
) -> tuple[GeneratedPlan, AnalysisReport]:
    """``(generated, report)`` for one view of ``repro lint``: the script
    an engine would ship (:func:`define_alone`) and the analyzer's report
    on it, both read from one :class:`PlanStats` — the lint's counterpart
    of ``MaintenanceEngine.define_view``, and the gate every shipped
    view and every fuzz case passes."""
    from . import analyze_generated  # deferred: the package imports this module

    generated, stats = define_alone(label, plan, db)
    return generated, analyze_generated(generated, db=db, stats=stats)


# ----------------------------------------------------------------------
# the pass: minimality lints
# ----------------------------------------------------------------------
def cost_pass(ctx: AnalysisContext) -> None:
    """COST501/COST502: predicted-cost minimality of the emitted script.

    Needs the full ``GeneratedPlan`` and a live database (for node
    statistics); skips silently otherwise.  Reads the model the script
    carries (a bare generator's output is priced here) and prices only
    the alternatives, from the definition's ``ctx.stats`` or one object
    of its own.  A script or alternative that cannot be priced raises.
    """
    if ctx.generated is None or ctx.db is None:
        return
    generated: GeneratedPlan = ctx.generated
    stats = ctx.stats or PlanStats(ctx.db)
    model = generated.cost_model or infer_script_cost(generated, stats.db, stats=stats)
    current = model.total()
    families = _families(generated)
    # COST501: the minimizer must never make the script costlier than
    # the unminimized form it started from.  Fires only when the
    # unminimized form dominates per diff family — a summed-total loss
    # alone may just mean the workload weighting is undecidable at
    # define time (see dominated_by).
    unopt = infer_script_cost(_alternative(generated, False, "equi"), stats.db, stats=stats)
    if dominated_by(model, unopt, families):
        ctx.report.add(
            "COST501",
            f"view:{generated.view_name}",
            f"emitted ∆-script predicts {current:.0f} accesses/round vs "
            f"{unopt.total():.0f} for the unminimized alternative, and the "
            f"alternative is no costlier in any diff family",
            hint="inspect minimize_ir: a rewrite is pessimizing this plan",
        )
    # COST502: intermediate caches must pay for their own maintenance —
    # flagged when dropping every intermediate cache dominates.
    if any(s.kind == "intermediate" for s in generated.cache_specs):
        nocache = infer_script_cost(_alternative(generated, True, "never"), stats.db, stats=stats)
        if dominated_by(model, nocache, families):
            benefit = nocache.total() - current
            for spec in generated.cache_specs:
                if spec.kind != "intermediate":
                    continue
                ctx.report.add(
                    "COST502",
                    f"cache:n{spec.node_id}",
                    f"predicted amortized benefit of the intermediate "
                    f"cache set is {benefit:.0f} accesses/round "
                    f"(cache {current:.0f} vs no-cache {nocache.total():.0f}), "
                    f"with no diff family favoring the cache",
                    hint="consider cache_policy='never' or 'fk' for this view",
                )


# ----------------------------------------------------------------------
# chain parameters for the benchmarks (paper Tables 2 and 3)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChainProfile:
    """The paper's workload parameters derived from a plan + database."""

    table: str
    fanouts: tuple[float, ...]
    selectivity: float
    a: float  #: tuple-diff probe accesses per base diff row (App. A)
    p: float  #: view rows touched per base diff row
    g: float  #: grouping compression (1.0 for SPJ views)


def estimate_chain_parameters(
    plan: PlanNode, db: Database, table: str
) -> ChainProfile:
    """Derive (a, p, g) for updates on *table* from the plan's measured
    statistics, matching the closed forms of
    :func:`repro.costmodel.model.estimate_a_for_chain` /
    :func:`estimate_p_for_chain` when the workload is a uniform chain."""
    from ..core.idinfer import annotate_plan
    from ..costmodel.model import estimate_a_for_chain, estimate_p_for_chain

    if plan.node_id == -1:
        plan = annotate_plan(plan)
    stats = PlanStats(db)
    parents: dict[int, PlanNode] = {}
    for node in plan.walk():
        for child in node.children:
            parents[child.node_id] = node
    root: PlanNode = plan
    g = 1.0
    if isinstance(plan, GroupBy):
        root = plan.child
    scan = next(
        (n for n in root.walk() if isinstance(n, Scan) and n.table == table), None
    )
    if scan is None:
        raise CostInferenceError(f"no scan of {table!r} under the SPJ root")
    fanouts: list[float] = []
    selectivity = 1.0
    current: PlanNode = scan
    while current.node_id != root.node_id:
        parent = parents.get(current.node_id)
        if parent is None:
            break
        if isinstance(parent, Join):
            other = parent.right if parent.left.node_id == current.node_id else parent.left
            pairs, _res = equi_join_pairs(
                parent.condition, parent.left.columns, parent.right.columns
            )
            if parent.left.node_id == current.node_id:
                attrs = tuple(b for _, b in pairs)
            else:
                attrs = tuple(a for a, _ in pairs)
            fanouts.append(stats.fanout(other, attrs))
        elif isinstance(parent, Select):
            n_child = stats.n(current)
            selectivity *= stats.n(parent) / n_child if n_child else 1.0
        elif isinstance(parent, (Project, GroupBy)):
            pass
        else:
            raise CostInferenceError(
                f"chain climb through {parent.label()!r} unsupported"
            )
        current = parent
    if isinstance(plan, GroupBy):
        key = db.table(table).schema.key
        child_cols = set(plan.child.columns)
        id_cols = tuple(c for c in key if c in child_cols)
        if id_cols:
            g = stats.grouping_compression(plan.child, id_cols, plan.keys)
    a = estimate_a_for_chain(fanouts) if fanouts else 1.0
    p = estimate_p_for_chain(fanouts, selectivity) if fanouts else selectivity
    return ChainProfile(
        table=table,
        fanouts=tuple(fanouts),
        selectivity=selectivity,
        a=a,
        p=p,
        g=g,
    )
