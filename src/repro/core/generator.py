"""The ∆-script generator — the paper's Section 4 four-pass algorithm.

Pass 1  ID inference (:mod:`repro.core.idinfer`).
Pass 2  Rule instantiation: for every base-table i-diff schema, climb the
        plan from the matching scan operators, instantiating each
        operator's propagation rules (:mod:`repro.core.rules`).
Pass 3  Composition: the instantiated rules become named
        :class:`ComputeDiffStep`s; blocking aggregate operators collect
        all incoming branches and compile into cache-apply +
        aggregate-step sequences (Figures 6 and 7); final branches become
        APPLY steps against the view, canonically ordered − / u / +.
Pass 4  Semantic minimization (:mod:`repro.core.minimize`) plus dead-step
        elimination.

Cache placement (Section 4 + footnote 6): one intermediate cache is
attempted below every aggregate operator — skipped when the subtree risks
multi-valued dependencies (a join that is not a key-join on either side)
or when the input is a bare scan; the aggregate's output is materialized
too, with the view itself serving at the root (Example 4.6).

The rules are a parameter (:class:`RuleSet`): the paper's i-diff rules
(:data:`ID_RULES`) by default, and its Section 7 baseline — "idIVM with
tuple-based diff propagation rules" — is this generator with the t-diff
rules of :mod:`repro.core.rules.tdiff`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from ..algebra.plan import (
    ASSOCIATIVE_AGGS,
    AntiJoin,
    GroupBy,
    Join,
    PlanNode,
    Project,
    Scan,
    SemiJoin,
    Select,
    UnionAll,
    base_tables,
)
from ..expr import Col
from ..errors import RuleError
from ..expr import equi_join_pairs
from .diffs import DELETE, INSERT, UPDATE, DiffSchema
from .idinfer import annotate_plan
from .ir import DiffSource, IrNode, OutputHint, ProbeJoin
from .minimize import minimize_ir
from .modlog import schema_instance_name
from .rules.aggregate import (
    AssociativeAggregateStep,
    GeneralAggregateStep,
    OpCacheSpec,
)
from .rules.antijoin import propagate_antijoin
from .rules.base import full_schemas, target_name
from .rules.join import propagate_join
from .rules.project import propagate_project
from .rules.select import propagate_select
from .rules.semijoin import propagate_semijoin
from .rules.union import propagate_union
from .schema_gen import generate_base_schemas
from .script import (
    PHASE_CACHE_DIFF,
    PHASE_CACHE_UPDATE,
    PHASE_VIEW_DIFF,
    PHASE_VIEW_UPDATE,
    ApplyDiffStep,
    ComputeDiffStep,
    DeltaScript,
    MarkCacheUpdatedStep,
    Step,
)

_KIND_ORDER = {DELETE: 0, UPDATE: 1, INSERT: 2}


@dataclass
class CacheSpec:
    """A materialization the engine must create at view-definition time."""

    node_id: int
    name: str
    kind: str  # "intermediate" (below γ) or "output" (a non-root γ)


@dataclass
class GeneratedPlan:
    """Everything produced at view-definition time for one view."""

    view_name: str
    plan: PlanNode
    script: DeltaScript
    base_schemas: list[DiffSchema]
    cache_specs: list[CacheSpec] = field(default_factory=list)
    opcache_specs: list[OpCacheSpec] = field(default_factory=list)
    #: Force maintenance rounds onto this anchor table even when the
    #: router's proof fails (``repro.shard.router.force_route``).  Exists
    #: for ablation studies and race-detector fixtures; the interference
    #: analysis pass verifies forced routes instead of the router's.
    route_override: Optional[str] = None
    #: the script's symbolic cost model (``repro.costmodel.ScriptCostModel``),
    #: computed once by the definition pipeline that priced and selected
    #: it (``repro.analysis.cost.define_script``); None when it could not
    #: be inferred or nothing priced the script.
    cost_model: Optional[object] = None


class RuleSet(NamedTuple):
    """What Passes 2–3 build a view's ∆-script from: the base-table diff
    schemas (Section 5), the rules of the row-wise operators and the
    blocking steps of the others."""

    #: ``base_schemas(plan, db)``: the base-table diff schemas
    base_schemas: Callable
    #: ``instantiate(op, source, schema, side)``: ``[(schema, ir)]`` of a
    #: row-wise operator's rules for one input diff
    instantiate: Callable
    #: operator type -> ``step(op, inputs, prefix, phase)``, the blocking
    #: step of an operator besides γ that collects every input diff
    #: (``(name, side)`` pairs) first
    blocking: Mapping = {}
    #: the diffs carry full rows (t-diffs): γ reads its changes off them,
    #: and its output materializations are written, never read — no cache
    #: (Section 6.2), so no cache phase and no cost model
    full_rows: bool = False


def _instantiate(
    op: PlanNode, source: DiffSource, schema: DiffSchema, side: int
) -> list[tuple[DiffSchema, IrNode]]:
    """Pass 2: select and instantiate the operator's rules."""
    if isinstance(op, Select):
        return propagate_select(op, source, schema)
    if isinstance(op, Project):
        return propagate_project(op, source, schema)
    if isinstance(op, Join):
        return propagate_join(op, source, schema, side)
    if isinstance(op, UnionAll):
        return propagate_union(op, source, schema, side)
    if isinstance(op, AntiJoin):
        return propagate_antijoin(op, source, schema, side)
    if isinstance(op, SemiJoin):
        return propagate_semijoin(op, source, schema, side)
    raise RuleError(f"no propagation rules for operator {op.label()!r}")


#: The paper's ID-based rules.
ID_RULES = RuleSet(generate_base_schemas, _instantiate)


#: Cache-placement policies (paper Section 4, footnote 6).  The paper
#: skips intermediate caches when foreign keys cannot rule out
#: multi-valued dependencies.  Under a pure access-count cost model a
#: selective cache probe beats recomputation even through an M:N join
#: (only blow-ups without selective bindings — cross products and pure
#: theta joins — lose), so the default policy only refuses those; the
#: strict key-join variant is kept for ablation
#: (benchmarks/bench_ablation_cache_policy.py).
CACHE_POLICIES = ("equi", "fk", "never")


def has_mvd_risk(node: PlanNode, policy: str = "equi") -> bool:
    """True when materializing *node* is expected to be counterproductive.

    * ``"equi"`` (default): risky only for cross products and joins with
      no equi conjunct (no selective probe path into the cache).
    * ``"fk"``: the paper's stricter reading — additionally risky when a
      join is many-to-many, i.e. neither side is equi-joined on a
      superset of its own IDs.
    * ``"never"``: everything is deemed risky (no intermediate caches).
    """
    if policy not in CACHE_POLICIES:
        raise RuleError(f"unknown cache policy {policy!r}; have {CACHE_POLICIES}")
    if policy == "never":
        return True
    for n in node.walk():
        if isinstance(n, Join):
            if n.condition is None:
                return True
            pairs, _ = equi_join_pairs(n.condition, n.left.columns, n.right.columns)
            if not pairs:
                return True
            if policy == "fk":
                left_cols = {l for l, _ in pairs}
                right_cols = {r for _, r in pairs}
                left_keyed = set(n.left.ids) <= left_cols
                right_keyed = set(n.right.ids) <= right_cols
                if not (left_keyed or right_keyed):
                    return True
    return False


class ScriptGenerator:
    """Generates a :class:`GeneratedPlan` for one view definition: Passes
    1–4 and nothing else — pricing, cost selection and the strict
    analyzer gate are the definition pipeline's
    (``repro.analysis.cost.define_script``)."""

    def __init__(
        self,
        view_name: str,
        plan: PlanNode,
        optimize: bool = True,
        cache_policy: str = "equi",
        view_reuse: bool = False,
        rules: RuleSet = ID_RULES,
    ):
        self.view_name = view_name
        self.plan = annotate_plan(plan)
        self.optimize = optimize
        self.cache_policy = cache_policy
        self.view_reuse = view_reuse
        self.rules = rules
        self._parents: dict[int, tuple[PlanNode, int]] = {}
        for node in self.plan.walk():
            for side, child in enumerate(node.children):
                self._parents[child.node_id] = (node, side)
        self._steps: list[Step] = []
        self._finals: list[tuple[str, DiffSchema]] = []
        #: blocking node id -> the ``(name, schema, side)`` diffs parked there
        self._parked: dict[int, list[tuple[str, DiffSchema, int]]] = {}
        self._counter = 0
        self.cache_specs: list[CacheSpec] = []
        self.opcache_specs: list[OpCacheSpec] = []
        self._cached_nodes: set[int] = set()
        self._place_caches()

    # ------------------------------------------------------------------
    def _place_caches(self) -> None:
        self._cached_nodes.add(self.plan.node_id)  # the view itself
        for node in self.plan.walk():
            if not isinstance(node, GroupBy):
                continue
            # Output materialization (the view doubles as it at the root).
            if node.node_id != self.plan.node_id:
                self.cache_specs.append(
                    CacheSpec(node.node_id, f"{self.view_name}__out_n{node.node_id}", "output")
                )
                if not self.rules.full_rows:
                    self._cached_nodes.add(node.node_id)
            # Operator cache (group bookkeeping) for the delta path.
            # Only the associative step consults it; the general
            # (min/max) step recomputes groups and would leave the
            # bookkeeping to rot.
            if all(a.func in ASSOCIATIVE_AGGS for a in node.aggs):
                self.opcache_specs.append(
                    OpCacheSpec(node, f"{self.view_name}__opc_n{node.node_id}")
                )
            # Intermediate cache below the aggregate (footnote 6).
            child = node.child
            if (
                not isinstance(child, Scan)
                and child.node_id not in self._cached_nodes
                and not has_mvd_risk(child, self.cache_policy)
            ):
                self.cache_specs.append(
                    CacheSpec(child.node_id, f"{self.view_name}__in_n{child.node_id}", "intermediate")
                )
                self._cached_nodes.add(child.node_id)

    # ------------------------------------------------------------------
    def generate(self, base_schemas: Sequence[DiffSchema]) -> GeneratedPlan:
        """Run Passes 2-4 for the given base i-diff schemas."""
        base_schemas = list(base_schemas)
        for schema in base_schemas:
            for scan in self.plan.walk():
                if isinstance(scan, Scan) and scan.table == schema.target:
                    branch_schema = schema.rename_target(target_name(scan))
                    self._climb(scan, schema_instance_name(schema), branch_schema)
        self._process_parked()
        self._emit_view_applies()
        if self.optimize:
            self._minimize()
        if self.view_reuse:
            self._attach_view_reuse_hints()
        return GeneratedPlan(
            view_name=self.view_name,
            plan=self.plan,
            script=DeltaScript(self._steps, self.plan.node_id),
            base_schemas=base_schemas,
            cache_specs=self.cache_specs,
            opcache_specs=self.opcache_specs,
        )

    # ------------------------------------------------------------------
    def _fresh(self, hint: str) -> str:
        self._counter += 1
        return f"d{self._counter}_{hint}"

    def _climb(self, node: PlanNode, name: str, schema: DiffSchema) -> None:
        """Propagate the named diff upward from *node* (Pass 2 + 3)."""
        if node.node_id == self.plan.node_id:
            self._finals.append((name, schema))
            return
        parent, side = self._parents[node.node_id]
        if isinstance(parent, GroupBy) or type(parent) in self.rules.blocking:
            self._parked.setdefault(parent.node_id, []).append((name, schema, side))
            return
        source = DiffSource(name, schema)
        outputs = self.rules.instantiate(parent, source, schema, side)
        phase = self._diff_phase(parent)
        for out_schema, ir in outputs:
            out_name = self._fresh(f"{out_schema.kind_label()}_{target_name(parent)}")
            self._steps.append(ComputeDiffStep(out_name, out_schema, ir, phase))
            self._climb(parent, out_name, out_schema)

    def _under_cache(self, node: PlanNode) -> bool:
        """True when *node*'s diffs feed a cache rather than the view."""
        current: Optional[PlanNode] = node
        while current is not None and current.node_id != self.plan.node_id:
            if current.node_id in self._cached_nodes:
                return True
            parent = self._parents.get(current.node_id)
            current = parent[0] if parent else None
        return False

    def _diff_phase(self, node: PlanNode) -> str:
        return PHASE_CACHE_DIFF if self._under_cache(node) else PHASE_VIEW_DIFF

    # ------------------------------------------------------------------
    def _process_parked(self) -> None:
        depths = {node.node_id: depth for depth, node in _with_depths(self.plan)}
        while self._parked:
            # Deepest parked operator first: its emissions may park at a
            # shallower one.
            nid = max(self._parked, key=lambda n: depths[n])
            branches = self._parked.pop(nid)
            node = _node_by_id(self.plan, nid)
            if isinstance(node, GroupBy):
                self._compile_aggregate(node, branches)
                continue
            prefix = self._fresh(f"t_{target_name(node)}")
            step = self.rules.blocking[type(node)](
                node, [(name, side) for name, _, side in branches], prefix,
                self._diff_phase(node),
            )
            self._steps.append(step)
            self._climb_emitted(node, step.emitted)

    def _climb_emitted(self, node: PlanNode, emitted: dict[str, str]) -> None:
        """Continue climbing from a blocking *node* with the (exact, full)
        diffs its step emits."""
        schemas = full_schemas(node)
        for kind, name in emitted.items():
            self._climb(node, name, schemas[kind])

    def _compile_aggregate(
        self, gnode: GroupBy, branches: list[tuple[str, DiffSchema, int]]
    ) -> None:
        child = gnode.child
        child_cached = any(s.node_id == child.node_id for s in self.cache_specs)
        inputs: list[tuple[str, str]] = []
        if child_cached:
            ordered = sorted(branches, key=lambda b: _KIND_ORDER[b[1].kind])
            for name, _schema, _side in ordered:
                ret = f"ret_{name}"
                self._steps.append(
                    ApplyDiffStep(
                        name,
                        child.node_id,
                        f"cache[n{child.node_id}]",
                        PHASE_CACHE_UPDATE,
                        returning_name=ret,
                    )
                )
                inputs.append(("expansion", ret))
            self._steps.append(
                MarkCacheUpdatedStep(child.node_id, f"cache[n{child.node_id}]")
            )
        else:
            # Same − / u / + discipline as the cache-APPLY sequence: the
            # collector's overlay replays sequential-apply semantics, so
            # branch order must match what the cached path would do.
            ordered = sorted(branches, key=lambda b: _KIND_ORDER[b[1].kind])
            inputs = [("diff", name) for name, _, _ in ordered]
        phase = PHASE_CACHE_UPDATE if self._under_cache(gnode) else PHASE_VIEW_UPDATE
        prefix = self._fresh(f"agg_n{gnode.node_id}")
        full_rows = self.rules.full_rows
        ids = {name: schema.id_attrs for name, schema, _ in branches}
        if all(a.func in ASSOCIATIVE_AGGS for a in gnode.aggs):
            opcache = next(
                s for s in self.opcache_specs if s.gnode.node_id == gnode.node_id
            )
            step: Step = AssociativeAggregateStep(
                gnode, inputs, opcache.name, prefix, phase, full_rows, ids
            )
        else:
            step = GeneralAggregateStep(gnode, inputs, prefix, phase, full_rows, ids)
        self._steps.append(step)
        if gnode.node_id != self.plan.node_id:
            self._climb_emitted(gnode, step.emitted)

    # ------------------------------------------------------------------
    def _emit_view_applies(self) -> None:
        ordered = sorted(self._finals, key=lambda b: _KIND_ORDER[b[1].kind])
        for name, _schema in ordered:
            self._steps.append(
                ApplyDiffStep(
                    name,
                    self.plan.node_id,
                    f"view[{self.view_name}]",
                    PHASE_VIEW_UPDATE,
                )
            )

    # ------------------------------------------------------------------
    def _minimize(self) -> None:
        """Pass 4: minimize each query; drop provably-empty steps."""
        from .ir import Empty

        # Iterate: minimizing may prove diffs empty, which empties their
        # downstream references in turn.
        empty_names: set[str] = set()
        changed = True
        while changed:
            changed = False
            for step in self._steps:
                if not isinstance(step, ComputeDiffStep):
                    continue
                ir = _substitute_empty(step.ir, empty_names)
                ir = minimize_ir(ir)
                step.ir = ir
                if isinstance(ir, Empty) and step.name not in empty_names:
                    empty_names.add(step.name)
                    changed = True
        # Dropping an APPLY also drops its RETURNING expansion, so any
        # blocking step's input that consumed it must be pruned too.
        dead_expansions = {
            step.returning_name
            for step in self._steps
            if isinstance(step, ApplyDiffStep)
            and step.diff_name in empty_names
            and step.returning_name is not None
        }
        live_steps: list[Step] = []
        for step in self._steps:
            if isinstance(step, ComputeDiffStep) and step.name in empty_names:
                continue
            if isinstance(step, ApplyDiffStep) and step.diff_name in empty_names:
                continue
            if hasattr(step, "inputs"):  # a blocking step
                step.inputs = [
                    (k, n)
                    for k, n in step.inputs
                    if not (k == "diff" and n in empty_names)
                    and not (k == "expansion" and n in dead_expansions)
                ]
            live_steps.append(step)
        self._steps = live_steps


    # ------------------------------------------------------------------
    def _attach_view_reuse_hints(self) -> None:
        """Section 9 extension: annotate POST probes whose target is fully
        exposed by an ancestor materialization, so the executor can
        answer them from the view/cache when the target's base tables are
        untouched in a batch (with per-value fallback)."""
        for step in self._steps:
            if not isinstance(step, ComputeDiffStep):
                continue
            for ir_node in step.ir.walk():
                if not isinstance(ir_node, ProbeJoin) or ir_node.state != "post":
                    continue
                if not ir_node.on:
                    continue
                on_cols = {b for _, b in ir_node.on}
                if not set(ir_node.node.ids) <= on_cols:
                    continue  # multi-match probes cannot use hit-or-fallback
                hint = self._find_output_hint(ir_node.node)
                if hint is not None:
                    ir_node.via_output = hint

    def _find_output_hint(self, target: PlanNode) -> Optional[OutputHint]:
        """Nearest strict-ancestor materialization exposing every column
        of *target* as a bare passthrough, with the column mapping."""
        mapping = {c: c for c in target.columns}
        current = target
        while True:
            parent_info = self._parents.get(current.node_id)
            if current is not target and current.node_id in self._cached_nodes:
                guard = tuple(sorted(base_tables(target)))
                return OutputHint(current.node_id, mapping, guard)
            if parent_info is None:
                return None
            parent, side = parent_info
            if isinstance(parent, (Select, Join)):
                pass  # column names survive unchanged
            elif isinstance(parent, Project):
                passthrough: dict[str, str] = {}
                for name, expr in parent.items:
                    if isinstance(expr, Col):
                        passthrough.setdefault(expr.name, name)
                new_mapping = {}
                for t_col, current_name in mapping.items():
                    if current_name not in passthrough:
                        return None
                    new_mapping[t_col] = passthrough[current_name]
                mapping = new_mapping
            elif isinstance(parent, (AntiJoin, SemiJoin)):
                if side != 0:
                    return None  # right input does not reach the output
            else:  # GroupBy drops columns; UnionAll mixes branches
                return None
            current = parent


def _substitute_empty(node: IrNode, empty_names: set[str]) -> IrNode:
    from .ir import (
        Compute,
        Distinct,
        Empty,
        Filter,
        GroupAgg,
        ProbeJoin,
        ProbeSemi,
        UnionRows,
    )

    if isinstance(node, DiffSource):
        if node.name in empty_names:
            return Empty(node.columns)
        return node
    if isinstance(node, Filter):
        return Filter(_substitute_empty(node.child, empty_names), node.predicate)
    if isinstance(node, Compute):
        return Compute(_substitute_empty(node.child, empty_names), node.items)
    if isinstance(node, Distinct):
        return Distinct(_substitute_empty(node.child, empty_names))
    if isinstance(node, UnionRows):
        return UnionRows([_substitute_empty(p, empty_names) for p in node.parts])
    if isinstance(node, GroupAgg):
        return GroupAgg(
            _substitute_empty(node.child, empty_names), node.keys, node.aggs
        )
    if isinstance(node, ProbeJoin):
        return ProbeJoin(
            _substitute_empty(node.left, empty_names),
            node.node,
            node.state,
            node.on,
            node.keep,
            node.residual,
        )
    if isinstance(node, ProbeSemi):
        return ProbeSemi(
            _substitute_empty(node.left, empty_names),
            node.node,
            node.state,
            node.on,
            node.residual,
            node.negated,
        )
    return node


def _with_depths(root: PlanNode, depth: int = 0):
    yield depth, root
    for child in root.children:
        yield from _with_depths(child, depth + 1)


def _node_by_id(root: PlanNode, node_id: int) -> PlanNode:
    for node in root.walk():
        if node.node_id == node_id:
            return node
    raise RuleError(f"no node {node_id}")
