"""Pass 3: ∆-script IR checker (rules SC3xx).

Walks the script in execution order computing per-step read/write sets
(diff names, RETURNING expansions, cache states) and checks the
hazards the executor cannot or does not police:

* SC301 — a step reads a diff or expansion no earlier step defines
  (base-table instances count as defined at round start).
* SC302 — write-before-read on a cache: a ``pre``-state subview read of
  cache X placed *after* X's first APPLY but *before* X's
  MarkCacheUpdated.  The cache still answers pre-state reads in that
  window, but its content is mid-update — neither pre nor post.
  (Post-state reads before the mark recompute from the post database
  and are safe.)
* SC304 — an APPLY to a cache already marked post-state: the diff was
  computed against the pre-state and re-applying it double-counts.
* SC305 — a RETURNING expansion no later step consumes (dead expansion:
  the APPLY pays for capture nobody reads).
* SC306 — cache placement over a non-associative aggregate: an
  :class:`AssociativeAggregateStep` or an operator cache on a γ with
  min/max, whose deltas are not invertible from the cache bookkeeping.
* SC307 — a NULL-unsafe equi key: a probe ``on`` column that may be
  NULL.  The executor's index probe matches NULL to NULL (Python dict
  semantics) while 3VL join semantics never match NULL — silent
  divergence on exactly the rows carrying NULL keys.
* RACE604 — a counted writer (an APPLY or a γ step) declares it writes
  (``Step.writes()``) a table no cache/op-cache spec of the
  :class:`GeneratedPlan` registers, so its
  writes bypass the view-round's write journal
  (``Table.begin_journal``): a failed round would not roll them back,
  and a process-backend replica replay would silently diverge.  It is a
  property of the plan alone, whatever the round's route; it needs no
  database.
"""

from __future__ import annotations

from ..algebra.plan import ASSOCIATIVE_AGGS
from ..core.ir import (
    AppliedSource,
    DiffSource,
    ProbeJoin,
    ProbeSemi,
    pre_state_reads,
)
from ..core.rules.aggregate import (
    AssociativeAggregateStep,
    GeneralAggregateStep,
)
from ..core.script import ApplyDiffStep, ComputeDiffStep, MarkCacheUpdatedStep
from ..core.modlog import schema_instance_name
from .registry import AnalysisContext
from .typecheck import ir_column_facts


def script_pass(ctx: AnalysisContext) -> None:
    if ctx.script is None:
        return
    report = ctx.report
    script = ctx.script
    view_node_id = script.view_node_id

    # SC306 on the placement itself (specs exist even before any step).
    generated = ctx.generated
    if generated is not None:
        _check_journal_coverage(generated, script, report)
        for spec in getattr(generated, "opcache_specs", ()):
            bad = [a.func for a in spec.gnode.aggs if a.func not in ASSOCIATIVE_AGGS]
            if bad:
                report.add(
                    "SC306",
                    f"opcache {spec.name} (n{spec.gnode.node_id})",
                    f"operator cache placed over non-associative "
                    f"aggregate(s) {bad}: deltas cannot be applied "
                    f"incrementally from the bookkeeping",
                    hint="min/max require the general recompute rule",
                )

    defined = {schema_instance_name(s) for s in ctx.base_schemas}
    expansions_defined: dict[str, int] = {}  # name -> defining step index
    expansions_consumed: set[str] = set()
    applies_started: set[int] = set()
    marked: set[int] = set()
    expansion_targets: dict[str, int] = {}

    for i, step in enumerate(script.steps, start=1):
        where = f"step {i}"
        if isinstance(step, ComputeDiffStep):
            where = f"step {i} ({step.name})"
            for node in step.ir.walk():
                if isinstance(node, DiffSource) and node.name not in defined:
                    report.add(
                        "SC301",
                        where,
                        f"reads diff {node.name!r} before any step defines it",
                    )
                elif isinstance(node, AppliedSource):
                    if node.apply_name not in expansions_defined:
                        report.add(
                            "SC301",
                            where,
                            f"reads expansion {node.apply_name!r} before the "
                            f"APPLY that captures it",
                        )
                    else:
                        expansions_consumed.add(node.apply_name)
                elif isinstance(node, (ProbeJoin, ProbeSemi)):
                    _check_probe_keys(node, ctx, expansion_targets, where, report)
            for read in pre_state_reads(step.ir):
                target = read.node.node_id
                if target in applies_started and target not in marked:
                    report.add(
                        "SC302",
                        where,
                        f"pre-state read of cache n{target} while its "
                        f"update is in flight (applied but not yet "
                        f"marked): the read sees mid-update content",
                        hint="move the read before the first APPLY or "
                        "after the MarkCacheUpdated",
                    )
            defined.add(step.name)
        elif isinstance(step, ApplyDiffStep):
            where = f"step {i} (APPLY {step.diff_name})"
            if step.diff_name not in defined:
                report.add(
                    "SC301",
                    where,
                    f"applies diff {step.diff_name!r} before any step "
                    f"defines it",
                )
            target = step.target_node_id
            if target in marked and target != view_node_id:
                report.add(
                    "SC304",
                    where,
                    f"applies to cache n{target} after it was marked "
                    f"post-state: the diff was computed against the "
                    f"pre-state and double-counts",
                )
            applies_started.add(target)
            if step.returning_name is not None:
                expansions_defined[step.returning_name] = i
                expansion_targets[step.returning_name] = target
        elif isinstance(step, MarkCacheUpdatedStep):
            marked.add(step.node_id)
        elif isinstance(step, (AssociativeAggregateStep, GeneralAggregateStep)):
            where = f"step {i} (γ n{step.gnode.node_id})"
            if isinstance(step, AssociativeAggregateStep):
                bad = [
                    a.func
                    for a in step.gnode.aggs
                    if a.func not in ASSOCIATIVE_AGGS
                ]
                if bad:
                    report.add(
                        "SC306",
                        where,
                        f"associative delta step compiled for "
                        f"non-associative aggregate(s) {bad}",
                        hint="route min/max through GeneralAggregateStep",
                    )
            for kind, name in step.inputs:
                if kind == "expansion":
                    if name not in expansions_defined:
                        report.add(
                            "SC301",
                            where,
                            f"consumes expansion {name!r} before the APPLY "
                            f"that captures it",
                        )
                    else:
                        expansions_consumed.add(name)
                elif name not in defined:
                    report.add(
                        "SC301",
                        where,
                        f"consumes diff {name!r} before any step defines it",
                    )
            # The step applies to and marks its own output materialization.
            applies_started.add(step.gnode.node_id)
            marked.add(step.gnode.node_id)
            defined.update(step.emitted.values())

    for name, step_index in expansions_defined.items():
        if name not in expansions_consumed:
            report.add(
                "SC305",
                f"step {step_index}",
                f"RETURNING expansion {name!r} is captured but never "
                f"consumed",
                hint="drop the RETURNING clause or the whole capture",
            )


def _check_probe_keys(node, ctx, expansion_targets, where, report) -> None:
    """SC307 over a probe's ``on`` pairs, using the inferred facts."""
    from .typecheck import plan_column_facts

    left_facts = ir_column_facts(node.left, ctx.plan, expansion_targets)
    sub_facts = plan_column_facts(node.node)
    for lcol, sub_col in node.on:
        nullable_sides = []
        if left_facts.get(lcol) is not None and left_facts[lcol].nullable:
            nullable_sides.append(lcol)
        if sub_facts.get(sub_col) is not None and sub_facts[sub_col].nullable:
            nullable_sides.append(f"n{node.node.node_id}.{sub_col}")
        if nullable_sides:
            report.add(
                "SC307",
                where,
                f"probe of n{node.node.node_id} binds on nullable "
                f"column(s) {nullable_sides}: the index probe matches "
                f"NULL=NULL where 3VL join semantics never do",
                hint="declare the column NOT NULL or join on a key column",
            )


def _check_journal_coverage(generated, script, report) -> None:
    """RACE604: every table a counted writer declares (``Step.writes()``:
    an APPLY its target, a γ step its output and operator cache) is a
    registered materialization — what a view-round journals."""
    registered = {
        "cache": {script.view_node_id}
        | {spec.node_id for spec in getattr(generated, "cache_specs", ())},
        "opcache": {spec.gnode.node_id for spec in getattr(generated, "opcache_specs", ())},
    }
    spec_of = {"cache": "cache spec", "opcache": "op-cache spec"}
    hint = (
        "register the materialization in the GeneratedPlan's cache/"
        "op-cache specs so tagged_tables() journals it"
    )
    for index, step in enumerate(script.steps, start=1):
        for kind, node_id in step.writes() or ():
            if node_id not in registered[kind]:
                report.add(
                    "RACE604",
                    f"step {index} ({step.describe().splitlines()[0]})",
                    f"{type(step).__name__} writes {kind} n{node_id}, which no "
                    f"{spec_of[kind]} registers: its counted writes bypass "
                    f"the view-round's write journal, so neither a rollback "
                    f"nor replica replay sees them",
                    hint=hint,
                )
