"""Pass 6: shard interference analysis (rules RACE6xx).

The shard router (:mod:`repro.shard.router`) *claims* that a parallel
round's per-shard reads and writes are pairwise disjoint; the engine and
the process-backend write-set merge rely on that claim without checking
it.  This pass re-proves it as an independent footprint analysis: per
maintenance round shape (each base i-diff family alone, plus the mixed
all-families round), it derives the symbolic read/write footprint of
every ∆-script statement from the router's anchor-key provenance
(:class:`~repro.shard.router.ProvenanceTracker`) and checks pairwise
shard-disjointness of the write footprints.

A *footprint* here is "which keys of which materialized table can this
statement touch, as a function of the shard's instance rows".  A write
is **anchored** when the written keys provably carry the anchor key
values (APPLY: provenance ⊆ the diff's ID attributes; associative γ:
provenance ⊆ the group keys for every active input) — rows on different
shards then differ in those key components, so the per-shard write sets
are disjoint.  Broadcast rounds execute serially and are skipped.

Rules:

* RACE601 (error) — a write footprint is not anchored: two shards can
  write the same (table, key).
* RACE602 (error) — a statement reads a table that is also written in
  the same round, through bindings that do not carry the anchor: the
  read can observe another shard's uncommitted write.
* RACE603 (warning) — broadcast-window hazard: a non-anchored writer
  targets state that some other statement of the round reads; even when
  the replicated writes are value-identical, a routed reader can observe
  the window between another shard's write and its own.
* RACE604 (error) — a counted writer targets a table that is not
  registered as a cache/op-cache of the view, so its writes bypass the
  view-round's write journal (``Table.begin_journal``): a failed round
  would not roll them back, and a process-backend replica replay would
  silently diverge.

On router-approved routes the pass is expected to stay silent — any
RACE6xx finding means either a router regression or a *forced* route
(``GeneratedPlan.route_override``, the mis-route fixture knob); both
detectors — this pass and the engine's dynamic ``race_check`` — must
agree on such fixtures.

Needs a database (for foreign keys / anchor keys); RACE604 only needs
the :class:`GeneratedPlan`.
"""

from __future__ import annotations

from typing import Optional

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
from ..core.script import ApplyDiffStep, ComputeDiffStep, DeltaScript
from ..expr import Col
from ..shard.router import (
    ProvenanceTracker,
    RoutePlan,
    _WILD,
    force_route,
    plan_route,
)
from .diagnostics import AnalysisReport
from .registry import AnalysisContext, register_pass
from .shard_check import _dummy_instances


class _Access:
    """One symbolic footprint entry: a statement touching a table."""

    __slots__ = ("step", "anchored", "detail")

    def __init__(self, step: int, anchored: bool, detail: str):
        self.step = step
        self.anchored = anchored
        self.detail = detail


class _TableNames:
    """Display names for the write targets (tags match the write-set tags
    of :func:`repro.core.engine.tagged_tables`)."""

    def __init__(self, generated, script: DeltaScript):
        self.view_node_id = script.view_node_id
        self.cache_names: dict[int, str] = {}
        self.opcache_names: dict[int, str] = {}
        if generated is not None:
            view_name = getattr(generated, "view_name", "view")
            self.cache_names[script.view_node_id] = view_name
            for spec in getattr(generated, "cache_specs", ()):
                self.cache_names[spec.node_id] = spec.name
            for spec in getattr(generated, "opcache_specs", ()):
                self.opcache_names[spec.gnode.node_id] = spec.name

    def cache(self, node_id: int) -> str:
        name = self.cache_names.get(node_id)
        return f"c{node_id}" + (f" ({name})" if name else "")

    def opcache(self, node_id: int) -> str:
        name = self.opcache_names.get(node_id)
        return f"o{node_id}" + (f" ({name})" if name else "")

    def cached(self, node_id: int) -> bool:
        return node_id in self.cache_names


# ----------------------------------------------------------------------
# IR footprint walk (mirrors router._analyze_ir, but collects reads and
# never vetoes)
# ----------------------------------------------------------------------
def _scan_ir(
    node: IrNode,
    tracker: ProvenanceTracker,
    reads: list[tuple[int, bool, str]],
) -> tuple[bool, object]:
    """(statically-empty, provenance) of *node*; appends subview reads
    as (plan node id, anchored, detail)."""
    if isinstance(node, DiffSource):
        return tracker.empty(node.name), tracker.prov(node.name)
    if isinstance(node, Empty):
        return True, _WILD
    if isinstance(node, SubviewSource):
        reads.append((node.node.node_id, False, "standalone subview scan"))
        return False, None
    if isinstance(node, AppliedSource):
        record = tracker.expansion(node.apply_name)
        if record is None:
            return False, None
        empty, prov = record
        if empty:
            return True, _WILD
        if isinstance(prov, dict) and all(c in node.key for c in prov.values()):
            return False, dict(prov)
        return False, None
    if isinstance(node, (Filter, Distinct)):
        return _scan_ir(node.child, tracker, reads)
    if isinstance(node, Compute):
        empty, prov = _scan_ir(node.child, tracker, reads)
        if empty:
            return True, _WILD
        if not isinstance(prov, dict):
            return False, None
        passthrough: dict[str, str] = {}
        for out_name, expr in node.items:
            if isinstance(expr, Col):
                passthrough.setdefault(expr.name, out_name)
        mapped = {}
        for k, c in prov.items():
            if c not in passthrough:
                return False, None
            mapped[k] = passthrough[c]
        return False, mapped
    if isinstance(node, UnionRows):
        parts = [_scan_ir(p, tracker, reads) for p in node.parts]
        live = [p for p in parts if not p[0]]
        if not live:
            return True, _WILD
        first = live[0][1]
        if isinstance(first, dict) and all(p[1] == first for p in live[1:]):
            return False, dict(first)
        return False, None
    if isinstance(node, GroupAgg):
        empty, prov = _scan_ir(node.child, tracker, reads)
        if empty:
            return True, _WILD
        if isinstance(prov, dict) and all(c in node.keys for c in prov.values()):
            return False, dict(prov)
        return False, None
    if isinstance(node, (ProbeJoin, ProbeSemi)):
        empty, prov = _scan_ir(node.left, tracker, reads)
        if empty:
            # Probes short-circuit on an empty left input: no read at all.
            return True, _WILD
        on_left = {lcol for lcol, _ in node.on}
        anchored = isinstance(prov, dict) and set(prov.values()) <= on_left
        reads.append(
            (
                node.node.node_id,
                anchored,
                f"probe bound on {sorted(on_left)}",
            )
        )
        if isinstance(prov, dict):
            return False, dict(prov)
        return False, None
    return False, None


# ----------------------------------------------------------------------
# per-round-shape footprint check
# ----------------------------------------------------------------------
def check_round(
    script: DeltaScript,
    instances: dict,
    db,
    route: RoutePlan,
    generated,
    report: AnalysisReport,
    shape: str,
    _seen: Optional[set] = None,
) -> None:
    """Verify one parallel route claim: derive every statement's
    read/write footprint under *route*'s anchor and report RACE601/602/603
    violations.  Broadcast routes are trivially safe and return early."""
    if not route.parallel or route.anchor is None:
        return
    seen = _seen if _seen is not None else set()
    names = _TableNames(generated, script)
    tracker = ProvenanceTracker(script, instances, db, route.anchor)
    #: table label -> list of write/read accesses
    writes: dict[str, list[_Access]] = {}
    reads: dict[str, list[_Access]] = {}

    for index, step in enumerate(script.steps, start=1):
        if isinstance(step, ComputeDiffStep):
            ir_reads: list[tuple[int, bool, str]] = []
            _scan_ir(step.ir, tracker, ir_reads)
            for node_id, anchored, detail in ir_reads:
                if names.cached(node_id):
                    reads.setdefault(names.cache(node_id), []).append(
                        _Access(index, anchored, f"{step.name}: {detail}")
                    )
        elif isinstance(step, ApplyDiffStep):
            name = step.diff_name
            if not tracker.empty(name):
                prov = tracker.prov(name)
                anchored = tracker.anchored(prov, tracker.ids(name))
                writes.setdefault(names.cache(step.target_node_id), []).append(
                    _Access(
                        index,
                        anchored,
                        f"APPLY {name} locates by {list(tracker.ids(name))}",
                    )
                )
        elif isinstance(step, AssociativeAggregateStep):
            group_keys = tuple(step.gnode.keys)
            any_active = False
            all_anchored = True
            for kind, name in step.inputs:
                if kind == "expansion":
                    record = tracker.expansion(name)
                    empty, prov = record if record is not None else (False, None)
                    input_ids: Optional[tuple] = None
                else:
                    empty, prov = tracker.empty(name), tracker.prov(name)
                    input_ids = tracker.ids(name)
                if empty:
                    continue
                any_active = True
                if not tracker.anchored(prov, group_keys):
                    all_anchored = False
                if input_ids is not None:
                    # Input_pre probe of the γ child, bound on the diff IDs.
                    child_id = step.gnode.child.node_id
                    if names.cached(child_id):
                        reads.setdefault(names.cache(child_id), []).append(
                            _Access(
                                index,
                                tracker.anchored(prov, input_ids),
                                f"Input_pre probe for {name}",
                            )
                        )
            if any_active:
                detail = f"γ n{step.gnode.node_id} RMW by group keys {list(group_keys)}"
                gid = step.gnode.node_id
                writes.setdefault(names.cache(gid), []).append(
                    _Access(index, all_anchored, detail)
                )
                writes.setdefault(names.opcache(gid), []).append(
                    _Access(index, all_anchored, detail + " (bookkeeping)")
                )
        elif isinstance(step, GeneralAggregateStep):
            active = any(not tracker.empty(name) for _, name in step.inputs)
            if active:
                gid = step.gnode.node_id
                writes.setdefault(names.cache(gid), []).append(
                    _Access(
                        index,
                        False,
                        f"general γ n{gid} recomputes affected groups",
                    )
                )
                child_id = step.gnode.child.node_id
                if names.cached(child_id):
                    reads.setdefault(names.cache(child_id), []).append(
                        _Access(index, False, "Input_post group recomputation")
                    )
        tracker.advance(step)

    def emit(rule: str, location: str, message: str, hint: str = "") -> None:
        key = (rule, location, message)
        if key in seen:
            return
        seen.add(key)
        report.add(rule, location, message, hint=hint)

    anchor_desc = f"anchor {route.anchor}[{','.join(route.anchor_key)}]"
    for table in sorted(writes):
        for w in writes[table]:
            if w.anchored:
                continue
            emit(
                "RACE601",
                f"step {w.step} [round {shape}]",
                f"write footprint of {w.detail} on {table} is not "
                f"anchor-disjoint under {anchor_desc}: two shards can "
                f"write the same key",
                hint="carry the anchor key through the statement's IDs / "
                "group keys, or let the router broadcast this round",
            )
    for table in sorted(reads):
        table_written = table in writes
        for r in reads[table]:
            if table_written and not r.anchored:
                emit(
                    "RACE602",
                    f"step {r.step} [round {shape}]",
                    f"read of {table} ({r.detail}) does not carry the "
                    f"anchor while the same round writes {table}: the "
                    f"read can observe another shard's uncommitted write",
                    hint="bind the probe on the anchor-carrying columns "
                    "or let the router broadcast this round",
                )
    for table in sorted(writes):
        if table not in reads:
            continue
        hazards = [w for w in writes[table] if not w.anchored]
        for w in hazards:
            emit(
                "RACE603",
                f"step {w.step} [round {shape}]",
                f"broadcast-window hazard: non-anchored write of {table} "
                f"({w.detail}) while step(s) "
                f"{sorted(r.step for r in reads[table])} read it — a "
                f"routed reader can observe the window between another "
                f"shard's write and its own",
            )


# ----------------------------------------------------------------------
# RACE604: journal coverage (route-independent)
# ----------------------------------------------------------------------
def _check_journal_coverage(ctx: AnalysisContext, script: DeltaScript) -> None:
    generated = ctx.generated
    registered = {script.view_node_id} | {
        spec.node_id for spec in getattr(generated, "cache_specs", ())
    }
    opcaches = {
        spec.gnode.node_id for spec in getattr(generated, "opcache_specs", ())
    }
    hint = (
        "register the materialization in the GeneratedPlan's cache/"
        "op-cache specs so tagged_tables() journals it"
    )
    for index, step in enumerate(script.steps, start=1):
        if isinstance(step, ApplyDiffStep):
            if step.target_node_id not in registered:
                ctx.report.add(
                    "RACE604",
                    f"step {index} (APPLY {step.diff_name})",
                    f"APPLY targets node n{step.target_node_id}, which no "
                    f"cache spec registers: its counted writes bypass "
                    f"the view-round's write journal, so neither a "
                    f"rollback nor replica replay sees them",
                    hint=hint,
                )
        elif isinstance(step, AssociativeAggregateStep):
            gid = step.gnode.node_id
            if gid not in registered:
                ctx.report.add(
                    "RACE604",
                    f"step {index} (γ n{gid})",
                    f"associative aggregate writes output n{gid}, which no "
                    f"cache spec registers: its counted writes escape "
                    f"the write journal",
                    hint=hint,
                )
            if gid not in opcaches:
                ctx.report.add(
                    "RACE604",
                    f"step {index} (γ n{gid})",
                    f"associative aggregate writes operator cache "
                    f"{step.opcache_name!r} (n{gid}), which no op-cache "
                    f"spec registers: its counted writes escape the write "
                    f"journal",
                    hint=hint,
                )
        elif isinstance(step, GeneralAggregateStep):
            gid = step.gnode.node_id
            if gid not in registered:
                ctx.report.add(
                    "RACE604",
                    f"step {index} (γ n{gid})",
                    f"general aggregate writes output n{gid}, which no "
                    f"cache spec registers: its counted writes escape "
                    f"the write journal",
                    hint=hint,
                )


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------
@register_pass("interference")
def interference_pass(ctx: AnalysisContext) -> None:
    script = ctx.script
    if script is None or not ctx.base_schemas:
        return
    if ctx.generated is not None:
        _check_journal_coverage(ctx, script)
    if ctx.db is None:
        return

    schemas = ctx.base_schemas
    override = getattr(ctx.generated, "route_override", None)
    shapes: list[tuple[str, set[str]]] = [
        (schema_instance_name(s), {schema_instance_name(s)}) for s in schemas
    ]
    all_active = {schema_instance_name(s) for s in schemas}
    if len(all_active) > 1:
        shapes.append(("mixed", all_active))

    seen: set = set()
    for shape, active in shapes:
        instances = _dummy_instances(schemas, active)
        route = plan_route(script, instances, ctx.db, ctx.n_shards)
        if not route.parallel and override is not None:
            # The engine would honor the forced route — verify THAT claim.
            route = force_route(script, instances, ctx.db, override)
        check_round(
            script,
            instances,
            ctx.db,
            route,
            ctx.generated,
            ctx.report,
            shape,
            _seen=seen,
        )
