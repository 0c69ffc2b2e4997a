"""Pass 5 — cross-view sharing detection (catalog scope, SHARE7xx).

The first catalog-scoped pass: where passes 1–4 verify one view at a
time, this pass sees the *facts* of every defined view at once and
flags statically detectable overlap between them — the precondition for
actually sharing intermediate caches across views.

* **SHARE701** — an identical sub-plan (by alpha fingerprint) is
  materialized as an intermediate cache in two or more views.  Each
  extra copy repeats the cache's whole maintenance pipeline every
  round; the diagnostic prices that duplicated work with the symbolic
  cost model the script carries from its definition
  (``generated.cost_model``: the transitive compute/aggregate/apply
  steps feeding the cache, evaluated at nominal diff cardinalities).
* **SHARE702** — a view is semantically equivalent (same root alpha
  fingerprint) to an already-defined view.
* **SHARE703** — a view that an engine answers from another view's
  cache: its root is a column-only π chain over a sub-plan the host
  materializes, by exact fingerprint (:class:`repro.core.share.Hosting`,
  the class the engine binds views with), so it keeps no state of its
  own.
* **SHARE704** — compute statements that two or more views hold
  identically, by round-share key (:func:`repro.core.share.share_keys`,
  the function the engine keys them with): an engine computes each once
  per round and the other views bind its rows.  One finding per set of
  views, with the number of statements they share.

SHARE701 and SHARE702 report sharing *opportunities*; SHARE703 and
SHARE704 report sharing an engine does.  All four are informational.

Facts (:class:`CatalogViewFacts`) are deliberately tiny and
JSON-serializable so the incremental analysis cache can persist them —
a warm ``repro lint --catalog`` runs this pass from cached facts
without regenerating a single ∆-script.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.ir import AppliedSource, DiffSource, IrNode
from ..core.rules.aggregate import AssociativeAggregateStep, GeneralAggregateStep
from ..core.script import ApplyDiffStep, ComputeDiffStep
from ..costmodel.symbolic import CostVector
from ..storage.database import Database
from .fingerprint import plan_fingerprint, plan_fingerprints
from .registry import CatalogContext

#: how many view names a SHARE7xx message spells out before eliding
_MAX_NAMED_VIEWS = 5


@dataclass(frozen=True)
class CachedSubplan:
    """One materialized sub-plan of a view, priced for maintenance."""

    node_id: int
    kind: str  # "intermediate" | "output"
    label: str  # operator label, e.g. "Join"
    fingerprint: str  # alpha fingerprint of the cached sub-plan
    #: metric -> predicted accesses/round to keep this cache fresh
    #: (None on an output cache: only intermediate ones are priced)
    price: Optional[dict[str, float]]


@dataclass(frozen=True)
class CatalogViewFacts:
    """Everything the sharing pass needs to know about one view."""

    label: str
    root_fingerprint: str
    caches: tuple[CachedSubplan, ...]
    #: exact fingerprints of the sub-plans below the root's column-only
    #: π chain (``core.share.host_chain``): what the view can be
    #: answered from
    chain: tuple[str, ...]
    #: exact fingerprints of the sub-plans the view materializes — its
    #: table and caches (``materialized`` of ``core.share``): what it can host
    materialized: tuple[str, ...]
    #: the round-share keys of the view's eligible compute statements,
    #: in script order (``core.share.share_keys``)
    share_keys: tuple[str, ...]


def _ir_dependencies(ir: IrNode) -> tuple[set[str], set[str]]:
    """Diff names and expansion (RETURNING) names an IR tree reads."""
    diffs: set[str] = set()
    expansions: set[str] = set()
    for node in ir.walk():
        if isinstance(node, DiffSource):
            diffs.add(node.name)
        elif isinstance(node, AppliedSource):
            expansions.add(node.apply_name)
    return diffs, expansions


def _cache_step_labels(generated: object, node_id: int) -> set[str]:
    """Cost-model step labels of the maintenance pipeline of one cache.

    Starts from the diffs applied to *node_id* and chases producers
    transitively (compute steps through their IR sources, aggregate
    steps through their inputs, RETURNING expansions through the apply
    that emits them).  Applies targeting *other* caches are charged to
    those caches, not this one.
    """
    steps = generated.script.steps  # type: ignore[attr-defined]
    labels: set[str] = set()
    pending: list[tuple[str, str]] = []  # (kind, name): "diff" | "expansion"
    seen: set[tuple[str, str]] = set()

    for step in steps:
        if isinstance(step, ApplyDiffStep) and step.target_node_id == node_id:
            labels.add(f"APPLY {step.diff_name} -> {step.target_label}")
            pending.append(("diff", step.diff_name))

    producers: dict[tuple[str, str], object] = {}
    for step in steps:
        if isinstance(step, ComputeDiffStep):
            producers[("diff", step.name)] = step
        elif isinstance(step, (AssociativeAggregateStep, GeneralAggregateStep)):
            for name in step.emitted.values():
                producers[("diff", name)] = step
        if isinstance(step, ApplyDiffStep) and step.returning_name is not None:
            producers[("expansion", step.returning_name)] = step

    while pending:
        key = pending.pop()
        if key in seen:
            continue
        seen.add(key)
        step = producers.get(key)
        if step is None:
            continue  # base-table i-diff: arrives from the modlog for free
        if isinstance(step, ComputeDiffStep):
            labels.add(f"COMPUTE {step.name}")
            diffs, expansions = _ir_dependencies(step.ir)
            pending.extend(("diff", n) for n in diffs)
            pending.extend(("expansion", n) for n in expansions)
        elif isinstance(step, AssociativeAggregateStep):
            labels.add(f"γ-delta n{step.gnode.node_id}")
            pending.extend(pair for pair in step.inputs)
        elif isinstance(step, GeneralAggregateStep):
            labels.add(f"γ-recompute n{step.gnode.node_id}")
            pending.extend(pair for pair in step.inputs)
        elif isinstance(step, ApplyDiffStep):
            # reached through a RETURNING expansion: charge the upstream
            # compute, not the apply (it maintains a different cache)
            pending.append(("diff", step.diff_name))
    return labels


def _price_cache(generated: object, node_id: int) -> dict[str, float]:
    """One cache's maintenance, priced from the model that travels with
    the script (``generated.cost_model``)."""
    model = generated.cost_model  # type: ignore[attr-defined]
    labels = _cache_step_labels(generated, node_id)
    vector = CostVector()
    for step_cost in model.steps:
        if step_cost.label in labels:
            vector = vector + step_cost.vector
    price = model.evaluate_vector(vector)
    price["total"] = sum(price.values())
    return price


def view_facts(
    label: str, generated: object, db: Optional[Database] = None
) -> CatalogViewFacts:
    """Distill one generated view into the sharing pass's input facts."""
    from ..core.share import host_chain, materialized, share_keys  # deferred: it imports this package

    plan = generated.plan  # type: ignore[attr-defined]
    fps = plan_fingerprints(plan, db)
    nodes = {n.node_id: n for n in plan.walk()}
    caches: list[CachedSubplan] = []
    for spec in generated.cache_specs:  # type: ignore[attr-defined]
        node = nodes.get(spec.node_id)
        fp = fps.get(spec.node_id)
        if node is None or fp is None:
            continue
        price = (
            _price_cache(generated, spec.node_id)
            if spec.kind == "intermediate"
            else None
        )
        caches.append(
            CachedSubplan(spec.node_id, spec.kind, node.label(), fp, price)
        )
    return CatalogViewFacts(
        label=label,
        root_fingerprint=plan_fingerprint(plan, db),
        caches=tuple(caches),
        chain=host_chain(plan),
        materialized=tuple(materialized(generated)),
        share_keys=tuple(share_keys(generated).values()),
    )


def facts_to_json(facts: CatalogViewFacts) -> dict:
    return {
        "label": facts.label,
        "root": facts.root_fingerprint,
        "caches": [
            {
                "node_id": c.node_id,
                "kind": c.kind,
                "label": c.label,
                "fp": c.fingerprint,
                "price": c.price,
            }
            for c in facts.caches
        ],
        "chain": list(facts.chain),
        "materialized": list(facts.materialized),
        "share_keys": list(facts.share_keys),
    }


def facts_from_json(payload: dict) -> CatalogViewFacts:
    return CatalogViewFacts(
        label=payload["label"],
        root_fingerprint=payload["root"],
        caches=tuple(
            CachedSubplan(
                node_id=c["node_id"],
                kind=c["kind"],
                label=c["label"],
                fingerprint=c["fp"],
                price=c["price"],
            )
            for c in payload["caches"]
        ),
        chain=tuple(payload["chain"]),
        materialized=tuple(payload["materialized"]),
        share_keys=tuple(payload["share_keys"]),
    )


def share_groups(views: list[CatalogViewFacts]) -> dict[str, tuple[str, ...]]:
    """Round-share key -> the labels of the views holding it, for every
    key two views or more hold: what an engine defining these views
    runs once per round (``IdIvmEngine.share_holders``).  A view the
    engine answers from another's cache (:func:`hosted_views`) holds
    none."""
    hosted = hosted_views(views)
    holders: dict[str, list[str]] = {}
    for facts in views:
        if facts.label in hosted:
            continue
        for key in dict.fromkeys(facts.share_keys):
            holders.setdefault(key, []).append(facts.label)
    return {key: tuple(labels) for key, labels in holders.items() if len(labels) > 1}


def _name_views(labels: list[str]) -> str:
    shown = labels[:_MAX_NAMED_VIEWS]
    extra = len(labels) - len(shown)
    joined = ", ".join(shown)
    return f"{joined} and {extra} more" if extra > 0 else joined


def sharing_pass(ctx: CatalogContext) -> None:
    views: list[CatalogViewFacts] = list(ctx.views)

    # SHARE701: identical intermediate caches across views.
    by_fp: dict[str, list[tuple[str, CachedSubplan]]] = {}
    for facts in views:
        for cache in facts.caches:
            if cache.kind == "intermediate":
                by_fp.setdefault(cache.fingerprint, []).append(
                    (facts.label, cache)
                )
    for fp in sorted(by_fp):
        members = sorted(by_fp[fp], key=lambda m: m[0])
        labels = sorted({label for label, _ in members})
        if len(labels) < 2:
            continue
        priced = next((c.price for _, c in members if c.price), None)
        if priced is not None:
            cost_note = (
                f"; each extra copy repeats ≈{priced['total']:g} "
                f"accesses/round ({priced['index_lookups']:g} lookups, "
                f"{priced['tuple_reads']:g} reads, "
                f"{priced['tuple_writes']:g} writes)"
            )
        else:
            cost_note = ""
        op = members[0][1].label
        ctx.report.add(
            "SHARE701",
            f"shared:{fp[:12]}",
            f"{op} sub-plan cached independently by {len(labels)} views "
            f"({_name_views(labels)}){cost_note}",
            "maintain the sub-plan once and share the cache across views",
        )

    # SHARE702: whole-view semantic duplicates.
    by_root: dict[str, list[str]] = {}
    for facts in views:
        by_root.setdefault(facts.root_fingerprint, []).append(facts.label)
    for fp in sorted(by_root):
        labels = sorted(set(by_root[fp]))
        if len(labels) < 2:
            continue
        first, rest = labels[0], labels[1:]
        ctx.report.add(
            "SHARE702",
            first,
            f"{_name_views(rest)} {'is' if len(rest) == 1 else 'are'} "
            f"semantically equivalent to {first} (same alpha fingerprint)",
            "define the view once and alias the duplicates",
        )

    # SHARE704: statements computed by several views, run once a round.
    by_views: dict[tuple[str, ...], int] = {}
    for labels in share_groups(views).values():
        by_views[labels] = by_views.get(labels, 0) + 1
    for labels in sorted(by_views):
        ctx.report.add(
            "SHARE704",
            f"shared:{','.join(labels)}",
            f"{by_views[labels]} statement(s) computed by {len(labels)} views "
            f"({_name_views(list(labels))}), executed once per round",
            "nothing to do: the engine runs them once and the later views "
            "bind the rows",
        )

    # SHARE703: the views an engine defining these, in this order,
    # answers from another view's cache.
    for label, (host, _fp) in sorted(hosted_views(views).items()):
        ctx.report.add(
            "SHARE703",
            label,
            f"view is a projection of a sub-plan {host} materializes: the "
            f"engine answers it from {host}'s cache",
            "nothing to do: the engine keeps no copy of the view and "
            f"{host}'s round maintains it",
        )


def hosted_views(views: list[CatalogViewFacts]) -> dict[str, tuple[str, str]]:
    """Consumer label -> ``(host label, fingerprint)`` for views defined
    in the order of *views*: what an engine defining them answers from
    another view's cache (``IdIvmEngine.hosting``)."""
    from ..core.share import Hosting  # deferred: it imports this package

    hosting = Hosting()
    for facts in views:
        if hosting.define(facts.label, facts.chain) is None:
            hosting.materialize(facts.label, facts.chain, facts.materialized)
    return hosting.hosts
