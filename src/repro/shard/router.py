"""Static shard-locality analysis and i-diff instance splitting.

A maintenance round is *shard-parallel* when splitting the base i-diff
instance rows across N workers (all operating on the one shared
database) provably

1. leaves the view and every cache byte-identical to a single-shard run,
2. makes the per-shard access counts sum exactly to the single-shard
   counts (no duplicated and no lost work).

The proof obligation is discharged statically, per round, from three
ingredients:

**Anchor.**  Pick an anchor table A.  Every table with a non-empty
instance must either *be* A or carry a foreign key into A whose child
columns are part of the instance's ID attributes.  Then every instance
row exposes A's key values in known columns, and rows are routed by
``shard_of(anchor key values)``.

**Provenance.**  The anchor key columns are tracked through the IR of
every ``ComputeDiffStep``: filters, bare-column projections, distinct,
unions (all parts must agree), group-bys (keys must retain them), and
probes (which preserve the left input's columns) carry them forward;
anything else loses them.  A row's anchor values never change along the
way, so two rows on different shards always differ in their provenance
columns.

**Locality checks.**  Every statement that could be *active* (feed on a
statically non-empty diff) must be provably shard-local:

* a subview **probe**'s ``on`` columns must cover the left input's
  anchor provenance — then the probe bindings of different shards are
  disjoint, so per-binding index costs add up exactly and the per-shard
  fetches partition the global fetch;
* an **APPLY**'s diff must carry the anchor in its ID attributes — then
  the located target rows are disjoint across shards;
* an **associative aggregate** must keep the anchor in its group keys
  (for every active input) — then per-group read-modify-writes and the
  operator-cache bookkeeping are disjoint;
* a standalone **subview scan** anywhere in the script, or an active
  **general (min/max) aggregate**, forces broadcast.

Statements whose every input is statically empty are *inert*: they cost
nothing on any shard (probes and applies short-circuit on empty input),
so running them N times is free and exact.

When any obligation fails the round falls back to **broadcast**: the
script runs once, globally — bit-for-bit the single-shard behaviour.

The proof is backend-agnostic: the inline backend exploits it by running
the N shard contexts one after another against the one shared database,
and the process backend (:mod:`repro.shard.workers`) by executing each
shard's instance subset against a replica database in a long-lived
worker process.  Disjointness of the touched rows is exactly what makes
the shards' write-sets safe to merge.

This walk (:func:`plan_route` → ``_analyze_step`` / ``_analyze_ir``) is
the one static proof of that disjointness; ``race_check=True`` on
:class:`~repro.core.sharded.ShardedEngine` is the independent run-time
check on the shards' real write-sets.
"""

from __future__ import annotations

from typing import Optional

from ..core.diffs import Diff, DiffSchema
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
from ..core.rules.aggregate import AssociativeAggregateStep, GeneralAggregateStep
from ..core.script import (
    ApplyDiffStep,
    ComputeDiffStep,
    DeltaScript,
    MarkCacheUpdatedStep,
)
from ..expr import Col
from ..storage import Database
from ..storage.partition import shard_of

#: Provenance value of a statically-empty branch: vacuously anchored.
_WILD = "*"
#: the route of a round whose instances are all empty
EMPTY_BATCH = "empty modification batch"


class RoutePlan:
    """The routing verdict for one maintenance round."""

    __slots__ = ("parallel", "reason", "anchor", "anchor_key", "instance_positions")

    def __init__(
        self,
        parallel: bool,
        reason: str,
        anchor: Optional[str] = None,
        anchor_key: tuple[str, ...] = (),
        instance_positions: Optional[dict[str, tuple[int, ...]]] = None,
    ):
        self.parallel = parallel
        #: why the round broadcasts (or "" when parallel)
        self.reason = reason
        self.anchor = anchor
        self.anchor_key = anchor_key
        #: instance name -> row positions of the anchor key values
        self.instance_positions = instance_positions or {}

    def __repr__(self) -> str:  # pragma: no cover - display helper
        if self.parallel:
            return f"RoutePlan(parallel, anchor={self.anchor!r})"
        return f"RoutePlan(broadcast: {self.reason})"


class _Broadcast(Exception):
    """Raised by the analysis when a locality obligation fails."""


class _Result:
    """Outcome of analysing one IR (sub)tree."""

    __slots__ = ("empty", "prov")

    def __init__(self, empty: bool, prov):
        self.empty = empty
        #: dict anchor_key_col -> carrying column | None (lost) | _WILD
        self.prov = prov


class _Analysis:
    """Mutable per-candidate state while walking the ∆-script."""

    def __init__(self, anchor: str, anchor_key: tuple[str, ...]):
        self.anchor = anchor
        self.anchor_key = anchor_key
        self.empty: dict[str, bool] = {}
        self.prov: dict[str, object] = {}
        self.ids: dict[str, tuple[str, ...]] = {}
        #: returning_name -> (empty, prov of the applied diff)
        self.expansions: dict[str, tuple[bool, object]] = {}


def plan_route(
    script: DeltaScript,
    instances: dict[str, Diff],
    db: Database,
    n_shards: int,
) -> RoutePlan:
    """Decide how this round's instances run across *n_shards* workers."""
    if n_shards <= 1:
        return RoutePlan(False, "single shard requested")
    active = {name for name, diff in instances.items() if diff.rows}
    if not active:
        return RoutePlan(False, EMPTY_BATCH)
    reasons: list[str] = []
    for anchor in _anchor_candidates(instances, active, db):
        try:
            positions = _try_anchor(script, instances, active, db, anchor)
        except _Broadcast as exc:
            reasons.append(f"{anchor}: {exc}")
            continue
        return RoutePlan(
            True,
            "",
            anchor=anchor,
            anchor_key=db.table(anchor).schema.key,
            instance_positions=positions,
        )
    reason = "; ".join(reasons) if reasons else "no anchor table candidate"
    return RoutePlan(False, reason)


def split_instances(
    plan: RoutePlan, instances: dict[str, Diff], n_shards: int
) -> list[dict[str, Diff]]:
    """Partition instance rows by anchor key into per-shard environments.

    Every shard sees every instance name (empty instances are shared —
    diffs are read-only), so the ∆-script resolves identically per shard.
    """
    shards: list[dict[str, Diff]] = [{} for _ in range(n_shards)]
    for name, diff in instances.items():
        positions = plan.instance_positions.get(name)
        if not diff.rows or positions is None:
            for env in shards:
                env[name] = diff
            continue
        buckets: list[list[tuple]] = [[] for _ in range(n_shards)]
        for row in diff.rows:
            values = tuple(row[p] for p in positions)
            buckets[shard_of(values, n_shards)].append(row)
        for env, rows in zip(shards, buckets):
            # A subset of a validated diff's rows is unique on its IDs.
            env[name] = Diff.trusted(diff.schema, rows)
    return shards


# ----------------------------------------------------------------------
# anchor selection
# ----------------------------------------------------------------------
def _anchor_candidates(
    instances: dict[str, Diff], active: set[str], db: Database
) -> list[str]:
    """Tables that could anchor every active instance, deterministic order."""
    options: Optional[set[str]] = None
    for name in sorted(active):
        schema = instances[name].schema
        ids = set(schema.id_attrs)
        mine = {schema.target}
        for fk in db.foreign_keys_of(schema.target):
            if set(fk.child_columns) <= ids:
                mine.add(fk.parent_table)
        options = mine if options is None else options & mine
    return sorted(options or ())


def _anchor_mapping(
    schema: DiffSchema, anchor: str, anchor_key: tuple[str, ...], db: Database
) -> Optional[dict[str, str]]:
    """anchor key column -> instance column carrying it, or None."""
    ids = set(schema.id_attrs)
    if schema.target == anchor:
        if set(anchor_key) <= ids:
            return {k: k for k in anchor_key}
        return None
    for fk in db.foreign_keys_of(schema.target):
        if fk.parent_table != anchor:
            continue
        child = tuple(fk.child_columns)
        if len(child) == len(anchor_key) and set(child) <= ids:
            return dict(zip(anchor_key, child))
    return None


def _try_anchor(
    script: DeltaScript,
    instances: dict[str, Diff],
    active: set[str],
    db: Database,
    anchor: str,
) -> dict[str, tuple[int, ...]]:
    """Full locality check for one anchor candidate.

    Returns the instance row positions of the anchor key values; raises
    :class:`_Broadcast` on the first failed obligation.
    """
    anchor_key = db.table(anchor).schema.key
    st = _Analysis(anchor, anchor_key)
    positions: dict[str, tuple[int, ...]] = {}
    for name, diff in instances.items():
        schema = diff.schema
        st.ids[name] = schema.id_attrs
        st.empty[name] = not diff.rows
        mapping = _anchor_mapping(schema, anchor, anchor_key, db)
        if mapping is None:
            if name in active:
                raise _Broadcast(f"instance {name} has no key path to the anchor")
            st.prov[name] = _WILD  # empty: vacuous
            continue
        st.prov[name] = mapping
        positions[name] = tuple(schema.position(mapping[k]) for k in anchor_key)
    for step in script.steps:
        _analyze_step(step, st)
    return positions


# ----------------------------------------------------------------------
# statement analysis
# ----------------------------------------------------------------------
def _analyze_step(step, st: _Analysis) -> None:
    if isinstance(step, ComputeDiffStep):
        result = _analyze_ir(step.ir, st)
        st.ids[step.name] = step.schema.id_attrs
        st.empty[step.name] = result.empty
        if result.empty:
            st.prov[step.name] = _WILD
        elif isinstance(result.prov, dict):
            # Diff.from_relation reorders/projects by column NAME; a
            # provenance column survives iff the schema keeps it.
            kept = set(step.schema.columns)
            if all(c in kept for c in result.prov.values()):
                st.prov[step.name] = dict(result.prov)
            else:
                st.prov[step.name] = None
        else:
            st.prov[step.name] = None
        return
    if isinstance(step, ApplyDiffStep):
        _analyze_apply(step, st)
        return
    if isinstance(step, AssociativeAggregateStep):
        _analyze_associative(step, st)
        return
    if isinstance(step, GeneralAggregateStep):
        _analyze_general(step, st)
        return
    if isinstance(step, MarkCacheUpdatedStep):
        return
    raise _Broadcast(f"unknown step type {type(step).__name__}")


def _analyze_apply(step: ApplyDiffStep, st: _Analysis) -> None:
    name = step.diff_name
    if name not in st.empty:
        raise _Broadcast(f"apply reads undefined diff {name!r}")
    if st.empty[name]:
        if step.returning_name is not None:
            st.expansions[step.returning_name] = (True, _WILD)
        return
    prov = st.prov.get(name)
    ids = set(st.ids.get(name, ()))
    if not isinstance(prov, dict) or not set(prov.values()) <= ids:
        raise _Broadcast(
            f"apply of {name} locates target rows by non-anchored IDs"
        )
    if step.returning_name is not None:
        st.expansions[step.returning_name] = (False, prov)


def _analyze_associative(step: AssociativeAggregateStep, st: _Analysis) -> None:
    group_keys = set(step.gnode.keys)
    any_active = False
    mapping: Optional[dict[str, str]] = None
    agree = True
    for kind, name in step.inputs:
        if kind == "expansion":
            record = st.expansions.get(name)
            if record is None:
                raise _Broadcast(f"aggregate reads unknown expansion {name!r}")
            empty, prov = record
            ids = None
        else:
            if name not in st.empty:
                raise _Broadcast(f"aggregate reads undefined diff {name!r}")
            empty, prov = st.empty[name], st.prov.get(name)
            ids = set(st.ids.get(name, ()))
        if empty:
            continue
        any_active = True
        if not isinstance(prov, dict):
            raise _Broadcast(f"aggregate input {name} lost anchor provenance")
        if ids is not None and not set(prov.values()) <= ids:
            raise _Broadcast(
                f"aggregate input {name} probes Input_pre by non-anchored IDs"
            )
        if not set(prov.values()) <= group_keys:
            raise _Broadcast(
                f"aggregate n{step.gnode.node_id} drops the anchor from its "
                f"group keys {sorted(group_keys)}"
            )
        if mapping is None:
            mapping = prov
        elif prov != mapping:
            agree = False
    emitted_ids = tuple(step.gnode.keys)
    for name in step.emitted.values():
        st.ids[name] = emitted_ids
        st.empty[name] = not any_active
        if not any_active:
            st.prov[name] = _WILD
        elif agree and mapping is not None:
            st.prov[name] = dict(mapping)
        else:
            st.prov[name] = None


def _analyze_general(step: GeneralAggregateStep, st: _Analysis) -> None:
    for kind, name in step.inputs:
        if kind == "expansion":
            record = st.expansions.get(name)
            if record is None:
                raise _Broadcast(f"aggregate reads unknown expansion {name!r}")
            empty = record[0]
        elif name not in st.empty:
            raise _Broadcast(f"aggregate reads undefined diff {name!r}")
        else:
            empty = st.empty[name]
        if not empty:
            raise _Broadcast(
                f"general aggregate n{step.gnode.node_id} (recompute rule) is "
                f"active; affected groups are not shard-local"
            )
    for name in step.emitted.values():
        st.ids[name] = tuple(step.gnode.keys)
        st.empty[name] = True
        st.prov[name] = _WILD


# ----------------------------------------------------------------------
# IR analysis
# ----------------------------------------------------------------------
def _analyze_ir(node: IrNode, st: _Analysis) -> _Result:
    if isinstance(node, DiffSource):
        if node.name not in st.empty:
            raise _Broadcast(f"IR reads undefined diff {node.name!r}")
        return _Result(st.empty[node.name], st.prov.get(node.name))
    if isinstance(node, Empty):
        return _Result(True, _WILD)
    if isinstance(node, SubviewSource):
        # A standalone scan costs a full fetch on EVERY shard: never local.
        raise _Broadcast(
            f"standalone subview scan of n{node.node.node_id}"
        )
    if isinstance(node, AppliedSource):
        record = st.expansions.get(node.apply_name)
        if record is None:
            raise _Broadcast(f"IR reads unknown expansion {node.apply_name!r}")
        empty, prov = record
        if empty:
            return _Result(True, _WILD)
        if not isinstance(prov, dict):
            return _Result(False, None)
        # Expansion columns are the target's key + pre/post values; an
        # anchored ID column survives iff it is part of that key (the
        # located rows matched it, so the value is the diff's).
        if all(c in node.key for c in prov.values()):
            return _Result(False, dict(prov))
        return _Result(False, None)
    if isinstance(node, (Filter, Distinct)):
        return _analyze_ir(node.child, st)
    if isinstance(node, Compute):
        child = _analyze_ir(node.child, st)
        if child.empty:
            return _Result(True, _WILD)
        if not isinstance(child.prov, dict):
            return _Result(False, None)
        passthrough: dict[str, str] = {}
        for out_name, expr in node.items:
            if isinstance(expr, Col):
                passthrough.setdefault(expr.name, out_name)
        mapped = {}
        for k, c in child.prov.items():
            if c not in passthrough:
                return _Result(False, None)
            mapped[k] = passthrough[c]
        return _Result(False, mapped)
    if isinstance(node, UnionRows):
        parts = [_analyze_ir(p, st) for p in node.parts]
        live = [p for p in parts if not p.empty]
        if not live:
            return _Result(True, _WILD)
        provs = [p.prov for p in live]
        first = provs[0]
        if isinstance(first, dict) and all(p == first for p in provs[1:]):
            return _Result(False, dict(first))
        return _Result(False, None)
    if isinstance(node, GroupAgg):
        child = _analyze_ir(node.child, st)
        if child.empty:
            return _Result(True, _WILD)
        if not isinstance(child.prov, dict):
            return _Result(False, None)
        if all(c in node.keys for c in child.prov.values()):
            return _Result(False, dict(child.prov))
        return _Result(False, None)
    if isinstance(node, (ProbeJoin, ProbeSemi)):
        left = _analyze_ir(node.left, st)
        if left.empty:
            # Probes short-circuit on an empty left input: zero cost on
            # every shard, empty output.
            return _Result(True, _WILD)
        if not isinstance(left.prov, dict):
            raise _Broadcast(
                f"probe of n{node.node.node_id} feeds on rows without "
                f"anchor provenance"
            )
        on_left = {lcol for lcol, _ in node.on}
        if not set(left.prov.values()) <= on_left:
            raise _Broadcast(
                f"probe of n{node.node.node_id} binds on {sorted(on_left)}, "
                f"which does not cover the anchor columns "
                f"{sorted(left.prov.values())}"
            )
        # Output keeps every left column (ProbeJoin appends, ProbeSemi
        # filters), so provenance carries through unchanged.
        return _Result(False, dict(left.prov))
    raise _Broadcast(f"unknown IR node {type(node).__name__}")


def describe_plan(plan: RoutePlan) -> str:
    """One-line human rendering for CLI/trace surfaces."""
    if plan.parallel:
        key = ",".join(plan.anchor_key)
        return f"parallel(anchor={plan.anchor}[{key}])"
    return f"broadcast({plan.reason})"
