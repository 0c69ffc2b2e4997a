"""What two views maintain once: the compute statements their
∆-scripts hold identically (round-share keys), and the sub-plans one
view materializes that another is a projection of (hosting).

The paper composes one rule per operator into each view's ∆-script
(§4), so two views over one sub-plan derive the same i-diffs from the
same base i-diffs.  :func:`share_keys` gives every *eligible* compute
statement of a view a key at definition; an engine runs each key once
per round across its views — the first view in round order computes the
rows, every later view binds them under its own schema
(``DeltaScript.share``).  ``repro lint`` groups statements with the same
function (SHARE704), so the lint and the engine cannot disagree.

A statement is eligible when the rows it computes depend on nothing its
view owns:

* every subview it reads (``SubviewSource``, ``ProbeJoin``,
  ``ProbeSemi``) is a sub-plan with no node the view materializes — no
  view table, cache or operator cache below it — so its reads go to the
  base tables only (``Input_pre`` for ``pre``, the live tables for
  ``post``), which no view-round writes;
* no probe carries a Section 9 hint (``via_output``: it reads the view);
* it reads no ``AppliedSource`` (the expansion of the view's own APPLY);
* every diff it reads is a base i-diff instance or the diff of an
  eligible statement.

The key digests the exact-mode fingerprint documents
(:mod:`repro.analysis.fingerprint`) of the statement's diff schema — its
target named by the target sub-plan's fingerprint, not the view's node
id — and of its IR, where a subview read is its plan's fingerprint and
state and each diff read is its producer's key: a base instance is keyed
by its table's ``instances_key`` (the set of schemas the view reads on
the table, which update routing depends on) and its name.

**Hosting.**  A view whose root is a chain of column-only projections
(π items that are plain column references, renames included) over a
sub-plan another view materializes — its view table or a cache, by
exact fingerprint — keeps nothing of its own: the engine answers it
from that cache (``core.engine.HostedView``), and the host's round
maintains it.  Projection keeps its child's IDs (paper Table 1), so
the cache's rows map one to one onto the view's.  :class:`Hosting`
decides which view answers which for views entered in definition
order; the engine and ``repro lint`` (SHARE703) both call it.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..algebra.plan import PlanNode, Project
from ..analysis.fingerprint import Doc, _PlanWalker, _ScriptWalker
from ..expr.ast import Col
from .ir import AppliedSource, DiffSource, IrNode, ProbeJoin, ProbeSemi, SubviewSource
from .modlog import instances_key, schema_instance_name
from .script import ComputeDiffStep


def _digest(doc: Doc) -> str:
    """128 bits of SHA-256 over the document's ``repr``: a document
    holds only lists, tuples, strings, numbers, booleans and None, whose
    reprs are the same in every process."""
    return hashlib.sha256(repr(doc).encode()).hexdigest()[:32]


class _KeyWalker(_ScriptWalker):
    """Exact-mode statement documents in which a diff read is its
    producer's key and a diff-schema target its sub-plan's fingerprint."""

    def __init__(self, plan):
        super().__init__(_PlanWalker(None, alpha=False), {n.node_id: n for n in plan.walk()}, alpha=False)
        #: diff name -> the key of the diff it holds now (None: not shareable)
        self.produced: dict[str, Optional[str]] = {}

    def schema_doc(self, schema) -> Doc:
        doc = super().schema_doc(schema)
        columns = self._target_columns(schema.target)
        if columns is not None:
            doc[2] = ["node", self._node_fp(self._nodes[int(schema.target[1:])])]
        return doc

    def ir_doc(self, node: IrNode) -> Doc:
        if isinstance(node, DiffSource):
            return ["dsrc", self.produced[node.name]]
        return super().ir_doc(node)


def _reads_nothing_owned(ir: IrNode, owned: set[int], produced: dict) -> bool:
    for node in ir.walk():
        if isinstance(node, AppliedSource):
            return False
        if isinstance(node, DiffSource) and produced.get(node.name) is None:
            return False
        if isinstance(node, (SubviewSource, ProbeJoin, ProbeSemi)):
            if getattr(node, "via_output", None) is not None:
                return False
            if any(sub.node_id in owned for sub in node.node.walk()):
                return False
    return True


def share_keys(generated) -> dict[int, str]:
    """Script index -> round-share key of every eligible compute
    statement of *generated* (a ``GeneratedPlan``), in script order."""
    owned = {generated.plan.node_id}
    owned.update(spec.node_id for spec in generated.cache_specs)
    owned.update(spec.gnode.node_id for spec in generated.opcache_specs)
    walker = _KeyWalker(generated.plan)
    produced = walker.produced
    schemas = generated.base_schemas
    for schema in schemas:
        table = instances_key(schema.target, schemas)
        produced[schema_instance_name(schema)] = _digest(["inst", table, schema_instance_name(schema)])
    keys: dict[int, str] = {}
    for i, step in enumerate(generated.script.steps):
        key = None
        if isinstance(step, ComputeDiffStep) and _reads_nothing_owned(step.ir, owned, produced):
            key = keys[i] = _digest([
                "share", walker.schema_doc(step.schema), walker.ir_doc(step.ir),
            ])
        for space, name in step.binds():
            if space == "diff":
                produced[name] = key
    return keys


# ----------------------------------------------------------------------
# hosting: a view answered from another view's cache
# ----------------------------------------------------------------------
def host_chain(plan: PlanNode) -> tuple[str, ...]:
    """Exact fingerprints of the sub-plans below the column-only π chain
    at the root of the annotated *plan*, root-most first: the sub-plans
    the view could be answered from.  Empty unless the root is such a π."""
    walker = _PlanWalker(None, alpha=False)
    chain: list[str] = []
    node = plan
    while isinstance(node, Project) and all(isinstance(expr, Col) for _, expr in node.items):
        node = node.child
        chain.append(walker.visit(node)[0])
    return tuple(chain)


def projected_columns(plan: PlanNode, depth: int) -> tuple[str, ...]:
    """The column of the sub-plan *depth* projections below the root of
    *plan* (a :func:`host_chain` of at least that length) that each
    column of *plan* passes through."""
    names = {name: name for name in plan.columns}
    node = plan
    for _ in range(depth):
        refs = {name: expr.name for name, expr in node.items}
        names = {out: refs[inner] for out, inner in names.items()}
        node = node.child
    return tuple(names[name] for name in plan.columns)


def materialized(generated) -> dict[str, int]:
    """Exact fingerprint -> node id of every sub-plan the view of
    *generated* (a ``GeneratedPlan``) materializes: its table and its
    caches."""
    walker = _PlanWalker(None, alpha=False)
    walker.visit(generated.plan)
    ids = (generated.plan.node_id, *(spec.node_id for spec in generated.cache_specs))
    return {walker.by_node_id[node_id]: node_id for node_id in ids}


class Hosting:
    """Which view answers which, for views entered in definition order.

    A view enters with :meth:`define`: when a sub-plan of its
    :func:`host_chain` is materialized by a view that keeps its own
    state (first chain entry first, then hosts in definition order),
    it is a *consumer* of that *host*.  Otherwise the caller enters what
    it materializes with :meth:`materialize`, which also takes over every
    earlier view that keeps its own state, hosts none and is a
    projection of it.  A consumer never hosts, and a host is never
    re-hosted.
    """

    def __init__(self) -> None:
        #: label -> (host chain, materialized fingerprints) of every view
        #: that keeps its own state
        self._views: dict[str, tuple[tuple[str, ...], frozenset[str]]] = {}
        #: consumer label -> (host label, fingerprint of the hosted sub-plan)
        self.hosts: dict[str, tuple[str, str]] = {}

    def define(self, label: str, chain: tuple[str, ...]) -> Optional[tuple[str, str]]:
        """Enter view *label*: ``(host, fingerprint)`` when another view
        answers it, else None (then call :meth:`materialize`)."""
        for fp in chain:
            for host, (_, made) in self._views.items():
                if fp in made:
                    self.hosts[label] = (host, fp)
                    return host, fp
        return None

    def materialize(
        self, label: str, chain: tuple[str, ...], made
    ) -> list[tuple[str, str]]:
        """View *label* keeps its own state and materializes the
        sub-plans of fingerprints *made*; returns ``(consumer,
        fingerprint)`` for each earlier view it answers from now on."""
        made = frozenset(made)
        hosting = {host for host, _ in self.hosts.values()}
        taken = []
        for other, (other_chain, _) in list(self._views.items()):
            if other in hosting:
                continue
            fp = next((fp for fp in other_chain if fp in made), None)
            if fp is not None:
                del self._views[other]
                self.hosts[other] = (label, fp)
                taken.append((other, fp))
        self._views[label] = (chain, made)
        return taken
