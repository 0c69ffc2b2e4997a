"""Semantic fingerprints for plans and ∆-scripts.

A fingerprint is a SHA-256 digest of a *canonical document*: a tree of
JSON primitives (lists, strings, ints, bools, None, tagged floats)
serialized exactly like :mod:`repro.core.wire` serializes payloads —
``sort_keys``, tight separators, ``allow_nan=False`` and floats spelled
as ``["~f", repr(v)]``.  Documents never contain dicts or iteration
over sets, so digests are byte-stable across processes and
PYTHONHASHSEED values.

Two canonicalization modes exist:

* **alpha mode** (``alpha=True``, the default) — the *semantic* hash.
  Derived attribute names are erased: every column is represented by a
  *provenance descriptor*, a digest describing where its value comes
  from (base table + position, projection expression, aggregate, …).
  Operands of commutative operators (join pairs, union branches,
  conjunctions/disjunctions, ``=``/``<>`` comparisons, ``+``/``*``)
  are sorted by their canonical bytes, and ``>``/``>=`` comparisons
  are rewritten to ``<``/``<=``.  Two plans share an alpha fingerprint
  iff they are the same plan up to attribute renaming and commutative
  operand order (output-column *permutations* between such twins are
  accepted and documented).

* **exact mode** (``alpha=False``) — the *syntactic* hash: attribute
  names, aliases and operand order are kept verbatim.  Exact
  fingerprints key the incremental analysis cache, where cached
  diagnostics embed real attribute names and must replay byte-for-byte.

Base-table context (column names, types, nullability, keys and the
foreign keys incident to the scanned table when a database is given) is
folded into every ``Scan`` leaf, so the same view shape over different
schemas hashes differently.

Script fingerprints build on plan fingerprints: IR nodes reference plan
sub-DAGs by their node fingerprint, columns positionally, and
generator-invented diff/returning names through a first-seen interner —
so a script that merely renames intermediates keeps its alpha
fingerprint.  Bound kernels (:mod:`repro.core.compile`) are executor
state, not script content, and never enter a fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from datetime import date, datetime
from decimal import Decimal
from typing import Optional, Union

from ..algebra.plan import (
    AggSpec,
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
from ..core.diffs import DiffSchema
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
    Step,
)
from ..errors import ReproError
from ..expr.ast import And, Arith, Call, Cmp, Col, Expr, InList, Lit, Not, Or
from ..storage.database import Database

Doc = Union[None, bool, int, float, str, list]


class FingerprintError(ReproError):
    """An object cannot be canonicalized (unknown node/expression)."""


def _canon(doc: Doc) -> Doc:
    """Tag floats wire-style; reject NaN/Inf via json's allow_nan."""
    if isinstance(doc, float) and not isinstance(doc, bool):
        return ["~f", repr(doc)]
    if isinstance(doc, list):
        return [_canon(item) for item in doc]
    if doc is None or isinstance(doc, (bool, int, str)):
        return doc
    raise FingerprintError(f"non-canonical value in fingerprint doc: {doc!r}")


def canonical_fingerprint_bytes(doc: Doc) -> bytes:
    """Deterministic serialization of a canonical document."""
    return json.dumps(
        _canon(doc), sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def digest(doc: Doc) -> str:
    """SHA-256 over the canonical bytes, truncated to 128 bits of hex."""
    return hashlib.sha256(canonical_fingerprint_bytes(doc)).hexdigest()[:32]


def _sorted_docs(docs: list) -> list:
    return sorted(docs, key=canonical_fingerprint_bytes)


def _lit_doc(value: object) -> Doc:
    if value is None or isinstance(value, (bool, int, str)):
        return ["v", value]
    if isinstance(value, float):
        return ["v", value]  # _canon applies the ~f tag
    # Tagged by type: Decimal('1') and 1 compare equal but are different
    # literals (a datetime is a date, so it is tested first).
    if isinstance(value, Decimal):
        return ["dec", str(value)]
    if isinstance(value, datetime):
        return ["datetime", value.isoformat()]
    if isinstance(value, date):
        return ["date", value.isoformat()]
    raise FingerprintError(f"unsupported literal type {type(value).__name__}")


#: direction-normalization for commutated comparisons (alpha mode).
_FLIP = {">": "<", ">=": "<="}
_SYMMETRIC_CMP = ("=", "<>")
_COMMUTATIVE_ARITH = ("+", "*")


def expr_doc(expr: Expr, env: dict[str, Doc], alpha: bool) -> Doc:
    """Canonical document of *expr* with column refs resolved via *env*."""
    if isinstance(expr, Col):
        try:
            return ["c", env[expr.name]]
        except KeyError:
            raise FingerprintError(f"unbound column {expr.name!r}") from None
    if isinstance(expr, Lit):
        return _lit_doc(expr.value)
    if isinstance(expr, Arith):
        left = expr_doc(expr.left, env, alpha)
        right = expr_doc(expr.right, env, alpha)
        if alpha and expr.op in _COMMUTATIVE_ARITH:
            left, right = _sorted_docs([left, right])
        return ["ar", expr.op, left, right]
    if isinstance(expr, Cmp):
        op, lhs, rhs = expr.op, expr.left, expr.right
        if alpha and op in _FLIP:
            op = _FLIP[op]
            lhs, rhs = rhs, lhs
        left = expr_doc(lhs, env, alpha)
        right = expr_doc(rhs, env, alpha)
        if alpha and op in _SYMMETRIC_CMP:
            left, right = _sorted_docs([left, right])
        return ["cmp", op, left, right]
    if isinstance(expr, And):
        items = [expr_doc(i, env, alpha) for i in expr.items]
        return ["and", _sorted_docs(items) if alpha else items]
    if isinstance(expr, Or):
        items = [expr_doc(i, env, alpha) for i in expr.items]
        return ["or", _sorted_docs(items) if alpha else items]
    if isinstance(expr, Not):
        return ["not", expr_doc(expr.item, env, alpha)]
    if isinstance(expr, InList):
        values = [_lit_doc(v) for v in expr.values]
        if alpha:
            values = _sorted_docs(values)
        return ["in", expr_doc(expr.item, env, alpha), values]
    if isinstance(expr, Call):
        return ["call", expr.func, [expr_doc(a, env, alpha) for a in expr.args]]
    raise FingerprintError(f"unknown expression node {type(expr).__name__}")


def _predicate_doc(pred: Optional[Expr], env: dict[str, Doc], alpha: bool) -> Doc:
    return expr_doc(pred, env, alpha) if pred is not None else "x"


class _PlanWalker:
    """Bottom-up fingerprint + per-column provenance descriptors.

    For each node the walker yields ``(hash, descs)`` where *descs* maps
    the node's output column names to descriptor strings.  Descriptors,
    not names, appear in parent documents, which is what makes alpha
    fingerprints rename-invariant: a projection item that merely renames
    a child column re-exports the child's descriptor unchanged.

    At binary nodes each side's descriptors are re-tagged with the
    child's hash, so ``σ(T).a`` and ``T.a`` stay distinguishable inside
    one condition while remaining invariant under operand swaps (the tag
    travels with the child).  When both children hash identically (a
    true self-twin) the right side gets a distinct twin tag — the only
    case where side order is semantically irrelevant anyway.
    """

    def __init__(self, db: Optional[Database], alpha: bool):
        self.db = db
        self.alpha = alpha
        self._memo: dict[int, tuple[str, dict[str, str]]] = {}
        #: node_id -> fingerprint for annotated plans (node_id >= 0)
        self.by_node_id: dict[int, str] = {}

    def visit(self, node: PlanNode) -> tuple[str, dict[str, str]]:
        key = id(node)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        h, descs = self._compute(node)
        self._memo[key] = (h, descs)
        if node.node_id >= 0:
            self.by_node_id[node.node_id] = h
        return h, descs

    def _tag(self, side_hash: str, twin: int, descs: dict[str, str]) -> dict[str, str]:
        return {
            name: digest(["@", side_hash, twin, d]) for name, d in descs.items()
        }

    def _sides(
        self, node_l: PlanNode, node_r: PlanNode
    ) -> tuple[str, str, dict[str, str], dict[str, str]]:
        lh, ld = self.visit(node_l)
        rh, rd = self.visit(node_r)
        if self.alpha:
            ld = self._tag(lh, 0, ld)
            rd = self._tag(rh, 1 if lh == rh else 0, rd)
        return lh, rh, ld, rd

    def _compute(self, node: PlanNode) -> tuple[str, dict[str, str]]:
        alpha = self.alpha
        if isinstance(node, Scan):
            doc = self._scan_doc(node)
            h = digest(doc)
            if alpha:
                descs = {
                    c: digest(["col", h, i]) for i, c in enumerate(node.columns)
                }
            else:
                descs = {c: c for c in node.columns}
            return h, descs

        if isinstance(node, Select):
            ch, cd = self.visit(node.child)
            env: dict[str, Doc] = dict(cd)
            doc = ["select", _predicate_doc(node.predicate, env, alpha), ch]
            return digest(doc), cd

        if isinstance(node, Project):
            ch, cd = self.visit(node.child)
            env = dict(cd)
            item_docs: list = []
            descs = {}
            for name, expr in node.items:
                if isinstance(expr, Col):
                    d = cd[expr.name]
                    item_doc: Doc = ["ref", d]
                else:
                    e_doc = expr_doc(expr, env, alpha)
                    item_doc = ["e", e_doc]
                    d = digest(["pe", ch, e_doc]) if alpha else name
                if not alpha:
                    item_doc = ["item", name, item_doc]
                item_docs.append(item_doc)
                descs[name] = d
            return digest(["project", item_docs, ch]), descs

        if isinstance(node, Join):
            lh, rh, ld, rd = self._sides(node.left, node.right)
            env = {**ld, **rd}
            cond = _predicate_doc(node.condition, env, alpha)
            pair = sorted([lh, rh]) if alpha else [lh, rh]
            return digest(["join", pair, cond]), {**ld, **rd}

        if isinstance(node, (AntiJoin, SemiJoin)):
            tag = "antijoin" if isinstance(node, AntiJoin) else "semijoin"
            lh, rh, ld, rd = self._sides(node.left, node.right)
            env = {**ld, **rd}
            cond = _predicate_doc(node.condition, env, alpha)
            return digest([tag, lh, rh, cond]), ld

        if isinstance(node, UnionAll):
            lh, rh, ld, rd = self._sides(node.left, node.right)
            descs = {}
            for c in node.left.columns:
                if alpha:
                    descs[c] = digest(["u", _sorted_docs([ld[c], rd[c]])])
                else:
                    descs[c] = c
            branch_descs = digest(["ub", sorted([lh, rh])]) if alpha else (
                node.branch_column
            )
            descs[node.branch_column] = branch_descs
            if alpha:
                doc: Doc = ["union", sorted([lh, rh])]
            else:
                doc = ["union", lh, rh, node.branch_column]
            return digest(doc), descs

        if isinstance(node, GroupBy):
            ch, cd = self.visit(node.child)
            env = dict(cd)
            key_docs: list = [cd[k] for k in node.keys]
            if alpha:
                key_docs = _sorted_docs(key_docs)
            agg_docs: list = []
            descs = {k: cd[k] for k in node.keys}
            for agg in node.aggs:
                arg_doc = (
                    expr_doc(agg.arg, env, alpha) if agg.arg is not None else None
                )
                a_doc: Doc = ["agg", agg.func, arg_doc]
                if not alpha:
                    a_doc = ["agg", agg.func, arg_doc, agg.name]
                agg_docs.append(a_doc)
                descs[agg.name] = (
                    digest(["ga", ch, agg.func, arg_doc]) if alpha else agg.name
                )
            return digest(["groupby", ch, key_docs, agg_docs]), descs

        raise FingerprintError(f"unknown plan node {type(node).__name__}")

    def _scan_doc(self, node: Scan) -> Doc:
        schema = node.schema
        key_idx = sorted(schema.columns.index(k) for k in schema.key)
        col_ctx = [
            [c, schema.column_type(c), bool(schema.is_nullable(c))]
            for c in schema.columns
        ]
        fk_docs: list = []
        if self.db is not None:
            for fk in self.db.foreign_keys_of(schema.name):
                fk_docs.append(
                    [list(fk.child_columns), fk.parent_table]
                )
            fk_docs = _sorted_docs(fk_docs)
        doc: Doc = ["scan", schema.name, col_ctx, key_idx, fk_docs]
        if not self.alpha:
            doc = doc + [node.alias]
        return doc


def plan_fingerprints(plan: PlanNode, db: Optional[Database] = None) -> dict[int, str]:
    """Alpha fingerprint of every *annotated* sub-plan, keyed by
    ``node_id``.

    Nodes still carrying the pre-annotation ``node_id == -1`` are
    fingerprinted (their parents need them) but omitted from the map.
    """
    walker = _PlanWalker(db, True)
    walker.visit(plan)
    return dict(walker.by_node_id)


def plan_fingerprint(
    plan: PlanNode, db: Optional[Database] = None, alpha: bool = True
) -> str:
    """Top-level fingerprint of a plan."""
    walker = _PlanWalker(db, alpha)
    root, _ = walker.visit(plan)
    return digest(["plan", root])


class _ScriptWalker:
    """Canonical documents for ∆-script steps.

    Columns are referenced positionally (index into the child IR node's
    ``columns``), plan nodes by their plan fingerprint, and
    generator-invented diff / returning / expansion names through a
    first-seen interner, mirroring ``wire``'s string table.  A script
    that differs from another only in invented names and attribute
    names therefore shares its alpha fingerprint.
    """

    def __init__(
        self,
        plan_walker: _PlanWalker,
        node_by_id: dict[int, PlanNode],
        alpha: bool,
    ):
        self._plans = plan_walker
        self._nodes = node_by_id
        self.alpha = alpha
        self._names: dict[str, int] = {}

    def _intern(self, name: str) -> Doc:
        if not self.alpha:
            return name
        idx = self._names.setdefault(name, len(self._names))
        return idx

    def _node_fp(self, node: PlanNode) -> str:
        h, _ = self._plans.visit(node)
        return h

    def _target_columns(self, target: str) -> Optional[tuple[str, ...]]:
        """Columns of a diff-schema target ("n<id>" or a base table)."""
        if target.startswith("n"):
            suffix = target[1:]
            if suffix.isdigit() and int(suffix) in self._nodes:
                return self._nodes[int(suffix)].columns
        return None

    def _attr_ref(self, attr: str, columns: Optional[tuple[str, ...]]) -> Doc:
        if not self.alpha or columns is None:
            return attr  # base-table attrs are schema identity
        return columns.index(attr)

    def schema_doc(self, schema: DiffSchema) -> Doc:
        target_doc: Doc
        cols = self._target_columns(schema.target)
        if cols is not None and self.alpha:
            suffix = schema.target[1:]
            target_doc = ["node", self._node_fp(self._nodes[int(suffix)])]
        else:
            target_doc = ["t", schema.target]
        return [
            "dschema",
            schema.kind,
            target_doc,
            [self._attr_ref(a, cols) for a in schema.id_attrs],
            [self._attr_ref(a, cols) for a in schema.pre_attrs],
            [self._attr_ref(a, cols) for a in schema.post_attrs],
        ]

    def _env(self, columns: tuple[str, ...]) -> dict[str, Doc]:
        if self.alpha:
            return {c: ["p", i] for i, c in enumerate(columns)}
        return {c: c for c in columns}

    def ir_doc(self, node: IrNode) -> Doc:
        alpha = self.alpha
        if isinstance(node, DiffSource):
            return ["dsrc", self._intern(node.name), self.schema_doc(node.schema)]
        if isinstance(node, SubviewSource):
            return ["sub", self._node_fp(node.node), node.state]
        if isinstance(node, AppliedSource):
            return [
                "applied",
                self._intern(node.apply_name),
                len(node.key),
                len(node.attrs),
            ]
        if isinstance(node, Empty):
            return ["empty", len(node.columns) if alpha else list(node.columns)]
        if isinstance(node, Filter):
            env = self._env(node.child.columns)
            return [
                "filter",
                expr_doc(node.predicate, env, alpha),
                self.ir_doc(node.child),
            ]
        if isinstance(node, Compute):
            env = self._env(node.child.columns)
            child_pos = {c: i for i, c in enumerate(node.child.columns)}
            items: list = []
            for name, expr in node.items:
                if alpha and isinstance(expr, Col):
                    item: Doc = ["p", child_pos[expr.name]]
                else:
                    item = ["e", expr_doc(expr, env, alpha)]
                if not alpha:
                    item = ["item", name, item]
                items.append(item)
            return ["pi", items, self.ir_doc(node.child)]
        if isinstance(node, Distinct):
            return ["distinct", self.ir_doc(node.child)]
        if isinstance(node, UnionRows):
            parts = [self.ir_doc(p) for p in node.parts]
            return ["urows", _sorted_docs(parts) if alpha else parts]
        if isinstance(node, GroupAgg):
            env = self._env(node.child.columns)
            child_pos = {c: i for i, c in enumerate(node.child.columns)}
            keys: list = [child_pos[k] if alpha else k for k in node.keys]
            if alpha:
                keys = sorted(keys)
            return [
                "gamma",
                keys,
                [self._agg_doc(a, env) for a in node.aggs],
                self.ir_doc(node.child),
            ]
        if isinstance(node, ProbeJoin):
            left_pos = {c: i for i, c in enumerate(node.left.columns)}
            sub_pos = {c: i for i, c in enumerate(node.node.columns)}
            on = [
                [left_pos[a] if alpha else a, sub_pos[b] if alpha else b]
                for a, b in node.on
            ]
            if alpha:
                on = sorted(on)
            keep: list = []
            for out, sub in node.keep:
                keep.append([sub_pos[sub]] if alpha else [out, sub])
            env = self._env(node.columns)
            residual = (
                expr_doc(node.residual, env, alpha)
                if node.residual is not None
                else "x"
            )
            return [
                "probej",
                self.ir_doc(node.left),
                self._node_fp(node.node),
                node.state,
                on,
                keep,
                residual,
            ]
        if isinstance(node, ProbeSemi):
            left_pos = {c: i for i, c in enumerate(node.left.columns)}
            sub_pos = {c: i for i, c in enumerate(node.node.columns)}
            on = [
                [left_pos[a] if alpha else a, sub_pos[b] if alpha else b]
                for a, b in node.on
            ]
            if alpha:
                on = sorted(on)
            env = self._env(node.left.columns)
            if self.alpha:
                env.update(
                    {"sub__" + c: ["s", i] for i, c in enumerate(node.node.columns)}
                )
            else:
                env.update({"sub__" + c: "sub__" + c for c in node.node.columns})
            residual = (
                expr_doc(node.residual, env, alpha)
                if node.residual is not None
                else "x"
            )
            return [
                "probes",
                self.ir_doc(node.left),
                self._node_fp(node.node),
                node.state,
                on,
                residual,
                bool(node.negated),
            ]
        raise FingerprintError(f"unknown IR node {type(node).__name__}")

    def _agg_doc(self, agg: AggSpec, env: dict[str, Doc]) -> Doc:
        arg = expr_doc(agg.arg, env, self.alpha) if agg.arg is not None else None
        if self.alpha:
            return ["agg", agg.func, arg]
        return ["agg", agg.func, arg, agg.name]

    def step_doc(self, step: Step) -> Doc:
        if isinstance(step, ComputeDiffStep):
            return [
                "compute",
                self._intern(step.name),
                self.schema_doc(step.schema),
                self.ir_doc(step.ir),
                step.phase,
            ]
        if isinstance(step, ApplyDiffStep):
            target: Doc
            node = self._nodes.get(step.target_node_id)
            if node is not None and self.alpha:
                target = ["node", self._node_fp(node)]
            else:
                target = ["t", step.target_node_id, step.target_label]
            returning = (
                self._intern(step.returning_name)
                if step.returning_name is not None
                else None
            )
            return [
                "apply",
                self._intern(step.diff_name),
                target,
                step.phase,
                returning,
            ]
        if isinstance(step, MarkCacheUpdatedStep):
            node = self._nodes.get(step.node_id)
            if node is not None and self.alpha:
                return ["mark", ["node", self._node_fp(node)]]
            return ["mark", ["t", step.node_id, step.label]]
        if isinstance(step, (AssociativeAggregateStep, GeneralAggregateStep)):
            kind = (
                "agg-assoc"
                if isinstance(step, AssociativeAggregateStep)
                else "agg-general"
            )
            gnode_fp = self._node_fp(step.gnode)
            inputs = [[k, self._intern(n)] for k, n in step.inputs]
            # Emitted diff names are defined here; intern them in a
            # fixed kind order so downstream references resolve.
            emitted = [
                self._intern(step.emitted[k]) for k in sorted(step.emitted)
            ]
            opcache = (
                self._intern(step.opcache_name)
                if isinstance(step, AssociativeAggregateStep)
                else None
            )
            return [kind, gnode_fp, inputs, opcache, emitted, step.phase]
        raise FingerprintError(f"unknown script step {type(step).__name__}")


def script_fingerprint(
    script: DeltaScript,
    plan: PlanNode,
    db: Optional[Database] = None,
    alpha: bool = True,
) -> str:
    """Fingerprint of a ∆-script against its (annotated) view plan."""
    plan_walker = _PlanWalker(db, alpha)
    plan_walker.visit(plan)
    node_by_id = {n.node_id: n for n in plan.walk() if n.node_id >= 0}
    walker = _ScriptWalker(plan_walker, node_by_id, alpha)
    view_node = node_by_id.get(script.view_node_id)
    view_doc: Doc
    if view_node is not None and alpha:
        view_doc = ["node", walker._node_fp(view_node)]
    else:
        view_doc = ["t", script.view_node_id]
    steps = [walker.step_doc(s) for s in script.steps]
    return digest(["script", view_doc, steps])


def generated_fingerprint(
    generated: object, db: Optional[Database] = None, alpha: bool = True
) -> str:
    """Combined plan+script fingerprint of a ``GeneratedPlan``.

    Folds in the cache placement (node fingerprints of cached
    sub-plans), so two generations differing only in cache/route choice
    hash differently even when plan and script agree.
    """
    plan = generated.plan  # type: ignore[attr-defined]
    script = generated.script  # type: ignore[attr-defined]
    walker = _PlanWalker(db, alpha)
    walker.visit(plan)
    node_fps = dict(walker.by_node_id)
    cache_docs: list = []
    for spec in generated.cache_specs:  # type: ignore[attr-defined]
        fp = node_fps.get(spec.node_id, f"n{spec.node_id}")
        cache_docs.append([spec.kind, fp] if alpha else [spec.kind, fp, spec.name])
    cache_docs = _sorted_docs(cache_docs)
    return digest(
        [
            "generated",
            plan_fingerprint(plan, db, alpha),
            script_fingerprint(script, plan, db, alpha),
            cache_docs,
        ]
    )
