"""The tuple rule set — the paper's Section 7 baseline, "idIVM with
tuple-based diff propagation rules": the ∆-script generator, executor and
APPLY of idIVM, instantiated with t-diff rules.

A t-diff is the i-diff whose IDs are the subview's full key and whose
states carry every attribute (DESIGN.md §1): one insert, one delete and
one update schema per base table, the update one with every non-key
attribute pre and post.  Computing them requires whole subview tuples,
which is what forces the baseline to join through the base tables (the
cost parameter *a* of Section 6) where i-diffs pass IDs along.

* σ, π, ∪ — the i-diff rule bodies.  Over a t-diff every value they need
  is derivable, so Pass 4 rewrites their ``Input`` probes away: σ splits
  an update crossing its condition into an insert or a delete, π's
  σ_isupd drops an update whose projected pre equals its post.
* ⋈, ⋉, ▷ — blocking: the generator parks both children's t-diffs at the
  operator, as it parks γ's, and one :class:`TupleJoinStep` per operator
  runs the classic algebraic delta rules (Qian/Wiederhold,
  Griffin/Libkin) with keyed update diffs, reading the other side through
  counted index probes of the base tables (diff-driven loop plans).
* γ — the blocking aggregate steps, taking the full child rows of its
  t-diffs as the changes (free — Appendix A's pipelined γ).

No intermediate caches ("the tuple-based approach does not use a cache,
since it cannot benefit from it", Section 6.2) except hidden
materializations of *non-root* aggregate outputs — written, never read —
without which deltas could not be re-expressed upward at all (the paper
never benchmarks nested aggregates).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from ...algebra.plan import AntiJoin, Join, PlanNode, SemiJoin, base_tables
from ...errors import ScriptError
from ...expr import TRUE, columns_of, equi_join_pairs, matches
from ...storage import Database, row_extractor
from ..diffs import (
    DELETE,
    INSERT,
    UPDATE,
    Diff,
    DiffSchema,
    delete_schema_for,
    insert_schema_for,
    update_schema_for,
)
from ..compile import SubviewReaders
from ..generator import ID_RULES, RuleSet
from ..ir import POST, PRE
from ..ir_exec import IrContext
from ..script import Step
from .base import full_schemas, row_changes


def tuple_base_schemas(plan: PlanNode, db: Database) -> list[DiffSchema]:
    """Per base table of *plan*: its insert, delete and — when it has a
    non-key attribute — update t-diff schema."""
    schemas: list[DiffSchema] = []
    for table in sorted(base_tables(plan)):
        schema = db.table(table).schema
        schemas += [insert_schema_for(schema), delete_schema_for(schema)]
        if schema.non_key_columns:
            schemas.append(update_schema_for(schema, schema.non_key_columns))
    return schemas


class TChanges(NamedTuple):
    """One subview's full-row changes: the three t-diff tables."""

    inserts: Sequence[tuple] = ()
    deletes: Sequence[tuple] = ()
    #: ``(pre, post)`` row pairs
    updates: Sequence[tuple[tuple, tuple]] = ()

    def is_empty(self) -> bool:
        return not (self.inserts or self.deletes or self.updates)


def repair_updates(delta: TChanges, id_positions: list[int]) -> TChanges:
    """Re-pair delete+insert rows sharing an output key into updates."""
    def key(row: tuple) -> tuple:
        return tuple(row[i] for i in id_positions)

    deleted = {key(r): r for r in delta.deletes}
    out = TChanges([], [], list(delta.updates))
    for row in delta.inserts:
        k = key(row)
        if k in deleted:
            pre = deleted.pop(k)
            if pre != row:
                out.updates.append((pre, row))
        else:
            out.inserts.append(row)
    out.deletes.extend(deleted.values())
    return out


class TupleJoinStep(Step):
    """``⋈`` / ``⋉`` / ``▷`` over t-diffs, one blocking statement: every
    t-diff of both children in, the operator's exact t-diffs out."""

    def __init__(
        self, node: PlanNode, inputs: Sequence[tuple[str, int]], emit_prefix: str, phase: str
    ):
        """*inputs* is a list of ``(diff name, child side)`` pairs."""
        self.node = node
        self.inputs = [("diff", name) for name, _ in inputs]
        self.sides = dict(inputs)
        self.phase = phase
        self.schemas = full_schemas(node)
        self.emitted = {
            kind: f"{emit_prefix}_{schema.kind_label()}"
            for kind, schema in self.schemas.items()
        }
        ids = self.schemas[INSERT].id_attrs
        at = {c: i for i, c in enumerate(node.columns)}
        #: an output row's IDs, and its other values, in schema order
        self._ids_of = row_extractor([at[c] for c in ids])
        self._values_of = row_extractor([at[c] for c in node.columns if c not in set(ids)])
        #: input name -> its t-diff's row extractors (``row_changes``)
        self._layouts: dict[str, tuple] = {}
        #: the view's subview readers (:meth:`bind_tables`)
        self._readers: Optional[SubviewReaders] = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_readers": None}

    def reads(self) -> list[tuple[str, str]]:
        return self.inputs

    def subview_reads(self) -> list[tuple]:
        """Every probe of a child, uncached, in both states: the right
        one bound to its equi-join columns (for left rows), the left one
        to its own (for right rows)."""
        node = self.node
        pairs = []
        if node.condition is not None:
            pairs, _ = equi_join_pairs(node.condition, node.left.columns, node.right.columns)
        probed = ((node.right, tuple(b for _, b in pairs)), (node.left, tuple(a for a, _ in pairs)))
        return [(child, state, attrs or None, False) for child, attrs in probed for state in (PRE, POST)]

    def bind_tables(self, caches, operator_caches, readers: SubviewReaders) -> None:
        self._readers = readers
        for key in self.subview_reads():
            readers(*key)

    def binds(self) -> list[tuple[str, str]]:
        return [("diff", name) for name in self.emitted.values()]

    def pre_tables(self) -> frozenset[str]:
        # both children are read uncached, in either state
        return base_tables(self.node)

    def idle(self, ctx: IrContext) -> None:
        for kind, name in self.emitted.items():
            ctx.diffs[name] = Diff.trusted(self.schemas[kind], [])

    def run(self, ctx: IrContext) -> None:
        node = self.node
        sides = (TChanges([], [], []), TChanges([], [], []))
        for _, name in self.inputs:
            diff = ctx.diffs.get(name)
            if diff is None:
                raise ScriptError(f"diff {name!r} not available")
            if not diff.rows:
                continue
            side = self.sides[name]
            changes = row_changes(diff, node.children[side].columns, self._layouts, name)
            kind = diff.schema.kind
            if kind == INSERT:
                sides[side].inserts.extend(post for _, post in changes)
            elif kind == DELETE:
                sides[side].deletes.extend(pre for pre, _ in changes)
            else:
                sides[side].updates.extend(changes)
        if self._readers is None:
            self._readers = SubviewReaders()
        read = _Reads(ctx, self._readers)
        if isinstance(node, Join):
            delta = _join_delta(node, *sides, read)
        else:
            delta = _semi_like_delta(node, *sides, read, isinstance(node, AntiJoin))
        ids_of, values_of = self._ids_of, self._values_of
        rows = {
            INSERT: [ids_of(r) + values_of(r) for r in delta.inserts],
            DELETE: [ids_of(r) + values_of(r) for r in delta.deletes],
            UPDATE: [ids_of(q) + values_of(p) + values_of(q) for p, q in delta.updates],
        }
        for kind, name in self.emitted.items():
            ctx.diffs[name] = Diff(self.schemas[kind], rows[kind])

    def describe(self) -> str:
        srcs = ", ".join(name for _, name in self.inputs)
        return (
            f"t-delta n{self.node.node_id} [{self.node.label()}] "
            f"from {srcs} -> {', '.join(self.emitted.values())}"
        )


class _Reads(NamedTuple):
    """A round's reads of the other side, through the view's readers."""

    ctx: IrContext
    readers: SubviewReaders

    def __call__(self, node: PlanNode, state: str, attrs: tuple, values: list) -> list:
        """Rows of *node* in *state* whose *attrs* take one of *values*
        (all of them for no *attrs*): a counted probe of the base tables."""
        return self.readers(node, state, attrs, False)(self.ctx, values)


def _join_delta(node: Join, left: TChanges, right: TChanges, read: _Reads) -> TChanges:
    if left.is_empty() and right.is_empty():
        return TChanges()
    pairs, residual = (
        equi_join_pairs(node.condition, node.left.columns, node.right.columns)
        if node.condition is not None
        else ([], TRUE)
    )
    #: per side, (own column, the other child's column) of every equality
    on = (pairs, [(r, l) for l, r in pairs])
    positions = {c: i for i, c in enumerate(node.columns)}

    def joined(row: tuple, other: tuple, side: int) -> tuple:
        return row + other if side == 0 else other + row

    unconditional = residual == TRUE

    def holds(combined: tuple) -> bool:
        """The condition on a combined row: its equalities hold already,
        for the rows :func:`others` pairs."""
        return unconditional or matches(residual, positions, combined)

    def others(rows: list, side: int, state: str) -> list:
        """Per row of child *side*, the other child's rows in *state* it
        equi-joins: one probe for all of them, NULL never joining."""
        if not rows:
            return []
        other = node.children[1 - side]
        if not pairs:
            return [read(other, state, (), None)] * len(rows)
        at = [node.children[side].columns.index(a) for a, _ in on[side]]
        values = [tuple(r[i] for i in at) for r in rows]
        attrs = tuple(b for _, b in on[side])
        fetched = read(other, state, attrs, values)
        key_at = [other.columns.index(b) for b in attrs]
        buckets: dict[tuple, list[tuple]] = {}
        for r in fetched:
            key = tuple(r[i] for i in key_at)
            if None not in key:
                buckets.setdefault(key, []).append(r)
        return [buckets.get(v, ()) for v in values]

    # Native update t-diffs (the paper's baseline keeps updates as
    # updates): when the *other* side has no rows this batch and the
    # update keeps the join condition's columns, a single Du ⋈ R_post
    # probe suffices — this is exactly the Section 6 cost |Du|·a.
    # Anything trickier falls back to the delete+insert normal form.
    condition_cols = columns_of(node.condition) if node.condition is not None else ()
    pending = [list(left.updates), list(right.updates)]
    updates: list[tuple[tuple, tuple]] = []
    for side, other in ((0, right), (1, left)):
        if other.is_empty() and pairs:
            cols = node.children[side].columns
            kept = [i for i, c in enumerate(cols) if c in condition_cols]
            fast, rest = [], []
            for pre, post in pending[side]:
                keeps = all(pre[i] == post[i] for i in kept)
                (fast if keeps else rest).append((pre, post))
            pending[side] = rest
            for (pre, post), matched in zip(fast, others([q for _, q in fast], side, POST)):
                for o in matched:
                    after = joined(post, o, side)
                    if holds(after):
                        updates.append((joined(pre, o, side), after))

    def term(rows: list, side: int, state: str, exclude: frozenset = frozenset()) -> list:
        """*rows* of child *side* ⋈ the other child in *state*, the other
        child's rows in *exclude* skipped (already covered)."""
        return [
            combined
            for row, matched in zip(rows, others(rows, side, state))
            for o in matched
            if o not in exclude and holds(combined := joined(row, o, side))
        ]

    # The remaining updates as delete+insert, re-paired at the end.
    l_ins = [*left.inserts, *(q for _, q in pending[0])]
    l_del = [*left.deletes, *(p for p, _ in pending[0])]
    r_ins = [*right.inserts, *(q for _, q in pending[1])]
    r_del = [*right.deletes, *(p for p, _ in pending[1])]
    # ΔL+ ⋈ R_post ∪ (L_post \ ΔL+) ⋈ ΔR+, and the same over the pre-state
    inserts = term(l_ins, 0, POST) + term(r_ins, 1, POST, frozenset(l_ins))
    deletes = term(l_del, 0, PRE) + term(r_del, 1, PRE, frozenset(l_del))
    delta = TChanges(inserts, deletes, updates)
    return repair_updates(delta, [positions[c] for c in node.ids])


def _semi_like_delta(
    node, left: TChanges, right: TChanges, read: _Reads, negated: bool
) -> TChanges:
    pairs, _ = equi_join_pairs(node.condition, node.left.columns, node.right.columns)
    lcols, rcols = node.left.columns, node.right.columns
    lpair = tuple(l for l, _ in pairs)
    rpair = tuple(r for _, r in pairs)
    l_at = [lcols.index(c) for c in lpair]
    r_at = [rcols.index(c) for c in rpair]
    positions = {c: i for i, c in enumerate(lcols + rcols)}

    def survives(lr: tuple, state: str) -> bool:
        """Membership test, one probe per row: no match for the antijoin,
        a match for the semijoin."""
        rows = read(node.right, state, rpair, [tuple(lr[i] for i in l_at)])
        return any(matches(node.condition, positions, lr + rr) for rr in rows) != negated

    # Left-side changes, checked against the right side.
    inserts = [row for row in left.inserts if survives(row, POST)]
    deletes = [row for row in left.deletes if survives(row, PRE)]
    for pre, post in left.updates:
        before = survives(pre, PRE)
        if survives(post, POST):
            inserts.append(post)
        if before:
            deletes.append(pre)

    # Right-side changes: affected left rows re-checked.
    changed_left = {*left.inserts, *left.deletes, *(r for u in left.updates for r in u)}

    def affected_left(rows: list, state: str) -> list:
        if not rows:
            return []
        values = [tuple(r[i] for i in r_at) for r in rows]
        return [r for r in read(node.left, state, lpair, values) if r not in changed_left]

    affected = affected_left([*right.inserts, *(q for _, q in right.updates)], POST)
    seen = set(affected)
    affected += [
        lr
        for lr in affected_left([*right.deletes, *(p for p, _ in right.updates)], PRE)
        if lr not in seen
    ]
    for lr in affected:
        in_pre = survives(lr, PRE)
        in_post = survives(lr, POST)
        if in_pre and not in_post:
            deletes.append(lr)
        elif in_post and not in_pre:
            inserts.append(lr)

    # Dedupe (several right rows may affect the same left row).
    delta = TChanges(list(dict.fromkeys(inserts)), list(dict.fromkeys(deletes)))
    return repair_updates(delta, [lcols.index(c) for c in node.ids])


#: idIVM with tuple-based diff propagation rules: σ, π and ∪ instantiate
#: the i-diff bodies, ⋈ / ⋉ / ▷ block.
TUPLE_RULES = RuleSet(
    tuple_base_schemas,
    ID_RULES.instantiate,
    blocking={Join: TupleJoinStep, SemiJoin: TupleJoinStep, AntiJoin: TupleJoinStep},
    full_rows=True,
)
