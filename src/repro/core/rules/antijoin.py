"""i-diff propagation rules for the antisemijoin L ▷_φ(X̄,Ȳ) R — paper
Table 13 — and, with the match polarity flipped, for the semijoin
L ⋉_φ(X̄,Ȳ) R.

One body serves both: *negated* is True for the antisemijoin (the output
is the set of left rows with **no** φ-matching right row) and False for
the semijoin (left rows with **some** match), the same flag
``ir.ProbeSemi`` and the evaluators carry.  Below, a left row *qualifies*
when its match status is the one the operator keeps.

Left-side diffs
    inserts are (anti)semi-probed against ``Input_post`` of the right
    side and kept only when they qualify; deletes and updates pass
    through (IDs of the output are the left IDs); updates touching X̄
    additionally emit an insert branch (rows whose new values qualify)
    and a delete branch (rows whose new values no longer do).

Right-side diffs
    an insert on the right touches the left rows it newly matches — the
    antisemijoin *deletes* them, the semijoin *inserts* them; a delete on
    the right touches the left rows that matched it and now match
    nothing — the antisemijoin *inserts* them, the semijoin *deletes*
    them; an update on Ȳ is treated as delete-then-insert.
"""

from __future__ import annotations

from typing import Optional, Union

from ...algebra.plan import AntiJoin, SemiJoin
from ...expr import Expr, TRUE, col, columns_of, equi_join_pairs, rename_columns
from ..diffs import DELETE, INSERT, DiffSchema, pre_col
from ..ir import POST, PRE, SUB_PREFIX, Compute, Distinct, IrNode, ProbeJoin, ProbeSemi
from .base import (
    ValueSource,
    make_insert,
    passthrough_schema,
    state_mapping,
    target_name,
    values_via_probe,
)

SemiLike = Union[AntiJoin, SemiJoin]


def propagate_antijoin(
    op: AntiJoin, source: IrNode, in_schema: DiffSchema, side: int
) -> list[tuple[DiffSchema, IrNode]]:
    """Instantiate the Table 13 rules for the diff arriving from child
    *side* (0 = the preserved left input, 1 = the negation side)."""
    return propagate_semi_like(op, source, in_schema, side, negated=True)


def propagate_semi_like(
    op: SemiLike, source: IrNode, in_schema: DiffSchema, side: int, negated: bool
) -> list[tuple[DiffSchema, IrNode]]:
    """The Table 13 rules at either polarity (see the module docstring)."""
    if side == 0:
        return _left_rules(op, source, in_schema, negated)
    return _right_rules(op, source, in_schema, negated)


def _pairs(op: SemiLike) -> tuple[list[tuple[str, str]], Optional[Expr]]:
    pairs, residual = equi_join_pairs(op.condition, op.left.columns, op.right.columns)
    return pairs, (None if residual == TRUE else residual)


def _semi_right(
    op: SemiLike,
    values: ValueSource,
    pairs: list[tuple[str, str]],
    residual: Optional[Expr],
    negated: bool,
) -> ProbeSemi:
    """(anti)semijoin of *values* against the right side's post-state."""
    on = [(values.mapping[l], r) for l, r in pairs]
    residual_expr = None
    if residual is not None:
        mapping = dict(values.mapping)
        mapping.update({c: SUB_PREFIX + c for c in op.right.columns})
        residual_expr = rename_columns(residual, mapping)
    return ProbeSemi(
        values.ir, op.right, POST, on=on, residual=residual_expr, negated=negated
    )


# ----------------------------------------------------------------------
# left-side diffs
# ----------------------------------------------------------------------
def _left_rules(
    op: SemiLike, source: IrNode, in_schema: DiffSchema, negated: bool
) -> list[tuple[DiffSchema, IrNode]]:
    pairs, residual = _pairs(op)
    left_condition_attrs = set(columns_of(op.condition)) & set(op.left.columns)

    if in_schema.kind == INSERT:
        values = ValueSource(source, state_mapping(in_schema, POST), probed=False)
        ir = _semi_right(op, values, pairs, residual, negated)
        return [(passthrough_schema(op, in_schema), ir)]

    if in_schema.kind == DELETE:
        return [(passthrough_schema(op, in_schema), source)]

    out: list[tuple[DiffSchema, IrNode]] = [
        (passthrough_schema(op, in_schema), source)
    ]
    if not (left_condition_attrs & set(in_schema.post_attrs)):
        return out

    # Insert branch: the new values qualify.
    post_values = values_via_probe(source, in_schema, op.left, POST, list(op.left.columns))
    qualifies = _semi_right(op, post_values, pairs, residual, negated)
    insert_values = ValueSource(qualifies, post_values.mapping, post_values.probed)
    out.append(make_insert(op, insert_values, {c: col(c) for c in op.columns}))

    # Delete branch: the new values do not qualify -> the row leaves V.
    needed = sorted(left_condition_attrs)
    dpost = values_via_probe(source, in_schema, op.left, POST, needed, prefix="vd__")
    disqualified = _semi_right(op, dpost, pairs, residual, not negated)
    delete_schema = DiffSchema(
        DELETE, target_name(op), in_schema.id_attrs, pre_attrs=in_schema.pre_attrs
    )
    items = [(a, col(a)) for a in in_schema.id_attrs]
    items += [(pre_col(a), col(pre_col(a))) for a in in_schema.pre_attrs]
    out.append((delete_schema, Compute(disqualified, items)))
    return out


# ----------------------------------------------------------------------
# right-side diffs
# ----------------------------------------------------------------------
def _probe_left(
    op: SemiLike,
    values: ValueSource,
    pairs: list[tuple[str, str]],
    residual: Optional[Expr],
    state: str,
) -> ProbeJoin:
    """Left rows φ-matching the right values carried by *values*."""
    on = [(values.mapping[r], l) for l, r in pairs]
    keep = [(c, c) for c in op.left.columns]
    residual_expr = None
    if residual is not None:
        residual_expr = rename_columns(residual, dict(values.mapping))
    return ProbeJoin(values.ir, op.left, state, on=on, keep=keep, residual=residual_expr)


def _right_rules(
    op: SemiLike, source: IrNode, in_schema: DiffSchema, negated: bool
) -> list[tuple[DiffSchema, IrNode]]:
    pairs, residual = _pairs(op)
    right_condition_attrs = set(columns_of(op.condition)) & set(op.right.columns)
    needed = sorted(right_condition_attrs)

    def newly_matched(values: ValueSource) -> tuple[DiffSchema, IrNode]:
        """Left rows matching the right *values*: they enter the semijoin
        output (identical inserts for rows already present are absorbed
        by APPLY) and leave the antisemijoin's."""
        probe = _probe_left(op, values, pairs, residual, POST)
        return _membership_diff(op, probe, entering=not negated)

    def orphaned(values: ValueSource) -> tuple[DiffSchema, IrNode]:
        """Left rows that matched the right *values* and now match
        nothing at all: they leave the semijoin output and (re-)enter
        the antisemijoin's."""
        probe = _probe_left(op, values, pairs, residual, POST)
        left_values = ValueSource(probe, {c: c for c in op.left.columns}, probed=True)
        unmatched = _semi_right(op, left_values, pairs, residual, negated=True)
        return _membership_diff(op, unmatched, entering=negated)

    if in_schema.kind == INSERT:
        values = ValueSource(source, state_mapping(in_schema, POST), probed=False)
        return [newly_matched(values)]

    if in_schema.kind == DELETE:
        return [orphaned(values_via_probe(source, in_schema, op.right, PRE, needed))]

    # UPDATE: treated as delete-then-insert (Table 13) — the OLD values
    # orphan left rows, the NEW values match left rows; the delete
    # branch comes first at either polarity.
    if not (right_condition_attrs & set(in_schema.post_attrs)):
        return []

    old = orphaned(
        values_via_probe(source, in_schema, op.right, PRE, needed, prefix="vp__")
    )
    new = newly_matched(
        values_via_probe(source, in_schema, op.right, POST, needed, prefix="vq__")
    )
    return [new, old] if negated else [old, new]


def _membership_diff(
    op: SemiLike, ir: IrNode, entering: bool
) -> tuple[DiffSchema, IrNode]:
    """Insert (*entering*) or delete diff over the left rows *ir* carries,
    one copy of each (several right diff rows may have matched the same
    left row)."""
    if entering:
        dedup = Distinct(Compute(ir, [(c, col(c)) for c in op.left.columns]))
        insert_values = ValueSource(dedup, {c: c for c in op.left.columns}, probed=True)
        return make_insert(op, insert_values, {c: col(c) for c in op.columns})
    left_ids = tuple(op.ids)
    delete_schema = DiffSchema(DELETE, target_name(op), left_ids)
    return delete_schema, Distinct(Compute(ir, [(a, col(a)) for a in left_ids]))
