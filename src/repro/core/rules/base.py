"""Shared machinery for the operator i-diff propagation rules.

The paper's rule tables (Tables 4–13) reference three kinds of values:

* diff columns — IDs (plain names), ``a__pre``, ``a__post``;
* the operator's input subviews (``Input_{pre,post}``);
* the operator's output (``Output``).

A recurring concern is whether a condition over child attributes ``X̄`` can
be evaluated from the diff alone in a given state.  An attribute ``a`` of
the child is *derivable* from an update diff:

* in post-state, when ``a`` is an ID, an updated attribute (``a__post``)
  or a non-updated attribute with a recorded pre value (pre == post);
* in pre-state, when ``a`` is an ID or has a recorded pre value.

Insert diffs derive everything in post-state and nothing in pre-state;
delete diffs the reverse.  When derivation fails, rules fall back to the
general equation form — a probe of ``Input`` — which Pass 4 later
minimizes away where Figure 8's rewrites apply.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...algebra.plan import PlanNode
from ...errors import RuleError
from ...expr import Expr, all_of, col, columns_of, conjuncts_of, rename_columns
from ...storage import row_extractor
from ..diffs import DELETE, INSERT, UPDATE, Diff, DiffSchema, post_col, pre_col
from ..ir import POST, PRE, Compute, IrNode, ProbeJoin

#: Prefix for subview columns pulled in by a value-providing probe.
VALUE_PREFIX = "v__"


def target_name(node: PlanNode) -> str:
    """The logical relation name of the subview rooted at *node*."""
    return f"n{node.node_id}"


# ----------------------------------------------------------------------
# state-specific derivation of child-attribute values from a diff
# ----------------------------------------------------------------------
def state_mapping(schema: DiffSchema, state: str) -> dict[str, str]:
    """Map child attribute -> diff column carrying its *state* value.

    Only contains attributes that are derivable (see module docstring).
    """
    mapping = {a: a for a in schema.id_attrs}
    if state == POST:
        if schema.kind == DELETE:
            return {}
        for a in schema.pre_attrs:
            if a not in schema.post_attrs:
                # Not updated by this diff: post value equals the pre value.
                mapping[a] = pre_col(a)
        for a in schema.post_attrs:
            mapping[a] = post_col(a)
        return mapping
    if state == PRE:
        if schema.kind == INSERT:
            return {}
        for a in schema.pre_attrs:
            mapping[a] = pre_col(a)
        return mapping
    raise RuleError(f"unknown state {state!r}")


def derivable(schema: DiffSchema, attrs: Sequence[str], state: str) -> bool:
    """True when every attribute in *attrs* is derivable in *state*."""
    mapping = state_mapping(schema, state)
    return all(a in mapping for a in attrs)


def subst_state(expr: Expr, schema: DiffSchema, state: str) -> Optional[Expr]:
    """Rewrite *expr* over child attributes into diff columns for *state*.

    Returns None when some referenced attribute is not derivable.
    """
    mapping = state_mapping(schema, state)
    if not set(columns_of(expr)) <= set(mapping):
        return None
    return rename_columns(expr, mapping)


def split_conjuncts(
    predicate: Expr, local_columns: Sequence[str]
) -> tuple[Expr, Expr]:
    """Split into (conjuncts referencing only *local_columns*, the rest)."""
    local_set = set(local_columns)
    local: list[Expr] = []
    rest: list[Expr] = []
    for conjunct in conjuncts_of(predicate):
        if set(columns_of(conjunct)) <= local_set:
            local.append(conjunct)
        else:
            rest.append(conjunct)
    return all_of(*local), all_of(*rest)


# ----------------------------------------------------------------------
# value provisioning: diff columns when derivable, Input probe otherwise
# ----------------------------------------------------------------------
class ValueSource:
    """Access to the *state* values of all child attributes, for each diff
    row — either straight from the diff or via an Input probe.

    ``ir`` is the (possibly extended) tree whose rows carry the values;
    ``mapping`` resolves each child attribute to a column of that tree.
    ``probed`` is True when an Input probe was added (a base-data access
    the minimizer could not avoid).
    """

    __slots__ = ("ir", "mapping", "probed")

    def __init__(self, ir: IrNode, mapping: dict[str, str], probed: bool):
        self.ir = ir
        self.mapping = mapping
        self.probed = probed

    def expr_for(self, attr: str) -> Expr:
        return col(self.mapping[attr])

    def rewrite(self, expr: Expr) -> Expr:
        return rename_columns(expr, self.mapping)

    def covers(self, attrs: Sequence[str]) -> bool:
        return all(a in self.mapping for a in attrs)


def values_via_probe(
    source: IrNode,
    schema: DiffSchema,
    child: PlanNode,
    state: str,
    needed: Sequence[str],
    prefix: str = VALUE_PREFIX,
) -> ValueSource:
    """A :class:`ValueSource` for *needed* child attributes in *state*.

    Always emits the general rule form — ``... ⋈Ī Input_state`` — for
    attributes beyond the diff's IDs.  Pass 4's Figure 8 rewrites replace
    the probe by a projection of the diff's own columns whenever the diff
    provably carries the values, so rules call this unconditionally and
    stay in the general form of Tables 4–13.
    """
    needed = [a for a in dict.fromkeys(needed)]
    non_id = [a for a in needed if a not in schema.id_attrs]
    if not non_id:
        return ValueSource(source, {a: a for a in needed}, probed=False)
    on = [(a, a) for a in schema.id_attrs]
    keep = [(prefix + a, a) for a in non_id]
    probe = ProbeJoin(source, child, state, on=on, keep=keep)
    mapping = {a: (a if a in schema.id_attrs else prefix + a) for a in needed}
    return ValueSource(probe, mapping, probed=True)


# ----------------------------------------------------------------------
# output diff construction helpers
# ----------------------------------------------------------------------
def make_insert(
    op: PlanNode,
    values: ValueSource,
    out_exprs: dict[str, Expr],
) -> tuple[DiffSchema, IrNode]:
    """Build an insert diff over *op*'s output schema.

    *out_exprs* maps each output column to an expression over **child
    attributes**; it is rewritten through *values* to diff/probe columns.
    """
    ids = tuple(op.ids)
    non_ids = tuple(c for c in op.columns if c not in set(ids))
    schema = DiffSchema(INSERT, target_name(op), ids, post_attrs=non_ids)
    items = [(a, values.rewrite(out_exprs[a])) for a in ids]
    items += [(post_col(a), values.rewrite(out_exprs[a])) for a in non_ids]
    return schema, Compute(values.ir, items)


def passthrough_schema(op: PlanNode, in_schema: DiffSchema) -> DiffSchema:
    """The input schema re-targeted at *op*'s subview (columns unchanged)."""
    return in_schema.rename_target(target_name(op))


def full_schemas(op: PlanNode) -> dict[str, DiffSchema]:
    """Per kind, the full-ID diff schema of *op*'s subview carrying every
    non-ID attribute: what a blocking operator emits (no update schema
    when there is no non-ID attribute to update)."""
    non_ids = tuple(c for c in op.columns if c not in set(op.ids))
    target = target_name(op)
    schemas = {
        INSERT: DiffSchema(INSERT, target, op.ids, post_attrs=non_ids),
        DELETE: DiffSchema(DELETE, target, op.ids, pre_attrs=non_ids),
    }
    if non_ids:
        schemas[UPDATE] = DiffSchema(
            UPDATE, target, op.ids, pre_attrs=non_ids, post_attrs=non_ids
        )
    return schemas


def row_changes(diff: Diff, columns: Sequence[str], layouts: dict, name: str) -> list[tuple]:
    """The ``(pre_row, post_row)`` pairs, laid out as *columns* (None: the
    absent side), of a diff that derives every one of them in the states
    its kind has — a t-diff.  The step reading it as input *name* keeps
    the extractors in *layouts*, resolved once per input schema."""
    schema = diff.schema
    bound = layouts.get(name)
    if bound is None or bound[0] is not schema:
        bound = layouts[name] = (schema, _row_layout(schema, columns))
    pre, post = bound[1]
    if pre is None:
        return [(None, post(row)) for row in diff.rows]
    if post is None:
        return [(pre(row), None) for row in diff.rows]
    return [(pre(row), post(row)) for row in diff.rows]


def _row_layout(schema: DiffSchema, columns: Sequence[str]) -> tuple:
    """The pre and post row extractors of a t-diff of *schema* (None: the
    state its kind lacks)."""

    def rows_in(state: str):
        mapping = state_mapping(schema, state)
        return row_extractor([schema.position(mapping[c]) for c in columns])

    return (
        None if schema.kind == INSERT else rows_in(PRE),
        None if schema.kind == DELETE else rows_in(POST),
    )


def lower_key_update(
    source: IrNode,
    in_schema: DiffSchema,
    child: PlanNode,
    problem_attrs: Sequence[str],
) -> list[tuple[str, DiffSchema, IrNode]]:
    """Lower an update diff that modifies attributes serving as *output*
    IDs of the operator above into key-safe parts.

    A non-key child attribute can become an ID of a union (ID(l) ∪ ID(r))
    or of a join (equality canonicalization); SQL forbids updating key
    columns in place, so rows whose problem attributes actually changed
    are re-expressed as a delete of the old row plus an insert of the new
    one, and the update survives only for rows where they are unchanged
    (with the problem attributes dropped from its post set).

    Returns (kind, schema, ir) triples over the *child* subview, to be fed
    back through the operator's ordinary kind-specific rules.  The
    synthetic delete is sound only under the canonical −/u/+ APPLY order
    (its IDs still exist post-state); Pass 4 never post-probes deletes, so
    the C2 rewrite cannot misfire on it.
    """
    from ..ir import Filter
    from ...expr import Call, Not, any_of

    missing = [a for a in problem_attrs if a not in in_schema.pre_attrs]
    if missing:
        raise RuleError(
            f"update on {sorted(missing)} feeds an operator whose output IDs "
            f"include them, but the diff carries no pre-state values to "
            f"lower the update into delete+insert"
        )
    changed = any_of(
        *[
            Call("is_distinct", [col(post_col(a)), col(pre_col(a))])
            for a in problem_attrs
        ]
    )
    out: list[tuple[str, DiffSchema, IrNode]] = []

    # Rows where the problem attributes did not change: a plain update
    # with those attributes dropped from the post set.
    remaining_posts = tuple(
        a for a in in_schema.post_attrs if a not in set(problem_attrs)
    )
    if remaining_posts:
        reduced = DiffSchema(
            UPDATE,
            in_schema.target,
            in_schema.id_attrs,
            pre_attrs=in_schema.pre_attrs,
            post_attrs=remaining_posts,
        )
        items = [(a, col(a)) for a in in_schema.id_attrs]
        items += [(pre_col(a), col(pre_col(a))) for a in in_schema.pre_attrs]
        items += [(post_col(a), col(post_col(a))) for a in remaining_posts]
        out.append(
            (UPDATE, reduced, Compute(Filter(source, Not(changed)), items))
        )

    changed_rows: IrNode = Filter(source, changed)

    delete_schema = DiffSchema(
        DELETE,
        in_schema.target,
        in_schema.id_attrs,
        pre_attrs=in_schema.pre_attrs,
    )
    d_items = [(a, col(a)) for a in in_schema.id_attrs]
    d_items += [(pre_col(a), col(pre_col(a))) for a in in_schema.pre_attrs]
    out.append((DELETE, delete_schema, Compute(changed_rows, d_items)))

    # Insert of the new row, with full child IDs and full post values.
    values = values_via_probe(
        changed_rows, in_schema, child, POST, list(child.columns)
    )
    child_ids = tuple(child.ids)
    non_ids = tuple(c for c in child.columns if c not in set(child_ids))
    insert_schema = DiffSchema(
        INSERT, in_schema.target, child_ids, post_attrs=non_ids
    )
    i_items = [(a, values.expr_for(a)) for a in child_ids]
    i_items += [(post_col(a), values.expr_for(a)) for a in non_ids]
    out.append((INSERT, insert_schema, Compute(values.ir, i_items)))
    return out
