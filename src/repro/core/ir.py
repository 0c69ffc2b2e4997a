"""Diff-query IR: the language in which i-diff propagation rules are written.

The paper expresses rules (Tables 4–13) as algebraic equations over the
input i-diff, the subviews rooted at the operator's children
(``Input_pre`` / ``Input_post``) and the operator's own output
(``Output``).  This module provides those equations as a small, composable
query IR over *diff-shaped* relations — rows whose columns are ID
attributes (plain names) plus ``attr__pre`` / ``attr__post`` value columns.

Sources
-------
* :class:`DiffSource` — a named diff computed earlier in the ∆-script
  (or a base-table i-diff instance).
* :class:`SubviewSource` — the relation of the subview rooted at a plan
  node, in pre- or post-state; resolved through caches when one exists,
  through index-driven recomputation otherwise.
* :class:`AppliedSource` — the ``UPDATE ... RETURNING`` expansion of a
  previous APPLY step (Appendix A optimization).
* :class:`Empty` — the result of a Figure 8 rewrite to ∅.

Transforms
----------
:class:`Filter`, :class:`Compute` (generalized projection),
:class:`Distinct`, :class:`UnionRows`, :class:`GroupAgg`, and the two
subview probes :class:`ProbeJoin` / :class:`ProbeSemi`, which evaluate
with diff-driven loop plans (one index probe per distinct binding).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..algebra.plan import AggSpec, PlanNode
from ..errors import ScriptError
from ..expr import Expr, columns_of
from .diffs import DiffSchema

PRE = "pre"
POST = "post"

#: Prefix under which a probed subview's columns appear inside residual
#: predicates of :class:`ProbeSemi` (to avoid colliding with diff columns).
SUB_PREFIX = "sub__"


class IrNode:
    """Base class; every node knows its output columns statically."""

    columns: tuple[str, ...]

    def children(self) -> tuple["IrNode", ...]:
        return ()

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()

    def pretty(self, indent: int = 0) -> str:
        """Multi-line script rendering (used by DeltaScript.describe)."""
        pad = "  " * indent
        head = pad + self._describe()
        parts = [head]
        for child in self.children():
            parts.append(child.pretty(indent + 1))
        return "\n".join(parts)

    def _describe(self) -> str:
        return type(self).__name__


class DiffSource(IrNode):
    """Reference to a named diff in the script environment."""

    def __init__(self, name: str, schema: DiffSchema):
        self.name = name
        self.schema = schema
        self.columns = schema.columns

    def _describe(self) -> str:
        return f"∆[{self.name}] :: {self.schema!r}"


class SubviewSource(IrNode):
    """The relation of the subview rooted at *node*, in *state*.

    The paper's ``Input_{pre,post}`` / ``Output`` keywords.  Standalone use
    fetches all rows; as the right side of a probe it is fetched only for
    the probe bindings.
    """

    def __init__(self, node: PlanNode, state: str):
        if state not in (PRE, POST):
            raise ScriptError(f"subview state must be pre/post, got {state!r}")
        self.node = node
        self.state = state
        self.columns = node.columns

    def _describe(self) -> str:
        return f"Subview[n{self.node.node_id} {self.node.label()}] ({self.state})"


class AppliedSource(IrNode):
    """RETURNING expansion of a named APPLY step.

    Columns: the target table's key, then ``attr__pre`` / ``attr__post``
    for each attribute in *attrs*.
    """

    def __init__(self, apply_name: str, key: Sequence[str], attrs: Sequence[str]):
        from .diffs import post_col, pre_col

        self.apply_name = apply_name
        self.key = tuple(key)
        self.attrs = tuple(attrs)
        self.columns = (
            self.key
            + tuple(pre_col(a) for a in self.attrs)
            + tuple(post_col(a) for a in self.attrs)
        )

    def _describe(self) -> str:
        return f"Returning[{self.apply_name}]"


class Empty(IrNode):
    """∅ — produced by Figure 8 rewrites (e.g. ∆− ⋈Ī R → ∅)."""

    def __init__(self, columns: Sequence[str]):
        self.columns = tuple(columns)

    def _describe(self) -> str:
        return "∅"


class Filter(IrNode):
    """σ over diff-shaped rows; the predicate sees the child's columns."""

    def __init__(self, child: IrNode, predicate: Expr):
        missing = columns_of(predicate) - set(child.columns)
        if missing:
            raise ScriptError(
                f"filter references {sorted(missing)}; child has {child.columns}"
            )
        self.child = child
        self.predicate = predicate
        self.columns = child.columns

    def children(self) -> tuple[IrNode, ...]:
        return (self.child,)

    def _describe(self) -> str:
        return f"σ {self.predicate!r}"


class Compute(IrNode):
    """Generalized projection over diff-shaped rows."""

    def __init__(self, child: IrNode, items: Sequence[tuple[str, Expr]]):
        names = [n for n, _ in items]
        if len(set(names)) != len(names):
            raise ScriptError(f"duplicate computed column names {names}")
        available = set(child.columns)
        for name, expr in items:
            missing = columns_of(expr) - available
            if missing:
                raise ScriptError(
                    f"computed column {name!r} references {sorted(missing)}; "
                    f"child has {child.columns}"
                )
        self.child = child
        self.items = tuple(items)
        self.columns = tuple(names)

    def children(self) -> tuple[IrNode, ...]:
        return (self.child,)

    def _describe(self) -> str:
        return "π " + ", ".join(n for n, _ in self.items)


class Distinct(IrNode):
    """Duplicate elimination (needed when projecting onto an ID subset)."""

    def __init__(self, child: IrNode):
        self.child = child
        self.columns = child.columns

    def children(self) -> tuple[IrNode, ...]:
        return (self.child,)

    def _describe(self) -> str:
        return "δ"


class UnionRows(IrNode):
    """Bag union of same-schema diff fragments (the ∆1 ∪ ∆2 ∪ ∆3 shape)."""

    def __init__(self, parts: Sequence[IrNode]):
        if not parts:
            raise ScriptError("union of zero parts")
        first = parts[0].columns
        for p in parts[1:]:
            if p.columns != first:
                raise ScriptError(
                    f"union parts differ: {p.columns} vs {first}"
                )
        self.parts = tuple(parts)
        self.columns = first

    def children(self) -> tuple[IrNode, ...]:
        return self.parts

    def _describe(self) -> str:
        return "∪"


class GroupAgg(IrNode):
    """Pipelined hash aggregation of diff-shaped rows (no storage cost)."""

    def __init__(self, child: IrNode, keys: Sequence[str], aggs: Sequence[AggSpec]):
        keys = tuple(keys)
        missing = set(keys) - set(child.columns)
        if missing:
            raise ScriptError(f"group keys {sorted(missing)} not in {child.columns}")
        self.child = child
        self.keys = keys
        self.aggs = tuple(aggs)
        self.columns = keys + tuple(a.name for a in self.aggs)

    def children(self) -> tuple[IrNode, ...]:
        return (self.child,)

    def _describe(self) -> str:
        return f"γ {', '.join(self.keys)}; " + ", ".join(repr(a) for a in self.aggs)


class OutputHint:
    """View-reuse annotation for a probe (the paper's Section 9 extension).

    When the probed subview's base tables are untouched in the current
    batch, the probe may be answered from the materialization of an
    ancestor operator (the view itself or a cache): any row of that
    materialization carries a genuine row of the probed subview under the
    *column_map* names.  Soundness requires the probe's ``on`` columns to
    cover the subview's IDs (at most one match, so a hit is complete);
    misses fall back to the ordinary base probe — the run-time dynamism
    Section 9 calls for.
    """

    __slots__ = ("mat_node_id", "column_map", "guard_tables")

    def __init__(
        self,
        mat_node_id: int,
        column_map: dict[str, str],
        guard_tables: Sequence[str],
    ):
        self.mat_node_id = mat_node_id
        #: probed-subview column -> materialization column
        self.column_map = dict(column_map)
        self.guard_tables = tuple(guard_tables)

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"OutputHint(n{self.mat_node_id}, guard={self.guard_tables})"


class ProbeJoin(IrNode):
    """Diff-driven join with a subview: ``left ⋈_on Subview(state)``.

    For each distinct combination of the left rows' *on* columns, the
    subview is fetched through indexes (the paper's diff-driven loop
    plan).  ``keep`` renames the subview columns into the output
    (``(out_name, subview_column)``); *residual* is an extra predicate
    over ``left.columns + keep-out-names``.  An optional
    :class:`OutputHint` (set by the generator's view-reuse pass) lets the
    executor satisfy the probe from an ancestor materialization.
    """

    def __init__(
        self,
        left: IrNode,
        node: PlanNode,
        state: str,
        on: Sequence[tuple[str, str]],
        keep: Sequence[tuple[str, str]],
        residual: Optional[Expr] = None,
    ):
        self.via_output: Optional[OutputHint] = None
        if state not in (PRE, POST):
            raise ScriptError(f"probe state must be pre/post, got {state!r}")
        for lcol, _ in on:
            if lcol not in left.columns:
                raise ScriptError(f"probe-on column {lcol!r} not in {left.columns}")
        for _, sub in list(on) + list(keep):
            if sub not in node.columns:
                raise ScriptError(
                    f"subview column {sub!r} not in n{node.node_id} {node.columns}"
                )
        out_names = tuple(n for n, _ in keep)
        overlap = set(out_names) & set(left.columns)
        if overlap:
            raise ScriptError(f"probe keep names {sorted(overlap)} collide with left")
        self.left = left
        self.node = node
        self.state = state
        self.on = tuple(on)
        self.keep = tuple(keep)
        self.residual = residual
        self.columns = left.columns + out_names
        if residual is not None:
            missing = columns_of(residual) - set(self.columns)
            if missing:
                raise ScriptError(f"probe residual references {sorted(missing)}")

    def children(self) -> tuple[IrNode, ...]:
        return (self.left,)

    def _describe(self) -> str:
        on = ", ".join(f"{a}={b}" for a, b in self.on)
        return f"⋈ Subview[n{self.node.node_id}] ({self.state}) on {on}"


class ProbeSemi(IrNode):
    """Diff-driven (anti)semijoin with a subview.

    Keeps left rows that have (``negated=False``) or do not have
    (``negated=True``) a matching subview row.  *residual* may reference
    left columns and subview columns under the ``sub__`` prefix.
    """

    def __init__(
        self,
        left: IrNode,
        node: PlanNode,
        state: str,
        on: Sequence[tuple[str, str]],
        residual: Optional[Expr] = None,
        negated: bool = False,
    ):
        if state not in (PRE, POST):
            raise ScriptError(f"probe state must be pre/post, got {state!r}")
        for lcol, _ in on:
            if lcol not in left.columns:
                raise ScriptError(f"probe-on column {lcol!r} not in {left.columns}")
        for _, sub in on:
            if sub not in node.columns:
                raise ScriptError(
                    f"subview column {sub!r} not in n{node.node_id} {node.columns}"
                )
        self.left = left
        self.node = node
        self.state = state
        self.on = tuple(on)
        self.residual = residual
        self.negated = negated
        self.columns = left.columns
        if residual is not None:
            allowed = set(left.columns) | {SUB_PREFIX + c for c in node.columns}
            missing = columns_of(residual) - allowed
            if missing:
                raise ScriptError(f"semi residual references {sorted(missing)}")

    def children(self) -> tuple[IrNode, ...]:
        return (self.left,)

    def _describe(self) -> str:
        mark = "▷" if self.negated else "⋉"
        on = ", ".join(f"{a}={b}" for a, b in self.on)
        return f"{mark} Subview[n{self.node.node_id}] ({self.state}) on {on}"


def pre_state_reads(root: IrNode) -> list["SubviewSource | ProbeJoin | ProbeSemi"]:
    """The subview reads of the tree in state ``pre``: where it reads
    ``Input_pre``."""
    return [
        n for n in root.walk()
        if isinstance(n, (SubviewSource, ProbeJoin, ProbeSemi)) and n.state == PRE
    ]
