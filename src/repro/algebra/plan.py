"""Algebraic plan nodes for the QSPJADU view-definition language.

The language (paper Section 2) contains Selection, generalized Projection
(with scalar functions), Join (arbitrary conditions; cross product is a join
with no condition), Grouping with the aggregation functions sum / count /
avg (specialized rules) and min / max / general (recompute rules),
Antisemijoin (hence difference / negation) and bag Union (the special
``union all`` operator that emits a branch attribute *b*).

Plans are immutable trees.  Node identifiers and ID (key) attributes are
attached by Pass 1 of the ∆-script generator (:mod:`repro.core.idinfer`),
which may also *extend* projections so that every subview carries its IDs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import PlanError
from ..expr import Expr, columns_of
from ..storage.schema import TableSchema

AGG_FUNCS = ("sum", "count", "avg", "min", "max")

#: Aggregation functions with specialized *blocking* i-diff rules
#: (Tables 9, 11, 12); min/max fall back to the general recompute rules
#: (Table 7).
ASSOCIATIVE_AGGS = ("sum", "count", "avg")


class AggSpec:
    """One aggregate column: ``func(arg) AS name``.

    ``arg`` is None only for ``count`` (i.e. COUNT(*)).
    """

    __slots__ = ("func", "arg", "name")

    def __init__(self, func: str, arg: Optional[Expr], name: str):
        if func not in AGG_FUNCS:
            raise PlanError(f"unknown aggregate function {func!r}; have {AGG_FUNCS}")
        if arg is None and func != "count":
            raise PlanError(f"aggregate {func!r} requires an argument")
        self.func = func
        self.arg = arg
        self.name = name

    @property
    def arg_columns(self) -> frozenset[str]:
        return columns_of(self.arg) if self.arg is not None else frozenset()

    def __repr__(self) -> str:  # pragma: no cover - display helper
        inner = repr(self.arg) if self.arg is not None else "*"
        return f"{self.func}({inner}) AS {self.name}"


class PlanNode:
    """Base class of all plan operators."""

    #: filled by idinfer.annotate(): stable preorder identifier
    node_id: int
    #: filled by idinfer.annotate(): the subview's ID (key) attributes
    ids: tuple[str, ...]

    def __init__(self) -> None:
        self.node_id = -1
        self.ids = ()

    @property
    def columns(self) -> tuple[str, ...]:
        raise NotImplementedError

    @property
    def children(self) -> tuple["PlanNode", ...]:
        raise NotImplementedError

    def walk(self):
        """Preorder traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def label(self) -> str:
        """Short operator label for script pretty-printing."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"{self.label()}#{self.node_id}{list(self.columns)}"


class Scan(PlanNode):
    """Leaf: scan of a base table (per alias; see Section 4 footnote 5)."""

    def __init__(self, schema: TableSchema, alias: str | None = None):
        super().__init__()
        self.table = schema.name
        self.schema = schema
        self.alias = alias if alias is not None else schema.name

    @property
    def columns(self) -> tuple[str, ...]:
        return self.schema.columns

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def label(self) -> str:
        if self.alias != self.table:
            return f"SCAN {self.table} AS {self.alias}"
        return f"SCAN {self.table}"


class Select(PlanNode):
    """σ_predicate(child)."""

    def __init__(self, child: PlanNode, predicate: Expr):
        super().__init__()
        missing = columns_of(predicate) - set(child.columns)
        if missing:
            raise PlanError(f"selection references unknown columns {sorted(missing)}")
        self.child = child
        self.predicate = predicate

    @property
    def columns(self) -> tuple[str, ...]:
        return self.child.columns

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"σ {self.predicate!r}"


class Project(PlanNode):
    """Generalized projection π: ``items`` is a sequence of (name, Expr).

    Handles plain projection, renaming and computed columns
    (Table 8's π_{D̄, f(X̄)→c}).
    """

    def __init__(self, child: PlanNode, items: Sequence[tuple[str, Expr]]):
        super().__init__()
        names = [n for n, _ in items]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate projection names: {names}")
        available = set(child.columns)
        for name, expr in items:
            missing = columns_of(expr) - available
            if missing:
                raise PlanError(
                    f"projection {name!r} references unknown columns {sorted(missing)}"
                )
        self.child = child
        self.items = tuple(items)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.items)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return "π " + ", ".join(n for n, _ in self.items)


class Join(PlanNode):
    """Theta join; ``condition=None`` denotes the cross product ×.

    Children must have disjoint column names (use :func:`Project` to rename
    before joining; the builder's ``natural_join`` does this for you).
    """

    def __init__(self, left: PlanNode, right: PlanNode, condition: Optional[Expr]):
        super().__init__()
        overlap = set(left.columns) & set(right.columns)
        if overlap:
            raise PlanError(
                f"join children share column names {sorted(overlap)}; rename first"
            )
        if condition is not None:
            missing = columns_of(condition) - set(left.columns) - set(right.columns)
            if missing:
                raise PlanError(f"join condition references unknown columns {sorted(missing)}")
        self.left = left
        self.right = right
        self.condition = condition

    @property
    def columns(self) -> tuple[str, ...]:
        return self.left.columns + self.right.columns

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        if self.condition is None:
            return "×"
        return f"⋈ {self.condition!r}"


class AntiJoin(PlanNode):
    """Antisemijoin ▷: left rows with *no* matching right row.

    Captures negation; set difference is the special case of an antijoin
    on all columns (paper footnote 1).
    """

    def __init__(self, left: PlanNode, right: PlanNode, condition: Expr):
        super().__init__()
        missing = columns_of(condition) - set(left.columns) - set(right.columns)
        if missing:
            raise PlanError(f"antijoin condition references unknown columns {sorted(missing)}")
        self.left = left
        self.right = right
        self.condition = condition

    @property
    def columns(self) -> tuple[str, ...]:
        return self.left.columns

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return f"▷ {self.condition!r}"


class SemiJoin(PlanNode):
    """Semijoin ⋉: left rows with at least one matching right row.

    Not part of the paper's QSPJADU core — added as the worked example of
    the operator-extensibility layer (docs/EXTENDING.md): a new operator
    needs only an ID-inference rule (ID(L), like the antisemijoin) and a
    propagation-rule module.
    """

    def __init__(self, left: PlanNode, right: PlanNode, condition: Expr):
        super().__init__()
        missing = columns_of(condition) - set(left.columns) - set(right.columns)
        if missing:
            raise PlanError(f"semijoin condition references unknown columns {sorted(missing)}")
        self.left = left
        self.right = right
        self.condition = condition

    @property
    def columns(self) -> tuple[str, ...]:
        return self.left.columns

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return f"⋉ {self.condition!r}"


class UnionAll(PlanNode):
    """Bag union, emitting a branch attribute (paper Section 2, footnote 2).

    Both children must have identical column tuples; the output appends
    *branch_column* with value 0 for left-branch rows and 1 for right.
    """

    def __init__(self, left: PlanNode, right: PlanNode, branch_column: str = "b"):
        super().__init__()
        if left.columns != right.columns:
            raise PlanError(
                f"union branches differ: {left.columns} vs {right.columns}"
            )
        if branch_column in left.columns:
            raise PlanError(f"branch column {branch_column!r} collides with a data column")
        self.left = left
        self.right = right
        self.branch_column = branch_column

    @property
    def columns(self) -> tuple[str, ...]:
        return self.left.columns + (self.branch_column,)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "∪ all"


class GroupBy(PlanNode):
    """γ_{keys; aggs}(child).

    *keys* must be non-empty (they become the output's IDs, Table 1) and a
    subset of the child's columns.
    """

    def __init__(self, child: PlanNode, keys: Sequence[str], aggs: Sequence[AggSpec]):
        super().__init__()
        keys = tuple(keys)
        if not keys:
            raise PlanError("grouping requires at least one key column (it forms the view ID)")
        missing = set(keys) - set(child.columns)
        if missing:
            raise PlanError(f"group keys {sorted(missing)} not in child columns")
        if not aggs:
            raise PlanError("grouping requires at least one aggregate")
        names = list(keys) + [a.name for a in aggs]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate output names in grouping: {names}")
        for agg in aggs:
            bad = agg.arg_columns - set(child.columns)
            if bad:
                raise PlanError(f"aggregate {agg!r} references unknown columns {sorted(bad)}")
        self.child = child
        self.keys = keys
        self.aggs = tuple(aggs)

    @property
    def columns(self) -> tuple[str, ...]:
        return self.keys + tuple(a.name for a in self.aggs)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        aggs = ", ".join(repr(a) for a in self.aggs)
        return f"γ {', '.join(self.keys)}; {aggs}"


def scans_of(root: PlanNode) -> list[Scan]:
    """All scan leaves of the plan, in preorder."""
    return [n for n in root.walk() if isinstance(n, Scan)]


def base_tables(root: PlanNode) -> frozenset[str]:
    """The base tables the plan's scan leaves read."""
    return frozenset(n.table for n in scans_of(root))
