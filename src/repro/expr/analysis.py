"""Static analysis of expressions.

Used by the i-diff schema generator (conditional-attribute detection), the
propagation rules (the ``X̄ ⊆ Ī ∪ Ā″`` checks of Tables 6–13), the
minimizer, and the delta evaluator (equi-join key extraction).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .ast import (
    And,
    Arith,
    Call,
    Cmp,
    Col,
    Expr,
    InList,
    Lit,
    Not,
    Or,
    all_of,
)


def columns_of(expr: Expr) -> frozenset[str]:
    """Names of all columns referenced by *expr*."""
    if isinstance(expr, Col):
        return frozenset((expr.name,))
    if isinstance(expr, Lit):
        return frozenset()
    if isinstance(expr, (Arith, Cmp)):
        return columns_of(expr.left) | columns_of(expr.right)
    if isinstance(expr, (And, Or)):
        out: frozenset[str] = frozenset()
        for item in expr.items:
            out |= columns_of(item)
        return out
    if isinstance(expr, Not):
        return columns_of(expr.item)
    if isinstance(expr, InList):
        return columns_of(expr.item)
    if isinstance(expr, Call):
        out = frozenset()
        for arg in expr.args:
            out |= columns_of(arg)
        return out
    raise TypeError(f"unknown expression node {expr!r}")


def conjuncts_of(expr: Expr) -> tuple[Expr, ...]:
    """Top-level conjuncts of *expr* (itself, if not a conjunction)."""
    if isinstance(expr, And):
        out: list[Expr] = []
        for item in expr.items:
            out.extend(conjuncts_of(item))
        return tuple(out)
    return (expr,)


def rename_columns(expr: Expr, mapping: Mapping[str, str]) -> Expr:
    """Copy of *expr* with column names substituted per *mapping*.

    Names absent from *mapping* are left unchanged.  This is how rules
    retarget a condition from view attributes to diff columns
    (``a`` -> ``a__pre`` / ``a__post``).
    """
    if isinstance(expr, Col):
        return Col(mapping.get(expr.name, expr.name))
    if isinstance(expr, Lit):
        return expr
    if isinstance(expr, Arith):
        return Arith(expr.op, rename_columns(expr.left, mapping), rename_columns(expr.right, mapping))
    if isinstance(expr, Cmp):
        return Cmp(expr.op, rename_columns(expr.left, mapping), rename_columns(expr.right, mapping))
    if isinstance(expr, And):
        return And(tuple(rename_columns(i, mapping) for i in expr.items))
    if isinstance(expr, Or):
        return Or(tuple(rename_columns(i, mapping) for i in expr.items))
    if isinstance(expr, Not):
        return Not(rename_columns(expr.item, mapping))
    if isinstance(expr, InList):
        return InList(rename_columns(expr.item, mapping), expr.values)
    if isinstance(expr, Call):
        return Call(expr.func, tuple(rename_columns(a, mapping) for a in expr.args))
    raise TypeError(f"unknown expression node {expr!r}")


def equi_join_pairs(
    condition: Expr,
    left_columns: Sequence[str],
    right_columns: Sequence[str],
) -> tuple[list[tuple[str, str]], Expr]:
    """Split a join condition into equi-join column pairs and a residual.

    Returns ``(pairs, residual)`` where *pairs* is a list of
    ``(left_col, right_col)`` equality pairs and *residual* is the
    conjunction of the remaining conjuncts (``TRUE`` when none).  Used by
    the hash-join and the index-driven delta evaluator.
    """
    left_set = set(left_columns)
    right_set = set(right_columns)
    pairs: list[tuple[str, str]] = []
    residual: list[Expr] = []
    for conjunct in conjuncts_of(condition):
        if (
            isinstance(conjunct, Cmp)
            and conjunct.op == "="
            and isinstance(conjunct.left, Col)
            and isinstance(conjunct.right, Col)
        ):
            a, b = conjunct.left.name, conjunct.right.name
            if a in left_set and b in right_set:
                pairs.append((a, b))
                continue
            if b in left_set and a in right_set:
                pairs.append((b, a))
                continue
        residual.append(conjunct)
    return pairs, all_of(*residual)


# ----------------------------------------------------------------------
# nullability
# ----------------------------------------------------------------------
def nullable_columns_of(schema) -> frozenset[str]:
    """Columns of a :class:`~repro.storage.TableSchema` that may be NULL.

    This follows the schema declaration exactly.  In particular a
    foreign-key column is nullable if and only if the schema says so: SQL
    foreign keys do NOT imply NOT NULL (a NULL child column simply opts
    out of the reference), so treating FK columns as implicitly non-null
    would hide NULL-join and 3VL hazards on exactly the columns most
    likely to appear as join keys.
    """
    return frozenset(schema.nullable)


def may_be_null(expr: Expr, nullable_columns) -> bool:
    """Whether *expr* can evaluate to NULL (UNKNOWN, for predicates).

    *nullable_columns* is the set of column names that may hold NULL.
    The test is conservative (may return True for expressions that are
    never NULL on the actual data) but never wrongly returns False:

    * a column is NULL-free iff it is outside *nullable_columns*;
    * arithmetic and comparisons propagate NULL from either operand
      (and a comparison may also degrade to UNKNOWN on its own — mixed
      type orderings — which :mod:`repro.analysis.typecheck` handles
      with declared-type information);
    * AND/OR/NOT follow 3VL: the result is definite when every operand
      is definite;
    * NULL-tolerant scalar functions (``is_true``, ``is_distinct``)
      always return a definite boolean; ``coalesce`` is NULL only when
      every argument can be; every other function propagates NULL.
    """
    nullable = set(nullable_columns)
    if isinstance(expr, Col):
        return expr.name in nullable
    if isinstance(expr, Lit):
        return expr.value is None
    if isinstance(expr, (Arith, Cmp)):
        return may_be_null(expr.left, nullable) or may_be_null(expr.right, nullable)
    if isinstance(expr, (And, Or)):
        return any(may_be_null(i, nullable) for i in expr.items)
    if isinstance(expr, Not):
        return may_be_null(expr.item, nullable)
    if isinstance(expr, InList):
        return may_be_null(expr.item, nullable) or any(
            v is None for v in expr.values
        )
    if isinstance(expr, Call):
        if expr.func in ("is_true", "is_distinct"):
            return False
        if expr.func == "coalesce":
            return all(may_be_null(a, nullable) for a in expr.args)
        return any(may_be_null(a, nullable) for a in expr.args)
    raise TypeError(f"unknown expression node {expr!r}")
