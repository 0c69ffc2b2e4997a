"""APPLY semantics: executing an i-diff against a materialized table.

Implements the three DML statements of Section 2 (APPLY ∆u / ∆+ / ∆−)
against :class:`~repro.storage.Table`, with the access accounting of
Appendix A, and returns the *expansion* of the application — the per-row
changes actually made.  The expansion is the paper's
``UPDATE ... RETURNING`` optimization (Appendix A.2.1): after applying a
cache diff, downstream rules read the expanded rows instead of re-probing
the cache.
"""

from __future__ import annotations

from typing import Sequence

from ..algebra.relation import Relation
from ..errors import DiffError
from ..storage import Table, TableSchema, row_extractor
from .diffs import DELETE, INSERT, UPDATE, Diff, DiffSchema, post_col, pre_col


class AppliedChanges:
    """What an APPLY actually did: full pre/post rows per affected tuple.

    ``changes`` holds ``(pre_row, post_row)`` pairs over the target
    table's schema; ``pre_row`` is None for inserts and ``post_row`` is
    None for deletes.
    """

    __slots__ = ("kind", "table_schema", "changes", "updated_attrs")

    def __init__(
        self,
        kind: str,
        table_schema,
        changes: list[tuple],
        updated_attrs: tuple[str, ...] = (),
    ):
        self.kind = kind
        self.table_schema = table_schema
        self.changes = changes
        self.updated_attrs = updated_attrs

    @classmethod
    def of(
        cls, diff_schema: DiffSchema, table_schema, changes: list[tuple]
    ) -> "AppliedChanges":
        """What applying a diff of *diff_schema* made of a table: its
        kind and, for an update, the attributes it set."""
        kind = diff_schema.kind
        return cls(
            kind, table_schema, changes,
            diff_schema.post_attrs if kind == UPDATE else (),
        )

    def __len__(self) -> int:
        return len(self.changes)

    def expansion(self, attrs: Sequence[str] | None = None) -> Relation:
        """RETURNING-style relation: full key + pre/post of *attrs*.

        Columns: the table's key, then ``a__pre`` and ``a__post`` for each
        requested attribute (defaults to the diff's updated attributes for
        updates, all non-key attributes otherwise).  For inserts the pre
        columns are None; for deletes the post columns are None.
        """
        schema = self.table_schema
        if attrs is None:
            attrs = self.updated_attrs if self.kind == UPDATE else schema.non_key_columns
        attrs = tuple(attrs)
        columns = (
            schema.key
            + tuple(pre_col(a) for a in attrs)
            + tuple(post_col(a) for a in attrs)
        )
        key_of = schema.key_of
        values_of = schema.extractor(attrs)
        absent = (None,) * len(attrs)
        rows = [
            key_of(pre if post is None else post)
            + (absent if pre is None else values_of(pre))
            + (absent if post is None else values_of(post))
            for pre, post in self.changes
        ]
        return Relation(columns, rows)

    def as_full_diff(self) -> Diff:
        """The applied changes as a full-ID effective diff over the table.

        Used when a cache application must be re-expressed as the diff
        feeding the operators above the cache.
        """
        schema, kind = self.table_schema, self.kind
        attrs = self.updated_attrs if kind == UPDATE else schema.non_key_columns
        return Diff(
            _effective_schema(kind, schema.name, schema.key, attrs),
            _effective_rows(kind, self.changes, schema.key_of, schema.extractor(attrs)),
        )


class EffectiveDiffs:
    """Applied changes of a table as full-ID effective diffs on *target*
    carrying every non-key column, resolved once by a writer that emits
    every round (a γ step): the three schemas, their shared empty diffs
    (nothing mutates a diff's rows) and the row layouts the writer
    builds its rows with — ``key_of(row) + values_of(row)`` inserted or
    deleted, ``key_of(post) + values_of(pre) + values_of(post)``
    updated."""

    def __init__(self, table_schema: TableSchema, target: str):
        attrs = table_schema.non_key_columns
        self.key_of = table_schema.key_of
        self.values_of = table_schema.extractor(attrs)
        self.empty = {
            kind: Diff.trusted(_effective_schema(kind, target, table_schema.key, attrs), [])
            for kind in (INSERT, DELETE, UPDATE)
        }

    def adopt(self, kind: str, rows: list[tuple]) -> Diff:
        """The effective *rows* of *kind*, adopted without validation:
        the caller wrote at most one change per key."""
        empty = self.empty[kind]
        return Diff.trusted(empty.schema, rows) if rows else empty


def _effective_schema(kind: str, target: str, key: tuple, attrs: tuple) -> DiffSchema:
    if kind == INSERT:
        return DiffSchema(INSERT, target, key, post_attrs=attrs)
    if kind == DELETE:
        return DiffSchema(DELETE, target, key, pre_attrs=attrs)
    return DiffSchema(UPDATE, target, key, pre_attrs=attrs, post_attrs=attrs)


def _effective_rows(kind: str, changes: list[tuple], key_of, values_of) -> list[tuple]:
    if kind == INSERT:
        return [key_of(post) + values_of(post) for _, post in changes]
    if kind == DELETE:
        return [key_of(pre) + values_of(pre) for pre, _ in changes]
    return [key_of(post) + values_of(pre) + values_of(post) for pre, post in changes]


def apply_diff(table: Table, diff: Diff, returning: bool = True) -> AppliedChanges | None:
    """Apply *diff* to *table* per the Section 2 DML semantics: one bulk
    ``Table`` call per diff, whatever its size, reading the diff's rows
    in place.  The applied changes when *returning* (an ``APPLY …
    RETURNING``), None otherwise — and then the table keeps no row
    pairs for them, for the same counted accesses."""
    schema = diff.schema
    kind = schema.kind
    n_ids = len(schema.id_attrs)
    if kind == UPDATE:
        # APPLY ∆u: UPDATE V SET Ā″ = Ā″_post WHERE V.Ī′ = ∆.Ī′.  A diff
        # row is laid out Ī′ + Ā′_pre + Ā″_post.
        width = len(schema.columns)
        changes = table.update_many(
            schema.id_attrs,
            schema.post_attrs,
            diff.rows,
            (tuple(range(n_ids)), tuple(range(width - len(schema.post_attrs), width))),
            returning,
        )
    elif kind == INSERT:
        # APPLY ∆+: INSERT ... WHERE ROW NOT IN (SELECT ... FROM V).
        diff_attrs = schema.id_attrs + schema.post_attrs
        in_table_order = table.bound(("+", diff_attrs), lambda: row_extractor(
            [diff_attrs.index(c) for c in table.schema.columns]
        ))
        changes = table.insert_many([in_table_order(row) for row in diff.rows], returning)
    elif kind == DELETE:
        # APPLY ∆−: DELETE FROM V WHERE ROW(Ī′) IN (SELECT Ī′ FROM ∆−).
        changes = table.delete_many(
            schema.id_attrs, [row[:n_ids] for row in diff.rows], returning
        )
    else:
        raise DiffError(f"unknown diff kind {kind!r}")
    return AppliedChanges.of(schema, table.schema, changes) if returning else None
