"""ID-based diffs (i-diffs) — the paper's Section 2 formalism.

An i-diff for a relation ``V(Ī, Ā)`` identifies the tuples to modify
through a *subset* ``Ī′`` of V's IDs and optionally carries pre-state
and/or post-state values of non-ID attributes:

* insert i-diff  ``∆+V(Ī, Ā_post)``  — full IDs, all non-ID attrs post;
* delete i-diff  ``∆−V(Ī′, Ā′_pre)`` — ID subset, optional pre values;
* update i-diff  ``∆uV(Ī′, Ā′_pre, Ā″_post)`` — ID subset, optional pre
  values, post values of the updated attributes.

A single i-diff tuple can describe modifications to *many* view tuples —
that compactness is the paper's central idea.  Tuple-based diffs (t-diffs,
the classic formalism) are represented with the same classes, instantiated
with the full ID set and full attribute sets.

Diff rows are tuples laid out as ``Ī′ + Ā′__pre + Ā″__post`` — pre/post
columns carry ``__pre`` / ``__post`` suffixes so both states of an
attribute can coexist in one row.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..algebra.relation import Relation
from ..errors import DiffError
from ..storage import Table

INSERT = "+"
DELETE = "-"
UPDATE = "u"

DIFF_KINDS = (INSERT, DELETE, UPDATE)

PRE_SUFFIX = "__pre"
POST_SUFFIX = "__post"


def pre_col(attr: str) -> str:
    """Diff-column name carrying the pre-state value of *attr*."""
    return attr + PRE_SUFFIX


def post_col(attr: str) -> str:
    """Diff-column name carrying the post-state value of *attr*."""
    return attr + POST_SUFFIX


class DiffSchema:
    """Schema of an i-diff: kind, target relation, ID / pre / post attrs."""

    __slots__ = (
        "kind", "target", "id_attrs", "pre_attrs", "post_attrs",
        "_positions", "_columns",
    )

    def __init__(
        self,
        kind: str,
        target: str,
        id_attrs: Sequence[str],
        pre_attrs: Sequence[str] = (),
        post_attrs: Sequence[str] = (),
    ):
        if kind not in DIFF_KINDS:
            raise DiffError(f"unknown diff kind {kind!r}; expected one of {DIFF_KINDS}")
        id_attrs = tuple(id_attrs)
        pre_attrs = tuple(pre_attrs)
        post_attrs = tuple(post_attrs)
        if not id_attrs:
            raise DiffError(f"diff on {target!r} must identify tuples through IDs")
        if kind == INSERT and pre_attrs:
            raise DiffError("insert i-diffs carry no pre-state attributes (Section 2)")
        if kind == DELETE and post_attrs:
            raise DiffError("delete i-diffs carry no post-state attributes (Section 2)")
        if kind == UPDATE and not post_attrs:
            raise DiffError("update i-diffs must set at least one post-state attribute")
        overlap = set(id_attrs) & (set(pre_attrs) | set(post_attrs))
        if overlap:
            raise DiffError(f"attributes {sorted(overlap)} are both ID and non-ID")
        self.kind = kind
        self.target = target
        self.id_attrs = id_attrs
        self.pre_attrs = pre_attrs
        self.post_attrs = post_attrs
        self._columns = (
            id_attrs
            + tuple(pre_col(a) for a in pre_attrs)
            + tuple(post_col(a) for a in post_attrs)
        )
        self._positions = {c: i for i, c in enumerate(self._columns)}

    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns

    @property
    def positions(self) -> dict[str, int]:
        return self._positions

    def position(self, column: str) -> int:
        try:
            return self._positions[column]
        except KeyError:
            raise DiffError(f"no diff column {column!r}; have {self.columns}") from None

    def signature(self) -> tuple:
        """Hashable identity, used to dedupe generated schemas."""
        return (self.kind, self.target, self.id_attrs, self.pre_attrs, self.post_attrs)

    def rename_target(self, target: str) -> "DiffSchema":
        return DiffSchema(self.kind, target, self.id_attrs, self.pre_attrs, self.post_attrs)

    def kind_label(self) -> str:
        """Short mnemonic used in generated step names."""
        return {INSERT: "ins", DELETE: "del", UPDATE: "upd"}[self.kind]

    def __repr__(self) -> str:  # pragma: no cover - display helper
        parts = [",".join(self.id_attrs)]
        if self.pre_attrs:
            parts.append(",".join(a + "(pre)" for a in self.pre_attrs))
        if self.post_attrs:
            parts.append(",".join(a + "(post)" for a in self.post_attrs))
        return f"∆{self.kind}_{self.target}({'; '.join(parts)})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DiffSchema) and other.signature() == self.signature()

    def __hash__(self) -> int:
        return hash(self.signature())


class Diff:
    """An i-diff instance: a :class:`DiffSchema` plus rows.

    The ID attributes form the primary key of the diff (Section 2 remark);
    exact duplicate rows are merged, conflicting rows with equal IDs are
    rejected.  Rows are validated once, by the constructor; code that
    re-binds or subsets the rows of a validated diff on the same IDs
    uses :meth:`trusted`.
    """

    __slots__ = ("schema", "rows")

    def __init__(self, schema: DiffSchema, rows: Iterable[tuple] = ()):
        self.schema = schema
        if not isinstance(rows, list):
            rows = list(rows)
        if not rows:
            # The dominant case per maintenance round: most steps of a
            # large script see no matching modifications.
            self.rows = rows
            return
        n_ids = len(schema.id_attrs)
        n_cols = len(schema.columns)
        # The common case at C speed: one arity, no ID twice — then the
        # rows are valid as they stand.
        deduped: dict[tuple, tuple] = {row[:n_ids]: row for row in rows}
        if len(deduped) == len(rows) and set(map(len, rows)) == {n_cols}:
            self.rows = list(rows)
            return
        # Otherwise row by row: exact duplicates merge at their first
        # position, the first bad row raises.
        deduped = {}
        lookup = deduped.get
        for row in rows:
            if len(row) != n_cols:
                raise DiffError(
                    f"diff row arity {len(row)} != schema arity {n_cols} for {schema!r}"
                )
            key = row[:n_ids]
            existing = lookup(key)
            if existing is None:
                deduped[key] = row
            elif existing != row:
                raise DiffError(
                    f"conflicting diff rows for ID {key} in {schema!r}: "
                    f"{existing} vs {row}"
                )
        self.rows = list(deduped.values())

    @classmethod
    def trusted(cls, schema: DiffSchema, rows: list[tuple]) -> "Diff":
        """Adopt *rows* as they are: a list of tuples of *schema*'s arity
        already known unique on its IDs (the rows, or a subset of the
        rows, of a diff validated on those IDs).  Shared, not copied."""
        diff = cls.__new__(cls)
        diff.schema = schema
        diff.rows = rows
        return diff

    def __len__(self) -> int:
        return len(self.rows)

    def is_empty(self) -> bool:
        return not self.rows

    # ------------------------------------------------------------------
    # row accessors
    # ------------------------------------------------------------------
    def id_of(self, row: tuple) -> tuple:
        return row[: len(self.schema.id_attrs)]

    def pre_value(self, row: tuple, attr: str):
        return row[self.schema.position(pre_col(attr))]

    def post_value(self, row: tuple, attr: str):
        return row[self.schema.position(post_col(attr))]

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def as_relation(self) -> Relation:
        return Relation(self.schema.columns, self.rows)

    @classmethod
    def from_relation(cls, schema: DiffSchema, relation: Relation) -> "Diff":
        """Build a diff from any relation with compatible column names."""
        idx = [relation.position(c) for c in schema.columns]
        return cls(schema, [tuple(r[i] for i in idx) for r in relation.rows])

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"Diff({self.schema!r}, {len(self.rows)} rows)"


# ----------------------------------------------------------------------
# effectiveness (Section 2)
# ----------------------------------------------------------------------
def is_effective(diff: Diff, post_table: Table) -> bool:
    """Check the paper's effectiveness conditions against the post-state.

    * insert: every inserted tuple exists in the post-state;
    * delete: no tuple with a deleted ID exists in the post-state;
    * update: every updated tuple still present has its updated attributes
      equal to the post-state values recorded in the diff.

    Reads are uncounted (this is a validation oracle, not part of IVM).
    """
    schema = diff.schema
    table_schema = post_table.schema
    post_rows = post_table.rows_uncounted()
    id_positions = [table_schema.position(a) for a in schema.id_attrs]
    by_id: dict[tuple, list[tuple]] = {}
    for row in post_rows:
        by_id.setdefault(tuple(row[i] for i in id_positions), []).append(row)

    if schema.kind == INSERT:
        post_positions = [table_schema.position(a) for a in schema.post_attrs]
        for diff_row in diff.rows:
            ident = diff.id_of(diff_row)
            expected = diff_row[len(schema.id_attrs):]
            found = any(
                tuple(row[i] for i in post_positions) == expected
                for row in by_id.get(ident, ())
            )
            if not found:
                return False
        return True

    if schema.kind == DELETE:
        return all(diff.id_of(row) not in by_id for row in diff.rows)

    # UPDATE: for IDs still present, post values must match.
    post_positions = [table_schema.position(a) for a in schema.post_attrs]
    n_ids = len(schema.id_attrs)
    n_pre = len(schema.pre_attrs)
    for diff_row in diff.rows:
        expected = diff_row[n_ids + n_pre:]
        for row in by_id.get(diff.id_of(diff_row), ()):
            if tuple(row[i] for i in post_positions) != expected:
                return False
    return True


def merge_diffs(diffs: Sequence[Diff]) -> Diff:
    """Union of same-schema diffs (used when several rule branches feed
    one target); duplicate IDs must agree."""
    if not diffs:
        raise DiffError("cannot merge an empty diff list")
    schema = diffs[0].schema
    for d in diffs[1:]:
        if d.schema != schema:
            raise DiffError(f"cannot merge diffs with schemas {d.schema!r} != {schema!r}")
    rows: list[tuple] = []
    for d in diffs:
        rows.extend(d.rows)
    return Diff(schema, rows)


def insert_schema_for(table_schema) -> DiffSchema:
    """The canonical insert i-diff schema ∆+R(Ī, Ā_post) for a base table."""
    return DiffSchema(
        INSERT,
        table_schema.name,
        table_schema.key,
        post_attrs=table_schema.non_key_columns,
    )


def delete_schema_for(table_schema) -> DiffSchema:
    """The canonical delete i-diff schema ∆−R(Ī, Ā_pre) for a base table."""
    return DiffSchema(
        DELETE,
        table_schema.name,
        table_schema.key,
        pre_attrs=table_schema.non_key_columns,
    )


def update_schema_for(
    table_schema, post_attrs: Sequence[str], pre_attrs: Sequence[str] | None = None
) -> DiffSchema:
    """An update i-diff schema with full key and the given post attrs.

    *pre_attrs* defaults to all non-key attributes (the schema generator's
    choice: pre-state values only ever help — Section 5).
    """
    if pre_attrs is None:
        pre_attrs = table_schema.non_key_columns
    return DiffSchema(
        UPDATE,
        table_schema.name,
        table_schema.key,
        pre_attrs=tuple(pre_attrs),
        post_attrs=tuple(post_attrs),
    )
