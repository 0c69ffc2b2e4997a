"""Relation schemas: named columns plus a primary key.

Rows throughout the library are plain tuples aligned with the schema's
column order; :class:`TableSchema` provides the name-to-position mapping and
key extraction helpers used everywhere else.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import SchemaError, UnknownColumnError

#: Declared column types understood by the catalog and the static analyzer.
COLUMN_TYPES = ("int", "float", "str", "bool")


def row_extractor(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[i] for i in positions)`` for tuple rows, built
    once, picklable (schemas travel in worker blueprints).  A slice serves
    fewer than two positions: a lone ``itemgetter(i)`` returns no tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)
    start = positions[0] if positions else 0
    return itemgetter(slice(start, start + len(positions)))


class TableSchema:
    """Schema of a stored relation: ordered columns and a primary key.

    Parameters
    ----------
    name:
        Relation name (unique within a :class:`~repro.storage.Database`).
    columns:
        Ordered column names; must be unique.
    key:
        Subset of *columns* forming the primary key.  Every base table in
        idIVM must have a key (the paper's core assumption).
    nullable:
        Columns that may hold NULL.  ``None`` (the default) keeps the
        historical behaviour: every non-key column is assumed nullable.
        Pass an explicit (possibly empty) sequence to declare NOT NULL
        columns; key columns are never nullable.  Declarative only — the
        storage layer does not enforce it; the static analyzer
        (:mod:`repro.analysis`) consumes it.
    types:
        Optional declared column types, a mapping ``column -> type name``
        from :data:`COLUMN_TYPES`.  Declarative only, like *nullable*.

    ``key_of(row)`` extracts the primary-key values from a row tuple;
    ``non_key_columns`` are the remaining columns, in schema order.
    """

    __slots__ = (
        "name", "columns", "key", "key_set", "nullable", "types", "_positions",
        "key_of", "non_key_columns", "_extractors",
    )

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        key: Sequence[str],
        nullable: Sequence[str] | None = None,
        types: "dict[str, str] | None" = None,
    ):
        columns = tuple(columns)
        key = tuple(key)
        if not name:
            raise SchemaError("relation name must be non-empty")
        if not columns:
            raise SchemaError(f"relation {name!r} must have at least one column")
        if len(set(columns)) != len(columns):
            raise SchemaError(f"relation {name!r} has duplicate column names: {columns}")
        if not key:
            raise SchemaError(f"relation {name!r} must have a primary key (idIVM requires keys)")
        missing = [k for k in key if k not in columns]
        if missing:
            raise SchemaError(f"key columns {missing} of {name!r} are not in the schema")
        if len(set(key)) != len(key):
            raise SchemaError(f"relation {name!r} has duplicate key columns: {key}")
        self.name = name
        self.columns = columns
        self.key = key
        #: the key columns as a set: what a per-modification immutability
        #: check tests against without building one
        self.key_set = frozenset(key)
        if nullable is None:
            self.nullable = frozenset(c for c in columns if c not in key)
        else:
            nullable = tuple(nullable)
            unknown = [c for c in nullable if c not in columns]
            if unknown:
                raise SchemaError(
                    f"nullable columns {unknown} of {name!r} are not in the schema"
                )
            in_key = [c for c in nullable if c in key]
            if in_key:
                raise SchemaError(
                    f"key columns {in_key} of {name!r} cannot be nullable"
                )
            self.nullable = frozenset(nullable)
        types = dict(types or {})
        for column, type_name in types.items():
            if column not in columns:
                raise SchemaError(
                    f"typed column {column!r} of {name!r} is not in the schema"
                )
            if type_name not in COLUMN_TYPES:
                raise SchemaError(
                    f"unknown type {type_name!r} for {name}.{column}; "
                    f"have {COLUMN_TYPES}"
                )
        self.types = types
        self._positions = {c: i for i, c in enumerate(columns)}
        self.key_of = row_extractor([self._positions[k] for k in key])
        self.non_key_columns = tuple(c for c in columns if c not in key)
        self._extractors: dict[tuple[str, ...], Callable[[tuple], tuple]] = {}

    def position(self, column: str) -> int:
        """Index of *column* in a row tuple."""
        try:
            return self._positions[column]
        except KeyError:
            raise UnknownColumnError(
                f"column {column!r} not in relation {self.name!r} {self.columns}"
            ) from None

    def positions(self, columns: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.position(c) for c in columns)

    def extractor(self, columns: tuple[str, ...]) -> Callable[[tuple], tuple]:
        """``row -> the values of *columns*``, resolved once per column
        tuple: the schema is immutable, so every reader of a round —
        an expansion, an emitted diff, a reordered probe — shares it."""
        got = self._extractors.get(columns)
        if got is None:
            got = self._extractors[columns] = row_extractor(self.positions(columns))
        return got

    def mutable_positions(self, columns: Iterable[str]) -> tuple[int, ...]:
        """:meth:`positions` of *columns* as the targets of an update —
        none may be a key column (immutable, like :meth:`patched`)."""
        columns = tuple(columns)
        for column in columns:
            if column in self.key:
                raise self._immutable(column)
        return self.positions(columns)

    def _immutable(self, column: str) -> SchemaError:
        return SchemaError(f"key column {column!r} of {self.name!r} is immutable")

    def project(self, row: tuple, columns: Sequence[str]) -> tuple:
        """Extract the values of *columns* from *row* (in the given order)."""
        return tuple(row[self.position(c)] for c in columns)

    def patched(self, row: tuple, changes: Mapping[str, object]) -> tuple:
        """*row* with *changes* (column -> new value) applied.  Key
        columns are immutable (the paper's Section 5, footnote 7)."""
        new = list(row)
        for column, value in changes.items():
            if column in self.key:
                raise self._immutable(column)
            new[self.position(column)] = value
        return tuple(new)

    def check_row(self, row: tuple) -> None:
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row arity {len(row)} does not match relation {self.name!r} "
                f"with {len(self.columns)} columns"
            )

    def is_nullable(self, column: str) -> bool:
        """Whether *column* may hold NULL (key columns never do)."""
        self.position(column)  # raise on unknown columns
        return column in self.nullable

    def column_type(self, column: str) -> "str | None":
        """Declared type of *column*, or None when undeclared."""
        self.position(column)
        return self.types.get(column)

    def rename(self, name: str) -> "TableSchema":
        return TableSchema(
            name, self.columns, self.key,
            nullable=tuple(self.nullable), types=self.types,
        )

    def __repr__(self) -> str:  # pragma: no cover - display helper
        cols = ", ".join(f"{c}*" if c in self.key else c for c in self.columns)
        return f"TableSchema({self.name}: {cols})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TableSchema)
            and self.name == other.name
            and self.columns == other.columns
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.name, self.columns, self.key))


class ForeignKey:
    """A foreign-key constraint, used by cache placement to rule out MVDs.

    ``child_table.child_columns`` references ``parent_table``'s primary key.
    """

    __slots__ = ("child_table", "child_columns", "parent_table")

    def __init__(self, child_table: str, child_columns: Sequence[str], parent_table: str):
        if not child_columns:
            raise SchemaError("foreign key must reference at least one column")
        self.child_table = child_table
        self.child_columns = tuple(child_columns)
        self.parent_table = parent_table

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"ForeignKey({self.child_table}.{self.child_columns} -> "
            f"{self.parent_table})"
        )
