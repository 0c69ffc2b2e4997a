"""Database catalog: named tables, foreign keys, shared access counters."""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import SchemaError, UnknownTableError
from .counters import CounterSet
from .schema import ForeignKey, TableSchema
from .table import Table


class Database:
    """A catalog of :class:`Table` objects sharing one :class:`CounterSet`.

    Foreign keys are declarative only (not enforced on writes); the
    ∆-script generator uses them to prove the absence of multi-valued
    dependencies when deciding whether to materialize an intermediate
    cache (paper Section 4, footnote 6).
    """

    def __init__(self, counters: CounterSet | None = None, auto_index: bool = True):
        self.counters = counters if counters is not None else CounterSet()
        self.auto_index = auto_index
        self.tables: dict[str, Table] = {}
        self.foreign_keys: list[ForeignKey] = []

    # ------------------------------------------------------------------
    # catalog management
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        columns: Sequence[str],
        key: Sequence[str],
        nullable: Sequence[str] | None = None,
        types: dict[str, str] | None = None,
    ) -> Table:
        """Create and register an empty table."""
        if name in self.tables:
            raise SchemaError(f"relation {name!r} already exists")
        schema = TableSchema(name, columns, key, nullable=nullable, types=types)
        table = Table(schema, counters=self.counters, auto_index=self.auto_index)
        self.tables[name] = table
        return table

    def add_table(self, table: Table) -> Table:
        """Register an existing table (rebinding it to the shared counters)."""
        if table.schema.name in self.tables:
            raise SchemaError(f"relation {table.schema.name!r} already exists")
        table.counters = self.counters
        self.tables[table.schema.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownTableError(f"no relation named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def add_foreign_key(
        self, child_table: str, child_columns: Sequence[str], parent_table: str
    ) -> None:
        """Declare ``child_table.child_columns -> parent_table`` (to its PK)."""
        self.table(child_table)
        self.table(parent_table)
        self.foreign_keys.append(ForeignKey(child_table, child_columns, parent_table))

    def foreign_keys_of(self, child_table: str) -> list[ForeignKey]:
        return [fk for fk in self.foreign_keys if fk.child_table == child_table]

    # ------------------------------------------------------------------
    # copying
    # ------------------------------------------------------------------
    def copy(
        self, counters: CounterSet | None = None, tables: Iterable[str] | None = None
    ) -> "Database":
        """Deep copy of the named *tables* (default: all of them)."""
        clone = Database(
            counters=counters if counters is not None else CounterSet(),
            auto_index=self.auto_index,
        )
        for name in self.tables if tables is None else sorted(tables):
            clone.tables[name] = self.table(name).copy(counters=clone.counters)
        clone.foreign_keys = list(self.foreign_keys)
        return clone

    def table_names(self) -> list[str]:
        return list(self.tables)

    def __repr__(self) -> str:  # pragma: no cover - display helper
        parts = ", ".join(f"{t.schema.name}({len(t)})" for t in self.tables.values())
        return f"Database({parts})"


def load_rows(db: Database, name: str, rows: Iterable[Sequence]) -> None:
    """Convenience bulk loader for tests and workloads."""
    db.table(name).load(rows)
