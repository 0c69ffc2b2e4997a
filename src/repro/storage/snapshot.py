"""Database snapshots: JSON-serializable save/load of catalog + rows.

Useful for checkpointing a workload, shipping reproducible test
fixtures, and diffing database states.  Values must be JSON-compatible
scalars (str / int / float / bool / None) — which is all the engine's
expression layer produces.  Tuples are serialized as lists and restored
as tuples on load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..errors import SchemaError
from .database import Database

FORMAT_VERSION = 1


def database_to_dict(db: Database) -> dict:
    """Plain-dict snapshot of schemas, rows, indexes and foreign keys.

    A schema keeps its declared ``nullable`` columns and ``types``, which
    the static analyzer reads.  Secondary-index column sets are persisted
    so a restored database holds the same indexes as the original before
    its first probe.  Index *contents* are never serialized — restore
    rebuilds them from the rows, so stale entries cannot survive a round
    trip.
    """
    return {
        "format": FORMAT_VERSION,
        "tables": [
            {
                "name": table.schema.name,
                "columns": list(table.schema.columns),
                "key": list(table.schema.key),
                "nullable": sorted(table.schema.nullable),
                "types": dict(table.schema.types),
                "indexes": [list(columns) for columns in table.index_columns()],
                "rows": [list(row) for row in table.rows_uncounted()],
            }
            for table in db.tables.values()
        ],
        "foreign_keys": [
            {
                "child_table": fk.child_table,
                "child_columns": list(fk.child_columns),
                "parent_table": fk.parent_table,
            }
            for fk in db.foreign_keys
        ],
    }


def database_from_dict(payload: dict) -> Database:
    """Rebuild a database from :func:`database_to_dict` output."""
    if payload.get("format") != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported snapshot format {payload.get('format')!r}; "
            f"expected {FORMAT_VERSION}"
        )
    db = Database()
    for spec in payload["tables"]:
        # Older snapshots carry no "nullable" / "types" (the schema
        # defaults apply); a field this loader does not read, such as a
        # retired index-policy flag, is ignored.
        table = db.create_table(
            spec["name"], spec["columns"], spec["key"],
            nullable=spec.get("nullable"), types=spec.get("types"),
        )
        table.load(tuple(row) for row in spec["rows"])
        # Rebuild secondary indexes from the loaded rows (older snapshots
        # carry no "indexes" field; the first probe builds them lazily).
        # Counters start at zero: neither the bulk load nor the index
        # builds are maintenance cost.
        for columns in spec.get("indexes", []):
            table.create_index(columns)
    for fk in payload.get("foreign_keys", []):
        db.add_foreign_key(
            fk["child_table"], fk["child_columns"], fk["parent_table"]
        )
    return db


def save_database(db: Database, path: Union[str, Path]) -> None:
    """Write a JSON snapshot of *db* to *path*."""
    Path(path).write_text(json.dumps(database_to_dict(db)))


def load_database(path: Union[str, Path]) -> Database:
    """Read a JSON snapshot produced by :func:`save_database`."""
    return database_from_dict(json.loads(Path(path).read_text()))
