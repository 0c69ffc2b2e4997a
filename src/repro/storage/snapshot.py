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

    Secondary-index column sets and the ``auto_index`` setting are
    persisted so a restored database probes exactly like the original
    (an ``auto_index=False`` database would otherwise silently fall back
    to counted full scans).  Index *contents* are never serialized —
    restore rebuilds them from the rows, so stale entries cannot survive
    a round trip.
    """
    return {
        "format": FORMAT_VERSION,
        "auto_index": db.auto_index,
        "tables": [
            {
                "name": table.schema.name,
                "columns": list(table.schema.columns),
                "key": list(table.schema.key),
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
    db = Database(auto_index=bool(payload.get("auto_index", True)))
    for spec in payload["tables"]:
        table = db.create_table(spec["name"], spec["columns"], spec["key"])
        table.load(tuple(row) for row in spec["rows"])
        # Rebuild secondary indexes from the loaded rows (pre-1.1
        # snapshots carry no "indexes" field; auto_index re-creates them
        # lazily for those).  Counters start at zero: neither the bulk
        # load nor the index builds are maintenance cost.
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
