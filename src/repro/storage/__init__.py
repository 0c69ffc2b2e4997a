"""Storage substrate: instrumented in-memory relational engine.

This package stands in for the PostgreSQL instance the paper ran on.  It
provides keyed tables with hash indexes and, crucially, *access counting* —
the quantity the paper's Section 6 cost model is defined over.
"""

from .counters import AccessCounts, CostBreakdown, CounterSet
from .database import Database, load_rows
from .partition import shard_key_bytes, shard_of
from .schema import ForeignKey, TableSchema, row_extractor
from .snapshot import (
    database_from_dict,
    database_to_dict,
    load_database,
    save_database,
)
from .table import Table, sort_rows

__all__ = [
    "AccessCounts",
    "CostBreakdown",
    "CounterSet",
    "Database",
    "ForeignKey",
    "Table",
    "TableSchema",
    "database_from_dict",
    "database_to_dict",
    "load_database",
    "save_database",
    "load_rows",
    "row_extractor",
    "shard_key_bytes",
    "shard_of",
    "sort_rows",
]
