"""Compact wire format for cross-process shard maintenance.

The process-backed :class:`~repro.core.sharded.ShardedEngine` ships
per-round ∆-script inputs to long-lived worker processes and receives
diffs, counters and write-sets back.  Pickling the natural in-memory
shapes (dicts of :class:`~repro.core.diffs.Diff` objects, lists of
:class:`~repro.core.modlog.LoggedModification`) is wasteful — every row
would carry per-object pickle framing — and hash-order dependent.  This
module instead encodes batches *columnar*:

* one list per attribute (all values of a diff column travel together),
* column/table/phase names interned once into a string table and
  referenced by index,
* primitive values only (``None``/``bool``/``int``/``float``/``str``) —
  anything else raises :class:`~repro.errors.WireError` at encode time
  instead of silently pickling an unbounded object graph.

Determinism contract: encoding never iterates a ``set`` and sorts every
map whose order is not semantically meaningful, so the same logical
batch produces byte-identical :func:`canonical_bytes` in every process
regardless of ``PYTHONHASHSEED``.  ``tests/test_wire.py`` pins this with
subprocess round-trips under different hash seeds.

Clock domains: :func:`encode_log_batch` deliberately does **not** ship
``logged_at``.  That field is a coordinator-clock ``time.monotonic()``
reading; monotonic clocks are not comparable across processes, so a
worker must never see (or re-stamp) one.  Workers report *durations*
(``perf_counter`` deltas, a span length measured within one process),
which are clock-domain free.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from ..errors import WireError
from ..storage.counters import AccessCounts
from .diffs import Diff, DiffSchema
from .modlog import LoggedModification

WIRE_VERSION = 1

#: Write-set opcodes (see :meth:`repro.storage.table.Table.replay_writes`).
OP_SET = 0     # upsert: key -> full row
OP_DELETE = 1  # delete: key
OP_INDEX = 2   # secondary index created on columns

_OPCODES = {"s": OP_SET, "d": OP_DELETE, "x": OP_INDEX}
_OPNAMES = {v: k for k, v in _OPCODES.items()}


class _Interner:
    """String table builder: each distinct string is stored once and
    referenced by its (stable, first-seen) index."""

    __slots__ = ("strings", "_index")

    def __init__(self) -> None:
        self.strings: list[str] = []
        self._index: dict[str, int] = {}

    def intern(self, value: str) -> int:
        if type(value) is not str:
            raise WireError(
                f"wire string table accepts str only, got {type(value).__name__}"
            )
        idx = self._index.get(value)
        if idx is None:
            idx = len(self.strings)
            self._index[value] = idx
            self.strings.append(value)
        return idx


def check_primitive(value: Any, context: str = "value") -> Any:
    """Validate that *value* is wire-safe; return it unchanged.

    Exact-type check (no subclasses): the wire format must stay a closed
    vocabulary, or decode on the far side would not reproduce the value.
    """
    if value is None or type(value) in (bool, int, float, str):
        return value
    raise WireError(
        f"non-primitive {context}: {type(value).__name__} ({value!r}); "
        "the wire format carries None/bool/int/float/str only"
    )


def _check_values(values: Sequence[Any], context: str) -> list:
    return [check_primitive(v, context) for v in values]


# ----------------------------------------------------------------------
# i-diff instance batches (coordinator -> worker, per round and view)
# ----------------------------------------------------------------------
def encode_instances(instances: Mapping[str, Diff]) -> dict:
    """Encode named i-diff instances columnar (one list per diff column).

    Instances are sorted by name so the document is canonical; decode
    returns them in that order (execution looks instances up by name, so
    order is semantically irrelevant).
    """
    interner = _Interner()
    diffs = []
    for name in sorted(instances):
        diff = instances[name]
        schema = diff.schema
        n_cols = len(schema.columns)
        columns: list[list] = [[] for _ in range(n_cols)]
        for row in diff.rows:
            for i in range(n_cols):
                columns[i].append(
                    check_primitive(row[i], f"diff {name!r} column {schema.columns[i]!r}")
                )
        diffs.append(
            {
                "name": interner.intern(name),
                "kind": interner.intern(schema.kind),
                "target": interner.intern(schema.target),
                "id": [interner.intern(a) for a in schema.id_attrs],
                "pre": [interner.intern(a) for a in schema.pre_attrs],
                "post": [interner.intern(a) for a in schema.post_attrs],
                "rows": len(diff.rows),
                "cols": columns,
            }
        )
    return {
        "v": WIRE_VERSION,
        "kind": "idiff-batch",
        "strings": interner.strings,
        "diffs": diffs,
    }


def decode_instances(doc: Mapping) -> dict[str, Diff]:
    """Rebuild named :class:`Diff` instances from :func:`encode_instances`.

    The document's shape is checked (every column of a diff holds
    ``rows`` values); the rows themselves are trusted — the encoder was
    handed diffs validated at construction.
    """
    _expect_kind(doc, "idiff-batch")
    strings = doc["strings"]
    out: dict[str, Diff] = {}
    for entry in doc["diffs"]:
        name = strings[entry["name"]]
        schema = DiffSchema(
            strings[entry["kind"]],
            strings[entry["target"]],
            tuple(strings[i] for i in entry["id"]),
            tuple(strings[i] for i in entry["pre"]),
            tuple(strings[i] for i in entry["post"]),
        )
        n_rows = entry["rows"]
        columns = entry["cols"]
        if len(columns) != len(schema.columns):
            raise WireError(
                f"diff {name!r}: {len(columns)} columns for schema {schema.columns}"
            )
        for column, values in zip(schema.columns, columns):
            if len(values) != n_rows:
                raise WireError(
                    f"diff {name!r} column {column!r}: {len(values)} values "
                    f"in a document of {n_rows} rows"
                )
        out[name] = Diff.trusted(schema, list(zip(*columns)))
    return out


# ----------------------------------------------------------------------
# modification-log batches (coordinator -> worker, once per round)
# ----------------------------------------------------------------------
def encode_log_batch(entries: Sequence[LoggedModification]) -> dict:
    """Encode a round's log entries as struct-of-arrays.

    ``logged_at`` is intentionally absent (see the module docstring's
    clock-domain note); ``seq`` travels so replicas keep the coordinator's
    ordering.  Entry order is the log order and is preserved.
    """
    interner = _Interner()
    kinds: list[int] = []
    tables: list[int] = []
    seqs: list[int] = []
    keys: list[list] = []
    rows: list = []
    changes: list = []
    for entry in entries:
        kinds.append(interner.intern(entry.kind))
        tables.append(interner.intern(entry.table))
        seqs.append(entry.seq)
        keys.append(_check_values(entry.key, f"log key of {entry.table!r}"))
        rows.append(
            None
            if entry.row is None
            else _check_values(entry.row, f"log row of {entry.table!r}")
        )
        if entry.changes is None:
            changes.append(None)
        else:
            changes.append(
                [
                    [
                        interner.intern(column),
                        check_primitive(value, f"log change {column!r}"),
                    ]
                    for column, value in entry.changes.items()
                ]
            )
    return {
        "v": WIRE_VERSION,
        "kind": "modlog-batch",
        "strings": interner.strings,
        "n": len(entries),
        "kinds": kinds,
        "tables": tables,
        "seqs": seqs,
        "keys": keys,
        "rows": rows,
        "changes": changes,
    }


def decode_log_batch(doc: Mapping) -> list[LoggedModification]:
    """Rebuild log entries from :func:`encode_log_batch`.

    ``logged_at`` stays 0.0 on the decoded entries: the worker never
    participates in freshness accounting (coordinator-clock domain).
    """
    _expect_kind(doc, "modlog-batch")
    strings = doc["strings"]
    out: list[LoggedModification] = []
    for i in range(doc["n"]):
        row = doc["rows"][i]
        change_pairs = doc["changes"][i]
        entry = LoggedModification(
            strings[doc["kinds"][i]],
            strings[doc["tables"][i]],
            tuple(doc["keys"][i]),
            row=None if row is None else tuple(row),
            changes=(
                None
                if change_pairs is None
                else {strings[c]: v for c, v in change_pairs}
            ),
        )
        entry.seq = doc["seqs"][i]
        out.append(entry)
    return out


# ----------------------------------------------------------------------
# per-phase counts (worker -> coordinator, per shard execution)
# ----------------------------------------------------------------------
_COUNT_FIELDS = ("index_lookups", "tuple_reads", "tuple_writes", "index_maintenance")


def encode_counters(counts: Mapping[str, AccessCounts]) -> dict:
    """Encode per-phase access counts shaped like ``CounterSet.snapshot``
    (fixed field order, sorted phases; ``"__total__"`` is not sent)."""
    phases = [
        [name] + [getattr(counts[name], f) for f in _COUNT_FIELDS]
        for name in sorted(counts)
        if name != "__total__"
    ]
    return {"v": WIRE_VERSION, "kind": "counters", "phases": phases}


def decode_counters(doc: Mapping) -> dict[str, AccessCounts]:
    """Rebuild the exact per-phase counts of :func:`encode_counters`.  The
    ``"__total__"`` is the sum of the phases — exact, because every
    counted access lands in both its phase bucket and the total."""
    _expect_kind(doc, "counters")
    counts = {entry[0]: AccessCounts(*entry[1:]) for entry in doc["phases"]}
    total = AccessCounts()
    for phase in counts.values():
        total.add(phase)
    counts["__total__"] = total
    return counts


# ----------------------------------------------------------------------
# write-sets (worker -> coordinator -> all workers)
# ----------------------------------------------------------------------
def encode_writeset(ops_by_table: Mapping[str, Sequence[tuple]]) -> dict:
    """Encode captured table write-sets (see ``Table.replay_writes``).

    Per-table op order is preserved (replay must apply writes in capture
    order); tables themselves sort by tag — the router's disjointness
    proof makes cross-table order irrelevant.
    """
    interner = _Interner()
    tables = []
    for tag in sorted(ops_by_table):
        ops = []
        for op in ops_by_table[tag]:
            code = _OPCODES.get(op[0])
            if code == OP_SET:
                ops.append(
                    [
                        code,
                        _check_values(op[1], f"write key in {tag!r}"),
                        _check_values(op[2], f"write row in {tag!r}"),
                    ]
                )
            elif code == OP_DELETE:
                ops.append([code, _check_values(op[1], f"delete key in {tag!r}")])
            elif code == OP_INDEX:
                ops.append([code, [interner.intern(c) for c in op[1]]])
            else:
                raise WireError(f"unknown write op {op[0]!r} in {tag!r}")
        tables.append([interner.intern(tag), ops])
    return {
        "v": WIRE_VERSION,
        "kind": "writeset",
        "strings": interner.strings,
        "tables": tables,
    }


def decode_writeset(doc: Mapping) -> dict[str, list[tuple]]:
    """Rebuild ``{table_tag: [op, ...]}`` from :func:`encode_writeset`."""
    _expect_kind(doc, "writeset")
    strings = doc["strings"]
    out: dict[str, list[tuple]] = {}
    for tag_idx, ops in doc["tables"]:
        decoded = []
        for op in ops:
            name = _OPNAMES.get(op[0])
            if name == "s":
                decoded.append(("s", tuple(op[1]), tuple(op[2])))
            elif name == "d":
                decoded.append(("d", tuple(op[1])))
            elif name == "x":
                decoded.append(("x", tuple(strings[i] for i in op[1])))
            else:
                raise WireError(f"unknown write opcode {op[0]!r}")
        out[strings[tag_idx]] = decoded
    return out


# ----------------------------------------------------------------------
# canonical bytes (determinism pinning)
# ----------------------------------------------------------------------
#: Tags for the canonical form.  Floats serialize as ``["~f", repr(v)]``
#: so that every distinct float value gets distinct bytes: plain JSON
#: would emit non-standard tokens for NaN/Infinity, and an int and a
#: float of equal value (``1`` vs ``1.0``) compare equal as dict keys,
#: so any value-keyed canonicalization downstream must be able to rely
#: on the byte form keeping them apart.  Genuine lists whose first
#: element is a tag string are escaped with ``"~l"`` to keep the
#: encoding injective.
_FLOAT_TAG = "~f"
_LIST_ESCAPE_TAG = "~l"


def _canonical_transform(value: Any) -> Any:
    if type(value) is float:
        return [_FLOAT_TAG, repr(value)]
    if isinstance(value, (list, tuple)):
        items = [_canonical_transform(v) for v in value]
        if items and (items[0] == _FLOAT_TAG or items[0] == _LIST_ESCAPE_TAG):
            return [_LIST_ESCAPE_TAG, *items]
        return items
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if type(key) is not str:
                raise WireError(
                    f"wire documents use str keys only, got {type(key).__name__} ({key!r})"
                )
            out[key] = _canonical_transform(item)
        return out
    return value


def canonical_bytes(doc: Mapping) -> bytes:
    """Canonical serialized form of a wire document.

    Used by determinism tests (and available for content-addressing):
    the same logical batch yields identical bytes in every process, and
    distinct primitive values always yield distinct bytes.  Floats are
    rendered via ``repr`` under a ``"~f"`` tag, which keeps ``1`` vs
    ``1.0``, ``0.0`` vs ``-0.0``, and ``True`` vs ``1`` apart and gives
    NaN/±Infinity a deterministic strict-JSON representation
    (``allow_nan=False`` guards against untagged leaks).
    """
    return json.dumps(
        _canonical_transform(doc),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    ).encode("utf-8")


def _expect_kind(doc: Mapping, kind: str) -> None:
    if not isinstance(doc, Mapping) or doc.get("kind") != kind or doc.get("v") != WIRE_VERSION:
        raise WireError(
            f"malformed wire document: expected kind={kind!r} v={WIRE_VERSION}, "
            f"got kind={doc.get('kind')!r} v={doc.get('v')!r}"
            if isinstance(doc, Mapping)
            else f"malformed wire document: expected a mapping, got {type(doc).__name__}"
        )
