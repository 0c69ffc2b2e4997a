"""Instrumented in-memory tables with a primary-key index and optional
secondary hash indexes.

Access-count policy (matching the paper's Section 6 / Appendix A model):

* fetching the ``m`` rows matching an indexed value costs ``1 + m``
  (one index lookup, ``m`` tuple reads);
* a full scan of ``n`` rows costs ``n`` tuple reads;
* APPLY writes a row in two steps (``docs/COST_MODEL.md``): ``locate``
  identifies the target keys for one index lookup, then each
  ``write_at`` / ``delete_at`` of a located row is one tuple write;
  ``insert_checked`` (and ``insert``) is one index lookup, plus one tuple
  write when a row is stored.  ``update_many`` / ``delete_many`` /
  ``insert_many`` apply a whole diff for the same price, charged once;
* secondary-index maintenance does not enter the paper's cost metric — the
  paper explicitly grants the tuple-based baseline free index maintenance
  ("without counting the associated index maintenance cost", Section 7.2)
  and we extend the same courtesy to every approach.  Counted write paths
  nevertheless *track* every index-entry mutation in the separate
  ``index_maintenance`` counter (excluded from ``AccessCounts.total``), so
  the work is visible and reconcilable; ``*_uncounted`` paths,
  ``replay_writes`` and ``roll_forward`` touch no counter at all and must
  stay exactly count-neutral.  An *entry mutation* is one that happens:
  an update removes and re-adds a row only in the indexes whose columns
  it sets (PostgreSQL's heap-only-tuple rule), so an update of a
  non-indexed column tracks none.

Every writer, counted or not, changes the rows dict and the indexes
through ``Table._store`` / ``Table._discard`` and nothing else; the bulk
writers are loops over the two.  A writer that knows the attributes it
sets resolves the indexes they touch once per call and hands ``_store``
only those; one that holds finished rows compares the indexed values.
A bulk call on an empty batch returns before it resolves an index: most
APPLY steps of a round carry no rows, and an index auto-created for
them would never serve a lookup.

Concurrency: a table is read and written by one thread — shards run one
after another in the coordinator, or in worker processes that own their
replicas — so no write takes a lock.  Bucket lookups hand out copies,
so a caller may write to the table while it iterates a probe result.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import IntegrityError, SchemaError, ScriptError
from .counters import CounterSet
from .schema import TableSchema, row_extractor


class _SecondaryIndex:
    """Hash index from a column subset to the set of primary keys."""

    __slots__ = ("columns", "value_of", "buckets")

    def __init__(self, schema: TableSchema, columns: tuple[str, ...]):
        self.columns = columns
        self.value_of = row_extractor(schema.positions(columns))
        self.buckets: dict[tuple, set[tuple]] = {}

    def add(self, key: tuple, row: tuple) -> None:
        self.buckets.setdefault(self.value_of(row), set()).add(key)

    def remove(self, key: tuple, row: tuple) -> None:
        value = self.value_of(row)
        bucket = self.buckets.get(value)
        if bucket is not None:
            bucket.discard(key)
            if not bucket:
                del self.buckets[value]

    def get(self, value: tuple) -> set[tuple]:
        # A copy, so callers never iterate a set a writer is mutating.
        bucket = self.buckets.get(value)
        return set(bucket) if bucket else set()


class Table:
    """A stored relation: primary-key dict plus secondary hash indexes.

    All reads and writes report into *counters* (shared with the owning
    :class:`~repro.storage.Database`).  Methods with an ``_uncounted``
    suffix bypass instrumentation and exist for test oracles and workload
    setup only.
    """

    def __init__(
        self,
        schema: TableSchema,
        counters: CounterSet | None = None,
        auto_index: bool = True,
    ):
        self.schema = schema
        self.counters = counters if counters is not None else CounterSet()
        self.auto_index = auto_index
        self._rows: dict[tuple, tuple] = {}
        self._indexes: dict[tuple[str, ...], _SecondaryIndex] = {}
        # Optional write-set sink (see begin_capture): counted writes and
        # index builds append replayable ops here while active.
        self._capture: list[tuple] | None = None
        # Optional coverage audit (see audit_uncaptured): called with the
        # table name on every counted write that no capture records.
        self._uncaptured_audit: Callable[[str], None] | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    @property
    def name(self) -> str:
        return self.schema.name

    def has_index(self, columns: Sequence[str]) -> bool:
        columns = tuple(columns)
        return columns == self.schema.key or columns in self._indexes

    def index_columns(self) -> list[tuple[str, ...]]:
        """Column tuples of the secondary indexes (sorted; replication
        snapshots use this so replicas rebuild the same index set)."""
        return sorted(self._indexes)

    # ------------------------------------------------------------------
    # index management (uncounted)
    # ------------------------------------------------------------------
    def create_index(self, columns: Sequence[str]) -> None:
        """Create a secondary hash index on *columns* (no-op if present)."""
        columns = tuple(columns)
        if columns == self.schema.key or columns in self._indexes:
            return
        for c in columns:
            self.schema.position(c)  # validates
        index = _SecondaryIndex(self.schema, columns)
        for key, row in self._rows.items():
            index.add(key, row)
        self._indexes[columns] = index
        if self._capture is not None:
            self._capture.append(("x", columns))

    def _index_for(self, columns: tuple[str, ...]) -> _SecondaryIndex | None:
        index = self._indexes.get(columns)
        if index is None and self.auto_index:
            self.create_index(columns)
            index = self._indexes.get(columns)
        return index

    # ------------------------------------------------------------------
    # counted reads
    # ------------------------------------------------------------------
    def get(self, key: tuple) -> tuple | None:
        """Primary-key lookup.  Costs 1 index lookup (+1 read if found)."""
        self.counters.count_index_lookup()
        row = self._rows.get(tuple(key))
        if row is not None:
            self.counters.count_tuple_read()
        return row

    def lookup(self, columns: Sequence[str], value: tuple) -> list[tuple]:
        """Fetch rows whose *columns* equal *value*.

        Uses the PK index when *columns* is exactly the key, a secondary
        index otherwise (auto-created when ``auto_index`` is on, falling
        back to a counted full scan when not).
        """
        columns = tuple(columns)
        value = tuple(value)
        if columns == self.schema.key:
            row = self._rows.get(value)
            self.counters.count_index_lookup()
            if row is None:
                return []
            self.counters.count_tuple_read()
            return [row]
        index = self._index_for(columns)
        if index is None:
            positions = self.schema.positions(columns)
            out = []
            for row in self._rows.values():
                self.counters.count_tuple_read()
                if tuple(row[i] for i in positions) == value:
                    out.append(row)
            return out
        self.counters.count_index_lookup()
        keys = index.get(value)
        rows = [self._rows[k] for k in keys]
        self.counters.count_tuple_read(len(rows))
        return rows

    def lookup_one(self, columns: Sequence[str], value: tuple) -> tuple | None:
        """One arbitrary row whose *columns* equal *value* (LIMIT 1).

        Costs one index lookup plus at most one tuple read — used when
        any exemplar suffices (e.g. the Section 9 view-reuse probes,
        where the requested attributes are functionally determined by
        the looked-up columns).
        """
        columns = tuple(columns)
        value = tuple(value)
        if columns == self.schema.key:
            self.counters.count_index_lookup()
            row = self._rows.get(value)
            if row is not None:
                self.counters.count_tuple_read()
            return row
        index = self._index_for(columns)
        if index is not None:
            self.counters.count_index_lookup()
            keys = index.get(value)
            if not keys:
                return None
            self.counters.count_tuple_read()
            return self._rows[next(iter(keys))]
        positions = self.schema.positions(columns)
        for row in self._rows.values():
            self.counters.count_tuple_read()
            if tuple(row[i] for i in positions) == value:
                return row
        return None

    def scan(self) -> Iterator[tuple]:
        """Iterate all rows; each yielded row costs one tuple read."""
        for row in self._rows.values():
            self.counters.count_tuple_read()
            yield row

    # ------------------------------------------------------------------
    # the physical write path: every mutation of the rows dict and of the
    # secondary indexes is one of the two primitives below; a counted
    # writer adds the accounting tail, an uncounted one adds nothing.
    # ------------------------------------------------------------------
    def _store(
        self,
        key: tuple,
        row: tuple,
        old: tuple | None = None,
        indexes: Iterable[_SecondaryIndex] | None = None,
    ) -> None:
        """Put *row* at *key*, replacing *old* (the row stored there now,
        None when the key is free) in the rows dict and in *indexes* —
        every index unless the caller knows which ones *row* moves in."""
        for index in self._indexes.values() if indexes is None else indexes:
            if old is not None:
                index.remove(key, old)
            index.add(key, row)
        self._rows[key] = row

    def _discard(self, key: tuple, row: tuple) -> None:
        """Drop *row*, stored at *key*, from the rows dict and every index."""
        del self._rows[key]
        for index in self._indexes.values():
            index.remove(key, row)

    def _touched(self, attrs: Iterable[str]) -> Sequence[_SecondaryIndex]:
        """The indexes an update of *attrs* moves a row in: those over
        one of them.  Resolved once per call, never per row."""
        if not self._indexes:
            return ()
        attrs = frozenset(attrs)
        return [
            index for columns, index in self._indexes.items()
            if not attrs.isdisjoint(columns)
        ]

    def _moved(self, old: tuple, row: tuple) -> Sequence[_SecondaryIndex]:
        """The indexes overwriting *old* with the finished *row* moves
        it in, for a writer that has no attribute list to resolve."""
        if not self._indexes:
            return ()
        return [
            index for index in self._indexes.values()
            if index.value_of(old) != index.value_of(row)
        ]

    def _account(
        self, changes: Sequence[tuple], entries: int, lookups: int = 0
    ) -> None:
        """Tail of every counted write, single or batched: *lookups*
        index lookups, then per ``(pre, post)`` row pair of *changes*
        (None marks an absent side) the *entries* index entries the
        write mutated, the replayable op (or the uncaptured-write audit)
        and one tuple write."""
        counters = self.counters
        if lookups:
            counters.count_index_lookup(lookups)
        if not changes:
            return
        if entries:
            counters.count_index_maintenance(entries * len(changes))
        if self._capture is not None:
            key_of = self.schema.key_of
            self._capture.extend(
                ("d", key_of(pre)) if post is None else ("s", key_of(post), post)
                for pre, post in changes
            )
        elif self._uncaptured_audit is not None:
            for _ in changes:
                self._uncaptured_audit(self.schema.name)
        counters.count_tuple_write(len(changes))

    # ------------------------------------------------------------------
    # counted writes: the APPLY primitives (paper Appendix A: identifying
    # the to-be-modified tuples costs one index lookup per diff tuple;
    # each read-modify-write of a located row costs one tuple access).
    # ------------------------------------------------------------------
    def insert(self, row: Sequence) -> None:
        """Insert *row*; raises :class:`IntegrityError` on duplicate key."""
        row = tuple(row)
        self.schema.check_row(row)
        key = self.schema.key_of(row)
        self.counters.count_index_lookup()
        if key in self._rows:
            raise IntegrityError(
                f"duplicate key {key} in relation {self.schema.name!r}"
            )
        self._store(key, row)
        self._account(((None, row),), len(self._indexes))

    def insert_checked(self, row: tuple) -> bool:
        """:meth:`insert_many` of one row: True when it was inserted."""
        return bool(self.insert_many((tuple(row),)))

    def _finder(self, columns: tuple[str, ...]):
        """``(find, lookups)``: ``find(ident)`` gives the primary keys of
        the rows whose *columns* equal *ident* — resolved once, for one
        ``locate`` or a whole batch — and costs *lookups* index lookups,
        which the caller charges; 0 when no index serves *columns* and
        ``find`` is a full scan that counts its own tuple reads."""
        rows = self._rows
        if columns == self.schema.key:
            return (lambda ident: (ident,) if ident in rows else ()), 1
        index = self._index_for(columns)
        if index is not None:
            return index.get, 1  # a copy: a caller's writes mutate the bucket
        value_of = row_extractor(self.schema.positions(columns))

        def scan(ident: tuple) -> list[tuple]:
            if rows:
                self.counters.count_tuple_read(len(rows))
            return [key for key, row in rows.items() if value_of(row) == ident]

        return scan, 0

    def locate(self, columns: Sequence[str], value: tuple) -> list[tuple]:
        """Primary keys of rows whose *columns* equal *value*.

        Costs exactly one index lookup (no tuple reads) — the
        "identification" step of applying a diff; without an index, a
        counted full scan.
        """
        find, lookups = self._finder(tuple(columns))
        if lookups:
            self.counters.count_index_lookup()
        return list(find(tuple(value)))

    def write_at(self, key: tuple, changes: Mapping[str, object]) -> tuple:
        """Read-modify-write the already-located row at *key*.

        Costs one tuple write (the paper counts the combined
        read-modify-write as a single access).  Returns the pre-state
        row.  Key columns are immutable (Section 5, footnote 7).
        """
        key = tuple(key)
        old = self._rows[key]
        new_row = self.schema.patched(old, changes)
        touched = self._touched(changes)
        self._store(key, new_row, old, touched)
        self._account(((old, new_row),), 2 * len(touched))
        return old

    def delete_at(self, key: tuple) -> tuple:
        """Delete the already-located row at *key* (one tuple write)."""
        key = tuple(key)
        row = self._rows[key]
        self._discard(key, row)
        self._account(((row, None),), len(self._indexes))
        return row

    # ------------------------------------------------------------------
    # bulk APPLY: one call per diff.  Each is the per-row loop above —
    # ``locate`` + ``write_at`` / ``delete_at``, or the ∆+ NOT-IN guard —
    # with the index resolved once and one ``_account`` tail, in a
    # ``finally``: a batch that raises half-way has charged what its
    # completed rows cost.  All return the (pre, post) row pairs written.
    # ------------------------------------------------------------------
    def update_many(
        self,
        columns: Sequence[str],
        attrs: Sequence[str],
        pairs: Sequence[tuple[tuple, tuple]],
    ) -> list[tuple]:
        """APPLY ∆u: per ``(ident, values)`` of *pairs*, set *attrs* to
        *values* in every row whose *columns* equal *ident*."""
        if not pairs:
            return []
        columns = tuple(columns)
        positions = self.schema.mutable_positions(attrs)
        changes: list[tuple] = []
        lookups = 0
        find, per_ident = self._finder(columns)
        touched = self._touched(attrs)
        serving = self._indexes.get(columns)
        if serving is not None and serving not in touched:
            # No write below moves a key of the serving index, so
            # its buckets are read in place (None: no such value),
            # not copied per ident.
            find = serving.buckets.get
        rows, store = self._rows, self._store
        # A lone attribute with no index to maintain patches by
        # slicing (*values* is the 1-tuple of its new value).
        at = positions[0] if len(positions) == 1 and not touched else -1
        try:
            for ident, values in pairs:
                lookups += per_ident
                for key in find(ident) or ():
                    old = rows[key]
                    if at >= 0:
                        new = old[:at] + values + old[at + 1:]
                    else:
                        patched = list(old)
                        for i, value in zip(positions, values):
                            patched[i] = value
                        new = tuple(patched)
                    store(key, new, old, touched)
                    changes.append((old, new))
        finally:
            self._account(changes, 2 * len(touched), lookups)
        return changes

    def delete_many(self, columns: Sequence[str], idents: Sequence[tuple]) -> list[tuple]:
        """APPLY ∆−: delete every row whose *columns* equal one of *idents*."""
        if not idents:
            return []
        changes: list[tuple] = []
        lookups = 0
        find, per_ident = self._finder(tuple(columns))
        try:
            for ident in idents:
                lookups += per_ident
                for key in find(ident):
                    old = self._rows[key]
                    self._discard(key, old)
                    changes.append((old, None))
        finally:
            self._account(changes, len(self._indexes), lookups)
        return changes

    def insert_many(self, rows: Sequence[tuple]) -> list[tuple]:
        """APPLY ∆+ with its NOT-IN guard (Section 2): insert each of
        *rows* (tuples in schema order) unless the identical row is
        stored already — several insert i-diffs may carry the same
        tuple.  A row with the same key but *different* values signals
        an ineffective diff set and raises :class:`IntegrityError`.
        """
        changes: list[tuple] = []
        lookups = 0
        key_of = self.schema.key_of
        try:
            for row in rows:
                self.schema.check_row(row)
                lookups += 1
                key = key_of(row)
                existing = self._rows.get(key)
                if existing is None:
                    self._store(key, row)
                    changes.append((None, row))
                elif existing != row:
                    raise IntegrityError(
                        f"insert of {row} conflicts with existing {existing} "
                        f"in {self.schema.name!r}"
                    )
        finally:
            self._account(changes, len(self._indexes), lookups)
        return changes

    # ------------------------------------------------------------------
    # write-set capture and replay (process shard workers)
    # ------------------------------------------------------------------
    def begin_capture(self) -> list[tuple]:
        """Start recording counted writes as replayable ops.

        Because primary keys are immutable, every counted mutation of
        this table reduces to an upsert ``("s", key, row)`` or a delete
        ``("d", key)``; index builds record ``("x", columns)`` so a
        replica's index set (and hence its ``index_maintenance`` counts)
        tracks the original's.  Returns the sink list.

        Captures do not nest: arming a second capture while one is
        active raises :class:`~repro.errors.ScriptError` — the inner
        caller would silently steal the outer caller's write-set.
        """
        if self._capture is not None:
            raise ScriptError(
                f"nested begin_capture on table {self.schema.name!r}: "
                f"a capture is already active"
            )
        sink: list[tuple] = []
        self._capture = sink
        return sink

    def end_capture(self) -> list[tuple]:
        """Stop recording and return the captured op list."""
        sink, self._capture = self._capture, None
        return sink if sink is not None else []

    def audit_uncaptured(self, hook: Callable[[str], None] | None) -> None:
        """Install (or clear, with None) the capture-coverage audit.

        While set and no capture is armed, every counted write calls
        ``hook(table_name)``.  The dynamic race detector arms this on
        tables *outside* the view's tagged cache set during a checked
        round: any hit is a writer whose effects would escape the
        process backend's write-set merge (the dynamic face of RACE604).
        """
        self._uncaptured_audit = hook

    def replay_writes(self, ops: Sequence[tuple]) -> None:
        """Apply a captured write-set, uncounted and idempotently.

        The counted work already happened wherever the ops were captured
        (a shard worker process); replay only moves this replica to the
        same post-state.  Upserts overwrite, deletes of absent keys are
        no-ops, index builds are idempotent — so replaying a merged
        round write-set on the worker that produced part of it is safe.
        """
        for op in ops:
            if op[0] == "s":
                self._put(op[1], op[2])
            elif op[0] == "d":
                self._put(op[1], None)
            elif op[0] == "x":
                self.create_index(op[1])
            else:  # pragma: no cover - encoder validates opcodes
                raise SchemaError(f"unknown write op {op[0]!r}")

    def roll_forward(self, changes: Iterable[tuple[tuple, tuple | None]]) -> None:
        """Catch this replica up with a round's net changes, uncounted
        and idempotently: per ``(key, row)``, *row* is what *key* holds
        afterwards — ``None``: nothing.  One call per table and round."""
        for key, row in changes:
            self._put(key, row)

    def _put(self, key: tuple, row: tuple | None) -> None:
        """Make *key* hold the finished *row* (``None``: no row); an
        overwrite maintains only the indexes the row moves in."""
        old = self._rows.get(key)
        if row is None:
            if old is not None:
                self._discard(key, old)
        elif old is None:
            self._store(key, row)
        elif old != row:
            self._store(key, row, old, self._moved(old, row))

    # ------------------------------------------------------------------
    # uncounted helpers (setup, oracles, the modification log, copying)
    # ------------------------------------------------------------------
    def insert_uncounted(self, row: Sequence) -> None:
        row = tuple(row)
        self.schema.check_row(row)
        key = self.schema.key_of(row)
        if key in self._rows:
            raise IntegrityError(
                f"duplicate key {key} in relation {self.schema.name!r}"
            )
        self._store(key, row)

    def load(self, rows: Iterable[Sequence]) -> None:
        """Bulk-load rows without counting (workload setup)."""
        for row in rows:
            self.insert_uncounted(row)

    def delete_uncounted(self, key: tuple) -> tuple | None:
        """Uncounted delete (modification time is outside the IVM cost)."""
        key = tuple(key)
        row = self._rows.get(key)
        if row is not None:
            self._discard(key, row)
        return row

    def update_uncounted(self, key: tuple, changes: Mapping[str, object]) -> tuple | None:
        """Uncounted in-place update; returns the pre-state row."""
        written = self.patch_uncounted(tuple(key), changes)
        return written[0] if written is not None else None

    def patch_uncounted(
        self, key: tuple, changes: Mapping[str, object]
    ) -> tuple[tuple, tuple] | None:
        """:meth:`update_uncounted` for a caller that needs both states:
        the ``(pre, post)`` rows at *key* (a tuple already), ``None``
        when it holds no row.  The row is read once and written only if
        *changes* change it — *post* ``is`` *pre* otherwise."""
        old = self._rows.get(key)
        if old is None:
            return None
        new = self.schema.patched(old, changes)
        if new == old:
            return old, old
        self._store(key, new, old, self._touched(changes))
        return old, new

    def rows_uncounted(self) -> list[tuple]:
        return list(self._rows.values())

    def get_uncounted(self, key: tuple) -> tuple | None:
        return self._rows.get(tuple(key))

    def as_set(self) -> frozenset[tuple]:
        """Frozen set of rows, for order-insensitive comparisons in tests."""
        return frozenset(self._rows.values())

    def copy(self, counters: CounterSet | None = None) -> "Table":
        """Deep copy (rows are immutable tuples, so sharing them is safe)."""
        clone = Table(
            self.schema,
            counters=counters if counters is not None else self.counters,
            auto_index=self.auto_index,
        )
        clone._rows = dict(self._rows)
        for columns, index in self._indexes.items():
            twin = clone._indexes[columns] = _SecondaryIndex(self.schema, columns)
            twin.buckets = {value: set(keys) for value, keys in index.buckets.items()}
        return clone

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"Table({self.schema.name}, {len(self._rows)} rows)"


def sort_rows(rows: Iterable[tuple]) -> list[tuple]:
    """Deterministically order rows for display and golden tests."""

    def sort_key(row: tuple):
        return tuple((value is None, str(type(value)), repr(value)) for value in row)

    return sorted(rows, key=sort_key)


RowFilter = Callable[[tuple], bool]
