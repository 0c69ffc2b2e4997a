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
writers are loops over the two — the ∆u loop and the trigger writer
(:meth:`Table.patcher`) generated here, once per shape of call.  A
writer that knows the attributes it sets resolves the indexes they
touch once per call and hands ``_store`` only those; one that holds
finished rows compares the indexed values.
A bulk call on an empty batch returns before it resolves an index: most
APPLY steps of a round carry no rows, and an index auto-created for
them would never serve a lookup.

The two primitives also feed the table's write journal
(:meth:`Table.begin_journal`), so it sees every writer: the engine arms
one around each view-round and rolls a failed view back whole, and the
shard backends read a round's net write-set off it.

Concurrency: a table is read and written by one thread — shards run one
after another in the coordinator, or in worker processes that own their
replicas — so no write takes a lock.  A read builds its rows list before
it returns, and ``locate`` hands out a copy of the keys, so a caller may
write to the table while it iterates either result.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

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


class _Journal(dict):
    """key → the row it held when the journal was armed (None: no row);
    ``built``: the indexes created since, ``outer``: the enclosing one."""

    __slots__ = ("built", "outer")

    def __init__(self, outer: "_Journal | None"):
        self.built: list[tuple[str, ...]] = []
        self.outer = outer


class Table:
    """A stored relation: primary-key dict plus secondary hash indexes.

    All reads and writes report into *counters* (shared with the owning
    :class:`~repro.storage.Database`).  Methods with an ``_uncounted``
    suffix bypass instrumentation and exist for test oracles and workload
    setup only.
    """

    def __init__(self, schema: TableSchema, counters: CounterSet | None = None):
        self.schema = schema
        self.counters = counters if counters is not None else CounterSet()
        self._rows: dict[tuple, tuple] = {}
        self._indexes: dict[tuple[str, ...], _SecondaryIndex] = {}
        # The armed write journal, innermost first (see begin_journal).
        self._journal: _Journal | None = None
        # What a writer resolves once per shape of call (see bound):
        # dropped when the index set changes, never copied or pickled.
        self._bound: dict = {}

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
        self._bound = {}  # finders and touched sets were resolved without it
        if self._journal is not None:
            self._journal.built.append(columns)

    def _index_for(self, columns: tuple[str, ...]) -> _SecondaryIndex:
        """The secondary index on *columns*, built on first use."""
        index = self._indexes.get(columns)
        if index is None:
            self.create_index(columns)
            index = self._indexes[columns]
        return index

    def bound(self, key: Hashable, make: Callable[[], object]):
        """What ``make()`` resolves for this table, once per *key*: the
        generated loop of one shape of :meth:`update_many` (finder,
        touched indexes, new-row display), the trigger writer of one
        column set (:meth:`patcher`), the batch probe of one (:meth:`probe`),
        an APPLY's column reorder for one
        layout of insert diff (``core.apply.apply_diff``).  A ``make()``
        that raises stores nothing.  The memo is dropped when the index
        set changes (:meth:`create_index`: lazy builds and replayed
        ``"x"`` ops too), starts empty in a :meth:`copy` and is not
        pickled."""
        got = self._bound.get(key)
        if got is None:
            got = self._bound[key] = make()
        return got

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
        index otherwise (built on first use).
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
        self.counters.count_index_lookup()
        # the bucket read in place: the rows list is built before any write
        rows = [self._rows[k] for k in index.buckets.get(value, ())]
        self.counters.count_tuple_read(len(rows))
        return rows

    def probe(self, columns: tuple[str, ...]) -> Callable[[Sequence[tuple]], list[tuple]]:
        """:meth:`lookup` of a batch, bound once per tuple of *columns*:
        ``probe(values)`` returns the rows whose *columns* equal each of
        *values* in turn, the caller's values as given (one lookup per
        value, duplicates too).  The key or index is resolved at the bind
        (a lazy index is built then, as the first ``lookup`` builds it),
        each bucket is read in place, and the batch is charged once: one
        ``count_index_lookup(n)`` for *n* values and one
        ``count_tuple_read(m)`` for *m* rows — a per-value ``lookup`` loop's
        totals.  A zero is never charged, so no empty phase bucket
        appears."""
        probe = self._bound.get(("r", columns))
        if probe is None:
            probe = self.bound(("r", columns), lambda: self._bind_probe(columns))
        return probe

    def _bind_probe(self, columns: tuple[str, ...]) -> Callable[[Sequence[tuple]], list[tuple]]:
        stored = self._rows
        if columns == self.schema.key:
            get = stored.get
            fetch = ["row = get(value)", "if row is not None:", "    out.append(row)"]
        else:
            get = self._index_for(columns).buckets.get
            fetch = ["keys = get(value)", "if keys:", "    out += map(at, keys)"]
        return _generated("probe_rows", [
            "def probe_rows(values):",
            "    out = []",
            "    for value in values:",
            *(f"        {line}" for line in fetch),
            "    counters = table.counters",
            "    if values:",
            "        counters.count_index_lookup(len(values))",
            "    if out:",
            "        counters.count_tuple_read(len(out))",
            "    return out",
        ], {"get": get, "at": stored.__getitem__, "table": self})

    def read_all(self) -> list[tuple]:
        """Every row, as a list: a :meth:`scan`'s *n* tuple reads charged
        once (nothing for an empty table)."""
        rows = list(self._rows.values())
        if rows:
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
        self.counters.count_index_lookup()
        keys = index.get(value)
        if not keys:
            return None
        self.counters.count_tuple_read()
        return self._rows[next(iter(keys))]

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
        journal = self._journal
        if journal is not None:
            journal.setdefault(key, old)
        for index in self._indexes.values() if indexes is None else indexes:
            if old is not None:
                index.remove(key, old)
            index.add(key, row)
        self._rows[key] = row

    def _discard(self, key: tuple, row: tuple) -> None:
        """Drop *row*, stored at *key*, from the rows dict and every index."""
        journal = self._journal
        if journal is not None:
            journal.setdefault(key, row)
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
        self, changes: Sequence[tuple] | int, entries: int, lookups: int = 0
    ) -> None:
        """Tail of every counted write, single or batched: *lookups*
        index lookups, then per ``(pre, post)`` row pair of *changes*
        (None marks an absent side) the *entries* index entries the
        write mutated and one tuple write.  A bulk writer whose caller
        reads no pairs passes only their number."""
        counters = self.counters
        if lookups:
            counters.count_index_lookup(lookups)
        written = changes if isinstance(changes, int) else len(changes)
        if not written:
            return
        if entries:
            counters.count_index_maintenance(entries * written)
        counters.count_tuple_write(written)

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

    def _finder(self, columns: tuple[str, ...]) -> Callable[[tuple], Iterable[tuple]]:
        """``find(ident)``: the primary keys of the rows whose *columns*
        equal *ident* — resolved once, for one ``locate`` or a whole
        batch, each call one index lookup that the caller charges."""
        rows = self._rows
        if columns == self.schema.key:
            return lambda ident: (ident,) if ident in rows else ()
        return self._index_for(columns).get  # a copy: a caller's writes mutate the bucket

    def locate(self, columns: Sequence[str], value: tuple) -> list[tuple]:
        """Primary keys of rows whose *columns* equal *value*.

        Costs exactly one index lookup (no tuple reads) — the
        "identification" step of applying a diff.
        """
        find = self._finder(tuple(columns))
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
    # completed rows cost.  Each returns the (pre, post) row pairs
    # written when *returning* (the default), None otherwise — and then
    # builds no pairs, for the same lookups, writes and index maintenance.
    # ------------------------------------------------------------------
    def update_many(
        self,
        columns: Sequence[str],
        attrs: Sequence[str],
        rows: Sequence[tuple],
        layout: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
        returning: bool = True,
    ) -> list[tuple] | None:
        """APPLY ∆u: per row of *rows*, set *attrs* to the values it
        holds at the value positions of *layout* in every stored row
        whose *columns* equal the values it holds at the ID positions.
        *layout* is ``(ID positions, value positions)``, default: the
        ident, then the values; a diff's rows are read in place."""
        if not rows:
            return [] if returning else None
        columns, attrs = tuple(columns), tuple(attrs)
        if layout is None:
            n = len(columns)
            layout = (tuple(range(n)), tuple(range(n, n + len(attrs))))
        write = self.bound(
            ("u", columns, attrs, layout, returning),
            lambda: self._bind_update(columns, attrs, layout, returning),
        )
        changes = write(rows)
        return changes if returning else None

    def _bind_update(
        self,
        columns: tuple[str, ...],
        attrs: tuple[str, ...],
        layout: tuple[tuple[int, ...], tuple[int, ...]],
        keep: bool,
    ) -> Callable[[Sequence[tuple]], list[tuple] | None]:
        """The loop of an :meth:`update_many` of one shape, generated:
        the finder, the touched indexes and the new row's display (e.g.
        ``(old[0], row[3], old[2])``) are resolved here, every row is
        written by :meth:`_store`, and the ``_account`` tail runs in a
        ``finally`` with the pairs (*keep*) or their number."""
        id_at, value_at = layout
        if len(id_at) != len(columns) or len(value_at) != len(attrs):
            raise SchemaError(
                f"update layout {layout} does not fit {columns} -> {attrs} "
                f"of {self.schema.name!r}"
            )
        positions = self.schema.mutable_positions(attrs)
        find = self._finder(columns)
        touched = self._touched(attrs)
        serving = self._indexes.get(columns)
        if serving is not None and serving not in touched:
            # No write moves a key of the serving index, so its buckets
            # are read in place (None: no such value), not copied per
            # ident.
            find = serving.buckets.get
        ident = "(" + "".join(f"row[{i}], " for i in id_at) + ")"
        # The last of repeated attributes wins, as in a per-column loop.
        new = _display(
            len(self.schema.columns), dict(zip(positions, (f"row[{i}]" for i in value_at)))
        )
        if columns == self.schema.key:
            locate = [f"key = {ident}", "old = get(key)", "if old is not None:"]
        else:
            locate = [f"for key in find({ident}) or ():", "    old = stored[key]"]
        written = "changes.append((old, new))" if keep else "written += 1"
        tail = "changes" if keep else "written"
        return _generated("update_rows", [
            "def update_rows(rows):",
            "    changes = []" if keep else "    changes = None",
            "    seen = written = 0",
            "    try:",
            "        for seen, row in enumerate(rows, 1):",
            *(f"            {line}" for line in locate),
            f"                new = {new}",
            "                store(key, new, old, touched)",
            f"                {written}",
            "    finally:",
            f"        account({tail}, ENTRIES, seen)",
            "    return changes",
        ], {
            "ENTRIES": 2 * len(touched),
            "find": find, "get": self._rows.get, "stored": self._rows,
            "store": self._store, "touched": touched, "account": self._account,
        })

    def patcher(
        self, attrs: tuple[str, ...]
    ) -> Callable[[tuple, Mapping[str, object]], tuple[tuple, tuple] | None]:
        """:meth:`patch_uncounted` of one tuple of *attrs*, bound:
        ``patch(key, changes)`` sets each of them to its value in
        *changes* in the row at *key* and returns its ``(pre, post)``
        rows (*post* ``is`` *pre* when nothing changed, None when *key*
        holds no row).  The row's display, the touched indexes and the
        verdict that no key column is set are resolved once per tuple;
        a bind that raises binds nothing, so every bad call raises."""
        patch = self._bound.get(("p", attrs))
        if patch is None:
            patch = self.bound(("p", attrs), lambda: self._bind_patch(attrs))
        return patch

    def _bind_patch(self, attrs: tuple[str, ...]) -> Callable:
        positions = self.schema.mutable_positions(attrs)
        new = _display(len(self.schema.columns), {
            at: f"changes[{attr!r}]" for attr, at in zip(attrs, positions)
        })
        return _generated("patch", [
            "def patch(key, changes):",
            "    old = get(key)",
            "    if old is None:",
            "        return None",
            f"    new = {new}",
            "    if new == old:",
            "        return old, old",
            "    store(key, new, old, touched)",
            "    return old, new",
        ], {
            "get": self._rows.get, "store": self._store, "touched": self._touched(attrs),
        })

    def delete_many(
        self, columns: Sequence[str], idents: Sequence[tuple], returning: bool = True
    ) -> list[tuple] | None:
        """APPLY ∆−: delete every row whose *columns* equal one of *idents*."""
        if not idents:
            return [] if returning else None
        changes: list[tuple] | None = [] if returning else None
        lookups = written = 0
        find = self._finder(tuple(columns))
        try:
            for ident in idents:
                lookups += 1
                for key in find(ident):
                    old = self._rows[key]
                    self._discard(key, old)
                    written += 1
                    if changes is not None:
                        changes.append((old, None))
        finally:
            self._account(written if changes is None else changes, len(self._indexes), lookups)
        return changes if returning else None

    def insert_many(self, rows: Sequence[tuple], returning: bool = True) -> list[tuple] | None:
        """APPLY ∆+ with its NOT-IN guard (Section 2): insert each of
        *rows* (tuples in schema order) unless the identical row is
        stored already — several insert i-diffs may carry the same
        tuple.  A row with the same key but *different* values signals
        an ineffective diff set and raises :class:`IntegrityError`.
        """
        changes: list[tuple] | None = [] if returning else None
        lookups = written = 0
        key_of = self.schema.key_of
        try:
            for row in rows:
                self.schema.check_row(row)
                lookups += 1
                key = key_of(row)
                existing = self._rows.get(key)
                if existing is None:
                    self._store(key, row)
                    written += 1
                    if changes is not None:
                        changes.append((None, row))
                elif existing != row:
                    raise IntegrityError(
                        f"insert of {row} conflicts with existing {existing} "
                        f"in {self.schema.name!r}"
                    )
        finally:
            self._account(written if changes is None else changes, len(self._indexes), lookups)
        return changes if returning else None

    # ------------------------------------------------------------------
    # the write journal (view-round rollback, shard write-sets) and replay
    # ------------------------------------------------------------------
    def begin_journal(self) -> None:
        """Arm a write journal: the first write of each key, by any
        writer, records the row the key held, and an index build its
        columns.  Armed inside another, it is a savepoint of it."""
        self._journal = _Journal(self._journal)

    def end_journal(self, commit: bool = True, write_set: bool = False) -> list[tuple] | None:
        """Disarm the innermost journal: *commit* keeps its writes (a
        savepoint folds into the outer journal, which keeps a key's older
        row); otherwise every recorded row is put back, uncounted (an
        index built meanwhile stays).  *write_set*: return the net ops
        for :meth:`replay_writes` — ``("x", columns)`` per index built,
        then per key, in first-touch order, ``("s", key, row)`` or
        ``("d", key)``."""
        journal = self._journal
        if journal is None:
            raise ScriptError(f"end_journal on table {self.schema.name!r}: no journal is armed")
        outer, self._journal = journal.outer, None  # a restore journals nothing
        if not commit:
            for key, row in journal.items():
                self._put(key, row)
        elif outer is not None:
            for key, row in journal.items():
                outer.setdefault(key, row)
            outer.built += journal.built
        self._journal = outer
        if not write_set:
            return None
        get = self._rows.get
        return [("x", columns) for columns in journal.built] + [
            ("d", key) if (row := get(key)) is None else ("s", key, row) for key in journal
        ]

    def replay_writes(self, ops: Sequence[tuple]) -> None:
        """Apply a write-set (:meth:`end_journal`), uncounted and
        idempotently.

        The counted work already happened wherever the ops were journaled
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
        return self.patcher(tuple(changes))(key, changes)

    def rows_uncounted(self) -> list[tuple]:
        return list(self._rows.values())

    def get_uncounted(self, key: tuple) -> tuple | None:
        return self._rows.get(tuple(key))

    def peek(self) -> Callable[[tuple], tuple | None]:
        """:meth:`get_uncounted` of a key that is a tuple already, bound
        once: the rows dict's own ``get``, for generated code."""
        return self._rows.get

    def as_set(self) -> frozenset[tuple]:
        """Frozen set of rows, for order-insensitive comparisons in tests."""
        return frozenset(self._rows.values())

    def copy(self, counters: CounterSet | None = None) -> "Table":
        """Deep copy (rows are immutable tuples, so sharing them is safe)."""
        clone = Table(self.schema, counters if counters is not None else self.counters)
        clone._rows = dict(self._rows)
        for columns, index in self._indexes.items():
            twin = clone._indexes[columns] = _SecondaryIndex(self.schema, columns)
            twin.buckets = {value: set(keys) for value, keys in index.buckets.items()}
        return clone

    def __getstate__(self) -> dict:
        # The memo holds generated functions and bound methods; a journal
        # armed by the sender's round is the sender's.
        return {**self.__dict__, "_bound": {}, "_journal": None}

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"Table({self.schema.name}, {len(self._rows)} rows)"


def _display(width: int, sources: Mapping[int, str]) -> str:
    """Source of a new row of *width* columns: ``sources[i]`` where
    given, the old row's column otherwise."""
    return "(" + "".join(f"{sources.get(i, f'old[{i}]')}, " for i in range(width)) + ")"


def _generated(name: str, lines: Sequence[str], env: dict) -> Callable:
    """The function *name* the source *lines* define in namespace *env*:
    a writer's loop, generated once per shape of call (``Table.bound``)."""
    source = "\n".join(lines) + "\n"
    exec(compile(source, f"<table:{name}>", "exec"), env)
    fn = env[name]
    fn.__source__ = source
    return fn


def sort_rows(rows: Iterable[tuple]) -> list[tuple]:
    """Deterministically order rows for display and golden tests."""

    def sort_key(row: tuple):
        return tuple((value is None, str(type(value)), repr(value)) for value in row)

    return sorted(rows, key=sort_key)


RowFilter = Callable[[tuple], bool]
