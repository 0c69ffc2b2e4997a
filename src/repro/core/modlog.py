"""Modification logger and base-table i-diff instance generator — Section 5.

The logger records raw modifications at data-modification time (the paper
uses triggers; we hook the same three operations).  At view-maintenance
time the instance generator folds the log into *effective* net changes —
multiple modifications of the same tuple are combined (insert∘update →
insert with final values, insert∘delete → nothing, delete∘insert →
update, update∘update → merged) — and routes each net change into the
pre-computed i-diff schemas: inserts into the single insert schema,
deletes into the single delete schema, and each tuple's update into the
*minimal* update schema covering all of its modified attributes (one
instance per tuple — splitting a change across instances would entangle
them; the catch-all schema from :mod:`repro.core.schema_gen` guarantees
a cover exists).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ..errors import DiffError, SchemaError, UnknownColumnError, WorkloadError
from ..obs import metrics
from ..obs import spans as obs
from ..storage import Database
from .compile import lower_instance_row
from .diffs import DELETE, INSERT, UPDATE, Diff, DiffSchema


class LoggedModification:
    """One raw log record.

    ``seq`` (1-based, monotone per log) and ``logged_at`` are stamped by
    the owning :class:`ModificationLog`; hand-built records default to
    0/0.0 and simply don't participate in freshness accounting.  An
    update the log applied itself carries its *post* row as well, the
    one the write produced; the fold patches ``row`` with ``changes``
    for one without (hand-built or wire-decoded records).
    """

    __slots__ = ("kind", "table", "key", "row", "changes", "post", "seq", "logged_at")

    def __init__(
        self,
        kind: str,
        table: str,
        key: tuple,
        row: Optional[tuple] = None,
        changes: Optional[dict[str, object]] = None,
        post: Optional[tuple] = None,
        seq: int = 0,
        logged_at: float = 0.0,
    ):
        self.kind = kind
        self.table = table
        self.key = key
        self.row = row
        self.changes = changes
        self.post = post
        self.seq = seq
        self.logged_at = logged_at

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"Mod({self.kind} {self.table} {self.key})"


class _NetChange:
    """Folded per-tuple state while scanning the log."""

    __slots__ = ("kind", "pre_row", "post_row")

    def __init__(self, kind: str, pre_row: Optional[tuple], post_row: Optional[tuple]):
        self.kind = kind
        self.pre_row = pre_row
        self.post_row = post_row


class ModificationLog:
    """Records base-table modifications, applies them to the database and
    keeps each one until every view has absorbed it.

    ``log.insert/update/delete`` both mutate the live database (deferred
    IVM: base tables move to post-state immediately) and append to the
    log.  Each view has a *cursor*, the position it has absorbed the log
    up to; a round reads a view's share with :meth:`since`.  ``take()``
    drains a log no view reads.
    """

    def __init__(self, db: Database):
        self.db = db
        #: stamps ``logged_at``; freshness reads the same (injectable) clock
        self.clock: Callable[[], float] = time.monotonic
        #: the retained log: every entry after :attr:`floor`, the lowest
        #: cursor as of the last :meth:`prune`
        self.entries: list[LoggedModification] = []
        self.floor = 0
        #: view name -> the position the view has absorbed the log up to
        self.cursors: dict[str, int] = {}
        #: sequence number of the newest logged modification (the head)
        self.position = 0

    def _append(
        self, kind: str, table: str, key: tuple, row: tuple,
        changes: Optional[dict[str, object]] = None, post: Optional[tuple] = None,
    ) -> None:
        """Log one modification, stamped with the next position and the
        clock."""
        self.position += 1
        self.entries.append(LoggedModification(
            kind, table, key, row, changes, post, self.position, self.clock()
        ))

    def advance(self, name: str, position: int) -> None:
        """View *name* has absorbed the log up to *position* (a view
        defined now: up to the head)."""
        self.cursors[name] = position

    def since(self, start: int) -> "RoundEntries":
        """The retained range ``(start, head]``; *start* >= :attr:`floor`."""
        return RoundEntries(self.entries[start - self.floor:], start)

    def prune(self) -> int:
        """Drop what every view has absorbed; returns the new floor."""
        floor = min(self.cursors.values(), default=self.position)
        if floor > self.floor:
            self.entries = self.entries[floor - self.floor:]
            self.floor = floor
        return self.floor

    def discard(self) -> None:
        """Drop every retained entry; every cursor moves to the head."""
        self.entries, self.floor = [], self.position
        self.cursors = dict.fromkeys(self.cursors, self.position)

    def take(self) -> "RoundEntries":
        """Drain a log no view reads: every retained entry, as one range."""
        entries = self.since(self.floor)
        self.discard()
        return entries

    def oldest_after(self, position: int) -> Optional[LoggedModification]:
        """The first retained entry after *position*, if any."""
        entries, at = self.entries, position - self.floor
        return entries[at] if 0 <= at < len(entries) else None

    # ------------------------------------------------------------------
    def insert(self, table: str, row: Sequence) -> None:
        """Insert *row* into the live table and log the modification."""
        t = self.db.table(table)
        row = tuple(row)
        t.insert_uncounted(row)
        self._append(INSERT, table, t.schema.key_of(row), row)

    def delete(self, table: str, key: Sequence) -> None:
        """Delete the row with *key* and log the modification."""
        t = self.db.table(table)
        key = tuple(key)
        old = t.delete_uncounted(key)
        if old is None:
            raise WorkloadError(f"cannot delete absent key {key} from {table!r}")
        self._append(DELETE, table, key, old)

    def update(self, table: str, key: Sequence, changes: Mapping[str, object]) -> None:
        """Set *changes* (column -> value) in the row with *key* of the
        live table and log the modification, through the table's writer
        bound to the changed columns (:meth:`Table.patcher`)."""
        t = self.db.table(table)
        key = tuple(key)
        try:
            patch = t.patcher(tuple(changes))
        except (SchemaError, UnknownColumnError):
            # Nothing was bound; report the call as an unbound check
            # would: a key column first, then an absent key.
            immutable = sorted(t.schema.key_set.intersection(changes))
            if immutable:
                raise WorkloadError(
                    f"key columns {immutable} of {table!r} are immutable "
                    f"(paper Section 5, footnote 7); delete and re-insert instead"
                ) from None
            if t.get_uncounted(key) is None:
                raise _absent(key, table) from None
            raise
        written = patch(key, changes)
        if written is None:
            raise _absent(key, table)
        old, new = written
        if new is old:
            # The new values equal the old ones: the table is unchanged,
            # so the update folds to a no-op here rather than forcing the
            # next maintenance round to reconstruct the pre-state and run
            # an empty i-diff round (count-neutrality: same cost as not
            # updating at all).  fold_log keeps the equivalent guard for
            # hand-built logs.
            return
        # Trigger-style logging: capture the pre-state row alongside the
        # changed attributes, and the row the write produced.
        self._append(UPDATE, table, key, old, dict(changes), new)


def _absent(key: tuple, table: str) -> WorkloadError:
    return WorkloadError(f"cannot update absent key {key} in {table!r}")


class RoundEntries(list):
    """The log entries of one range ``(start, end]`` of positions — a
    list — carrying what a round derives from them, so that every reader
    of the range shares it: the fold (:func:`fold_log`; every view of
    every engine and the replica's moves read one) and the populated
    i-diff instances of each table, per set of schemas read on it
    (:func:`populate_instances`).  The memo lives and dies with the
    entries; nothing is cached at module level, and a plain hand-built
    list still folds — for itself, every time."""

    __slots__ = ("net", "instances", "start", "end", "_unchanged")

    def __init__(self, entries: Iterable[LoggedModification] = (), start: int = 0):
        super().__init__(entries)
        self.start, self.end = start, start + len(self)
        #: the fold, once made (only table schemas are read from the
        #: database it is made against: the live one, whose catalog the
        #: replica's is a part of)
        self.net: Optional[dict[str, dict[tuple, _NetChange]]] = None
        #: ``_TableProjectors.key`` -> the non-empty instances filled
        self.instances: dict[tuple, dict[str, Diff]] = {}
        self._unchanged: Optional[frozenset[str]] = None

    @classmethod
    def of(cls, entries: Sequence[LoggedModification]) -> "RoundEntries":
        """*entries* as a round's entries: itself when it is one."""
        return entries if isinstance(entries, cls) else cls(entries)

    def between(self, start: int, end: int) -> "RoundEntries":
        """The sub-range ``(start, end]``: itself when it is all of it."""
        if (start, end) == (self.start, self.end):
            return self
        return RoundEntries(self[start - self.start:end - self.start], start)

    def folded(self, db: Database) -> dict[str, dict[tuple, _NetChange]]:
        net = self.net
        if net is None:
            net = self.net = _fold(self, db)
        return net

    def unchanged(self, db: Database) -> frozenset[str]:
        """The tables of *db* no entry of the range modifies: what every
        view of the round reads as ``IrContext.unchanged_tables``.  Read
        off the fold, which holds a (possibly empty) entry per table
        the range names."""
        unchanged = self._unchanged
        if unchanged is None:
            modified = self.folded(db)
            unchanged = self._unchanged = frozenset(
                name for name in db.table_names() if name not in modified
            )
        return unchanged


def fold_log(
    entries: Sequence[LoggedModification], db: Database
) -> dict[str, dict[tuple, _NetChange]]:
    """Fold the log into net per-tuple changes (effective diffs).

    Pre-state rows come from the log entries themselves (the trigger
    captured them); *db* is only consulted for table schemas.  A round's
    :class:`RoundEntries` are folded once, whoever asks first.
    """
    return RoundEntries.of(entries).folded(db)


def _fold(
    entries: Sequence[LoggedModification], db: Database
) -> dict[str, dict[tuple, _NetChange]]:
    net: dict[str, dict[tuple, _NetChange]] = {}
    for entry in entries:
        per_table = net.get(entry.table)
        if per_table is None:
            db.table(entry.table)  # an unknown table raises, once per table
            per_table = net[entry.table] = {}
        current = per_table.get(entry.key)
        if entry.kind == INSERT:
            if current is None:
                per_table[entry.key] = _NetChange(INSERT, None, entry.row)
            elif current.kind == DELETE:
                # delete then re-insert: net update (or nothing if equal)
                if current.pre_row == entry.row:
                    del per_table[entry.key]
                else:
                    per_table[entry.key] = _NetChange(
                        UPDATE, current.pre_row, entry.row
                    )
            else:
                raise DiffError(f"insert over live tuple {entry.key} in log")
        elif entry.kind == DELETE:
            if current is None:
                per_table[entry.key] = _NetChange(DELETE, entry.row, None)
            elif current.kind == INSERT:
                del per_table[entry.key]
            else:  # UPDATE then DELETE
                per_table[entry.key] = _NetChange(DELETE, current.pre_row, None)
        else:  # UPDATE
            if current is None:
                pre_row = entry.row
                if pre_row is None:
                    raise DiffError(
                        f"log updates unknown tuple {entry.key} of {entry.table!r}"
                    )
                post = entry.post
                if post is None:
                    post = db.table(entry.table).schema.patched(pre_row, entry.changes)
                if post == pre_row:
                    continue
                per_table[entry.key] = _NetChange(UPDATE, pre_row, post)
            else:
                base = current.post_row
                if base is None:
                    raise DiffError(f"update of deleted tuple {entry.key} in log")
                post = entry.post
                if post is None:
                    post = db.table(entry.table).schema.patched(base, entry.changes)
                if current.kind == INSERT:
                    per_table[entry.key] = _NetChange(INSERT, None, post)
                else:
                    if post == current.pre_row:
                        del per_table[entry.key]
                    else:
                        per_table[entry.key] = _NetChange(
                            UPDATE, current.pre_row, post
                        )
    return net


class InstanceLayout(Sequence):
    """A view's base-table i-diff schemas — it iterates as them — with
    what :func:`populate_instances` needs of each resolved once instead
    of once per round: the instance names, a shared empty instance per
    schema and, per target table on the first round that touches it, one
    projector per schema and the update routes chosen so far."""

    def __init__(self, schemas: Sequence[DiffSchema]):
        self.schemas = tuple(schemas)
        self.names = tuple(schema_instance_name(schema) for schema in self.schemas)
        #: every schema's instance for a round that leaves it empty
        #: (shared across rounds: nothing mutates a diff's rows)
        self.empties = {
            name: Diff.trusted(schema, [])
            for name, schema in zip(self.names, self.schemas)
        }
        self._tables: dict[str, Optional[_TableProjectors]] = {}

    def __getitem__(self, index):
        return self.schemas[index]

    def __len__(self) -> int:
        return len(self.schemas)

    def table(self, target: str, db: Database) -> Optional["_TableProjectors"]:
        """The projectors of the schemas on *target*, resolved on first
        use; ``None`` when the view reads no i-diff of that table."""
        if target not in self._tables:
            on_target = [
                (name, schema)
                for name, schema in zip(self.names, self.schemas)
                if schema.target == target
            ]
            self._tables[target] = (
                _TableProjectors(db.table(target).schema, on_target)
                if on_target
                else None
            )
        return self._tables[target]


class _TableProjectors:
    """Per kind, one ``(slot, schema, row)`` projector per schema on one
    base table: which of the table's instances it fills (an index into
    ``on_target``) and ``row(pre, post)``, the generated display of an
    instance row — key, then the schema's pre and post attributes — out
    of a net change's rows."""

    def __init__(self, table_schema, on_target: Sequence[tuple[str, DiffSchema]]):
        self.on_target = on_target
        #: what the instances filled here depend on: the table and the
        #: *whole* tuple of schemas read on it — an update routes to the
        #: minimal cover among them, so two views share instances only
        #: when they read the same set
        self.key = (table_schema.name,) + tuple(s.signature() for _, s in on_target)
        self.columns = table_schema.columns
        self.non_key = table_schema.positions(table_schema.non_key_columns)
        self.by_kind: dict[str, list[tuple]] = {INSERT: [], DELETE: [], UPDATE: []}
        # A change's rows are never absent on the side a schema reads,
        # and its key is the key columns of either.
        key_side = {INSERT: "post", DELETE: "pre", UPDATE: "post"}
        for slot, (_, schema) in enumerate(on_target):
            parts = [(key_side[schema.kind], i) for i in table_schema.positions(table_schema.key)]
            parts += [("pre", i) for i in table_schema.positions(schema.pre_attrs)]
            parts += [("post", i) for i in table_schema.positions(schema.post_attrs)]
            name = f"instance_{schema_instance_name(schema)}"
            self.by_kind[schema.kind].append((slot, schema, lower_instance_row(name, parts)))
        # Rows are laid out key + pre + post out of a dict keyed by the
        # table's key: unique on a schema's IDs when those are that key.
        self.adopt = [
            Diff.trusted if schema.id_attrs == table_schema.key else Diff
            for _, schema in on_target
        ]
        #: modified positions -> the projector their updates route to
        self.routes: dict[tuple, tuple] = {}
        #: the route of every update when one schema covers every
        #: non-key column (the minimal cover of any modified set), so
        #: modified positions need not be computed; None otherwise
        updates = self.by_kind[UPDATE]
        self.only_route = (
            updates[0]
            if len(updates) == 1
            and set(table_schema.non_key_columns) <= set(updates[0][1].post_attrs)
            else None
        )

    def route(self, modified: tuple) -> tuple:
        """Route a net tuple-update to exactly ONE schema: the smallest
        whose post attributes cover all modified attributes, chosen once
        per distinct set of modified positions.  (Splitting a tuple's
        change across instances would entangle them: each instance
        implies its non-post attributes are unchanged — the derivation
        the rules and Figure 8 rewrites rely on — and aggregate deltas
        would double-count the shared row.  The per-group schemas of
        Section 5 still serve the common case of updates within one
        group; the catch-all schema absorbs the rest.)"""
        route = self.routes.get(modified)
        if route is None:
            route = self.routes[modified] = _route_update(
                self.by_kind[UPDATE], {self.columns[i] for i in modified}
            )
        return route

    def fill(self, changes: Mapping[tuple, _NetChange]) -> dict[str, Diff]:
        """The non-empty instances of this table's schemas, from its
        net *changes*."""
        non_key, only_route = self.non_key, self.only_route
        inserts, deletes, updates = (self.by_kind[k] for k in (INSERT, DELETE, UPDATE))
        sinks: list[list[tuple]] = [[] for _ in self.on_target]
        for change in changes.values():
            pre_row, post_row = change.pre_row, change.post_row
            if change.kind == INSERT:
                for slot, _, row in inserts:
                    sinks[slot].append(row(None, post_row))
            elif change.kind == DELETE:
                for slot, _, row in deletes:
                    sinks[slot].append(row(pre_row, None))
            elif updates:  # else: the view does not read this table's updates
                slot, _, row = only_route or self.route(
                    tuple(i for i in non_key if pre_row[i] != post_row[i])
                )
                sinks[slot].append(row(pre_row, post_row))
        return {
            name: adopt(schema, rows)
            for (name, schema), adopt, rows in zip(self.on_target, self.adopt, sinks)
            if rows
        }


def populate_instances(
    schemas: InstanceLayout,
    entries: Sequence[LoggedModification],
    db: Database,
) -> dict[str, Diff]:
    """Build i-diff instances for the pre-computed schemas from the log.

    Returns a mapping from a stable schema name (used as the ∆-script's
    DiffSource name) to the populated instance.  Every schema gets an
    instance (possibly empty) so scripts can reference all of them.
    *schemas* is the view's :class:`InstanceLayout`: the schemas, resolved
    once per view rather than once per call.  Views that read the same
    schemas on a table share, within one round's :class:`RoundEntries`,
    the very instances: nothing mutates a diff's rows.
    """
    with obs.span(
        "log_to_idiffs", kind="engine", counters=db.counters,
        n_log_entries=len(entries), n_schemas=len(schemas),
    ) as sp:
        out = _populate_instances(schemas, entries, db)
        sizes = [len(diff.rows) for diff in out.values()]
        total_rows = sum(sizes)
        sp.set(idiff_rows=total_rows, nonempty_instances=len(sizes) - sizes.count(0))
        _IDIFF_ROWS().observe(total_rows)
        _FOLD_ROWS().observe(len(entries))
        if entries:
            _FOLD_RATIO().observe(total_rows / len(entries))
        return out


_IDIFF_ROWS = metrics.Handle("histogram", "modlog.idiff_rows_per_round")
_FOLD_ROWS = metrics.Handle("loghist", "modlog.fold_rows", "rows")
_FOLD_RATIO = metrics.Handle("histogram", "modlog.fold_ratio")


def _populate_instances(
    layout: InstanceLayout,
    entries: Sequence[LoggedModification],
    db: Database,
) -> dict[str, Diff]:
    out = dict(layout.empties)
    # A hand-built list shares nothing: its memo dies with this call.
    entries = RoundEntries.of(entries)
    memo = entries.instances
    # Work follows the folded log: a table it does not touch resolves no
    # projector and builds no instance.
    for target, changes in entries.folded(db).items():
        projectors = layout.table(target, db)
        if projectors is None:
            continue  # the view reads no i-diff of this table
        filled = memo.get(projectors.key)
        if filled is None:
            filled = memo[projectors.key] = projectors.fill(changes)
        out.update(filled)
    return out


def _route_update(updates: Sequence[tuple], modified: set[str]) -> tuple:
    """The projector of the minimal update schema covering *modified*."""
    candidates = [u for u in updates if modified <= set(u[1].post_attrs)]
    if not candidates:
        raise DiffError(
            f"no update i-diff schema of {updates[0][1].target!r} covers "
            f"modified attributes {sorted(modified)}"
        )
    return min(candidates, key=lambda u: len(u[1].post_attrs))


def schema_instance_name(schema: DiffSchema) -> str:
    """Stable ∆-script name for a base-table i-diff schema."""
    if schema.kind == UPDATE:
        return f"base_u_{schema.target}__{'_'.join(schema.post_attrs)}"
    kind = "ins" if schema.kind == INSERT else "del"
    return f"base_{kind}_{schema.target}"
