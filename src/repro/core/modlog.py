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
from typing import Mapping, Optional, Sequence

from ..errors import DiffError, WorkloadError
from ..obs import metrics
from ..obs import spans as obs
from ..storage import Database, row_extractor
from .diffs import DELETE, INSERT, UPDATE, Diff, DiffSchema


class LoggedModification:
    """One raw log record.

    ``seq`` (1-based, monotone per log) and ``logged_at`` are stamped by
    the owning :class:`ModificationLog`; hand-built records default to
    0/0.0 and simply don't participate in freshness accounting.
    """

    __slots__ = ("kind", "table", "key", "row", "changes", "seq", "logged_at")

    def __init__(
        self,
        kind: str,
        table: str,
        key: tuple,
        row: Optional[tuple] = None,
        changes: Optional[dict[str, object]] = None,
    ):
        self.kind = kind
        self.table = table
        self.key = key
        self.row = row
        self.changes = changes
        self.seq = 0
        self.logged_at = 0.0

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
    """Records base-table modifications and applies them to the database.

    ``log.insert/update/delete`` both mutate the live database (deferred
    IVM: base tables move to post-state immediately) and append to the
    log.  ``take()`` drains the log for a maintenance round.
    """

    def __init__(self, db: Database, freshness=None):
        self.db = db
        self.entries: list[LoggedModification] = []
        #: optional :class:`~repro.obs.freshness.FreshnessTracker`; when
        #: attached, every appended entry advances its log position.
        self.freshness = freshness
        self._seq = 0

    @property
    def position(self) -> int:
        """Sequence number of the newest logged modification."""
        return self._seq

    def _append(self, entry: LoggedModification) -> None:
        self._seq += 1
        entry.seq = self._seq
        if self.freshness is not None:
            entry.logged_at = self.freshness.clock()
            self.freshness.note_logged(entry.seq, entry.logged_at)
        else:
            entry.logged_at = time.monotonic()
        self.entries.append(entry)

    # ------------------------------------------------------------------
    def insert(self, table: str, row: Sequence) -> None:
        """Insert *row* into the live table and log the modification."""
        t = self.db.table(table)
        row = tuple(row)
        t.insert_uncounted(row)
        self._append(
            LoggedModification(INSERT, table, t.schema.key_of(row), row=row)
        )

    def delete(self, table: str, key: Sequence) -> None:
        """Delete the row with *key* and log the modification."""
        t = self.db.table(table)
        key = tuple(key)
        old = t.delete_uncounted(key)
        if old is None:
            raise WorkloadError(f"cannot delete absent key {key} from {table!r}")
        self._append(LoggedModification(DELETE, table, key, row=old))

    def update(self, table: str, key: Sequence, changes: Mapping[str, object]) -> None:
        t = self.db.table(table)
        key = tuple(key)
        immutable = set(changes) & set(t.schema.key)
        if immutable:
            raise WorkloadError(
                f"key columns {sorted(immutable)} of {table!r} are immutable "
                f"(paper Section 5, footnote 7); delete and re-insert instead"
            )
        old = t.update_uncounted(key, changes)
        if old is None:
            raise WorkloadError(f"cannot update absent key {key} in {table!r}")
        if t.get_uncounted(key) == old:
            # The new values equal the old ones: the table is unchanged,
            # so the update folds to a no-op here rather than forcing the
            # next maintenance round to reconstruct the pre-state and run
            # an empty i-diff round (count-neutrality: same cost as not
            # updating at all).  fold_log keeps the equivalent guard for
            # hand-built logs.
            return
        # Trigger-style logging: capture the pre-state row alongside the
        # changed attributes.
        self._append(
            LoggedModification(UPDATE, table, key, row=old, changes=dict(changes))
        )

    def take(self) -> list[LoggedModification]:
        """Drain the log for one maintenance round."""
        entries, self.entries = self.entries, []
        return entries


def fold_log(
    entries: Sequence[LoggedModification], db: Database
) -> dict[str, dict[tuple, _NetChange]]:
    """Fold the log into net per-tuple changes (effective diffs).

    Pre-state rows come from the log entries themselves (the trigger
    captured them); *db* is only consulted for table schemas.
    """
    net: dict[str, dict[tuple, _NetChange]] = {}
    for entry in entries:
        table = db.table(entry.table)
        per_table = net.setdefault(entry.table, {})
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
                post = table.schema.patched(pre_row, entry.changes)
                if post == pre_row:
                    continue
                per_table[entry.key] = _NetChange(UPDATE, pre_row, post)
            else:
                base = current.post_row
                if base is None:
                    raise DiffError(f"update of deleted tuple {entry.key} in log")
                post = table.schema.patched(base, entry.changes)
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


def populate_instances(
    schemas: Sequence[DiffSchema],
    entries: Sequence[LoggedModification],
    db: Database,
) -> dict[str, Diff]:
    """Build i-diff instances for the pre-computed schemas from the log.

    Returns a mapping from a stable schema name (used as the ∆-script's
    DiffSource name) to the populated instance.  Every schema gets an
    instance (possibly empty) so scripts can reference all of them.
    """
    with obs.span(
        "log_to_idiffs", kind="engine", counters=db.counters,
        n_log_entries=len(entries), n_schemas=len(schemas),
    ) as sp:
        out = _populate_instances(schemas, entries, db)
        total_rows = sum(len(diff) for diff in out.values())
        sp.set(
            idiff_rows=total_rows,
            nonempty_instances=sum(1 for diff in out.values() if diff),
        )
        metrics.histogram("modlog.idiff_rows_per_round").observe(total_rows)
        metrics.loghist("modlog.fold_rows", unit="rows").observe(len(entries))
        if entries:
            metrics.histogram("modlog.fold_ratio").observe(
                total_rows / len(entries)
            )
        return out


def _populate_instances(
    schemas: Sequence[DiffSchema],
    entries: Sequence[LoggedModification],
    db: Database,
) -> dict[str, Diff]:
    net = fold_log(entries, db)
    # Per target table and kind, one projector per schema — its pre and
    # post extractors and the row list of its instance — built once.
    names = [schema_instance_name(schema) for schema in schemas]
    rows: dict[str, list[tuple]] = {name: [] for name in names}
    projectors: dict[str, dict[str, list[tuple]]] = {}
    for name, schema in zip(names, schemas):
        table_schema = db.table(schema.target).schema
        projectors.setdefault(schema.target, {}).setdefault(schema.kind, []).append((
            schema,
            row_extractor(table_schema.positions(schema.pre_attrs)),
            row_extractor(table_schema.positions(schema.post_attrs)),
            rows[name],
        ))
    for target, by_kind in projectors.items():
        table_schema = db.table(target).schema
        non_key = table_schema.positions(table_schema.non_key_columns)
        inserts, deletes, updates = (by_kind.get(k, ()) for k in (INSERT, DELETE, UPDATE))
        # Route every net tuple-update to exactly ONE schema: the smallest
        # whose post attributes cover all modified attributes, chosen once
        # per distinct set of modified positions.  (Splitting a tuple's
        # change across instances would entangle them: each instance
        # implies its non-post attributes are unchanged — the derivation
        # the rules and Figure 8 rewrites rely on — and aggregate deltas
        # would double-count the shared row.  The per-group schemas of
        # Section 5 still serve the common case of updates within one
        # group; the catch-all schema absorbs the rest.)
        routes: dict[tuple, tuple] = {}
        for key, change in net.get(target, {}).items():
            pre_row, post_row = change.pre_row, change.post_row
            if change.kind == INSERT:
                for _, _, post, sink in inserts:
                    sink.append(key + post(post_row))
            elif change.kind == DELETE:
                for _, pre, _, sink in deletes:
                    sink.append(key + pre(pre_row))
            elif updates:  # else: the view does not read this table's updates
                modified = tuple(i for i in non_key if pre_row[i] != post_row[i])
                route = routes.get(modified)
                if route is None:
                    route = routes[modified] = _route_update(
                        updates, {table_schema.columns[i] for i in modified}
                    )
                _, pre, post, sink = route
                sink.append(key + pre(pre_row) + post(post_row))
    return {name: Diff(schema, rows[name]) for name, schema in zip(names, schemas)}


def _route_update(updates: Sequence[tuple], modified: set[str]) -> tuple:
    """The projector of the minimal update schema covering *modified*."""
    candidates = [u for u in updates if modified <= set(u[0].post_attrs)]
    if not candidates:
        raise DiffError(
            f"no update i-diff schema of {updates[0][0].target!r} covers "
            f"modified attributes {sorted(modified)}"
        )
    return min(candidates, key=lambda u: len(u[0].post_attrs))


def schema_instance_name(schema: DiffSchema) -> str:
    """Stable ∆-script name for a base-table i-diff schema."""
    if schema.kind == UPDATE:
        return f"base_u_{schema.target}__{'_'.join(schema.post_attrs)}"
    kind = "ins" if schema.kind == INSERT else "del"
    return f"base_{kind}_{schema.target}"
