"""Eager IVM (paper Section 3): maintain the views on every modification.

The paper's architecture supports both eager and deferred maintenance
with the same modification logger; only the timing differs.  This module
is that timing as a flush policy on :class:`IdIvmEngine`: each
``insert`` / ``update`` / ``delete`` logs the modification and
immediately runs the engine's own maintenance round (batch boundaries
can still be drawn explicitly with :meth:`EagerIvmEngine.transaction`).

Eager mode trades throughput for freshness: per-tuple rounds forgo the
log folding that collapses a tuple's modification chain (Section 5), so
a batch of ``n`` changes costs roughly ``n`` one-change rounds.  The
cost difference is measured in ``benchmarks/bench_eager_vs_deferred.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping, Sequence

from ..storage import AccessCounts, Database
from .engine import IdIvmEngine, MaintenanceReport


class EagerIvmEngine(IdIvmEngine):
    """Views stay up to date after every single base-table modification."""

    def __init__(self, db: Database, **kwargs):
        super().__init__(db, **kwargs)
        self._in_transaction = False
        #: accumulated maintenance reports (one per triggered round)
        self.rounds: list[dict[str, MaintenanceReport]] = []

    # ------------------------------------------------------------------
    # modifications: logged, then maintained immediately
    # ------------------------------------------------------------------
    def insert(self, table: str, row: Sequence) -> None:
        self.log.insert(table, row)
        self._flush()

    def update(self, table: str, key: Sequence, changes: Mapping[str, object]) -> None:
        self.log.update(table, key, changes)
        self._flush()

    def delete(self, table: str, key: Sequence) -> None:
        self.log.delete(table, key)
        self._flush()

    def _flush(self) -> None:
        if not self._in_transaction:
            self.rounds.append(self.maintain())

    # ------------------------------------------------------------------
    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Defer maintenance to the end of the block (one folded round).

        Inside a transaction the engine behaves exactly like the deferred
        engine: the log is folded into effective diffs once.
        """
        self._in_transaction = True
        try:
            yield
        finally:
            self._in_transaction = False
            self._flush()

    # ------------------------------------------------------------------
    def total_cost(self) -> int:
        """Accesses spent across all maintenance rounds so far."""
        return sum(
            report.total_cost
            for round_reports in self.rounds
            for report in round_reports.values()
        )

    def phase_totals(self) -> dict[str, AccessCounts]:
        """Accumulated per-phase counts across all rounds."""
        totals: dict[str, AccessCounts] = {}
        for round_reports in self.rounds:
            for report in round_reports.values():
                for phase, counts in report.phase_counts.items():
                    if phase == "__total__":
                        continue
                    bucket = totals.setdefault(phase, AccessCounts())
                    bucket.add(counts)
        return totals
