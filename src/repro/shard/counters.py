"""Per-shard counter routing for sharded maintenance.

Every :class:`~repro.storage.Table` holds a reference to its database's
:class:`~repro.storage.CounterSet`, captured at construction.  To count
each shard's execution into its own counters *without* rebuilding the
table graph per round, the sharded engine swaps the database's counter
set for a :class:`ShardRoutingCounters`: a ``CounterSet`` whose state
(total, phase buckets, phase stack) is a set of properties delegating to
the activated *target* — the shard's private ``CounterSet`` while
``run_shard`` executes that shard, the original base ``CounterSet``
otherwise.  One thread writes, so the target is one plain attribute: on
the inline backend the shards run one after another on the caller's
thread (or a ``DemoLoop``'s), and a worker process runs its shards on
its one thread.

Because the delegation happens at the attribute level, every inherited
``CounterSet`` method (``count_*``, ``phase``, ``snapshot``, ``reset``)
works unchanged against the active target; single-threaded code paths
(including the plain :class:`~repro.core.IdIvmEngine` run over the same
database) behave exactly as before.

The process backend reuses the same facade on both sides of the wire:
each worker process installs its own ``ShardRoutingCounters`` over its
replica database and activates a fresh per-round ``CounterSet`` while
executing a ∆-script, and the coordinator :meth:`fold`\\ s the returned
snapshot into its base counters — so database grand totals agree with
the inline backend increment for increment.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from ..storage import AccessCounts, CounterSet


class ShardRoutingCounters(CounterSet):
    """A :class:`CounterSet` facade routing to the activated target."""

    def __init__(self, base: CounterSet):
        # Deliberately does NOT call CounterSet.__init__: total / phases /
        # _stack are properties over the routed target instead of own state.
        self._base = base
        self._routed: Optional[CounterSet] = None

    # ------------------------------------------------------------------
    @property
    def base(self) -> CounterSet:
        """The fallback target (the database's original counter set)."""
        return self._base

    def _target(self) -> CounterSet:
        routed = self._routed
        return routed if routed is not None else self._base

    @contextmanager
    def activate(self, target: CounterSet) -> Iterator[None]:
        """Route the counts into *target* for the block."""
        previous, self._routed = self._routed, target
        try:
            yield
        finally:
            self._routed = previous

    # ------------------------------------------------------------------
    # routed state: everything CounterSet methods touch
    # ------------------------------------------------------------------
    @property
    def total(self) -> AccessCounts:
        return self._target().total

    @total.setter
    def total(self, value: AccessCounts) -> None:  # reset() assigns
        self._target().total = value

    @property
    def phases(self) -> dict[str, AccessCounts]:
        return self._target().phases

    @phases.setter
    def phases(self, value: dict[str, AccessCounts]) -> None:  # reset()
        self._target().phases = value

    @property
    def _stack(self) -> list[str]:
        return self._target()._stack

    # ------------------------------------------------------------------
    @classmethod
    def install(cls, db) -> "ShardRoutingCounters":
        """Swap *db*'s counters (and every table's reference) for a router.

        Idempotent: a database that already routes keeps its router, so
        several engines can share one database.
        """
        if isinstance(db.counters, cls):
            router = db.counters
        else:
            router = cls(db.counters)
            db.counters = router
        for table in db.tables.values():
            table.counters = router
        return router

    @staticmethod
    def fold(base: CounterSet, shard: CounterSet) -> None:
        """Add a shard's counts into *base*, phase by phase.

        Called after a parallel round so database-wide totals stay
        truthful (the grand total equals what a single-shard run would
        have accumulated).
        """
        base.merge(shard)

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"ShardRoutingCounters(routed={self._routed is not None})"
