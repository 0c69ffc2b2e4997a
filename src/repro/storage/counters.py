"""Access-count instrumentation.

The paper's Section 6 cost model measures IVM cost as "the combined number of
tuple accesses and index lookups incurred by the ∆/D-script".  This module
provides the counters that every storage-level operation reports into, plus a
*phase* mechanism so the benchmark harness can attribute accesses to the cost
components shown in Figure 12 (cache update, view diff computation, view
update).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class AccessCounts:
    """Raw access counts for one phase (or the total).

    ``index_maintenance`` tracks secondary-index entry mutations caused
    by counted writes.  It is deliberately *excluded* from :attr:`total`:
    the paper grants every approach free index maintenance (Section 7.2),
    so the headline metric stays comparable — but the work is no longer
    invisible, and reconciliation tests can assert that counted and
    uncounted write paths agree on it.
    """

    index_lookups: int = 0
    tuple_reads: int = 0
    tuple_writes: int = 0
    index_maintenance: int = 0

    @property
    def total(self) -> int:
        """Combined accesses, the paper's cost metric (index maintenance
        excluded per the Section 7.2 courtesy)."""
        return self.index_lookups + self.tuple_reads + self.tuple_writes

    def add(self, other: "AccessCounts") -> None:
        self.index_lookups += other.index_lookups
        self.tuple_reads += other.tuple_reads
        self.tuple_writes += other.tuple_writes
        self.index_maintenance += other.index_maintenance

    def copy(self) -> "AccessCounts":
        return AccessCounts(
            self.index_lookups,
            self.tuple_reads,
            self.tuple_writes,
            self.index_maintenance,
        )

    def as_dict(self) -> dict[str, int]:
        """JSON-serializable form (used by traces and bench reports)."""
        return {
            "index_lookups": self.index_lookups,
            "tuple_reads": self.tuple_reads,
            "tuple_writes": self.tuple_writes,
            "index_maintenance": self.index_maintenance,
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AccessCounts":
        return cls(
            int(data.get("index_lookups", 0)),
            int(data.get("tuple_reads", 0)),
            int(data.get("tuple_writes", 0)),
            int(data.get("index_maintenance", 0)),
        )

    def __sub__(self, other: "AccessCounts") -> "AccessCounts":
        return AccessCounts(
            self.index_lookups - other.index_lookups,
            self.tuple_reads - other.tuple_reads,
            self.tuple_writes - other.tuple_writes,
            self.index_maintenance - other.index_maintenance,
        )

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"lookups={self.index_lookups} reads={self.tuple_reads} "
            f"writes={self.tuple_writes} total={self.total}"
        )


class CounterSet:
    """A set of phase-labelled access counters.

    All storage operations report into the *current* phase (default
    ``"default"``).  Use :meth:`phase` to scope a block of work::

        counters = CounterSet()
        with counters.phase("view_update"):
            table.apply(...)

    Phases nest; accesses are attributed to the innermost phase only, and
    always to the grand total.
    """

    DEFAULT_PHASE = "default"

    def __init__(self) -> None:
        self.total = AccessCounts()
        self.phases: dict[str, AccessCounts] = {}
        self._stack: list[str] = [self.DEFAULT_PHASE]
        #: one reusable scope per phase name (see phase)
        self._scopes: dict[str, PhaseScope] = {}

    @property
    def current_phase(self) -> str:
        return self._stack[-1]

    def phase(self, name: str) -> "PhaseScope":
        """Attribute accesses within the block to phase *name*.  A scope
        holds no state of its own (entering pushes, leaving pops), so
        one per name serves every block, nested ones included."""
        scope = self._scopes.get(name)
        if scope is None:
            scope = self._scopes[name] = PhaseScope(self, name)
        return scope

    def _bucket(self) -> AccessCounts:
        name = self._stack[-1]
        bucket = self.phases.get(name)
        if bucket is None:
            bucket = AccessCounts()
            self.phases[name] = bucket
        return bucket

    def count_index_lookup(self, n: int = 1) -> None:
        self.total.index_lookups += n
        self._bucket().index_lookups += n

    def count_tuple_read(self, n: int = 1) -> None:
        self.total.tuple_reads += n
        self._bucket().tuple_reads += n

    def count_tuple_write(self, n: int = 1) -> None:
        self.total.tuple_writes += n
        self._bucket().tuple_writes += n

    def count_index_maintenance(self, n: int = 1) -> None:
        """Secondary-index entry mutations (tracked outside ``total``)."""
        if n:
            self.total.index_maintenance += n
            self._bucket().index_maintenance += n

    def reset(self) -> None:
        """Zero all counters but keep the phase stack."""
        self.total = AccessCounts()
        self.phases = {}

    def merge(self, counts: dict[str, AccessCounts]) -> None:
        """Fold per-phase *counts* shaped like :meth:`snapshot` into self
        (exact integer addition — the shard-merge reconciliation relies
        on it)."""
        for name, phase in counts.items():
            if name == "__total__":
                self.total.add(phase)
                continue
            bucket = self.phases.get(name)
            if bucket is None:
                bucket = AccessCounts()
                self.phases[name] = bucket
            bucket.add(phase)

    def snapshot(self) -> dict[str, AccessCounts]:
        """Copy of per-phase counts (plus ``"__total__"``)."""
        out = {name: counts.copy() for name, counts in self.phases.items()}
        out["__total__"] = self.total.copy()
        return out

    def as_dict(self) -> dict[str, dict[str, int]]:
        """JSON-serializable snapshot: phase name -> count dict."""
        return {name: counts.as_dict() for name, counts in self.snapshot().items()}


class PhaseScope:
    """``with counters.phase(name)``: a plain object, not a generator —
    a round enters one per phase run of every script it executes, the
    same object every time."""

    __slots__ = ("counters", "name")

    def __init__(self, counters: CounterSet, name: str):
        self.counters, self.name = counters, name

    def __enter__(self) -> None:
        self.counters._stack.append(self.name)

    def __exit__(self, *exc_info: object) -> None:
        self.counters._stack.pop()
