"""Per-view staleness tracking: modlog positions, lag, seconds-behind.

A view is *fresh* when it reflects every logged modification; between
rounds it lags the log by some number of pending entries and some span
of wall time.  Continuous-serving systems schedule maintenance against
exactly this signal — Snowflake Dynamic Tables exposes per-view target
lag and observed-lag percentiles as the primary operator interface —
and ROADMAP item 2 needs it here too.

The :class:`FreshnessTracker` hangs off the engine and observes two
event streams:

* :meth:`note_logged` — the :class:`~repro.core.modlog.ModificationLog`
  reports every appended entry (sequence number + timestamp);
* :meth:`note_maintained` — the engine reports, after each round, which
  views caught up to which log position and the per-entry observed lag
  (maintenance time minus log time).

From those it can answer, at any instant and per view: how many log
entries are pending, how many seconds behind the newest pending entry
the view is (``seconds_behind``), and the full distribution of observed
lag (a :class:`~repro.obs.hist.LogHistogram` per view plus a global
``freshness.observed_lag_seconds`` metric).

The clock is injectable so tests can drive staleness deterministically.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Iterable, Optional

from .hist import LogHistogram


class ViewFreshness:
    """Mutable freshness state for one view."""

    __slots__ = (
        "name",
        "applied_position",
        "last_maintained_at",
        "rounds",
        "entries_applied",
        "lag_hist",
    )

    def __init__(self, name: str):
        self.name = name
        #: Highest modlog sequence number this view reflects.
        self.applied_position = 0
        self.last_maintained_at: Optional[float] = None
        self.rounds = 0
        self.entries_applied = 0
        #: Observed lag (seconds between an entry being logged and this
        #: view absorbing it) — the Dynamic-Tables "observed lag" metric.
        self.lag_hist = LogHistogram(f"freshness.lag.{name}", unit="seconds")


class ViewStaleness:
    """Point-in-time staleness report for one view."""

    __slots__ = ("name", "pending", "seconds_behind", "last_maintained_at", "rounds")

    def __init__(
        self,
        name: str,
        pending: int,
        seconds_behind: float,
        last_maintained_at: Optional[float],
        rounds: int,
    ):
        self.name = name
        #: Modlog entries logged but not yet reflected in the view.
        self.pending = pending
        #: Age of the oldest pending entry (0.0 when fully fresh).
        self.seconds_behind = seconds_behind
        self.last_maintained_at = last_maintained_at
        self.rounds = rounds

    @property
    def fresh(self) -> bool:
        return self.pending == 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "pending": self.pending,
            "seconds_behind": self.seconds_behind,
            "fresh": self.fresh,
            "rounds": self.rounds,
        }


class FreshnessTracker:
    """Tracks modlog position vs. per-view applied position.

    Thread-safety: entries are logged and rounds finished from the
    engine's coordinating thread (shard workers never touch the modlog),
    so no locking is needed; readers (``serve``/``top``) only see
    slightly stale snapshots, never torn ones.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self._log_position = 0
        #: (seq, logged_at) for entries some view may not have absorbed
        #: yet, in sequence order; pruned once every view passed them.
        self._pending: deque[tuple[int, float]] = deque()
        self._views: dict[str, ViewFreshness] = {}
        #: Global observed-lag distribution across all views.
        self.observed_lag = LogHistogram(
            "freshness.observed_lag_seconds", unit="seconds"
        )

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------
    def note_view(self, name: str) -> ViewFreshness:
        """Register a view (idempotent).  A newly defined view starts
        fresh: it was materialized from the current database state."""
        state = self._views.get(name)
        if state is None:
            state = ViewFreshness(name)
            state.applied_position = self._log_position
            self._views[name] = state
        return state

    def note_logged(self, seq: int, logged_at: Optional[float] = None) -> None:
        """A modification entered the log at sequence *seq*."""
        if logged_at is None:
            logged_at = self.clock()
        self._log_position = seq
        self._pending.append((seq, logged_at))

    def round_lags(self, entry_times: Iterable[float], now: float) -> LogHistogram:
        """One observed-lag sample per ``logged_at`` stamp of a round's
        entries, observed once; :meth:`note_maintained` merges the result
        (exactly, bucket by bucket) into every view the round maintained."""
        lags = LogHistogram(unit="seconds")
        observe = lags.observe
        for logged_at in entry_times:
            lag = now - logged_at
            observe(lag if lag > 0.0 else 0.0)
        return lags

    def note_maintained(
        self,
        name: str,
        position: int,
        entry_times: "Iterable[float] | LogHistogram" = (),
        now: Optional[float] = None,
    ) -> None:
        """View *name* absorbed the log up to *position*.

        *entry_times* are the ``logged_at`` stamps of the entries this
        round applied — each contributes one observed-lag sample — or
        the :meth:`round_lags` histogram already made from them.
        """
        if now is None:
            now = self.clock()
        state = self.note_view(name)
        if position > state.applied_position:
            state.applied_position = position
        state.last_maintained_at = now
        state.rounds += 1
        lags = (
            entry_times
            if isinstance(entry_times, LogHistogram)
            else self.round_lags(entry_times, now)
        )
        state.entries_applied += lags.count
        state.lag_hist.merge(lags)
        self.observed_lag.merge(lags)
        self._prune()

    def _prune(self) -> None:
        if not self._views:
            return
        floor = min(s.applied_position for s in self._views.values())
        pending = self._pending
        while pending and pending[0][0] <= floor:
            pending.popleft()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def log_position(self) -> int:
        return self._log_position

    def views(self) -> list[str]:
        return sorted(self._views)

    def lag_histogram(self, name: str) -> Optional[LogHistogram]:
        state = self._views.get(name)
        return state.lag_hist if state is not None else None

    def staleness(self, name: str, now: Optional[float] = None) -> ViewStaleness:
        if now is None:
            now = self.clock()
        state = self.note_view(name)
        pending = self._log_position - state.applied_position
        seconds_behind = 0.0
        if pending:
            for seq, logged_at in self._pending:
                if seq > state.applied_position:
                    seconds_behind = max(0.0, now - logged_at)
                    break
        return ViewStaleness(
            name, pending, seconds_behind, state.last_maintained_at, state.rounds
        )

    def report(self, now: Optional[float] = None) -> dict[str, Any]:
        """JSON-ready freshness report for every tracked view."""
        if now is None:
            now = self.clock()
        views: dict[str, Any] = {}
        for name in self.views():
            stale = self.staleness(name, now)
            record = stale.as_dict()
            record["observed_lag"] = self._views[name].lag_hist.as_dict()
            views[name] = record
        return {
            "log_position": self._log_position,
            "views": views,
            "observed_lag": self.observed_lag.as_dict(),
        }
