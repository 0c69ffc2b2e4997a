"""Per-view staleness tracking: modlog cursors, lag, seconds-behind.

A view is *fresh* when it reflects every logged modification; between
rounds it lags the log by some number of pending entries and some span
of wall time.  Continuous-serving systems schedule maintenance against
exactly this signal — Snowflake Dynamic Tables exposes per-view target
lag and observed-lag percentiles as the primary operator interface —
and ROADMAP item 2 needs it here too.

The :class:`FreshnessTracker` hangs off the engine and reads positions
and stamps from their one record, the engine's
:class:`~repro.core.modlog.ModificationLog` (its head, each view's
cursor, the retained entries' ``logged_at``).  It keeps only what the
log does not know: after each round the engine reports, through
:meth:`note_maintained`, the per-entry observed lag (maintenance time
minus log time) of the views it maintained.

From those it can answer, at any instant and per view: how many log
entries are pending, how many seconds behind the newest pending entry
the view is (``seconds_behind``), and the full distribution of observed
lag (a :class:`~repro.obs.hist.LogHistogram` per view; :meth:`report`
merges them into the global ``freshness.observed_lag_seconds``).

The clock is the log's (``log.clock``), injectable so tests can drive
staleness deterministically.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..errors import UnknownTableError
from .hist import LogHistogram


class ViewFreshness:
    """Mutable freshness state for one view."""

    __slots__ = ("name", "rounds", "lag_hist")

    def __init__(self, name: str):
        self.name = name
        self.rounds = 0
        #: Observed lag (seconds between an entry being logged and this
        #: view absorbing it) — the Dynamic-Tables "observed lag" metric.
        self.lag_hist = LogHistogram(f"freshness.lag.{name}", unit="seconds")


class ViewStaleness:
    """Point-in-time staleness report for one view."""

    __slots__ = ("name", "pending", "seconds_behind", "rounds")

    def __init__(self, name: str, pending: int, seconds_behind: float, rounds: int):
        self.name = name
        #: Modlog entries logged but not yet reflected in the view.
        self.pending = pending
        #: Age of the oldest pending entry (0.0 when fully fresh).
        self.seconds_behind = seconds_behind
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
    """Per-view staleness over a modification log's cursors.

    Thread-safety: one thread writes — entries are logged and rounds
    finished on the engine's thread (shard workers never touch the
    modlog) — and readers (``serve``/``top``) read the live log and
    histograms, possibly mid-round.
    """

    def __init__(self, log):
        #: the :class:`~repro.core.modlog.ModificationLog` read
        self.log = log
        self._views: dict[str, ViewFreshness] = {}

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------
    def round_lags(self, entry_times: Iterable[float], now: float) -> LogHistogram:
        """One observed-lag sample per ``logged_at`` stamp of a round's
        entries, observed once, in one batch — over monotone stamps, one
        bucket computation per run of lags in one bucket;
        :meth:`note_maintained` merges the result (exactly, bucket by
        bucket) into every view the round maintained."""
        lags = LogHistogram(unit="seconds")
        lags.observe_many(lag if (lag := now - t) > 0.0 else 0.0 for t in entry_times)
        return lags

    def note_maintained(self, name: str, lags: LogHistogram) -> None:
        """View *name* absorbed a round's entries (how far, its log
        cursor says); *lags* is their :meth:`round_lags` histogram."""
        state = self._state(name)
        state.rounds += 1
        state.lag_hist.merge(lags)

    def _state(self, name: str) -> ViewFreshness:
        state = self._views.get(name)
        if state is None:
            state = self._views[name] = ViewFreshness(name)
        return state

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def log_position(self) -> int:
        return self.log.position

    def views(self) -> list[str]:
        """Every defined view: every view with a cursor in the log."""
        return sorted(self.log.cursors)

    def lag_histogram(self, name: str) -> Optional[LogHistogram]:
        state = self._views.get(name)
        return state.lag_hist if state is not None else None

    def staleness(self, name: str, now: Optional[float] = None) -> ViewStaleness:
        """*name*'s staleness; a view never defined raises
        :class:`~repro.errors.UnknownTableError`."""
        log = self.log
        cursor = log.cursors.get(name)
        if cursor is None:
            raise UnknownTableError(f"no view named {name!r}")
        if now is None:
            now = log.clock()
        oldest = log.oldest_after(cursor)
        seconds_behind = max(0.0, now - oldest.logged_at) if oldest is not None else 0.0
        return ViewStaleness(
            name, log.position - cursor, seconds_behind, self._state(name).rounds
        )

    def report(self, now: Optional[float] = None) -> dict[str, Any]:
        """JSON-ready freshness report for every defined view; the global
        observed lag is the merge of the per-view histograms."""
        if now is None:
            now = self.log.clock()
        views: dict[str, Any] = {}
        for name in self.views():
            record = self.staleness(name, now).as_dict()
            record["observed_lag"] = self._views[name].lag_hist.as_dict()
            views[name] = record
        return {
            "log_position": self.log.position,
            "retained": len(self.log.entries),
            "views": views,
            "observed_lag": LogHistogram.merged(
                (state.lag_hist for state in self._views.values()),
                "freshness.observed_lag_seconds", "seconds",
            ).as_dict(),
        }
