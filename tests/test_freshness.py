"""FreshnessTracker: staleness, observed lag, engine integration."""

from __future__ import annotations

import pytest

from repro.core import IdIvmEngine
from repro.core.modlog import ModificationLog
from repro.errors import UnknownTableError
from repro.obs.freshness import FreshnessTracker
from repro.obs.hist import LogHistogram
from repro.sql import sql_to_plan
from repro.storage import Database


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _tracked_log(*views: str):
    """A tracker over a fresh log with a cursor per view, on a fake clock."""
    clock = FakeClock()
    tracker = FreshnessTracker(ModificationLog(_demo_db()))
    tracker.log.clock = clock
    for name in views:
        tracker.log.advance(name, 0)
    return tracker, tracker.log, clock


def _log_update(log: ModificationLog) -> None:
    """Log one (always effective) price update."""
    log.update("parts", ("P1",), {"price": 100 + log.position})


class TestFreshnessTracker:
    def test_new_view_starts_fresh(self):
        tracker, log, _ = _tracked_log()
        _log_update(log)
        _log_update(log)
        log.advance("V", log.position)  # defined *after* two entries: starts fresh
        stale = tracker.staleness("V")
        assert stale.pending == 0
        assert stale.fresh

    def test_pending_and_seconds_behind(self):
        tracker, log, clock = _tracked_log("V")
        clock.advance(10)
        _log_update(log)
        clock.advance(5)
        _log_update(log)
        clock.advance(5)
        stale = tracker.staleness("V")
        assert stale.pending == 2
        # oldest pending entry was logged 10 seconds ago
        assert stale.seconds_behind == 10.0
        assert not stale.fresh

    def test_maintained_clears_pending_and_observes_lag(self):
        tracker, log, clock = _tracked_log("V")
        _log_update(log)
        clock.advance(3)
        log.advance("V", 1)
        tracker.note_maintained("V", tracker.round_lags([clock.now - 3], clock.now))
        stale = tracker.staleness("V")
        assert stale.pending == 0
        assert stale.seconds_behind == 0.0
        lag = tracker.lag_histogram("V")
        assert lag.count == 1
        assert lag.total == 3.0
        assert tracker.report()["observed_lag"]["count"] == 1

    def test_per_view_positions_are_independent(self):
        tracker, log, _ = _tracked_log("A", "B")
        _log_update(log)
        _log_update(log)
        log.advance("A", 2)
        assert tracker.staleness("A").pending == 0
        assert tracker.staleness("B").pending == 2

    def test_prune_keeps_entries_some_view_needs(self):
        tracker, log, _ = _tracked_log("A", "B")
        for _ in range(5):
            _log_update(log)
        log.advance("A", 5)
        log.prune()
        # B still needs 1..5: the log must keep them
        assert tracker.staleness("B").pending == 5
        assert len(log.entries) == 5
        log.advance("B", 5)
        log.prune()
        assert len(log.entries) == 0

    def test_report_shape(self):
        tracker, log, clock = _tracked_log("V")
        _log_update(log)
        log.advance("V", 1)
        tracker.note_maintained("V", tracker.round_lags([clock.now], clock.now))
        report = tracker.report()
        assert report["log_position"] == 1
        assert report["retained"] == 1
        assert report["views"]["V"]["pending"] == 0
        assert report["views"]["V"]["rounds"] == 1
        assert report["views"]["V"]["observed_lag"]["count"] == 1
        assert report["observed_lag"]["type"] == "loghist"


def _demo_db() -> Database:
    db = Database()
    db.create_table(
        "parts", ("pid", "price"), ("pid",), nullable=(),
        types={"pid": "str", "price": "int"},
    )
    db.table("parts").load([("P1", 10), ("P2", 20)])
    return db


class TestEngineIntegration:
    def test_engine_tracks_freshness_across_rounds(self):
        db = _demo_db()
        engine = IdIvmEngine(db)
        engine.define_view(
            "V", sql_to_plan(db, "SELECT pid, price FROM parts")
        )
        assert engine.freshness.staleness("V").fresh

        engine.log.update("parts", ("P1",), {"price": 11})
        assert engine.freshness.staleness("V").pending == 1
        engine.maintain()
        stale = engine.freshness.staleness("V")
        assert stale.pending == 0
        assert stale.rounds == 1
        assert engine.freshness.lag_histogram("V").count == 1

        engine.log.update("parts", ("P2",), {"price": 21})
        engine.log.update("parts", ("P1",), {"price": 12})
        engine.maintain()
        assert engine.freshness.staleness("V").rounds == 2
        assert engine.freshness.lag_histogram("V").count == 3
        assert engine.freshness.log_position == 3

    def test_three_view_round_equals_the_per_entry_path(self):
        """The round's lags are observed once and merged into every view;
        what each histogram holds is what per-entry observation gave."""
        db = _demo_db()
        engine = IdIvmEngine(db)
        clock = engine.log.clock = FakeClock()
        for name in "ABC":
            engine.define_view(name, sql_to_plan(db, "SELECT pid, price FROM parts"))
        stamps = []
        for i, (pid, price) in enumerate([("P1", 11), ("P2", 21), ("P1", 12), ("P2", 22)]):
            clock.advance(0.7 * (i + 1))
            stamps.append(clock.now)
            engine.log.update("parts", (pid,), {"price": price})
        engine.log.update("parts", ("P1",), {"price": 13})  # lag 0: the zero bucket
        stamps.append(clock.now)
        engine.maintain()
        per_view, overall = LogHistogram(), LogHistogram()
        for hist, repeats in ((per_view, 1), (overall, 3)):
            for _ in range(repeats):
                for logged_at in stamps:
                    hist.observe(clock.now - logged_at)
        tracker = engine.freshness
        pairs = [(tracker.lag_histogram(name), per_view) for name in "ABC"]
        global_lag = LogHistogram.from_dict(tracker.report()["observed_lag"])
        for got, expected in pairs + [(global_lag, overall)]:
            assert (got.count, got.buckets, got.zero_count, got.min, got.max) == (
                expected.count, expected.buckets, expected.zero_count,
                expected.min, expected.max,
            )

    def test_global_lag_is_the_merge_of_the_per_view_histograms(self):
        """The global observed lag is derived when read: after
        ``maintain("A")`` then ``maintain()`` it is the exact merge of A's
        two rounds and B's one."""
        db = _demo_db()
        engine = IdIvmEngine(db)
        clock = engine.log.clock = FakeClock()
        for name in "AB":
            engine.define_view(name, sql_to_plan(db, "SELECT pid, price FROM parts"))
        for price in (11, 12, 13):
            clock.advance(1.5)
            engine.log.update("parts", ("P1",), {"price": price})
        clock.advance(2.0)
        engine.maintain("A")
        engine.log.update("parts", ("P2",), {"price": 21})
        clock.advance(0.5)
        engine.maintain()
        tracker = engine.freshness
        per_view = [tracker.lag_histogram(name) for name in "AB"]
        assert [hist.count for hist in per_view] == [4, 4]
        expected = LogHistogram.merged(per_view, "freshness.observed_lag_seconds", "seconds")
        assert tracker.report()["observed_lag"] == expected.as_dict()

    def test_asking_about_an_unknown_view_registers_no_phantom(self):
        db = _demo_db()
        engine = IdIvmEngine(db)
        engine.define_view("V", sql_to_plan(db, "SELECT pid, price FROM parts"))
        with pytest.raises(UnknownTableError):
            engine.freshness.staleness("no_such_view")
        # a phantom view would pin the log's floor: every entry would stay
        for price in range(11, 16):
            engine.log.update("parts", ("P1",), {"price": price})
            engine.maintain()
        assert engine.log.entries == [] and engine.log.floor == 5
        assert engine.freshness.views() == ["V"]
        assert list(engine.freshness.report()["views"]) == ["V"]

    def test_modlog_entries_carry_seq_and_logged_at(self):
        db = _demo_db()
        engine = IdIvmEngine(db)
        engine.define_view(
            "V", sql_to_plan(db, "SELECT pid, price FROM parts")
        )
        engine.log.update("parts", ("P1",), {"price": 11})
        engine.log.update("parts", ("P2",), {"price": 21})
        entries = list(engine.log.entries)
        assert [e.seq for e in entries] == [1, 2]
        assert all(e.logged_at > 0 for e in entries)
