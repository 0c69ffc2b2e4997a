"""What watching a round exposes, and what it costs — in counts.

Two contracts of the telemetry a maintenance round records:

* **The facts.**  A seeded stream over all eight BSMA views reproduces
  exactly the registry contents, drift state and freshness rounds
  recorded in ``tests/golden/telemetry_bsma.json`` (recorded before the
  round's metric lookups became handles and its observations batches):
  every non-``seconds`` histogram field by field, every counter, every
  ``seconds`` histogram's count, ``DriftMonitor.snapshot()`` and each
  view's freshness ``rounds``.
* **The budget.**  A steady-state round makes a constant number of
  registry lookups by name, whatever its views and statements, and a
  bounded number of histogram bucket computations per view.  Counted,
  not timed: a wall-clock ratio is not a gateable quantity.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.core import IdIvmEngine
from repro.obs import hist, metrics
from repro.obs.freshness import FreshnessTracker
from repro.storage import Table
from repro.workloads import (
    BSMA_QUERIES,
    BsmaConfig,
    build_bsma_database,
    log_user_updates,
)

CONFIG = BsmaConfig(n_users=60)
GOLDEN = Path(__file__).parent / "golden" / "telemetry_bsma.json"


def _log_round(engine, db, config: BsmaConfig, round_seed: int) -> None:
    """User updates plus a tweet with a retweet and a mention, a deleted
    mention and a tweet moved in time: every BSMA base table the views
    read changes in some way."""
    log_user_updates(engine, db, config, 6, round_seed=round_seed)
    rng = random.Random(round_seed)
    mid = config.n_tweets + round_seed
    log = engine.log
    log.insert("microblog", (mid, rng.randrange(config.n_users), 400 + round_seed,
                             rng.randrange(config.n_topics)))
    log.insert("retweets", (config.n_retweets + round_seed, mid,
                            rng.randrange(config.n_users), 500))
    log.insert("mentions", (config.n_mentions + round_seed, mid,
                            rng.randrange(config.n_users)))
    log.delete("mentions", (round_seed,))
    log.update("microblog", (round_seed,), {"ts": 350 + 50 * round_seed})


def _exposed_facts(reg: metrics.MetricsRegistry, engine) -> dict:
    facts: dict = {"counters": {}, "gauges": {}, "histograms": {}, "seconds_counts": {}}
    for name, metric in reg.as_dict().items():
        if metric["type"] == "counter":
            facts["counters"][name] = metric["value"]
        elif metric["type"] == "gauge":
            facts["gauges"][name] = metric["value"]
        elif metric["unit"] == "seconds":
            facts["seconds_counts"][name] = metric["count"]
        else:
            facts["histograms"][name] = {
                field: metric[field]
                for field in ("count", "sum", "min", "max", "zero_count", "buckets")
            }
    facts["drift"] = engine.drift.snapshot()
    facts["freshness_rounds"] = {
        name: engine.freshness.staleness(name).rounds for name in sorted(engine.views)
    }
    # the form the golden file holds (tuples become lists, keys strings)
    return json.loads(json.dumps(facts))


def bsma_stream_facts(rounds: int = 5) -> dict:
    """The telemetry of *rounds* seeded rounds over all eight views,
    defined and maintained in one fresh registry."""
    with metrics.scoped() as reg:
        db = build_bsma_database(CONFIG)
        engine = IdIvmEngine(db)
        for name in sorted(BSMA_QUERIES):
            engine.define_view(name, BSMA_QUERIES[name](db, CONFIG))
        for round_seed in range(rounds):
            _log_round(engine, db, CONFIG, round_seed)
            engine.maintain()
    return _exposed_facts(reg, engine)


def test_a_seeded_bsma_stream_exposes_the_recorded_facts():
    facts = bsma_stream_facts()
    golden = json.loads(GOLDEN.read_text())
    for section in golden:
        assert facts[section] == golden[section], section
    assert set(facts) == set(golden)


@pytest.fixture
def watch_counts(monkeypatch):
    """Counts of registry lookups by name (the four module accessors)
    and of histogram bucket computations, from when it is armed."""
    counts = {"lookups": 0, "buckets": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def arm() -> dict:
        for accessor in ("counter", "gauge", "histogram", "loghist"):
            monkeypatch.setattr(
                metrics, accessor, counting("lookups", getattr(metrics, accessor))
            )
        monkeypatch.setattr(hist, "bucket_index", counting("buckets", hist.bucket_index))
        return counts

    return arm


def test_a_steady_round_makes_a_constant_number_of_lookups(watch_counts, monkeypatch):
    """1, 4 and 8 views: the same lookups per round (the round counter's
    one), and a bounded number of bucket computations per view — not one
    per statement."""
    rounds, updates = 4, 5
    lookups, per_view_buckets = {}, {}
    counts = None
    lag_buckets: list[int] = []  # per round: computed by the lag intake
    real_round_lags = FreshnessTracker.round_lags

    def counted_round_lags(self, entry_times, now):
        before = counts["buckets"] if counts else 0
        lags = real_round_lags(self, entry_times, now)
        if counts:
            lag_buckets.append(counts["buckets"] - before)
        return lags

    monkeypatch.setattr(FreshnessTracker, "round_lags", counted_round_lags)
    for n_views in (1, 4, 8):
        db = build_bsma_database(CONFIG)
        engine = IdIvmEngine(db)
        for name in sorted(BSMA_QUERIES)[:n_views]:
            engine.define_view(name, BSMA_QUERIES[name](db, CONFIG))
        for round_seed in range(2):  # warm: handles resolved, slices built
            log_user_updates(engine, db, CONFIG, updates, round_seed=round_seed)
            engine.maintain()
        counts = counts or watch_counts()
        before, first = dict(counts), len(lag_buckets)
        for round_seed in range(2, 2 + rounds):
            log_user_updates(engine, db, CONFIG, updates, round_seed=round_seed)
            engine.maintain()
        lookups[n_views] = (counts["lookups"] - before["lookups"]) / rounds
        # what is not per view: the lag intake, the round's log-size and
        # latency histograms
        timed = lag_buckets[first:]
        assert len(timed) == rounds
        lags = sum(timed)
        buckets = (counts["buckets"] - before["buckets"] - lags) / rounds - 2
        per_view_buckets[n_views] = buckets / n_views
    assert set(lookups.values()) == {1.0}, lookups
    # The lag intake computes a bucket per run of lags in one bucket, not
    # one per logged update: a round's stamps, logged back to back, span
    # at most one bucket boundary.
    assert max(lag_buckets) <= 2 < updates, lag_buckets
    # A view-round observes its latency; its phase runs' latencies, its
    # statements' diff-row counts, its cost and what it populated are
    # observed once per group of views, a value once per distinct value:
    # 9 computations for one view, 6.5 per view for four and 5.6 for
    # eight, where the samples of each view made it 9-9.5 and one
    # observation per statement 13-17.
    assert max(per_view_buckets.values()) <= 9, per_view_buckets
    assert per_view_buckets[8] < per_view_buckets[4] < per_view_buckets[1], per_view_buckets


def test_a_steady_round_journals_what_its_views_own(monkeypatch):
    """Every view-round arms the journals of the tables its view owns:
    the 26 of the eight views.  Every table the round writes is among
    them."""
    db = build_bsma_database(CONFIG)
    engine = IdIvmEngine(db)
    for name in sorted(BSMA_QUERIES):
        engine.define_view(name, BSMA_QUERIES[name](db, CONFIG))
    log_user_updates(engine, db, CONFIG, 5, round_seed=0)
    engine.maintain()
    armed, written = [], set()
    real_begin, real_account = Table.begin_journal, Table._account

    def begin_journal(self):
        armed.append(self)
        return real_begin(self)

    def account(self, changes, *args, **kwargs):
        if changes:
            written.add(self)
        return real_account(self, changes, *args, **kwargs)

    monkeypatch.setattr(Table, "begin_journal", begin_journal)
    monkeypatch.setattr(Table, "_account", account)
    for round_seed in range(1, 4):
        del armed[:]
        log_user_updates(engine, db, CONFIG, 5, round_seed=round_seed)
        engine.maintain()
        assert armed == [t for view in engine.views.values() for t in view.written_tables]
        assert written <= set(armed)
        assert len(armed) == 26
