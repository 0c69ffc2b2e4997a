"""The /metrics endpoint: exposition rendering, validation, HTTP."""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import metrics
from repro.obs.serve import (
    build_snapshot,
    render_prometheus,
    serve,
    validate_exposition,
)


class TestRenderPrometheus:
    def test_counter_gauge_histogram_families(self):
        reg = metrics.MetricsRegistry()
        reg.counter("engine.maintain_rounds").inc(3)
        reg.gauge("some.gauge").set(1.5)
        reg.loghist("engine.log_entries").observe(10)
        hist = reg.loghist("engine.round_seconds", unit="seconds")
        for v in (0.01, 0.02, 0.4):
            hist.observe(v)
        text = render_prometheus(reg)
        assert "# TYPE repro_engine_maintain_rounds counter" in text
        assert "repro_engine_maintain_rounds 3" in text
        assert "repro_some_gauge 1.5" in text
        # every histogram is a log histogram: no summary family
        assert "# TYPE repro_engine_log_entries histogram" in text
        assert "repro_engine_log_entries_count 1" in text
        assert " summary" not in text
        assert "# TYPE repro_engine_round_seconds histogram" in text
        assert "repro_engine_round_seconds_count 3" in text
        assert 'le="+Inf"' in text
        assert validate_exposition(text) == []

    def test_per_view_metrics_become_labels(self):
        reg = metrics.MetricsRegistry()
        reg.loghist("view.round_seconds.Q*1", unit="seconds").observe(0.01)
        reg.loghist("view.round_seconds.Q7", unit="seconds").observe(0.02)
        text = render_prometheus(reg)
        # the star never reaches a metric name; it lives in a label
        assert 'repro_view_round_seconds_count{view="Q*1"} 1' in text
        assert 'repro_view_round_seconds_count{view="Q7"} 1' in text
        # one TYPE header for the whole labeled family
        assert text.count("# TYPE repro_view_round_seconds histogram") == 1
        assert validate_exposition(text) == []

    def test_unset_gauges_are_skipped(self):
        reg = metrics.MetricsRegistry()
        reg.gauge("never.set")
        text = render_prometheus(reg)
        assert "never_set" not in text


class TestValidateExposition:
    def test_accepts_well_formed(self):
        text = (
            "# TYPE repro_x counter\n"
            "repro_x 3\n"
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 2\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 7.5\n"
            "repro_h_count 5\n"
        )
        assert validate_exposition(text) == []

    def test_rejects_sample_without_type(self):
        errors = validate_exposition("repro_orphan 1\n")
        assert any("no TYPE" in e for e in errors)

    def test_rejects_malformed_line(self):
        errors = validate_exposition("# TYPE repro_x counter\nrepro_x one\n")
        assert any("malformed sample" in e for e in errors)

    def test_rejects_decreasing_buckets(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="2"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
        )
        errors = validate_exposition(text)
        assert any("decreased" in e for e in errors)

    def test_rejects_count_inf_mismatch(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_count 4\n"
        )
        errors = validate_exposition(text)
        assert any("_count disagrees" in e for e in errors)

    def test_rejects_duplicate_type(self):
        text = "# TYPE repro_x counter\n# TYPE repro_x counter\nrepro_x 1\n"
        errors = validate_exposition(text)
        assert any("duplicate TYPE" in e for e in errors)


@pytest.fixture(scope="module")
def demo_loop():
    """Three demo rounds, observed into a registry the tests can hold.

    The autouse ``_scoped_metrics`` fixture gives every *test* a fresh
    registry, so this module-scoped loop must capture its own and pass
    it around explicitly.
    """
    from repro.obs.live import DemoLoop

    registry = metrics.MetricsRegistry()
    with metrics.scoped(registry):
        loop = DemoLoop(users=60, updates=12, interval=0.05)
        loop.run_round()
        loop.run_round()
        loop.run_round()
    loop.registry = registry
    return loop


def sharded_demo():
    """The demo loop's views over its BSMA database, maintained for two
    seeded rounds by a 2-shard inline :class:`ShardedEngine` built
    directly (a :class:`DemoLoop` runs an :class:`IdIvmEngine`)."""
    from repro.core import ShardedEngine
    from repro.obs.live import DEFAULT_VIEWS
    from repro.workloads import (
        BSMA_QUERIES, BsmaConfig, build_bsma_database, log_user_updates,
    )

    config = BsmaConfig(n_users=60, friends_per_user=5, n_tweets=120)
    db = build_bsma_database(config)
    engine = ShardedEngine(db, shards=2)
    for name in DEFAULT_VIEWS:
        engine.define_view(name, BSMA_QUERIES[name](db, config))
    for seed in range(2):
        log_user_updates(engine, db, config, 12, round_seed=seed)
        engine.maintain()
    return engine


def test_the_demo_loop_runs_the_engine_the_benchmarks_measure():
    from repro.core import IdIvmEngine
    from repro.obs.live import DemoLoop

    assert type(DemoLoop().engine) is IdIvmEngine


def test_snapshot_reports_the_route_of_a_sharded_engine():
    views = build_snapshot(sharded_demo())["views"]
    assert {name: entry["parallel"] for name, entry in views.items()} == {
        "Q7": True, "Q10": False, "Q15": True, "Q18": True,
    }
    assert all(entry["critical_path"] > 0 for entry in views.values())
    assert "drops the anchor" in views["Q10"]["broadcast_reason"]
    assert [name for name, entry in views.items() if "broadcast_reason" in entry] == ["Q10"]


class TestLiveEngine:
    def test_metrics_endpoint_live(self, demo_loop):
        text = render_prometheus(
            demo_loop.registry, engine=demo_loop.engine
        )
        assert validate_exposition(text) == []
        assert "repro_view_pending_entries" in text
        assert "repro_view_lag_seconds_bucket" in text
        assert "repro_modlog_position" in text
        # the drift of every (view, metric) is its EWMA, read when scraped
        states = demo_loop.engine.drift.states()
        assert states
        for state in states:
            labels = f'{{metric="{state.metric}",view="{state.view}"}}'
            assert f"repro_drift_ewma{labels} " in text
        assert "repro_drift_worst_ratio" not in text
        assert " summary" not in text

    def test_snapshot_document(self, demo_loop):
        snap = build_snapshot(
            demo_loop.engine, demo_loop.registry, rounds=demo_loop.rounds_run
        )
        json.dumps(snap)  # wire-format must serialize
        assert snap["schema"] == "repro.obs.snapshot"
        assert snap["rounds"] == 3
        assert set(snap["views"]) == set(demo_loop.view_names)
        for name in demo_loop.view_names:
            assert snap["freshness"]["views"][name]["pending"] == 0
            assert "total_cost" in snap["views"][name]
            assert "parallel" not in snap["views"][name]  # no shard route

    def test_http_round_trip(self, demo_loop):
        server = serve(
            engine=demo_loop.engine,
            registry=demo_loop.registry,
            loop=demo_loop,
            port=0,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            def get(path):
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}{path}", timeout=10
                ) as response:
                    return response.status, response.read().decode()

            status, text = get("/metrics")
            assert status == 200
            assert validate_exposition(text) == []

            status, body = get("/snapshot")
            assert status == 200
            snap = json.loads(body)
            assert snap["schema"] == "repro.obs.snapshot"

            status, body = get("/freshness")
            assert status == 200
            assert "views" in json.loads(body)

            status, body = get("/healthz")
            assert status == 200
            assert json.loads(body)["ok"] is True

            with pytest.raises(urllib.error.HTTPError) as err:
                get("/nope")
            assert err.value.code == 404
        finally:
            server.shutdown()
            server.server_close()


def test_scrapes_while_a_loop_maintains():
    """One thread writes the engine's state and the handler threads read
    the live objects: scrapes taken while rounds run are valid
    expositions and parseable snapshots, and the loop keeps going."""
    from repro.obs.live import DemoLoop

    loop = DemoLoop(users=40, updates=6, interval=0.0, views=("Q7", "Q10"))
    loop.run_round()
    server = serve(engine=loop.engine, loop=loop, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the threads more finely
    loop.start()
    try:
        rounds_before = loop.rounds_run
        for i in range(200):
            with urllib.request.urlopen(
                base + ("/metrics", "/snapshot")[i % 2], timeout=10
            ) as response:
                body = response.read().decode()
            if i % 2:
                assert json.loads(body)["schema"] == "repro.obs.snapshot"
            else:
                assert validate_exposition(body) == []
        assert loop.healthy
        assert loop.rounds_run > rounds_before
    finally:
        sys.setswitchinterval(switch_interval)
        loop.stop()
        server.shutdown()
        server.server_close()
    assert loop.last_error is None


def lagging_engine(db):
    """Two views over the running example; three updates absorbed by A
    only, so B's cursor keeps them in the log."""
    from repro.core import IdIvmEngine
    from tests.conftest import build_view_v, build_view_v_prime

    engine = IdIvmEngine(db)
    engine.define_view("A", build_view_v(db))
    engine.define_view("B", build_view_v_prime(db))
    for price in (11, 12, 13):
        engine.log.update("parts", ("P1",), {"price": price})
    engine.maintain("A")
    return engine


class TestRetainedLog:
    def test_a_lagging_view_shows_what_the_log_retains(self, running_example_db):
        engine = lagging_engine(running_example_db)
        text = render_prometheus(metrics.registry(), engine=engine)
        assert validate_exposition(text) == []
        assert "repro_modlog_retained_entries 3" in text
        report = build_snapshot(engine)["freshness"]
        assert report["retained"] == 3
        assert (report["views"]["A"]["pending"], report["views"]["B"]["pending"]) == (0, 3)
        engine.maintain("B")
        assert "repro_modlog_retained_entries 0" in render_prometheus(
            metrics.registry(), engine=engine
        )
        assert build_snapshot(engine)["freshness"]["retained"] == 0


class TestCacheRows:
    """Cache and opcache sizes, read off the tables at scrape time."""

    def _engine(self, engine_cls):
        from repro.workloads import (
            BSMA_QUERIES, BsmaConfig, build_bsma_database, log_user_updates,
        )

        config = BsmaConfig(n_users=60)
        db = build_bsma_database(config)
        engine = engine_cls(db)
        engine.define_view("Q10", BSMA_QUERIES["Q10"](db, config))
        log_user_updates(engine, db, config, 8)
        engine.maintain()
        return engine

    def test_every_cache_is_a_gauge_and_a_snapshot_entry(self):
        from repro.core import IdIvmEngine

        engine = self._engine(IdIvmEngine)
        view = engine.views["Q10"]
        expected = {
            (table.name, kind): len(table)
            for kind, tables in (("cache", view.caches), ("opcache", view.operator_caches))
            for table in tables.values()
            if table is not view.table
        }
        assert {kind for _, kind in expected} == {"cache", "opcache"}
        text = render_prometheus(metrics.registry(), engine=engine)
        assert validate_exposition(text) == []
        assert text.count("# TYPE repro_cache_rows gauge") == 1
        for (cache, kind), rows in expected.items():
            assert f'repro_cache_rows{{cache="{cache}",kind="{kind}",view="Q10"}} {rows}\n' in text
        entry = build_snapshot(engine)["views"]["Q10"]
        assert {(c, "cache"): n for c, n in entry["cache_rows"].items()} | {
            (c, "opcache"): n for c, n in entry["opcache_rows"].items()
        } == expected
        # read at scrape time: a round registers nothing for it
        assert not [n for n in metrics.registry().names() if "rows" in n and "cache" in n]

    def test_the_pre_state_replica_is_a_gauge_and_a_snapshot_entry(self):
        from repro.core import IdIvmEngine
        from repro.workloads import (
            BSMA_QUERIES, BsmaConfig, build_bsma_database, log_user_updates,
        )

        config = BsmaConfig(n_users=30, friends_per_user=3, n_tweets=60)
        db = build_bsma_database(config)
        engine = IdIvmEngine(db)
        engine.define_view("Q18", BSMA_QUERIES["Q18"](db, config))
        # declared at definition; the replica exists from the first round
        assert "repro_prestate_rows" not in render_prometheus(metrics.registry(), engine=engine)
        assert engine._pre.tables == {"mentions"}
        assert build_snapshot(engine)["prestate_rows"] == {}
        log_user_updates(engine, db, config, 8)
        engine.maintain()
        text = render_prometheus(metrics.registry(), engine=engine)
        assert validate_exposition(text) == []
        rows = len(db.table("mentions"))
        assert f'repro_prestate_rows{{table="mentions"}} {rows}\n' in text
        assert text.count("repro_prestate_rows{") == 1
        assert build_snapshot(engine)["prestate_rows"] == {"mentions": rows}
        assert not [n for n in metrics.registry().names() if "prestate" in n]

    def test_views_without_caches_report_none(self):
        from repro.baselines import RecomputeEngine

        engine = self._engine(RecomputeEngine)
        text = render_prometheus(metrics.registry(), engine=engine)
        assert validate_exposition(text) == []
        assert "repro_cache_rows" not in text
        entry = build_snapshot(engine)["views"]["Q10"]
        assert "cache_rows" not in entry and "opcache_rows" not in entry


class TestDemoLoopLifecycle:
    """stop() must join the loop; a dead loop must be *visible*."""

    def _loop(self):
        from repro.obs.live import DemoLoop

        return DemoLoop(users=40, updates=5, interval=0.01, views=("Q7",))

    def test_stop_joins_thread_and_stays_healthy(self):
        loop = self._loop()
        assert loop.healthy  # never started: healthy by definition
        loop.start()
        loop.stop(timeout=10)
        assert loop._thread is None
        assert loop.healthy  # a *requested* stop is not a failure
        loop.stop()  # idempotent

    def test_dead_loop_turns_unhealthy_and_healthz_returns_503(self):
        loop = self._loop()

        def boom():
            raise RuntimeError("injected failure")

        loop.run_round = boom  # type: ignore[method-assign]
        loop.start()
        deadline = time.monotonic() + 10
        while loop.last_error is None and time.monotonic() < deadline:
            time.sleep(0.01)
        try:
            assert loop.last_error is not None
            assert "injected failure" in loop.last_error
            assert not loop.healthy

            server = serve(engine=loop.engine, loop=loop, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            port = server.server_address[1]
            try:
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/healthz", timeout=10
                    )
                assert err.value.code == 503
                body = json.loads(err.value.read().decode())
                assert body["ok"] is False
                assert "injected failure" in body["error"]
            finally:
                server.shutdown()
                server.server_close()
        finally:
            loop.stop()
        # a crash-stopped loop stays unhealthy even after stop()
        assert not loop.healthy
