"""The observability layer: counters, spans, metrics, traces.

The load-bearing property is *exact reconciliation*: the access-count
deltas captured by phase spans must sum to precisely what the engine
reports in ``MaintenanceReport.phase_counts``, and enabling tracing must
not change any counted cost.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext

import pytest

from repro.baselines import TupleIvmEngine
from repro.core import IdIvmEngine
from repro.obs import metrics
from repro.obs import (
    MetricsRegistry,
    SpanRecorder,
    current_recorder,
    current_span,
    enabled,
    phase_totals,
    recording,
    render_tree,
    span,
    validate_trace,
    write_trace,
)
from repro.storage import AccessCounts, CounterSet
from repro.workloads import (
    BSMA_QUERIES,
    BsmaConfig,
    DevicesConfig,
    apply_price_updates,
    build_aggregate_view,
    build_bsma_database,
    build_devices_database,
    log_user_updates,
)

CONFIG = DevicesConfig(n_parts=120, n_devices=120, diff_size=25)


class TestCounterPhases:
    def test_innermost_phase_wins(self):
        counters = CounterSet()
        with counters.phase("outer"):
            counters.count_tuple_read()
            with counters.phase("inner"):
                counters.count_tuple_read(2)
                counters.count_index_lookup()
            counters.count_tuple_write()
        assert counters.phases["outer"].tuple_reads == 1
        assert counters.phases["outer"].tuple_writes == 1
        assert counters.phases["inner"].tuple_reads == 2
        assert counters.phases["inner"].index_lookups == 1
        assert "default" not in counters.phases

    def test_grand_total_invariant(self):
        counters = CounterSet()
        counters.count_tuple_read()
        with counters.phase("a"):
            counters.count_index_lookup(3)
            with counters.phase("b"):
                counters.count_tuple_write(2)
            with counters.phase("a"):
                counters.count_tuple_read(4)
        by_phase = AccessCounts()
        for bucket in counters.phases.values():
            by_phase.add(bucket)
        assert by_phase.as_dict() == counters.total.as_dict()
        assert counters.total.total == 10

    def test_reset_keeps_phase_stack(self):
        counters = CounterSet()
        with counters.phase("x"):
            counters.count_tuple_read()
            counters.reset()
            assert counters.total.total == 0
            assert counters.phases == {}
            assert counters.current_phase == "x"
            counters.count_tuple_read()
        assert counters.phases["x"].tuple_reads == 1
        assert counters.total.tuple_reads == 1


class TestSpans:
    def test_disabled_by_default(self):
        assert not enabled()
        assert current_recorder() is None
        with span("anything", kind="engine", n=1) as sp:
            sp.set(ignored=True)  # null span: no-op
            assert sp.counts is None
        assert current_span() is None

    def test_recording_installs_and_restores(self):
        outer = SpanRecorder()
        with recording(outer) as rec:
            assert rec is outer
            assert enabled() and current_recorder() is outer
            with recording() as inner:
                assert current_recorder() is inner
            assert current_recorder() is outer
        assert current_recorder() is None

    def test_tree_structure_and_walk(self):
        with recording() as rec:
            with span("root", kind="engine") as root:
                with span("child-a"):
                    with span("leaf"):
                        pass
                with span("child-b"):
                    pass
        assert rec.roots == [root]
        assert [sp.name for sp in root.walk()] == [
            "root", "child-a", "leaf", "child-b",
        ]
        assert [sp.parent_id for sp in rec.spans] == [None, 1, 2, 1]
        assert root.duration >= 0.0
        assert rec.find(kind="engine") == [root]

    def test_counted_span_captures_total_delta(self):
        counters = CounterSet()
        counters.count_tuple_read(5)  # pre-existing counts are excluded
        with recording():
            with span("work", counters=counters) as outer:
                counters.count_index_lookup(2)
                with span("sub", counters=counters) as sub:
                    counters.count_tuple_write(3)
        assert outer.counts.as_dict()["total"] == 5
        assert sub.counts.total == 3
        # Exclusive cost subtracts the counted child.
        assert outer.self_counts().total == 2

    def test_phase_of_captures_bucket_delta(self):
        counters = CounterSet()
        with recording():
            with span("p", counters=counters, phase_of="view_update") as sp:
                with counters.phase("view_diff"):
                    counters.count_tuple_read(7)  # other bucket: invisible
                    with counters.phase("view_update"):
                        counters.count_tuple_write(2)
        assert sp.counts.as_dict() == {
            "index_lookups": 0, "tuple_reads": 0, "tuple_writes": 2,
            "index_maintenance": 0, "total": 2,
        }

    def test_attrs_and_dict_forms(self):
        with recording():
            with span("x", kind="stmt", phase="view_diff") as sp:
                sp.set(rows=3)
        record = sp.as_dict()
        assert record["attrs"] == {"phase": "view_diff", "rows": 3}
        assert record["counts"] is None
        tree = sp.tree_dict()
        assert tree["children"] == []


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        for v in (1, 2, 3):
            reg.loghist("h").observe(v)
        out = reg.as_dict()
        assert out["c"]["value"] == 5
        assert out["g"]["value"] == 2.5
        assert out["h"]["count"] == 3
        assert out["h"]["sum"] == 6
        assert out["h"]["min"] == 1 and out["h"]["max"] == 3
        assert out["h"]["mean"] == 2.0

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(9)
        reg.reset()
        assert reg.counter("c").as_dict()["value"] == 0


class TestModlogFoldMetrics:
    def test_fold_rows_is_raw_entries_and_idiff_rows_is_folded(self):
        """Ten logged updates of one key fold to one i-diff row:
        ``modlog.fold_rows`` observes what went into the fold,
        ``modlog.idiff_rows_per_round`` what came out, ``fold_ratio``
        the share that survived."""
        db = build_devices_database(CONFIG)
        engine = IdIvmEngine(db)
        engine.define_view("V", build_aggregate_view(db, CONFIG))
        key = db.table("parts").rows_uncounted()[0][:1]
        for price in range(1000, 1010):
            engine.log.update("parts", key, {"price": price})
        with metrics.scoped() as reg:
            engine.maintain()
            out = reg.as_dict()
        assert out["modlog.fold_rows"]["count"] == 1
        assert out["modlog.fold_rows"]["max"] == 10
        assert out["modlog.idiff_rows_per_round"]["sum"] == 1
        assert out["modlog.fold_ratio"]["sum"] == pytest.approx(0.1)


class TestMetricsConcurrency:
    """One thread writes the metrics; another may call the helpers while
    the registry is swapped."""

    def test_scoped_swap_is_safe_against_helper_threads(self):
        # A daemon thread (DemoLoop) calls the module helpers while this
        # thread enters and leaves scopes: each helper reads the active
        # registry once per operation, so none fails mid-swap and the
        # restores leave the helpers working.
        stop = threading.Event()
        errors: list[BaseException] = []

        def chatter():
            while not stop.is_set():
                try:
                    metrics.counter("race.outer").inc()
                    metrics.histogram("race.hist").observe(1.0)
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        thread = threading.Thread(target=chatter, daemon=True)
        thread.start()
        try:
            for _ in range(400):
                with metrics.scoped() as inner:
                    inner.counter("race.inner").inc()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert not errors
        # the helper still works after all those swap/restore cycles
        metrics.counter("race.after").inc(3)
        assert metrics.counter("race.after").value == 3


def _run_round(engine_cls, recorder=None):
    db = build_devices_database(CONFIG)
    engine = engine_cls(db)
    engine.define_view("V", build_aggregate_view(db, CONFIG))
    apply_price_updates(engine, db, CONFIG)
    if recorder is None:
        return engine.maintain()["V"]
    with recording(recorder):
        return engine.maintain()["V"]


@pytest.mark.parametrize("engine_cls", [IdIvmEngine, TupleIvmEngine])
class TestReconciliation:
    def test_phase_spans_match_engine_totals(self, engine_cls):
        recorder = SpanRecorder()
        report = _run_round(engine_cls, recorder)
        spans = recorder.find(kind="phase")
        assert spans, "maintenance round recorded no phase spans"
        summed: dict[str, AccessCounts] = {}
        for sp in spans:
            summed.setdefault(sp.attrs["phase"], AccessCounts()).add(sp.counts)
        engine_counts = {
            name: counts
            for name, counts in report.phase_counts.items()
            if name != "__total__"
        }
        for name, counts in engine_counts.items():
            if counts.total == 0:
                continue
            assert summed[name].as_dict() == counts.as_dict(), name
        for name, counts in summed.items():
            assert counts.total == engine_counts.get(name, AccessCounts()).total

    def test_tracing_is_count_neutral(self, engine_cls):
        baseline = _run_round(engine_cls)
        traced = _run_round(engine_cls, SpanRecorder())
        assert traced.total_cost == baseline.total_cost
        assert {
            n: c.as_dict() for n, c in traced.phase_counts.items()
        } == {n: c.as_dict() for n, c in baseline.phase_counts.items()}


def _devices_round(exec_backend):
    db = build_devices_database(CONFIG)
    engine = IdIvmEngine(db, exec_backend=exec_backend)
    view = engine.define_view("V", build_aggregate_view(db, CONFIG))
    apply_price_updates(engine, db, CONFIG)
    return engine, view


def _bsma_round(exec_backend):
    config = BsmaConfig(n_users=150)
    db = build_bsma_database(config)
    engine = IdIvmEngine(db, exec_backend=exec_backend)
    view = engine.define_view("V", BSMA_QUERIES["Q*2"](db, config))
    log_user_updates(engine, db, config, 20)
    return engine, view


def test_stmt_diff_rows_over_a_seeded_bsma_stream():
    """Every BSMA view over three seeded rounds: the statement-size
    histogram's count, sum, min and max are pinned at what the count/sum
    summary type recorded before every registry histogram became a log
    histogram; the skipped statements' zeros sit in its zero bucket."""
    config = BsmaConfig(n_users=60)
    db = build_bsma_database(config)
    engine = IdIvmEngine(db)
    for name in sorted(BSMA_QUERIES):
        engine.define_view(name, BSMA_QUERIES[name](db, config))
    with metrics.scoped() as reg:
        for round_seed in range(3):
            log_user_updates(engine, db, config, 12, round_seed=round_seed)
            engine.maintain()
        hist = reg.loghist("script.stmt_diff_rows")
    assert (hist.count, hist.total, hist.min, hist.max) == (2265, 1512, 0, 12)
    assert 0 < hist.zero_count < hist.count


def test_rounds_record_in_the_registry_active_when_they_run():
    """Round telemetry goes through handles resolved once per registry:
    a view defined under one registry and maintained under another
    records every per-view and per-statement family in the one active
    during the round, and nothing in the others."""
    config = BsmaConfig(n_users=60)
    with metrics.scoped() as defined_in:
        db = build_bsma_database(config)
        engine = IdIvmEngine(db)
        engine.define_view("Q7", BSMA_QUERIES["Q7"](db, config))
    definition_names = set(defined_in.names())
    round_families = {
        "engine.maintain_rounds", "engine.log_entries", "engine.round_cost",
        "engine.round_seconds", "view.round_seconds.Q7",
        "modlog.idiff_rows_per_round", "modlog.fold_rows", "modlog.fold_ratio",
        "script.stmt_diff_rows", "script.stmts_skipped",
    }
    registries, first_after_its_round = [], None
    for round_seed in range(2):  # the second registry must re-resolve
        log_user_updates(engine, db, config, 5, round_seed=round_seed)
        with metrics.scoped() as reg:
            engine.maintain()
        names = set(reg.names())
        assert round_families <= names
        assert any(name.startswith("script.phase_seconds.") for name in names)
        assert reg.counter("engine.maintain_rounds").value == 1
        assert reg.loghist("view.round_seconds.Q7").count == 1
        registries.append(reg)
        first_after_its_round = first_after_its_round or reg.as_dict()
    assert set(defined_in.names()) == definition_names
    assert not definition_names & round_families
    # the second round left the first round's registry untouched
    assert registries[0].as_dict() == first_after_its_round


@pytest.mark.parametrize("exec_backend", ["compiled", "interp"])
@pytest.mark.parametrize("setup", [_devices_round, _bsma_round], ids=["devices", "bsma"])
def test_one_statement_loop_traced_and_untraced(setup, exec_backend):
    """The statement loop is the same loop with and without a recorder:
    same view, same per-phase counts, same ``script.stmt_diff_rows``
    observations — and the phase spans it adds when traced sum to the
    report's phase counts."""

    def run(recorder):
        with metrics.scoped() as reg:
            engine, view = setup(exec_backend)
            with recording(recorder) if recorder is not None else nullcontext():
                report = engine.maintain()["V"]
            hist = reg.loghist("script.stmt_diff_rows")
            return sorted(view.table.rows_uncounted()), report, (hist.count, hist.total)

    recorder = SpanRecorder()
    rows_plain, plain, stmt_rows_plain = run(None)
    rows_traced, traced, stmt_rows_traced = run(recorder)
    assert rows_traced == rows_plain
    assert {n: c.as_dict() for n, c in traced.phase_counts.items()} == {
        n: c.as_dict() for n, c in plain.phase_counts.items()
    }
    assert stmt_rows_traced == stmt_rows_plain and stmt_rows_plain[0] > 0
    # One span per *live* statement, named by its script index: strictly
    # increasing, no longer contiguous.  The skipped statements' zeros
    # are in the histogram (its count covers every statement), not in
    # the trace.
    stmts = recorder.find(kind="stmt")
    (view_span,) = recorder.find(kind="view")
    assert len(stmts) == view_span.attrs["stmts_live"] < view_span.attrs["stmts_total"]
    indexes = [int(sp.name[len("stmt["):-1]) for sp in stmts]
    assert indexes == sorted(set(indexes))
    assert 1 <= indexes[0] and indexes[-1] <= view_span.attrs["stmts_total"]
    with_rows = [sp.attrs["diff_rows"] for sp in stmts if "diff_rows" in sp.attrs]
    assert sum(with_rows) == stmt_rows_traced[1]
    assert len(with_rows) < stmt_rows_traced[0]
    span_sums = phase_totals(recorder)
    for name, counts in traced.phase_counts.items():
        if name != "__total__":
            assert span_sums.get(name, AccessCounts()).as_dict() == counts.as_dict(), name
    for name, counts in span_sums.items():
        assert name in traced.phase_counts or counts.total == 0, name


class TestTraceFile:
    def test_write_validate_and_phase_totals(self, tmp_path):
        recorder = SpanRecorder()
        report = _run_round(IdIvmEngine, recorder)
        path = tmp_path / "round.jsonl"
        n = write_trace(recorder, str(path))
        assert n == len(recorder.spans)
        assert validate_trace(str(path)) == []
        totals = phase_totals(sp.as_dict() for sp in recorder.spans)
        for name, counts in totals.items():
            if name not in report.phase_counts:
                # A phase can run without counting anything (e.g. a
                # cache_diff that is statically empty).
                assert counts.total == 0, name
                continue
            assert counts.as_dict() == report.phase_counts[name].as_dict()


class TestRenderTree:
    """``render_tree``: a recorded round as an indented listing, one line
    per span, children below their parent."""

    @staticmethod
    def _lines(text: str) -> list[tuple[int, str, str]]:
        """``(depth, name, kind)`` per rendered line."""
        out = []
        for line in text.splitlines():
            name, kind = line.split()[:2]
            out.append(((len(line) - len(line.lstrip(" "))) // 2, name, kind.strip("[]")))
        return out

    def test_a_devices_round_nests_round_view_phase_statement(self, tmp_path):
        from repro.obs import load_trace

        recorder = SpanRecorder()
        _run_round(IdIvmEngine, recorder)
        text = render_tree(recorder)
        lines = self._lines(text)
        assert lines[0] == (0, "maintain", "engine")
        assert all(depth > 0 for depth, _, _ in lines[1:])  # the round is the one root
        parent_kind = {"view": "engine", "phase": "view", "stmt": "phase"}
        latest: dict[int, str] = {}  # depth -> kind of the last line there
        nested = []
        for depth, name, kind in lines:
            latest[depth] = kind
            if kind in parent_kind:
                assert latest[depth - 1] == parent_kind[kind], (name, kind)
                nested.append((depth, kind))
        # preorder: the view, then each phase followed by its statements
        assert nested[:2] == [(1, "view"), (2, "phase")]
        assert (3, "stmt") in nested
        assert {kind for _, kind in nested} == set(parent_kind)
        # the JSONL records of the same round render the same tree
        path = tmp_path / "round.jsonl"
        write_trace(recorder, str(path))
        assert self._lines(render_tree(load_trace(str(path)))) == lines

    def test_max_depth_truncates(self):
        recorder = SpanRecorder()
        _run_round(IdIvmEngine, recorder)
        full = render_tree(recorder).splitlines()
        shallow = render_tree(recorder, max_depth=1).splitlines()
        assert shallow == [line for line in full if not line.startswith("    ")]
        kinds = {kind for _, _, kind in self._lines("\n".join(shallow))}
        assert "view" in kinds and not kinds & {"phase", "stmt"}
        assert render_tree(recorder, max_depth=0).splitlines() == full[:1]

    def test_an_empty_recorder_renders_nothing(self):
        assert render_tree(SpanRecorder()) == ""
        assert render_tree([]) == ""


class TestTraceReconcile:
    """reconcile_trace + the ``python -m repro.obs.trace`` validator."""

    def _trace_records(self, tmp_path, engine_cls=IdIvmEngine):
        from repro.obs import load_trace

        recorder = SpanRecorder()
        _run_round(engine_cls, recorder)
        path = tmp_path / "round.jsonl"
        write_trace(recorder, str(path))
        return path, load_trace(str(path))

    def test_real_round_reconciles(self, tmp_path):
        from repro.obs import reconcile_trace

        _, records = self._trace_records(tmp_path)
        assert reconcile_trace(records) == []

    def test_sharded_round_reconciles(self, tmp_path):
        """Shard workers' phase spans nest below shard spans; the view
        subtree sum must still match the stamped (merged) counts."""
        from repro.core import ShardedEngine
        from repro.obs import reconcile_trace

        _, records = self._trace_records(
            tmp_path, lambda db: ShardedEngine(db, shards=2)
        )
        assert reconcile_trace(records) == []

    def test_detects_corrupted_phase_counts(self, tmp_path):
        from repro.obs import reconcile_trace

        _, records = self._trace_records(tmp_path)
        phase_spans = [
            r
            for r in records
            if r.get("kind") == "phase" and (r.get("counts") or {}).get("total")
        ]
        assert phase_spans
        phase_spans[0]["counts"]["tuple_reads"] += 7
        phase_spans[0]["counts"]["total"] += 7
        errors = reconcile_trace(records)
        assert errors
        assert "does not reconcile" in errors[0]

    def test_detects_phantom_phase(self, tmp_path):
        from repro.obs import reconcile_trace

        _, records = self._trace_records(tmp_path)
        view_spans = [r for r in records if r.get("kind") == "view"]
        assert view_spans
        del view_spans[0]["attrs"]["phase_counts"]["view_update"]
        errors = reconcile_trace(records)
        assert errors
        assert "stamps no such phase" in errors[0]

    def test_cli_ok_and_summary(self, tmp_path, capsys):
        from repro.obs.trace import main

        path, _ = self._trace_records(tmp_path)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok (" in out

        assert main([str(path), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "p95(ms)" in out
        assert "phase" in out

    def test_cli_rejects_malformed_trace(self, tmp_path, capsys):
        from repro.obs.trace import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "name": 3}\n')
        assert main([str(bad)]) == 1
        assert capsys.readouterr().err

    def test_cli_rejects_non_reconciling_trace(self, tmp_path, capsys):
        import json

        from repro.obs.trace import main

        path, records = self._trace_records(tmp_path)
        for record in records:
            if record.get("kind") == "phase" and (record.get("counts") or {}).get(
                "total"
            ):
                record["counts"]["tuple_writes"] += 3
                record["counts"]["total"] += 3
                break
        doctored = tmp_path / "doctored.jsonl"
        with doctored.open("w") as fh:
            fh.write(
                json.dumps(
                    {
                        "type": "meta",
                        "schema": "repro.trace",
                        "version": 1,
                        "spans": len(records),
                    }
                )
                + "\n"
            )
            for record in records:
                fh.write(json.dumps(record) + "\n")
        assert main([str(doctored)]) == 1
        err = capsys.readouterr().err
        assert "does not reconcile" in err
