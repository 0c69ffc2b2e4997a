"""Shard-parallel maintenance: routing, equivalence, counting.

The equivalence tests are the heart: for every shard count the sharded
engine must produce byte-identical view contents AND merged per-phase
access counts that reconcile exactly with the single-shard run —
whether the router proved the round parallel or fell back to broadcast.

Set ``REPRO_SHARDS=1,4`` (the CI matrix does) to restrict the shard
counts exercised by the equivalence tests, and ``REPRO_BACKEND=inline``
(or ``process``) to restrict the execution backends.  The process
backend spawns real worker processes, so its equivalence coverage runs
at bounded shard counts (≤ 4) to keep the suite quick.
``REPRO_RACE_CHECK=true`` (as the CI matrix sets) runs every sharded
engine built here with the dynamic write-set race detector armed, and
fails a test after which ``shard.race_overlaps`` or
``shard.uncaptured_writes`` is non-zero — the equivalence suite then
doubles as a disjointness-proof checker on real workloads.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest

import repro.core.engine as engine_mod
from repro.core.modlog import populate_instances
from repro.shard.router import plan_route
from repro.algebra import project_columns
from repro.algebra.evaluate import evaluate_plan
from repro.baselines import RecomputeEngine, SdbtEngine, TupleIvmEngine
from repro.core import EagerIvmEngine, IdIvmEngine, ShardedEngine, ShardedMaintenanceReport
from repro.crosscheck.corpus import DEFAULT_CORPUS_DIR, load_corpus_case
from repro.crosscheck.spec import apply_modification, build_database, build_plan
from repro.obs import metrics
from repro.shard import shard_of
from repro.storage import AccessCounts, Database
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
from repro.workloads.devices import (
    build_flat_view,
    log_batch,
    mixed_modification_batch,
)
from tests.conftest import assert_views_at_their_cursors, unhosted

SHARD_COUNTS = tuple(
    int(v) for v in os.environ.get("REPRO_SHARDS", "1,2,4,8").split(",")
)
BACKENDS = tuple(
    b.strip()
    for b in os.environ.get("REPRO_BACKEND", "inline,process").split(",")
    if b.strip()
)

DEV_CONFIG = DevicesConfig(n_parts=80, n_devices=80, diff_size=24)
BSMA_CONFIG = BsmaConfig(n_users=150)

#: threaded through every engine built here
RACE_CHECK = os.environ.get("REPRO_RACE_CHECK", "").strip().lower() in ("1", "true", "yes")


@pytest.fixture(autouse=True)
def _race_free(_scoped_metrics):
    """With the race detector armed, a test whose rounds wrote one key
    from two shards, or wrote a table outside the tagged set, fails."""
    yield
    if RACE_CHECK:
        found = {
            name: _scoped_metrics.counter(name).value
            for name in ("shard.race_overlaps", "shard.uncaptured_writes")
        }
        assert not any(found.values()), found


def _backend_shard_params(process_counts=(2, 4)):
    """(backend, n_shards) matrix: inline everywhere, process bounded."""
    params = []
    for backend in BACKENDS:
        for n in SHARD_COUNTS:
            if backend == "process" and n not in process_counts:
                continue
            params.append(pytest.param(backend, n, id=f"{backend}-{n}"))
    return params


def _sharded_factory(n_shards, backend):
    return lambda db: ShardedEngine(
        db, shards=n_shards, backend=backend, race_check=RACE_CHECK
    )


def _phase_totals(report):
    """Zero-filtered per-phase counts (stale zero buckets dropped)."""
    return {
        name: counts.as_dict()
        for name, counts in report.phase_counts.items()
        if counts.total or counts.index_maintenance
    }


def _run_devices(engine_factory, build_view, rounds=1, mixed=False):
    db = build_devices_database(DEV_CONFIG)
    engine = engine_factory(db)
    try:
        view = engine.define_view("V", build_view(db, DEV_CONFIG))
        out = []
        for r in range(rounds):
            if mixed:
                batch = mixed_modification_batch(
                    db, DEV_CONFIG, updates=8, inserts=5, deletes=3, round_seed=r
                )
                log_batch(engine, batch)
            else:
                apply_price_updates(engine, db, DEV_CONFIG, round_seed=r)
            report = engine.maintain()["V"]
            out.append((sorted(view.table.rows_uncounted()), report))
        oracle = evaluate_plan(view.plan, db).as_set()
        assert view.table.as_set() == oracle
        return out
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


# ----------------------------------------------------------------------
# equivalence: devices
# ----------------------------------------------------------------------
@pytest.mark.parametrize(("backend", "n_shards"), _backend_shard_params())
@pytest.mark.parametrize("mixed", [False, True], ids=["updates", "mixed"])
def test_devices_flat_view_equivalence(backend, n_shards, mixed):
    base = _run_devices(IdIvmEngine, build_flat_view, rounds=3, mixed=mixed)
    shard = _run_devices(
        _sharded_factory(n_shards, backend),
        build_flat_view,
        rounds=3,
        mixed=mixed,
    )
    for (rows_b, rep_b), (rows_s, rep_s) in zip(base, shard):
        assert rows_s == rows_b
        assert _phase_totals(rep_s) == _phase_totals(rep_b)
        assert rep_s.total_cost == rep_b.total_cost
        assert rep_s.backend == backend


@pytest.mark.parametrize(("backend", "n_shards"), _backend_shard_params())
def test_devices_aggregate_view_equivalence(backend, n_shards):
    base = _run_devices(IdIvmEngine, build_aggregate_view, rounds=2)
    shard = _run_devices(
        _sharded_factory(n_shards, backend),
        build_aggregate_view,
        rounds=2,
    )
    for (rows_b, rep_b), (rows_s, rep_s) in zip(base, shard):
        assert rows_s == rows_b
        assert _phase_totals(rep_s) == _phase_totals(rep_b)


def test_devices_flat_view_routes_parallel():
    [(_, report)] = _run_devices(
        lambda db: ShardedEngine(db, shards=4), build_flat_view
    )
    assert report.parallel
    assert report.anchor == "parts"
    assert len(report.shard_reports) == 4
    assert sum(r.total_cost for r in report.shard_reports) == report.total_cost
    assert report.critical_path() == max(
        r.total_cost for r in report.shard_reports
    )


def test_devices_flat_view_broadcasts_part_inserts():
    """A new part reaches the view through a probe bound on ``did``, not
    on the ``parts`` anchor: the round broadcasts, and says why."""
    db = build_devices_database(DEV_CONFIG)
    engine = ShardedEngine(db, shards=4)
    engine.define_view("V", build_flat_view(db, DEV_CONFIG))
    engine.log.insert("parts", ("PX1", 7))
    engine.log.insert("parts", ("PX2", 9))
    report = engine.maintain()["V"]
    assert not report.parallel
    assert "does not cover the anchor columns" in report.broadcast_reason


@pytest.mark.parametrize("name", ["min_extremum", "gamma_expansion"])
def test_general_aggregate_cases_broadcast_every_round(name):
    """min/max γ runs the general (recompute) rule, whose affected groups
    no anchor makes shard-local: every round of the corpus case
    broadcasts, with the general γ as the reason."""
    case = load_corpus_case(DEFAULT_CORPUS_DIR / f"{name}.json")
    db = build_database(case)
    engine = ShardedEngine(db, shards=2, race_check=RACE_CHECK)
    view = engine.define_view("V", build_plan(case["plan"], db))
    assert case["batches"]
    for batch in case["batches"]:
        for op in batch:
            apply_modification(engine.log, op)
        report = engine.maintain()["V"]
        assert not report.parallel
        assert "general aggregate" in report.broadcast_reason
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


def test_devices_aggregate_view_broadcasts():
    """γ(did) drops the anchor (pid): per-group RMWs are not shard-local."""
    [(_, report)] = _run_devices(
        lambda db: ShardedEngine(db, shards=4), build_aggregate_view
    )
    assert not report.parallel
    assert "group keys" in report.broadcast_reason
    assert report.shard_reports == []


def test_single_shard_and_empty_round_broadcast():
    db = build_devices_database(DEV_CONFIG)
    engine = ShardedEngine(db, shards=1)
    engine.define_view("V", build_flat_view(db, DEV_CONFIG))
    apply_price_updates(engine, db, DEV_CONFIG)
    report = engine.maintain()["V"]
    assert not report.parallel
    assert report.broadcast_reason == "single shard requested"
    assert engine.views["V"].table.as_set() == evaluate_plan(engine.views["V"].plan, db).as_set()

    db = build_devices_database(DEV_CONFIG)
    engine = ShardedEngine(db, shards=4)
    view = engine.define_view("V", build_flat_view(db, DEV_CONFIG))
    # nothing logged: an idle view-round, reported as the router's empty batch
    report = engine.maintain()["V"]
    assert isinstance(report, ShardedMaintenanceReport)
    assert report.total_cost == 0 and report.critical_path() == 0
    assert not report.parallel and report.backend == "inline"
    assert report.broadcast_reason == "empty modification batch"
    empty = populate_instances(view.instance_layout, [], db)
    assert plan_route(view.script, empty, db, 4).reason == report.broadcast_reason


# ----------------------------------------------------------------------
# equivalence: BSMA
# ----------------------------------------------------------------------
#: Queries whose user-update rounds the router proves parallel (flat
#: joins anchored on users); the aggregates broadcast.
BSMA_PARALLEL = {"Q7", "Q11", "Q15", "Q18"}


@pytest.mark.parametrize(
    ("backend", "n_shards"), _backend_shard_params(process_counts=(4,))
)
@pytest.mark.parametrize("qname", sorted(BSMA_QUERIES))
def test_bsma_equivalence(qname, backend, n_shards):
    build = BSMA_QUERIES[qname]
    results = {}
    for label, factory in (
        ("base", IdIvmEngine),
        ("shard", _sharded_factory(n_shards, backend)),
    ):
        db = build_bsma_database(BSMA_CONFIG)
        engine = factory(db)
        try:
            view = engine.define_view("V", build(db, BSMA_CONFIG))
            log_user_updates(engine, db, BSMA_CONFIG, 60)
            report = engine.maintain()["V"]
            results[label] = (sorted(view.table.rows_uncounted()), report)
        finally:
            close = getattr(engine, "close", None)
            if close is not None:
                close()
    rows_b, rep_b = results["base"]
    rows_s, rep_s = results["shard"]
    assert rows_s == rows_b
    assert _phase_totals(rep_s) == _phase_totals(rep_b)
    if qname in BSMA_PARALLEL and n_shards > 1:
        assert rep_s.parallel and rep_s.anchor == "users"
    else:
        assert not rep_s.parallel


# ----------------------------------------------------------------------
# one counter set per database: sharded rounds count into it
# ----------------------------------------------------------------------
def test_parallel_round_folds_into_database_totals():
    db = build_devices_database(DEV_CONFIG)
    engine = ShardedEngine(db, shards=4)
    engine.define_view("V", build_flat_view(db, DEV_CONFIG))
    apply_price_updates(engine, db, DEV_CONFIG)
    before = db.counters.total.total
    report = engine.maintain()["V"]
    assert report.parallel
    assert db.counters.total.total - before == report.total_cost


def test_a_sharded_engine_leaves_other_engines_on_the_database_alone():
    """Building a ShardedEngine over a database another engine maintains
    rebinds no counters, so the other engine's pre-state replica stays
    valid: its next round rebuilds nothing."""
    db = build_bsma_database(BSMA_CONFIG)
    counters = db.counters
    engine = IdIvmEngine(db)
    view = engine.define_view("V", BSMA_QUERIES["Q11"](db, BSMA_CONFIG))
    log_user_updates(engine, db, BSMA_CONFIG, 60)
    engine.maintain()
    ShardedEngine(db, shards=2)
    log_user_updates(engine, db, BSMA_CONFIG, 60, round_seed=1)
    engine.maintain()
    assert metrics.counter("engine.prestate_rebuilds").value == 0
    assert db.counters is counters
    assert all(table.counters is counters for table in db.tables.values())
    assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


# ----------------------------------------------------------------------
# shard-key hashing
# ----------------------------------------------------------------------
def test_shard_of_is_stable_and_in_range():
    assert shard_of(("P1",), 1) == 0
    for n in (2, 4, 8):
        seen = {shard_of((f"P{i}",), n) for i in range(200)}
        assert seen <= set(range(n))
        assert len(seen) > 1  # actually spreads
    # deterministic: same value, same shard
    assert shard_of(("P17",), 4) == shard_of(("P17",), 4)


def test_split_instances_buckets_are_plain_diffs_of_the_routed_rows():
    from repro.core.diffs import UPDATE, Diff, DiffSchema
    from repro.shard import split_instances
    from repro.shard.router import RoutePlan

    schema = DiffSchema(UPDATE, "parts", ("pid",), (), ("price",))
    routed = Diff(schema, [(f"P{i}", i) for i in range(20)])
    empty = Diff(schema, [])
    plan = RoutePlan(
        True, "", anchor="parts", anchor_key=("pid",),
        instance_positions={"routed": (0,), "empty": (0,)},
    )
    envs = split_instances(plan, {"routed": routed, "empty": empty, "shared": routed}, 3)
    assert all(type(diff) is Diff for env in envs for diff in env.values())
    assert sorted(r for env in envs for r in env["routed"].rows) == sorted(routed.rows)
    for shard, env in enumerate(envs):
        assert all(shard_of(row[:1], 3) == shard for row in env["routed"].rows)
        assert env["empty"] is empty and env["shared"] is routed


def test_sharded_engine_rejects_bad_shard_count():
    from repro.errors import SchemaError

    with pytest.raises(SchemaError):
        ShardedEngine(Database(), shards=0)


# ----------------------------------------------------------------------
# telemetry: per-shard histograms reconcile exactly with the counters
# ----------------------------------------------------------------------
def test_shard_cost_histogram_merges_to_shard_totals(_scoped_metrics):
    """``shard.cost`` takes one observation per shard per parallel
    round; the registry histogram must reconcile exactly with the
    per-shard totals of the round reports."""
    results = _run_devices(
        lambda db: ShardedEngine(db, shards=4), build_flat_view, rounds=3
    )
    parallel_reports = [rep for _, rep in results if rep.parallel]
    assert parallel_reports  # the flat view routes parallel every round
    shard_totals = [s.total_cost for r in parallel_reports for s in r.shard_reports]

    merged = _scoped_metrics.loghist("shard.cost")
    # per-shard costs are complete integer counts: NO tolerance.
    assert merged.total == sum(shard_totals)
    assert merged.count == len(shard_totals)
    assert merged.max == max(r.critical_path() for r in parallel_reports)
    assert merged.total == sum(r.total_cost for r in parallel_reports)


def test_parallel_round_shard_wall_hist_covers_every_worker():
    [(_, report)] = _run_devices(
        lambda db: ShardedEngine(db, shards=4), build_flat_view
    )
    assert report.parallel
    hist = report.shard_wall_hist
    assert hist is not None
    assert hist.count == len(report.shard_reports) == 4
    assert hist.total >= 0.0


# ----------------------------------------------------------------------
# process backend: worker pool lifecycle
# ----------------------------------------------------------------------
pytestmark_process = pytest.mark.skipif(
    "process" not in BACKENDS, reason="process backend excluded by REPRO_BACKEND"
)


@pytestmark_process
def test_process_backend_report_and_wall_clocks():
    results = _run_devices(
        _sharded_factory(4, "process"), build_flat_view, rounds=2
    )
    for _, report in results:
        assert report.parallel
        assert report.backend == "process"
        # one worker-side perf_counter duration per shard; durations are
        # the only wall-clock quantity allowed across the process
        # boundary (raw monotonic timestamps are process-local).
        assert report.shard_wall_hist.count == 4
        assert sum(r.total_cost for r in report.shard_reports) == report.total_cost


@pytestmark_process
def test_process_pool_is_lazy_reused_and_closed():
    db = build_devices_database(DEV_CONFIG)
    engine = ShardedEngine(db, shards=2, backend="process")
    try:
        engine.define_view("V", build_flat_view(db, DEV_CONFIG))
        assert engine._pool is None  # no parallel round yet -> no workers
        apply_price_updates(engine, db, DEV_CONFIG, round_seed=0)
        assert engine.maintain()["V"].parallel
        pool = engine._pool
        assert pool is not None and not pool.closed
        apply_price_updates(engine, db, DEV_CONFIG, round_seed=1)
        assert engine.maintain()["V"].parallel
        assert engine._pool is pool  # long-lived workers, not per-round
    finally:
        engine.close()
    assert engine._pool is None
    engine.close()  # idempotent


@pytestmark_process
def test_process_backend_define_view_invalidates_pool():
    db = build_devices_database(DEV_CONFIG)
    with ShardedEngine(db, shards=2, backend="process") as engine:
        engine.define_view("V", build_flat_view(db, DEV_CONFIG))
        apply_price_updates(engine, db, DEV_CONFIG, round_seed=0)
        engine.maintain()
        assert engine._pool is not None
        engine.define_view("W", build_flat_view(db, DEV_CONFIG))
        assert engine._pool is None  # blueprint changed; workers respawn
        apply_price_updates(engine, db, DEV_CONFIG, round_seed=1)
        reports = engine.maintain()
        assert reports["V"].parallel and reports["W"].parallel
    assert engine._pool is None


@pytestmark_process
def test_process_backend_folds_into_database_totals():
    db = build_devices_database(DEV_CONFIG)
    with ShardedEngine(db, shards=4, backend="process") as engine:
        engine.define_view("V", build_flat_view(db, DEV_CONFIG))
        apply_price_updates(engine, db, DEV_CONFIG)
        before = db.counters.total.total
        report = engine.maintain()["V"]
        assert report.parallel
        assert db.counters.total.total - before == report.total_cost


@pytest.mark.parametrize("backend", ["fiber", "thread"])
def test_sharded_engine_rejects_unknown_backend(backend):
    """``"thread"`` was replaced by ``"inline"``, not aliased to it."""
    from repro.errors import SchemaError

    with pytest.raises(SchemaError):
        ShardedEngine(Database(), shards=2, backend=backend)


# ----------------------------------------------------------------------
# one round loop
# ----------------------------------------------------------------------
def test_sharded_engine_shares_the_base_round_loop():
    assert ShardedEngine.maintain is IdIvmEngine.maintain


@pytest.mark.parametrize(
    "engine_factory",
    [pytest.param(IdIvmEngine, id="plain")]
    + [
        pytest.param(_sharded_factory(2, backend), id=f"sharded-{backend}")
        for backend in BACKENDS
    ]
    + [
        pytest.param(EagerIvmEngine, id="eager"),
        pytest.param(TupleIvmEngine, id="tuple"),
        pytest.param(SdbtEngine, id="sdbt"),
        pytest.param(RecomputeEngine, id="recompute"),
    ],
)
def test_unknown_view_name_keeps_the_pending_batch(engine_factory):
    from repro.errors import UnknownTableError

    db = build_devices_database(DEV_CONFIG)
    engine = engine_factory(db)
    # SDBT maintains aggregates over SPJ only.
    build = build_aggregate_view if engine_factory is SdbtEngine else build_flat_view
    try:
        view = engine.define_view("V", build(db, DEV_CONFIG))
        apply_price_updates(engine, db, DEV_CONFIG)
        pending = len(engine.log.entries)
        assert pending > 0
        with pytest.raises(UnknownTableError):
            engine.maintain("nope")
        assert len(engine.log.entries) == pending
        engine.maintain()
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


# ----------------------------------------------------------------------
# one ledger of what each view absorbed: maintaining one view of several
# (i) and a view failing before its first write (ii) lose nothing, and a
# process pool at another log position re-boots at the group's cursor
# ----------------------------------------------------------------------
def _two_view_engine(backend):
    """A flat view A (parallel on the parts anchor), a γ-sum B
    (broadcast), each keeping its own state, and one batch of price
    updates pending."""
    db = build_devices_database(DEV_CONFIG)
    engine = ShardedEngine(db, shards=2, backend=backend, race_check=RACE_CHECK)
    engine.define_view("A", unhosted(build_flat_view(db, DEV_CONFIG)))
    engine.define_view("B", build_aggregate_view(db, DEV_CONFIG))
    return db, engine, apply_price_updates(engine, db, DEV_CONFIG)


def _assert_b_kept_its_entries_then_converges(db, engine, n: int) -> None:
    log = engine.log
    assert log.cursors == {"A": n, "B": 0} and len(log.entries) == n
    assert_views_at_their_cursors(engine, db)
    engine.maintain()
    assert log.cursors == {"A": n, "B": n} and log.entries == []
    assert_views_at_their_cursors(engine, db)
    apply_price_updates(engine, db, DEV_CONFIG, round_seed=1)
    assert engine.maintain()["A"].parallel
    assert_views_at_their_cursors(engine, db)
    restarts = metrics.counter("shard.pool_restarts").value
    assert restarts == (1 if engine.backend == "process" else 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_maintaining_one_view_of_several_loses_nothing(backend):
    db, engine, n = _two_view_engine(backend)
    with engine:
        assert engine.maintain("A")["A"].parallel
        _assert_b_kept_its_entries_then_converges(db, engine, n)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_view_that_fails_keeps_its_entries(backend):
    db, engine, n = _two_view_engine(backend)

    def boom(*_args, **_kwargs):
        raise RuntimeError("injected")

    with engine:
        # B's broadcast runs the coordinator's execute_script; A's shards
        # do not (inline shards run script.execute_script, process ones
        # run in the workers)
        with mock.patch.object(engine_mod, "execute_script", boom):
            with pytest.raises(RuntimeError, match="injected"):
                engine.maintain()
        _assert_b_kept_its_entries_then_converges(db, engine, n)


@pytest.mark.parametrize("backend", BACKENDS)
def test_traced_parallel_round_passes_the_trace_validator(backend, tmp_path):
    """Inline shards run in the coordinator, so their phase spans are in
    the trace and must reconcile with the view span's ``phase_counts``;
    process shards leave none, so the merged counts are stamped as
    ``phase_counts_remote`` and the validator has nothing to reconcile."""
    from repro.obs import spans as obs
    from repro.obs.trace import main, write_trace

    db = build_devices_database(DEV_CONFIG)
    with ShardedEngine(
        db, shards=2, backend=backend, race_check=RACE_CHECK
    ) as engine:
        engine.define_view("V", build_flat_view(db, DEV_CONFIG))
        apply_price_updates(engine, db, DEV_CONFIG)
        with obs.recording() as rec:
            report = engine.maintain()["V"]
    assert report.parallel
    [round_span] = rec.find(name="maintain")
    assert round_span.attrs["shards"] == 2
    [view_span] = rec.find(kind="view")
    assert view_span.attrs["route"].startswith("parallel(")
    stamped = "phase_counts" if backend == "inline" else "phase_counts_remote"
    assert stamped in view_span.attrs
    assert len({"phase_counts", "phase_counts_remote"} & set(view_span.attrs)) == 1
    shard_spans = rec.find(kind="shard")
    assert [sp.name for sp in shard_spans] == ["shard:0", "shard:1"]
    assert bool(rec.find(kind="phase")) == (backend == "inline")
    path = tmp_path / "trace.jsonl"
    write_trace(rec, str(path))
    assert main([str(path)]) == 0  # schema + phase-count reconciliation


# ----------------------------------------------------------------------
# hosted views (core.share.Hosting): a view that is a column-only π over
# another view's cache keeps nothing of its own, on both backends
# ----------------------------------------------------------------------
def _hosted_engine(factory):
    """The devices pair (V answered from Vagg's σ-join cache) and W, a π
    over the flat view F, answered from F's table; F routes parallel on
    price updates."""
    db = build_devices_database(DEV_CONFIG)
    engine = factory(db)
    for name, plan in (
        ("V", build_flat_view(db, DEV_CONFIG)),
        ("Vagg", build_aggregate_view(db, DEV_CONFIG)),
        ("F", unhosted(build_flat_view(db, DEV_CONFIG))),
        ("W", project_columns(unhosted(build_flat_view(db, DEV_CONFIG)), ("price", "pid"))),
    ):
        engine.define_view(name, plan)
    return db, engine


def _nonzero(report) -> dict:
    return {p: c.as_dict() for p, c in report.phase_counts.items() if c.total}


@pytest.mark.parametrize("backend", BACKENDS)
def test_hosted_views_cost_nothing_on_either_backend(backend):
    db, engine = _hosted_engine(lambda db: ShardedEngine(
        db, shards=2, backend=backend, race_check=RACE_CHECK
    ))
    base_db, base = _hosted_engine(IdIvmEngine)
    assert {n: h for n, (h, _) in engine.hosting.hosts.items()} == {"V": "Vagg", "W": "F"}
    with engine:
        for seed in range(3):
            apply_price_updates(engine, db, DEV_CONFIG, round_seed=seed)
            apply_price_updates(base, base_db, DEV_CONFIG, round_seed=seed)
            reports, expected = engine.maintain(), base.maintain()
            assert reports["F"].parallel
            for name in ("V", "W"):
                assert reports[name].host == expected[name].host
                assert reports[name].total_cost == 0
            for name in ("Vagg", "F"):
                assert _nonzero(reports[name]) == _nonzero(expected[name]), name
            assert_views_at_their_cursors(engine, db)
        for name, view in engine.views.items():
            assert view.table.as_set() == evaluate_plan(view.plan, db).as_set(), name
