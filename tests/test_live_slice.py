"""Live-slice rounds (:meth:`repro.core.script.DeltaScript.live_plan`).

A round runs the statements its non-empty base i-diff instances can
reach and nothing else.  Pinned here: *what* runs, by call count; that a
sliced round is indistinguishable from the full plan — rows, per-phase
counts, ``diff_sizes`` with their zeros, cache states — on every path
that shares the statement loop; and what drops the memoised slices.
"""

from __future__ import annotations

import itertools
import pickle
import random

import pytest

import repro.core.engine as engine_mod
import repro.core.script as script_mod
from repro.algebra.evaluate import evaluate_plan
from repro.core import EagerIvmEngine, IdIvmEngine, ShardedEngine
from repro.core.compile import bind_kernels
from repro.core.engine import round_context
from repro.core.modlog import populate_instances
from repro.core.script import (
    SLICE_MEMO_MAX,
    ApplyDiffStep,
    ComputeDiffStep,
    DeltaScript,
    MarkCacheUpdatedStep,
    ScriptSamples,
    step_liveness,
)
from repro.obs import SpanRecorder, metrics, recording
from repro.storage import CounterSet
from repro.workloads import (
    BSMA_QUERIES,
    BsmaConfig,
    DevicesConfig,
    build_aggregate_view,
    build_bsma_database,
    build_devices_database,
    build_flat_view,
    log_user_updates,
)
from repro.workloads.devices import log_batch, mixed_modification_batch
from tests.conftest import unhosted

DEV_CONFIG = DevicesConfig(n_parts=80, n_devices=80, diff_size=24)
BSMA_CONFIG = BsmaConfig(n_users=150)


def _define_bsma(engine, db):
    return {
        name: engine.define_view(name, build(db, BSMA_CONFIG))
        for name, build in BSMA_QUERIES.items()
    }


def _record_runners(view, executed):
    """Rebind every statement of *view*'s script — kernels, APPLYs, γ
    steps, cache marks — to a wrapper noting its 0-based script index."""
    script = view.script

    def recording(index, run):
        def runner(ctx):
            executed.append((view.name, index))
            return run(ctx)

        return runner

    script.bind_kernels(
        {i: recording(i, run) for i, (run, _phase) in enumerate(script.exec_plan())}
    )


def _steps(live):
    """``(script index, run, phase)`` of everything a slice runs, in
    script order, flattened from its phase runs; phase ``None`` marks a
    skipped statement's ``settle``."""
    return [
        (i, run, phase if statement else None)
        for phase, _seconds, steps in live.runs
        for i, run, statement in steps
    ]


def _phase_runs(live):
    """The phases a slice opens: one per contiguous run of live statements."""
    phases = [phase for _i, _run, phase in _steps(live) if phase is not None]
    return [phase for phase, _ in itertools.groupby(phases)]


# ----------------------------------------------------------------------
# (a) what runs, by call count
# ----------------------------------------------------------------------
def test_users_only_round_runs_only_what_users_diffs_reach(monkeypatch):
    db = build_bsma_database(BSMA_CONFIG)
    engine = IdIvmEngine(db)
    views = _define_bsma(engine, db)
    executed: list[tuple[str, int]] = []
    for view in views.values():
        _record_runners(view, executed)
    applies: list[int] = []
    real_apply = script_mod.apply_diff
    monkeypatch.setattr(
        script_mod, "apply_diff",
        lambda table, diff, *rest: applies.append(len(diff)) or real_apply(table, diff, *rest),
    )
    opened: list[str] = []
    real_phase = CounterSet.phase
    monkeypatch.setattr(
        CounterSet, "phase",
        lambda self, name: opened.append(name) or real_phase(self, name),
    )
    slices = []
    real_live_plan = DeltaScript.live_plan

    def spying_live_plan(self, mask, ctx):
        live = real_live_plan(self, mask, ctx)
        slices.append((self, mask, live))
        return live

    monkeypatch.setattr(DeltaScript, "live_plan", spying_live_plan)

    log_user_updates(engine, db, BSMA_CONFIG, 5)
    reports = engine.maintain()

    total = ran_applies = 0
    for (name, view), (script, mask, live) in zip(views.items(), slices):
        assert script is view.script
        assert mask and all("_users" in instance for instance in mask), name
        liveness = script.liveness()
        expected = [
            i for i, reach in enumerate(liveness)
            if reach is None or not reach.isdisjoint(mask)
        ]
        # a statement another view computed this round is bound, not run
        # again (core.share): it ran as a reused statement
        names = [getattr(step, "name", None) for step in script.steps]
        reused = [names.index(stmt) for stmt, _lender in reports[name].reused]
        assert all(i in script._shared for i in reused), name
        ran = sorted([i for view_name, i in executed if view_name == name] + reused)
        # exactly the reachable statements, in script order — none whose
        # liveness set lacks a users instance (a tweets-only statement,
        # say), and no reachable one dropped
        assert ran == expected, name
        assert len(ran) < len(script) / 2, name
        for i in ran:
            assert liveness[i] is None or any("_users" in n for n in liveness[i])
        assert live.skipped == len(script) - len(ran)
        total += len(script)
        ran_applies += sum(isinstance(script.steps[i], ApplyDiffStep) for i in ran)
    assert total == sum(len(view.script) for view in views.values())
    assert len(applies) == ran_applies < 30
    # one increment per view-round, by the statements it skipped
    assert metrics.counter("script.stmts_skipped").value == sum(
        live.skipped for _script, _mask, live in slices
    )
    assert metrics.histogram("script.stmt_diff_rows").count == sum(
        isinstance(step, (ComputeDiffStep, ApplyDiffStep))
        for view in views.values() for step in view.script.steps
    )
    # no phase is opened for a run of statements that are all skipped
    assert opened == [
        phase for _script, _mask, live in slices for phase in _phase_runs(live)
    ]
    for view in views.values():
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


@pytest.mark.parametrize(
    "factory",
    [
        IdIvmEngine,
        lambda db: IdIvmEngine(db, exec_backend="interp"),
        EagerIvmEngine,
        lambda db: ShardedEngine(db, shards=2),
    ],
    ids=["compiled", "interp", "eager", "sharded_inline"],
)
def test_empty_round_runs_no_compute_apply_or_aggregate_statement(factory):
    db = build_bsma_database(BSMA_CONFIG)
    engine = factory(db)
    views = _define_bsma(engine, db)
    executed: list[tuple[str, int]] = []
    for view in views.values():
        _record_runners(view, executed)
    reports = engine.maintain()
    assert set(reports) == set(views)
    # an empty range leaves every view an idle round: not even a cache
    # mark runs, and the report has no phase and no diff to size
    assert executed == []
    for name in views:
        assert reports[name].total_cost == 0
        assert reports[name].phase_counts == {} and reports[name].diff_sizes == {}


@pytest.mark.parametrize(
    "make_engine",
    [
        IdIvmEngine,
        lambda db: ShardedEngine(db, shards=2),
        lambda db: ShardedEngine(db, shards=2, backend="process"),
    ],
    ids=["single", "inline", "process"],
)
def test_view_span_carries_the_slice_on_every_path(make_engine):
    """The engine stamps the ``view:`` span it holds — not whichever span
    happens to enclose the execution — so a parallel round whose
    statements run under ``shard:`` spans, or in another process, reports
    its slice all the same."""
    db = build_devices_database(DEV_CONFIG)
    engine = make_engine(db)
    try:
        view = engine.define_view("V", build_flat_view(db, DEV_CONFIG))
        log_batch(engine, mixed_modification_batch(
            db, DEV_CONFIG, updates=8, inserts=0, deletes=0, round_seed=0
        ))
        recorder = SpanRecorder()
        with recording(recorder):
            report = engine.maintain()["V"]
        if isinstance(engine, ShardedEngine):
            assert report.parallel
        script = view.script
        mask = {name for name in script.leaves() if report.diff_sizes[name]}
        assert mask
        expected = sum(
            live is None or not live.isdisjoint(mask) for live in script.liveness()
        )
        (view_span,) = recorder.find(kind="view")
        assert view_span.attrs["stmts_live"] == expected < len(script)
        assert view_span.attrs["stmts_total"] == len(script)
        assert all("stmts_live" not in sp.attrs for sp in recorder.find(kind="shard"))
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


# ----------------------------------------------------------------------
# (b) a sliced round equals the full plan
# ----------------------------------------------------------------------
def _bsma_mixed_round(engine, db, rng):
    """Seeded inserts, updates and deletes across the BSMA tables (leaf
    rows only are deleted, so no foreign key dangles)."""
    log = engine.log
    users = db.table("users").rows_uncounted()
    for uid, city, tweets, favor in rng.sample(users, 6):
        log.update("users", (uid,), rng.choice([
            {"tweetsnum": tweets + rng.randint(1, 5)},
            {"favornum": favor + 1, "tweetsnum": tweets + 1},
            {"city": (city + 1) % BSMA_CONFIG.n_cities},
        ]))
    mids = [row[0] for row in db.table("microblog").rows_uncounted()]
    uids = [row[0] for row in users]
    fresh_rows = {
        "retweets": lambda k: (k, rng.choice(mids), rng.choice(uids), rng.randrange(1000)),
        "mentions": lambda k: (k, rng.choice(mids), rng.choice(uids)),
        "rel_event_microblog": lambda k: (
            k, rng.randrange(BSMA_CONFIG.n_events), rng.choice(mids)
        ),
    }
    for table, fresh_row in fresh_rows.items():
        rows = db.table(table).rows_uncounted()
        for row in rng.sample(rows, 2):
            log.delete(table, (row[0],))
        next_key = max(row[0] for row in rows) + 1
        for offset in range(2):
            log.insert(table, fresh_row(next_key + offset))
    mid = max(mids) + 1
    log.insert("microblog", (mid, rng.choice(uids), rng.randrange(1000), 0))
    log.update("microblog", (rng.choice(mids),), {"topic": rng.randrange(BSMA_CONFIG.n_topics)})


def _zero_filtered(report):
    return {
        name: counts.as_dict()
        for name, counts in report.phase_counts.items()
        if counts.total or counts.index_maintenance
    }


def _run_family(family, make_engine, monkeypatch, rounds=3):
    """Rows, per-phase counts, diff sizes and end-of-round cache states
    of every view, per round, over seeded mixed modification batches."""
    if family == "devices":
        db = build_devices_database(DEV_CONFIG)
        plans = {
            "V": unhosted(build_flat_view(db, DEV_CONFIG)),
            "Vagg": build_aggregate_view(db, DEV_CONFIG),
        }
    else:
        db = build_bsma_database(BSMA_CONFIG)
        plans = {name: build(db, BSMA_CONFIG) for name, build in BSMA_QUERIES.items()}
    engine = make_engine(db)
    cache_states: list[dict] = []
    real_execute = script_mod.execute_script

    def execute_and_keep_state(script, ctx):
        out = real_execute(script, ctx)
        cache_states.append(dict(ctx.cache_state))
        return out

    # engine.py holds it by name; the inline shard loop imports it from
    # the script module at call time
    monkeypatch.setattr(engine_mod, "execute_script", execute_and_keep_state)
    monkeypatch.setattr(script_mod, "execute_script", execute_and_keep_state)
    try:
        views = {name: engine.define_view(name, plan) for name, plan in plans.items()}
        rng = random.Random(7)
        out = []
        for r in range(rounds):
            if family == "devices":
                log_batch(engine, mixed_modification_batch(
                    db, DEV_CONFIG, updates=8, inserts=5, deletes=3, round_seed=r
                ))
            else:
                _bsma_mixed_round(engine, db, rng)
            del cache_states[:]
            reports = engine.maintain()
            out.append((
                {
                    name: (
                        sorted(view.table.rows_uncounted()),
                        _zero_filtered(reports[name]),
                        dict(reports[name].diff_sizes),
                    )
                    for name, view in views.items()
                },
                list(cache_states),
            ))
        for view in views.values():
            assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()
        return out
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


@pytest.mark.parametrize("exec_backend", ["compiled", "interp"])
@pytest.mark.parametrize("family", ["devices", "bsma"])
def test_sliced_rounds_equal_the_full_plan(family, exec_backend, monkeypatch):
    """The reference is the same engine with its slice lookup answering
    the all-names mask — the full plan, every statement run — patched
    here, in the test: production has no such switch."""
    with monkeypatch.context() as patch:
        patch.setattr(DeltaScript, "live_mask", lambda self, diffs: self.leaves())
        full = _run_family(
            family, lambda db: IdIvmEngine(db, exec_backend=exec_backend), patch
        )
    engines = {
        "single": lambda db: IdIvmEngine(db, exec_backend=exec_backend),
        "inline": lambda db: ShardedEngine(db, shards=2, exec_backend=exec_backend),
        "process": lambda db: ShardedEngine(
            db, shards=2, backend="process", exec_backend=exec_backend
        ),
    }
    for path, make_engine in engines.items():
        with monkeypatch.context() as patch:
            sliced = _run_family(family, make_engine, patch)
        for (views_f, states_f), (views_s, states_s) in zip(full, sliced):
            for name, (rows_f, counts_f, sizes_f) in views_f.items():
                rows_s, counts_s, sizes_s = views_s[name]
                assert rows_s == rows_f, (path, name)
                assert counts_s == counts_f, (path, name)
                # zero entries included: same names, same sizes
                assert sizes_s == sizes_f, (path, name)
                assert 0 in sizes_s.values()
            if path == "single":
                assert states_s == states_f


def test_full_plan_mask_runs_every_statement():
    db = build_devices_database(DEV_CONFIG)
    engine = IdIvmEngine(db)
    view = engine.define_view("V", build_aggregate_view(db, DEV_CONFIG))
    script = view.script
    empty = populate_instances(view.instance_layout, [], db)
    ctx = round_context(db, db, empty, view, set(), ScriptSamples())
    live = script.live_plan(script.leaves(), ctx)
    assert live.skipped == 0 and not live.idle_diffs and not live.idle_expansions
    assert [(run, phase) for _i, run, phase in _steps(live)] == script.exec_plan()
    assert [i for i, _run, _phase in _steps(live)] == list(range(1, len(script) + 1))


# ----------------------------------------------------------------------
# (c) what drops the memo, and its bound
# ----------------------------------------------------------------------
def _one_round(engine, db, seed):
    log_batch(engine, mixed_modification_batch(
        db, DEV_CONFIG, updates=4, inserts=2, deletes=1, round_seed=seed
    ))
    return engine.maintain()


def test_rebinding_and_pickling_drop_the_memoised_slices():
    db = build_devices_database(DEV_CONFIG)
    engine = IdIvmEngine(db)
    view = engine.define_view("V", build_aggregate_view(db, DEV_CONFIG))
    script = view.script
    assert script._slices == {}
    _one_round(engine, db, 0)
    assert script._slices
    kernels = set(script._kernels.values())
    assert any(run in kernels for live in script._slices.values() for _, run, _ in _steps(live))
    # a pickle round trip carries no slice (they hold the kernels) ...
    clone = pickle.loads(pickle.dumps(view.generated))
    assert clone.script._slices == {} and not clone.script._kernels
    assert clone.script.liveness() == script.liveness()
    # ... and re-binding drops the ones resolved from the old kernels
    bind_kernels(script, "interp")
    assert script._slices == {}
    _one_round(engine, db, 1)
    assert script._slices
    assert all(
        run.__self__ is script.steps[i - 1]
        for live in script._slices.values() for i, run, _ in _steps(live)
    )
    assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


def test_memo_stays_under_its_bound_for_many_masks():
    db = build_bsma_database(BSMA_CONFIG)
    engine = IdIvmEngine(db)
    view = engine.define_view("Q10", BSMA_QUERIES["Q10"](db, BSMA_CONFIG))
    script = view.script
    leaves = sorted(script.leaves())
    assert 2 ** len(leaves) > 300
    empty = populate_instances(view.instance_layout, [], db)
    ctx = round_context(db, db, empty, view, set(), ScriptSamples())
    rng = random.Random(3)
    masks = set()
    while len(masks) < 300:
        masks.add(frozenset(rng.sample(leaves, rng.randint(0, len(leaves)))))
    for mask in masks:
        live = script.live_plan(mask, ctx)
        assert len(script._slices) <= SLICE_MEMO_MAX
        assert script.live_plan(mask, ctx) is live  # memoised
        ran = {i - 1 for i, _run, phase in _steps(live) if phase is not None}
        assert ran == {
            i for i, reach in enumerate(script.liveness())
            if reach is None or not reach.isdisjoint(mask)
        }


# ----------------------------------------------------------------------
# the closure itself
# ----------------------------------------------------------------------
class TestStepLiveness:
    def test_closes_over_the_def_use_graph(self):
        db = build_devices_database(DEV_CONFIG)
        engine = IdIvmEngine(db)
        view = engine.define_view("V", build_aggregate_view(db, DEV_CONFIG))
        script = view.script
        liveness = script.liveness()
        assert liveness == step_liveness(script.steps)
        names = {name for name in view.instance_layout.names}
        assert script.leaves() <= names
        reach: dict = {}
        for step, live in zip(script.steps, liveness):
            if isinstance(step, MarkCacheUpdatedStep):
                assert live is None
                continue
            assert live is not None and live <= names
            for key in step.reads():
                # a statement is driven by whatever drives its inputs
                assert reach.get(key, frozenset((key[1],))) <= live
            for key in step.binds():
                reach[key] = live

    def test_what_cannot_be_proven_idle_stays_live(self):
        from repro.core.diffs import UPDATE, DiffSchema
        from repro.core.diffs import Diff
        from repro.core.ir import AppliedSource, DiffSource

        schema = DiffSchema(UPDATE, "V", ("pid",), ("price",), ("price",))

        def compute(name, source):
            return ComputeDiffStep(name, schema, DiffSource(source, schema), "view_diff")

        unconditional = ComputeDiffStep(
            "ret", schema, AppliedSource("ret_b", ("pid",), ("price",)), "view_diff"
        )
        steps = [
            compute("a", "base"),                 # leaf-driven
            compute("b", "a"),                    # through the graph
            compute("early", "late"),             # reads a name bound later
            compute("late", "base"),
            compute("twice", "base"),             # bound twice: both live
            compute("twice", "a"),
            ApplyDiffStep("b", 0, "view[V]", "view_update", returning_name="ret_b"),
            ApplyDiffStep("nowhere", 0, "view[V]", "view_update"),
            unconditional,                        # not diff-driven
            compute("c", "ret"),                  # ... nor what reads it
        ]
        assert step_liveness(steps) == [
            frozenset({"base"}),
            frozenset({"base"}),
            None,
            frozenset({"base"}),
            None,
            None,
            frozenset({"base"}),
            frozenset({"nowhere"}),
            None,
            None,
        ]
        # a leaf missing from the round's environment is in the mask, so
        # the statement reading it runs — and raises as it always did
        script = DeltaScript(steps[:2] + steps[7:8], view_node_id=0)
        assert script.live_mask({"base": Diff(schema, [])}) == {"nowhere"}
        assert script.live_mask({"base": Diff(schema, [("P1", 1, 2)])}) == {"base", "nowhere"}


def test_explain_prints_what_each_base_idiff_reaches(capsys):
    import re

    from repro.cli import main

    sql = (
        "SELECT did, SUM(price) AS cost FROM parts NATURAL JOIN devices_parts "
        "NATURAL JOIN devices WHERE category = 'phone' GROUP BY did"
    )
    assert main(["explain", "--sql", sql]) == 0
    out = capsys.readouterr().out
    reach = {
        name: (int(n), int(total))
        for name, n, total in re.findall(r"^  (base_\w+): (\d+) of (\d+)$", out, re.M)
    }
    assert "base_u_parts__price" in reach and "base_ins_devices_parts" in reach
    assert all(0 < n < total for n, total in reach.values())
    assert "always live: 1" in out
