"""The base tables each view reads in ``Input_pre``: the replica an engine
keeps holds their union and no other table.

Pinned per shipped view and rule set, and shown complete: a seeded
stream that deletes and updates the tables Q11 and Q18 read in
pre-state keeps every BSMA view equal to its recomputation on the
restricted replica, and a set that leaves a table out fails the round
loudly instead of reading the post-state.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro.algebra import evaluate_plan, group_by
from repro.baselines import SdbtEngine, TupleIvmEngine
from repro.cli import lint_targets
from repro.core import IdIvmEngine
from repro.core.script import ComputeDiffStep
from repro.errors import PlanError, UnknownTableError
from repro.expr import col
from repro.storage import Table
from repro.workloads import (
    BSMA_QUERIES,
    BsmaConfig,
    DevicesConfig,
    build_bsma_database,
    build_devices_database,
    build_flat_view,
    log_user_updates,
)
from repro.workloads.devices import log_batch, mixed_modification_batch

DEVICES = {"devices", "devices_parts", "parts"}

ENGINES = {
    "id": IdIvmEngine,
    # no intermediate cache: a γ completes its i-diffs by Input_pre probes
    "id_no_caches": lambda db: IdIvmEngine(db, cache_policy="never"),
    "tuple": TupleIvmEngine,
    "sdbt": SdbtEngine,
}

#: view -> the tables its script reads in pre-state, per engine
PINNED = {
    "id": {
        "devices/flat": set(),
        "devices/aggregate": set(),
        "bsma/Q*1": set(),
        "bsma/Q*2": set(),
        "bsma/Q*3": set(),
        "bsma/Q7": set(),
        "bsma/Q10": set(),
        "bsma/Q11": {"retweets"},
        "bsma/Q15": set(),
        "bsma/Q18": {"mentions"},
    },
    "id_no_caches": {
        "devices/flat": set(),
        "devices/aggregate": DEVICES,
        "bsma/Q*1": {"friendlist", "users"},
        "bsma/Q*2": {"microblog", "retweets", "users"},
        "bsma/Q*3": {"microblog", "rel_event_microblog", "users"},
        "bsma/Q7": {"mentions", "microblog"},
        "bsma/Q10": {"microblog", "retweets", "users"},
        "bsma/Q11": {"retweets"},
        "bsma/Q15": set(),
        "bsma/Q18": {"mentions"},
    },
    "tuple": {
        "devices/flat": DEVICES,
        "devices/aggregate": DEVICES,
        "bsma/Q*1": {"friendlist", "users"},
        "bsma/Q*2": {"microblog", "retweets", "users"},
        "bsma/Q*3": {"microblog", "rel_event_microblog", "users"},
        "bsma/Q7": {"mentions", "microblog", "users"},
        "bsma/Q10": {"microblog", "retweets", "users"},
        "bsma/Q11": {"retweets", "users"},
        "bsma/Q15": {"microblog", "rel_event_microblog", "users"},
        "bsma/Q18": {"mentions", "users"},
    },
    # SDBT takes aggregates over SPJ only, and reads all of their tables
    "sdbt": {"devices/aggregate": DEVICES},
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_every_shipped_view_declares_its_pinned_pre_state_tables(kind):
    pinned = PINNED[kind]
    labels = []
    for label, plan, db in lint_targets():
        labels.append(label)
        engine = ENGINES[kind](db.copy())
        if label not in pinned:
            with pytest.raises(PlanError):
                engine.define_view("v", plan)
            continue
        view = engine.define_view("v", plan)
        assert view.pre_tables == pinned[label], label
        assert engine._pre.tables == pinned[label], label
    assert set(pinned) <= set(labels)


CONFIG = BsmaConfig(n_users=40, friends_per_user=4, n_tweets=80)


def _churn(engine, db, rng: random.Random, fresh: list[int]) -> None:
    """One round of deletes, updates and inserts on ``retweets`` and
    ``mentions`` (the tables Q11 and Q18 read in pre-state) plus the
    paper's user updates."""
    log = engine.log
    for table in ("retweets", "mentions"):
        keys = sorted(db.table(table).rows_uncounted())
        for row in rng.sample(keys, 3):
            log.delete(table, row[:1])
        keys = sorted(db.table(table).rows_uncounted())
        for row in rng.sample(keys, 4):
            column = rng.choice(("mid", "uid"))
            limit = CONFIG.n_tweets if column == "mid" else CONFIG.n_users
            log.update(table, row[:1], {column: rng.randrange(limit)})
        fresh[0] += 1
        row = (10_000 + fresh[0], rng.randrange(CONFIG.n_tweets), rng.randrange(CONFIG.n_users))
        log.insert(table, row + ((rng.randrange(1000),) if table == "retweets" else ()))
    log_user_updates(engine, db, CONFIG, n_updates=5, round_seed=rng.randrange(1000))


def test_a_churned_stream_keeps_every_view_exact_on_the_restricted_replica():
    db = build_bsma_database(CONFIG)
    engine = IdIvmEngine(db)
    views = [
        engine.define_view(name, make(db, CONFIG)) for name, make in sorted(BSMA_QUERIES.items())
    ]
    assert engine._pre.tables == {"retweets", "mentions"}
    replica_reads = []
    real_lookup = Table.lookup

    def spy(self, *args, **kwargs):
        if engine._pre.db is not None and self in engine._pre.db.tables.values():
            replica_reads.append(self.name)
        return real_lookup(self, *args, **kwargs)

    rng, fresh = random.Random(7), [0]
    with mock.patch.object(Table, "lookup", spy):
        for _ in range(6):
            _churn(engine, db, rng, fresh)
            engine.maintain()
            assert set(engine._pre.db.tables) == {"retweets", "mentions"}
            for view in views:
                assert view.table.as_set() == evaluate_plan(view.plan, db).as_set(), view.name
    # the stream reaches both views' pre-state reads
    assert set(replica_reads) == {"retweets", "mentions"}


@pytest.mark.parametrize("func", ["sum", "max"])
def test_a_cacheless_aggregate_declares_its_child_and_stays_exact(func):
    """The γ steps' own declaration: without an input cache, both the
    associative (sum) and the recompute (max) rule complete their i-diffs
    by probing the child in pre-state."""
    config = DevicesConfig(n_parts=60, n_devices=60, fanout=3, diff_size=12)
    db = build_devices_database(config)
    engine = IdIvmEngine(db, cache_policy="never")
    plan = group_by(build_flat_view(db, config), ("did",), [(func, col("price"), "agg")])
    view = engine.define_view("G", plan)
    assert view.pre_tables == DEVICES
    for number in range(4):
        log_batch(engine, mixed_modification_batch(db, config, 8, 4, 3, round_seed=number))
        engine.maintain()
        assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()


def test_a_set_that_leaves_a_table_out_fails_the_round_loudly():
    db = build_bsma_database(CONFIG)
    engine = IdIvmEngine(db)
    with mock.patch.object(ComputeDiffStep, "pre_tables", lambda self: frozenset()):
        view = engine.define_view("Q11", BSMA_QUERIES["Q11"](db, CONFIG))
    assert engine._pre.tables == frozenset()
    before = view.table.as_set()
    # moving a retweet to another tweet re-pairs it: the join's update
    # branch probes the other side's pre-state
    for rwid, mid, _, _ in sorted(db.table("retweets").rows_uncounted())[:3]:
        engine.log.update("retweets", (rwid,), {"mid": (mid + 1) % CONFIG.n_tweets})
    with pytest.raises(UnknownTableError, match="retweets"):
        engine.maintain()
    assert view.table.as_set() == before
