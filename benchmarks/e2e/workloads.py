"""The five maintenance workloads and how each is built.

Four of them are single-process and are the ones ``BENCHMARK.json``
lists (``GATED``); ``devices_sharded_p2_d400`` runs three processes on a
two-core machine, so its timings measure the scheduler as much as the
program, and it runs in the suite only.

Only ``repro``'s public surface is used: the schema/view builders of
``repro.workloads``, the engine constructors and ``define_view``.  Each
workload's ``why`` is the reason it exists; the README carries the long
form and the table of which layer metric should move on which workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from loadgen import Batch, DevicesBatch, DevicesShadow, bsma_rounds, devices_rounds

#: ``--seconds`` value the round counts below are sized for.  Rounds are
#: fixed, not time-boxed, so count metrics repeat exactly; another
#: ``--seconds`` scales the count proportionally (same value, same count).
DEFAULT_SECONDS = 20

#: p95 needs at least ten samples beyond it.
MIN_TIMED_ROUNDS = 200
SMOKE_DIVISOR = 20
SMOKE_MIN_ROUNDS = 20
#: devices_parts rows per part (the paper's f), on every devices workload.
FANOUT = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str                       # "devices" | "bsma"
    rounds: int                       # timed rounds at DEFAULT_SECONDS
    views: tuple[str, ...]
    n_rows: int                       # parts == devices (devices) / users (bsma)
    batch: Optional[DevicesBatch] = None
    bsma_updates: int = 0
    shards: int = 0                   # 0 = plain IdIvmEngine
    ref_every: int = 1                # rounds per host reference slice (~25 ms)

    # ------------------------------------------------------------------
    def sized(self, seconds: float, smoke: bool) -> "Workload":
        """The workload at the requested run length / smoke scale."""
        rounds = round(self.rounds * seconds / DEFAULT_SECONDS)
        if not smoke:
            return replace(self, rounds=max(MIN_TIMED_ROUNDS, rounds))
        n_rows = max(40, self.n_rows // SMOKE_DIVISOR)
        batch = self.batch
        if batch is not None and batch.updates > n_rows // 10:
            batch = replace(batch, updates=n_rows // 10)
        return replace(
            self,
            rounds=max(SMOKE_MIN_ROUNDS, rounds // SMOKE_DIVISOR),
            n_rows=n_rows,
            batch=batch,
        )

    @property
    def warmup_rounds(self) -> int:
        return max(5, self.rounds // 20)

    @property
    def traced_rounds(self) -> int:
        return max(5, self.rounds // 4)

    # ------------------------------------------------------------------
    def build_database(self, seed: int):
        if self.family == "devices":
            from repro.workloads import build_devices_database

            return build_devices_database(self._devices_config(seed))
        from repro.workloads import build_bsma_database

        return build_bsma_database(self._bsma_config(seed))

    def view_plans(self, db, seed: int) -> dict:
        if self.family == "devices":
            from repro.workloads import build_aggregate_view, build_flat_view

            config = self._devices_config(seed)
            builders = {"V": build_flat_view, "Vagg": build_aggregate_view}
            return {name: builders[name](db, config) for name in self.views}
        from repro.workloads import BSMA_QUERIES

        config = self._bsma_config(seed)
        return {name: BSMA_QUERIES[name](db, config) for name in self.views}

    def make_engine(self, db):
        """Production defaults, compiled ∆-scripts."""
        if self.shards:
            from repro.core import ShardedEngine

            return ShardedEngine(
                db, shards=self.shards, backend="process", exec_backend="compiled"
            )
        from repro.core import IdIvmEngine

        return IdIvmEngine(db, exec_backend="compiled")

    def generate_rounds(self, db, seed: int, n_rounds: int) -> list[Batch]:
        """All batches for one run, from the freshly built *db*'s rows.

        The generator seed does not depend on the workload name, so two
        workloads with the same database and batch shape get the same
        stream (``devices_bigdiff_d400`` / ``devices_sharded_p2_d400``).
        """
        rng = random.Random(seed * 1_000_003 + 17)
        if self.family == "devices":
            shadow = DevicesShadow(
                db.table("parts").rows_uncounted(),
                db.table("devices_parts").rows_uncounted(),
                [row[0] for row in db.table("devices").rows_uncounted()],
            )
            return devices_rounds(shadow, rng, n_rounds, self.batch, FANOUT)
        return bsma_rounds(
            db.table("users").rows_uncounted(), rng, n_rounds, self.bsma_updates
        )

    # ------------------------------------------------------------------
    def _devices_config(self, seed: int):
        from repro.workloads import DevicesConfig

        return DevicesConfig(
            n_parts=self.n_rows,
            n_devices=self.n_rows,
            diff_size=self.batch.updates,
            fanout=FANOUT,
            seed=seed,
        )

    def _bsma_config(self, seed: int):
        from repro.workloads import BsmaConfig

        scale = self.n_rows / 1_000
        return BsmaConfig(
            n_users=self.n_rows,
            n_tweets=int(4_000 * scale),
            n_events=max(5, int(50 * scale)),
            seed=seed,
        )


_BIGDIFF = Workload(
    name="devices_bigdiff_d400",
    why="Large diff on a small database: delta-script compute and APPLY "
        "dominate, the pre-state copy is a few percent; the bypass "
        "workload for an O(|DB|)-per-round fix.",
    family="devices",
    rounds=350,
    views=("V", "Vagg"),
    n_rows=4_000,
    batch=DevicesBatch(updates=400),
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="devices_bigdb_d20",
            why="Small diff on a large database: access cost is flat in "
                "|DB|, so any O(|DB|) per-round term (pre-state copy, its "
                "deallocation, GC) dominates the round.",
            family="devices",
            rounds=2_000,
            views=("Vagg",),
            n_rows=10_000,
            batch=DevicesBatch(updates=20),
            ref_every=5,
        ),
        Workload(
            name="bsma_8views_d5",
            why="Eight views, tiny diffs: per-view fixed costs (log fold "
                "per view, dispatch, telemetry lookups) dominate; database "
                "and diff size do not.",
            family="bsma",
            rounds=1_200,
            views=("Q7", "Q10", "Q11", "Q15", "Q18", "Q*1", "Q*2", "Q*3"),
            n_rows=1_000,
            bsma_updates=5,
            ref_every=4,
        ),
        _BIGDIFF,
        Workload(
            name="devices_churn_m98",
            why="Same database and views as bigdiff but inserts and deletes: "
                "base-table probes, insert/delete APPLY with index "
                "maintenance, insert-then-update log folding.",
            family="devices",
            rounds=220,
            views=("V", "Vagg"),
            n_rows=4_000,
            batch=DevicesBatch(
                updates=10, new_parts=4, removed_parts=4, updates_on_new=2
            ),
        ),
        replace(
            _BIGDIFF,
            name="devices_sharded_p2_d400",
            why="Byte-identical stream to bigdiff on ShardedEngine(shards=2, "
                "process): the only workload where wire encoding, worker "
                "IPC and write-set replay do any work.",
            shards=2,
        ),
    )
}

#: The workloads BENCHMARK.json lists: one process each.
GATED = tuple(name for name, w in WORKLOADS.items() if not w.shards)
