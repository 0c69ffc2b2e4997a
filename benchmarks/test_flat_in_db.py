"""Flat-in-|DB| sweep point: a round whose access cost does not depend on
the database size must not take longer on a larger database.

The same d=20 price-update stream shape on the devices schema at 1,000
and at 10,000 parts (the size of the e2e ``devices_bigdb_d20`` workload),
compiled ∆-scripts, the aggregate view.  Access cost per round is the
same at both sizes (each updated part sits in ``fanout`` devices), so
wall time per round must be too: the pre-state is a replica rolled
forward by the log, not a copy of the database.  With the per-round
``Database.copy`` of the parent commit this ratio read 2.6.

Collected by ``make bench``, outside tier-1: it asserts on wall time.
The two engines are timed in alternating blocks so that a drifting host
slows both alike.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from repro.core import IdIvmEngine
from repro.workloads import (
    DevicesConfig,
    apply_price_updates,
    build_aggregate_view,
    build_devices_database,
)

SIZES = (1_000, 10_000)
DIFF = 20
WARMUP, BLOCKS, BLOCK_ROUNDS = 20, 6, 25
#: The ROADMAP's flat-in-|DB| invariant.
MAX_WALL_RATIO = 1.5


class _Subject:
    def __init__(self, n_parts: int) -> None:
        self.config = DevicesConfig(n_parts=n_parts, n_devices=n_parts, diff_size=DIFF)
        self.db = build_devices_database(self.config)
        self.engine = IdIvmEngine(self.db, exec_backend="compiled")
        self.engine.define_view("Vagg", build_aggregate_view(self.db, self.config))
        self.rounds = 0
        self.seconds: list[float] = []
        self.costs: list[int] = []

    def run(self, n_rounds: int, record: bool) -> None:
        for _ in range(n_rounds):
            apply_price_updates(self.engine, self.db, self.config, round_seed=self.rounds)
            self.rounds += 1
            started = perf_counter()
            reports = self.engine.maintain()
            spent = perf_counter() - started
            if record:
                self.seconds.append(spent)
                self.costs.append(sum(r.total_cost for r in reports.values()))


def test_round_time_is_flat_in_database_size():
    small, large = (_Subject(n) for n in SIZES)
    for subject in (small, large):
        subject.run(WARMUP, record=False)
    for _ in range(BLOCKS):
        for subject in (small, large):
            subject.run(BLOCK_ROUNDS, record=True)
    cost_ratio = statistics.mean(large.costs) / statistics.mean(small.costs)
    wall_ratio = statistics.median(large.seconds) / statistics.median(small.seconds)
    print(
        f"\nflat-in-|DB|: {SIZES[0]} -> {SIZES[1]} parts at d={DIFF}: "
        f"accesses/round x{cost_ratio:.2f}, median round "
        f"{statistics.median(small.seconds) * 1e3:.2f} -> "
        f"{statistics.median(large.seconds) * 1e3:.2f} ms (x{wall_ratio:.2f})"
    )
    # the premise: the access cost does not grow with the database ...
    assert 0.8 <= cost_ratio <= 1.2
    # ... so neither may the wall clock.
    assert wall_ratio <= MAX_WALL_RATIO
