"""Shard-parallel maintenance scaling, inline AND process backends.

What this measures — and what it honestly can and cannot.  The devices
flat view under price updates routes *parallel* (anchor ``parts``)
every round, so the sharded engine runs N shards over disjoint i-diff
row partitions.  Both backends execute a shard through the same
``run_shard`` and merge the results through the same code; they differ
in where the shard runs.

* **Inline backend**: the shards run one after another in the
  coordinator, so a round's wall clock is the *sum* of its shards; the
  asserted scaling metric is the access-count *critical path* (the
  busiest shard's total — the cost a worker pays on real parallel
  hardware).
* **Process backend**: long-lived worker processes each own their
  anchor-key row subsets and execute on their own interpreter, so the
  shards can overlap in time — but only with real cores, and only
  after paying the wire/IPC round trip.  A ``>= 1.5x at 4 shards``
  assertion exists, gated on ``effective_cpus >= 4``
  (``os.sched_getaffinity``); it has never executed against the
  committed baseline (recorded on fewer cores, every point below 1x).
  On smaller hosts the measurement is recorded, not asserted.

Correctness is asserted in full on every backend: view contents
byte-identical across every (backend, shard count) and equal to the
recompute oracle, and merged per-phase access counts reconciling
*exactly* with the single-shard run — no duplicated, no lost work.

Per-round wall clocks are recorded as ``unit="seconds"`` LogHistograms
(one per backend/shard-count point), which the perf gate compares with
its wall slack while holding the observation counts exact.
"""

from __future__ import annotations

import os
import statistics
import time
from functools import lru_cache

from conftest import write_bench_json

from repro.algebra.evaluate import evaluate_plan
from repro.core import IdIvmEngine, ShardedEngine
from repro.obs.hist import LogHistogram
from repro.workloads import DevicesConfig, apply_price_updates, build_devices_database
from repro.workloads.devices import build_flat_view

#: (backend, shard count) measurement grid.  The process backend stops
#: at 4 shards: spawning 8 interpreters on small CI hosts costs more
#: than the extra data point tells us.
POINTS = tuple(
    [("inline", n) for n in (1, 2, 4, 8)] + [("process", n) for n in (1, 2, 4)]
)

#: Maintenance rounds per point.  Round 0 pays one-time costs (process
#: pool spawn + blueprint boot), so warm-round statistics use rounds 1+.
ROUNDS = 4

#: Large enough that a warm maintenance round costs tens of
#: milliseconds — per-round ∆-script work must dominate the process
#: backend's wire/IPC overhead for the speedup measurement to be about
#: parallelism rather than serialization.
CONFIG = DevicesConfig(n_parts=2400, n_devices=2400, diff_size=480)

EFFECTIVE_CPUS = len(os.sched_getaffinity(0))

#: Required warm wall-clock speedup of the 4-shard process backend over
#: the single-shard engine — asserted only with >= 4 usable cores.
SPEEDUP_TARGET = 1.5


def _run_rounds(engine_factory):
    """ROUNDS maintenance rounds of the flat view on a fresh engine."""
    db = build_devices_database(CONFIG)
    engine = engine_factory(db)
    try:
        view = engine.define_view("V", build_flat_view(db, CONFIG))
        rounds = []
        for r in range(ROUNDS):
            apply_price_updates(engine, db, CONFIG, round_seed=r)
            started = time.perf_counter()
            report = engine.maintain()["V"]
            wall = time.perf_counter() - started
            rounds.append({"report": report, "wall_seconds": wall})
        oracle = evaluate_plan(view.plan, db).as_set()
        return {
            "rounds": rounds,
            "rows": sorted(view.table.rows_uncounted()),
            "correct": view.table.as_set() == oracle,
        }
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


def _phase_totals(report) -> dict[str, dict[str, int]]:
    """Zero-filtered per-phase breakdown, comparable across engines."""
    return {
        name: counts.as_dict()
        for name, counts in report.phase_counts.items()
        if counts.total or counts.index_maintenance
    }


def _wall_hist(run, label: str) -> LogHistogram:
    hist = LogHistogram(f"bench.parallel_shards.{label}", unit="seconds")
    for r in run["rounds"]:
        hist.observe(r["wall_seconds"])
    return hist


def _warm_wall(run) -> float:
    return statistics.median(r["wall_seconds"] for r in run["rounds"][1:])


@lru_cache(maxsize=1)
def scaling():
    baseline = _run_rounds(IdIvmEngine)
    points = {}
    for backend, n in POINTS:
        run = _run_rounds(
            lambda db, n=n, backend=backend: ShardedEngine(
                db, shards=n, backend=backend
            )
        )
        last = run["rounds"][-1]["report"]
        points[(backend, n)] = {
            "run": run,
            "parallel": last.parallel,
            "anchor": last.anchor,
            "broadcast_reason": last.broadcast_reason,
            "merged_total": sum(r["report"].total_cost for r in run["rounds"]),
            "per_shard_totals": [r.total_cost for r in last.shard_reports],
            "critical_path": last.critical_path(),
            "last_round_total": last.total_cost,
            "warm_wall": _warm_wall(run),
        }
    return baseline, points


def _print_table():
    baseline, points = scaling()
    base_warm = _warm_wall(baseline)
    print()
    print(
        f"parallel shards — devices flat view, d={CONFIG.diff_size}, "
        f"{ROUNDS} rounds, {EFFECTIVE_CPUS} cpu(s) "
        f"(single-shard warm round {base_warm:.4f}s)"
    )
    print(
        f"{'backend':>8} {'N':>2}  {'route':>9}  {'total':>6}  "
        f"{'critical':>8}  {'warm_s':>8}  {'speedup':>7}"
    )
    for (backend, n), p in points.items():
        route = f"par:{p['anchor']}" if p["parallel"] else "broadcast"
        speedup = base_warm / max(p["warm_wall"], 1e-9)
        print(
            f"{backend:>8} {n:>2}  {route:>9}  {p['merged_total']:>6}  "
            f"{p['critical_path']:>8}  {p['warm_wall']:>8.4f}  {speedup:>6.2f}x"
        )


def _assert_scaling():
    baseline, points = scaling()
    assert baseline["correct"], "single-shard engine produced a wrong view"
    base_total = sum(r["report"].total_cost for r in baseline["rounds"])
    for (backend, n), p in points.items():
        run = p["run"]
        label = f"{backend} N={n}"
        assert run["correct"], f"{label}: view does not match the oracle"
        assert run["rows"] == baseline["rows"], f"{label}: view contents differ"
        # Exact access-count reconciliation, round by round and phase by
        # phase: the merged shard counts equal the single-shard run.
        for r, (shard_round, base_round) in enumerate(
            zip(run["rounds"], baseline["rounds"])
        ):
            assert _phase_totals(shard_round["report"]) == _phase_totals(
                base_round["report"]
            ), f"{label}: round {r} per-phase counts do not reconcile"
        assert p["merged_total"] == base_total, (
            f"{label}: total {p['merged_total']} != baseline {base_total}"
        )
        if n >= 2:
            assert p["parallel"], (
                f"{label}: flat view should route parallel, "
                f"got broadcast ({p['broadcast_reason']})"
            )
            assert sum(p["per_shard_totals"]) == p["last_round_total"]
            report = run["rounds"][-1]["report"]
            assert report.backend == backend
            assert report.shard_wall_hist is not None
            assert report.shard_wall_hist.count == n
    # The access-count scaling claim (machine-independent): at 4 shards
    # the busiest shard carries substantially less than the whole round.
    last_total = points[("inline", 4)]["last_round_total"]
    for backend in ("inline", "process"):
        critical = points[(backend, 4)]["critical_path"]
        assert critical <= 0.6 * last_total, (
            f"{backend}: critical path {critical} not < 60% of {last_total}"
        )
    # The wall-clock claim (needs real cores): the 4-shard process
    # backend beats the single-shard engine by >= 1.5x on warm rounds.
    if EFFECTIVE_CPUS >= 4:
        base_warm = _warm_wall(baseline)
        proc_warm = points[("process", 4)]["warm_wall"]
        speedup = base_warm / max(proc_warm, 1e-9)
        assert speedup >= SPEEDUP_TARGET, (
            f"process backend speedup {speedup:.2f}x < {SPEEDUP_TARGET}x "
            f"at 4 shards with {EFFECTIVE_CPUS} cpus"
        )


def test_parallel_shards(benchmark):
    _print_table()
    _assert_scaling()
    baseline, points = scaling()
    base_warm = _warm_wall(baseline)
    write_bench_json(
        "parallel_shards",
        {
            "workload": "devices flat view, price updates",
            "config": {
                "n_parts": CONFIG.n_parts,
                "n_devices": CONFIG.n_devices,
                "diff_size": CONFIG.diff_size,
                "rounds": ROUNDS,
            },
            "effective_cpus": EFFECTIVE_CPUS,
            "note": (
                "per-point wall_hist is a unit=seconds LogHistogram over "
                "per-round maintenance walls (round 0 includes process pool "
                "spawn); wall_speedup = single-shard warm median / this "
                "point's warm median, asserted >= 1.5x for process N=4 only "
                "when effective_cpus >= 4; access counts are asserted "
                "machine-independently"
            ),
            "baseline": {
                "total": sum(r["report"].total_cost for r in baseline["rounds"]),
                "wall_hist": _wall_hist(baseline, "single").as_dict(),
            },
            "points": [
                {
                    "backend": backend,
                    "shards": n,
                    "parallel": p["parallel"],
                    "anchor": p["anchor"],
                    "merged_total": p["merged_total"],
                    "last_round_total": p["last_round_total"],
                    "per_shard_totals": p["per_shard_totals"],
                    "critical_path": p["critical_path"],
                    "scale_factor": round(
                        p["last_round_total"] / max(p["critical_path"], 1), 3
                    ),
                    "wall_hist": _wall_hist(
                        p["run"], f"{backend}.{n}"
                    ).as_dict(),
                    "wall_speedup": round(
                        base_warm / max(p["warm_wall"], 1e-9), 3
                    ),
                }
                for (backend, n), p in points.items()
            ],
        },
    )

    def setup():
        db = build_devices_database(CONFIG)
        engine = ShardedEngine(db, shards=4)
        engine.define_view("V", build_flat_view(db, CONFIG))
        apply_price_updates(engine, db, CONFIG)
        return (engine,), {}

    benchmark.pedantic(lambda engine: engine.maintain(), setup=setup, rounds=3)
