"""Generated ∆-script kernels vs the IR interpreter on BSMA rounds.

What this measures.  Both backends execute the *same* stored ∆-scripts
over the same eight BSMA views; the compiled backend has each compute
step's IR tree lowered once to one generated Python function
(:mod:`repro.core.compile`), so a maintenance round stops paying
per-node, per-row IR dispatch.

Methodology — paired rounds.  Wall-clock ratios of two separately-timed
runs are noise-prone on shared hosts, so interpreter and compiled
engines run side by side on identically-seeded databases: every round
logs the same modifications to both and times both ``maintain()`` calls
back to back, alternating which backend goes first.  The reported
``wall_speedup`` is the ratio of summed warm-round walls; slow drift of
the host hits both sides of each pair equally.

What it asserts is what it can hold: per-view rows equal between
backends and equal to the recompute oracle, per-view per-phase access
counts reconciling *exactly* every round — a kernel must perform
precisely the counted accesses the interpreter performs, never trade
counted work for speed — and no step of the eight views left on the
interpreter (``compile.step_fallbacks`` does not move while they are
defined).  Access counts and histogram observation counts are
machine-independent and gated exactly by the perf gate.

No wall-clock ratio is asserted.  Since both backends run the live
slice of a round (a handful of statements on these tiny diffs), what is
left to differ is a few comprehensions, and the ratio reads 1.2-1.5x
with the run-to-run spread of a shared host; ``wall_speedup`` is
recorded as the machine key it is — present, never compared.  The gated
wall-clock evidence for the kernels is the end-to-end benchmark
(``benchmarks/e2e``, ``devices_bigdiff_d400``).
"""

from __future__ import annotations

import os
import statistics
import time

from functools import lru_cache

from conftest import write_bench_json

from repro.algebra.evaluate import evaluate_plan
from repro.core import IdIvmEngine
from repro.obs import metrics
from repro.obs.hist import LogHistogram
from repro.workloads import (
    BsmaConfig,
    BSMA_QUERIES,
    build_bsma_database,
    log_user_updates,
)

#: Small base data, small diffs.
CONFIG = BsmaConfig(n_users=150, friends_per_user=4, n_tweets=450)

#: Updates logged per round, one measurement point each.
POINTS = (1, 2, 5)

#: Maintenance rounds per point.  Rounds 0-1 warm caches and operator
#: state on both engines; warm statistics use rounds 2+.
ROUNDS = 12
WARMUP = 2

BACKENDS = ("interp", "compiled")

EFFECTIVE_CPUS = len(os.sched_getaffinity(0))

#: ``compile.step_fallbacks`` gained while the views of every point were
#: defined: steps the emitter refused and left on the interpreter.
STEP_FALLBACKS = metrics.counter("compile.step_fallbacks")


def _make_pair():
    """Identically-seeded (db, engine, views) per backend."""
    out = {}
    for backend in BACKENDS:
        db = build_bsma_database(CONFIG)
        engine = IdIvmEngine(db, exec_backend=backend)
        views = {
            name: engine.define_view(name, build(db, CONFIG))
            for name, build in BSMA_QUERIES.items()
        }
        out[backend] = (db, engine, views)
    return out


def _phase_totals(report) -> dict[str, dict[str, int]]:
    """Zero-filtered per-phase breakdown, comparable across backends."""
    return {
        name: counts.as_dict()
        for name, counts in report.phase_counts.items()
        if counts.total or counts.index_maintenance
    }


def _run_point(updates_per_round: int):
    """ROUNDS paired rounds; returns walls, counts and final contents."""
    fallbacks_before = STEP_FALLBACKS.value
    pair = _make_pair()
    step_fallbacks = STEP_FALLBACKS.value - fallbacks_before
    walls = {b: [] for b in BACKENDS}
    counts = {b: [] for b in BACKENDS}
    totals = {b: 0 for b in BACKENDS}
    try:
        for r in range(ROUNDS):
            # Alternate which backend is timed first so slow host drift
            # lands on both sides of the pair equally often.
            order = BACKENDS if r % 2 == 0 else tuple(reversed(BACKENDS))
            for backend in order:
                db, engine, _ = pair[backend]
                log_user_updates(
                    engine, db, CONFIG, updates_per_round, round_seed=r
                )
                started = time.perf_counter()
                reports = engine.maintain()
                walls[backend].append(time.perf_counter() - started)
                counts[backend].append(
                    {name: _phase_totals(rep) for name, rep in reports.items()}
                )
                totals[backend] += sum(
                    rep.total_cost for rep in reports.values()
                )
        rows = {}
        correct = {}
        for backend in BACKENDS:
            db, _, views = pair[backend]
            rows[backend] = {
                name: sorted(view.table.rows_uncounted())
                for name, view in views.items()
            }
            correct[backend] = all(
                view.table.as_set() == evaluate_plan(view.plan, db).as_set()
                for view in views.values()
            )
        return {
            "updates": updates_per_round,
            "step_fallbacks": step_fallbacks,
            "walls": walls,
            "counts": counts,
            "totals": totals,
            "rows": rows,
            "correct": correct,
        }
    finally:
        for _, engine, _ in pair.values():
            close = getattr(engine, "close", None)
            if close is not None:
                close()


def _warm(walls: list[float]) -> list[float]:
    return walls[WARMUP:]


def _speedup(point) -> float:
    return sum(_warm(point["walls"]["interp"])) / max(
        sum(_warm(point["walls"]["compiled"])), 1e-9
    )


def _paired_ratios(point) -> list[float]:
    return [
        wi / max(wc, 1e-9)
        for wi, wc in zip(
            _warm(point["walls"]["interp"]), _warm(point["walls"]["compiled"])
        )
    ]


def _wall_hist(point, backend: str) -> LogHistogram:
    hist = LogHistogram(
        f"bench.compiled.u{point['updates']}.{backend}", unit="seconds"
    )
    for wall in point["walls"][backend]:
        hist.observe(wall)
    return hist


@lru_cache(maxsize=1)
def results():
    return [_run_point(updates) for updates in POINTS]


def _print_table():
    print()
    print(
        f"generated kernels vs interpreter — 8 BSMA views, "
        f"n_users={CONFIG.n_users}, {ROUNDS} paired rounds per point"
    )
    print(
        f"{'upd/round':>9}  {'interp_ms':>9}  {'compiled_ms':>11}  "
        f"{'speedup':>7}  {'median_pair':>11}"
    )
    for point in results():
        interp = statistics.median(_warm(point["walls"]["interp"]))
        compiled = statistics.median(_warm(point["walls"]["compiled"]))
        print(
            f"{point['updates']:>9}  {interp * 1e3:>9.2f}  "
            f"{compiled * 1e3:>11.2f}  {_speedup(point):>6.2f}x  "
            f"{statistics.median(_paired_ratios(point)):>10.2f}x"
        )


def _assert_equivalence():
    for point in results():
        label = f"updates={point['updates']}"
        for backend in BACKENDS:
            assert point["correct"][backend], (
                f"{label}: {backend} view does not match the recompute oracle"
            )
        assert point["rows"]["compiled"] == point["rows"]["interp"], (
            f"{label}: view contents differ between backends"
        )
        # Exact access-count reconciliation, every view, every round,
        # phase by phase: compilation must not change counted work.
        for r, (ci, cc) in enumerate(
            zip(point["counts"]["interp"], point["counts"]["compiled"])
        ):
            assert cc == ci, (
                f"{label}: round {r} per-phase counts do not reconcile"
            )
        assert point["totals"]["compiled"] == point["totals"]["interp"], label
        assert point["step_fallbacks"] == 0, (
            f"{label}: {point['step_fallbacks']} step(s) of the BSMA views "
            f"were left on the interpreter (compile.step_fallbacks)"
        )


def test_compiled_speedup(benchmark):
    _print_table()
    _assert_equivalence()
    points = results()
    best = max(_speedup(p) for p in points)
    write_bench_json(
        "compiled",
        {
            "workload": "8 BSMA views, user updates, paired rounds",
            "config": {
                "n_users": CONFIG.n_users,
                "friends_per_user": CONFIG.friends_per_user,
                "n_tweets": CONFIG.n_tweets,
                "rounds": ROUNDS,
                "warmup_rounds": WARMUP,
                "points": list(POINTS),
            },
            "effective_cpus": EFFECTIVE_CPUS,
            "wall_speedup": round(best, 3),
            "step_fallbacks": sum(point["step_fallbacks"] for point in points),
            "note": (
                "wall_speedup = best point's summed-warm-wall ratio "
                "interp/compiled over paired alternating-order rounds, "
                "recorded and never asserted (both backends run the same "
                "live slice; see benchmarks/e2e for gated wall clock); "
                "per-view per-phase access counts are asserted exactly "
                "equal between backends every round and step_fallbacks "
                "asserted 0; wall_hist entries are unit=seconds "
                "LogHistograms over per-round maintenance walls"
            ),
            "points": [
                {
                    "updates_per_round": point["updates"],
                    "total_cost": point["totals"]["interp"],
                    "wall_speedup": round(_speedup(point), 3),
                    "interp_wall_hist": _wall_hist(point, "interp").as_dict(),
                    "compiled_wall_hist": _wall_hist(
                        point, "compiled"
                    ).as_dict(),
                }
                for point in points
            ],
        },
    )

    def setup():
        db = build_bsma_database(CONFIG)
        engine = IdIvmEngine(db, exec_backend="compiled")
        for name, build in BSMA_QUERIES.items():
            engine.define_view(name, build(db, CONFIG))
        log_user_updates(engine, db, CONFIG, 5, round_seed=0)
        return (engine,), {}

    benchmark.pedantic(lambda engine: engine.maintain(), setup=setup, rounds=3)
