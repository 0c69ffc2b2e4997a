"""Run one workload in this process: set-up, timed rounds, traced rounds.

Closed loop, one client: log one batch, ``maintain()``, next batch —
deferred IVM as the paper runs it.  End-to-end metrics come from the
timed rounds, with no probe installed; the per-layer metrics come from
the traced rounds that follow in the same process, and the difference
between the two mean round times is the probes' own overhead.

Every time the harness reports is *host-normalised*: reference slices
(``hostref``) run between rounds and between set-up steps, and a timing
is divided by how many times slower than nominal the host ran while it
was taken.  The raw wall values travel beside them as ``raw.*`` and
``host.*``.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from collections import Counter
from itertools import compress
from time import perf_counter
from typing import Optional

import hostref
import probes
from loadgen import input_digest, log_batch
from workloads import Workload

#: name -> unit of every end-to-end metric the suite reports.
END_TO_END_UNITS = {
    "setup_s": "s",
    "mods_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p95": "ms",
    "log_us_per_mod": "us",
    "accesses_per_mod": "accesses",
    "peak_rss_mb": "MiB",
    "failed_share": "ratio",
}

#: Reported but not gated by BENCHMARK.json.  ``failed_share`` is 0 on
#: every healthy run (the contract wants metrics that are never 0; it
#: travels as failed/attempted).  ``round_ms_p95`` sits on the sparse
#: knee of the round-time distribution, where its run-to-run spread on
#: this 2-vCPU VM is 15-25 % — more than the largest bound the contract
#: allows can hold; single-workload runs report it with the layer
#: metrics (--trace 1) instead.
UNGATED = ("round_ms_p95", "failed_share")

#: name -> unit of every per-layer metric of one workload run.
LAYER_UNITS = {
    "engine.round_ms": "ms",
    "engine.self_ms": "ms",
    "engine.self_share": "ratio",
    "engine.prestate_ms": "ms",
    "storage.copy_ms": "ms",
    "storage.copy_calls": "count",
    "storage.copy_rows": "rows",
    "modlog.populate_ms": "ms",
    "modlog.populate_calls": "count",
    "modlog.idiff_rows": "rows",
    "script.exec_ms": "ms",
    "script.compute_ms": "ms",
    "apply.ms": "ms",
    "apply.calls": "count",
    "apply.rows": "rows",
    "storage.lookups": "count/round",
    "storage.reads": "count/round",
    "storage.writes": "count/round",
    "phase.cache_diff": "accesses/round",
    "phase.cache_update": "accesses/round",
    "phase.view_diff": "accesses/round",
    "phase.view_update": "accesses/round",
    "obs.finish_ms": "ms",
    "obs.metric_lookups": "count",
    "obs.metric_lookup_ms": "ms",
    "modlog.log_insert_us": "us/call",
    "modlog.log_update_us": "us/call",
    "modlog.log_delete_us": "us/call",
    "shard.split_ms": "ms",
    "wire.encode_ms": "ms",
    "wire.decode_ms": "ms",
    "wire.bytes": "bytes/round",
    "pool.begin_round_ms": "ms",
    "pool.exec_wait_ms": "ms",
    "pool.apply_writes_ms": "ms",
    "shard.worker_busy_ms": "ms",
    "shard.worker_max_ms": "ms",
    "shard.skew": "ratio",
    "shard.replay_ms": "ms",
    "shard.parallel_share": "ratio",
    "baseline.recompute_ms": "ms",
    "baseline.recompute_over_round": "ratio",
    "gc.gen2_collections": "count",
    "gc.pause_ms": "ms",
    "wall_us_per_access": "us",
    "trace.overhead_share": "ratio",
    "probes_missing": "count",
    "host.ref_ms": "ms",
    "host.factor": "ratio",
    "raw.setup_s": "s",
    "raw.mods_per_s": "1/s",
    "raw.round_ms_p50": "ms",
    "raw.log_us_per_mod": "us",
}

#: The timed rounds are cut into this many consecutive blocks (fewer on a
#: short run: a block has at least ten rounds); each block's timings are
#: divided by the host factor of the reference slices taken inside it.
BLOCKS = 20
#: The gated timings use the run's *quiet* blocks only: those whose host
#: factor is within this share of the quietest block's, and never fewer
#: than MIN_QUIET_BLOCKS.  Dividing by the factor corrects a slow host only
#: to first order (the program slows more than the reference loop where it
#: is memory-bound, less where it is not), so the less correction a block
#: needs the better; on a quiet run nearly every block qualifies.
QUIET_TOLERANCE = 0.10
MIN_QUIET_BLOCKS = 5
#: Set-ups per run; ``setup_s`` is their median and the last one is used.
SETUPS = 2
#: Reference slices taken right before and right after every set-up step
#: and oracle check.
BOUNDARY_SLICES = 3

#: The self-time partition of a round: (row label, layers whose self
#: time it sums).  ``engine.prestate`` has ``storage.copy`` as its only
#: probed child, so the row equals the inclusive ``engine.prestate_ms``.
SHARE_ROWS = (
    ("engine.self", (probes.ROUND,)),
    ("engine.prestate (incl. storage.copy)", ("engine.prestate", "storage.copy")),
    ("modlog.populate", ("modlog.populate",)),
    ("script.compute", ("script.exec",)),
    ("apply", ("apply",)),
    ("obs.finish", ("obs.finish",)),
    ("obs.metric_lookup", ("obs.metric_lookup",)),
    ("shard.split", ("shard.split",)),
    ("wire.encode", ("wire.encode",)),
    ("wire.decode", ("wire.decode",)),
    ("pool.begin_round", ("pool.begin_round",)),
    ("pool.exec_wait", ("pool.exec_wait",)),
    ("pool.apply_writes", ("pool.apply_writes",)),
    ("shard.replay", ("shard.replay",)),
)

PHASES = ("cache_diff", "cache_update", "view_diff", "view_update")


def percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


class _Checks:
    """Attempted/failed bookkeeping: rounds that raise and views that
    differ from their recomputation both count as failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.recompute_s: list[float] = []      # host-normalised

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def checkpoint(self, label: str, engine, plans: dict, ref: hostref.HostRef) -> None:
        """Every view against the recompute oracle, as bags over the
        columns the view was defined with (the materialization may carry
        extra ID columns the generator added)."""
        from repro.algebra import evaluate_plan

        slices = ref.slices(BOUNDARY_SLICES)
        started = perf_counter()
        for name, plan in plans.items():
            self.attempted += 1
            expected = Counter(evaluate_plan(plan, engine.db))
            table = engine.views[name].table
            at = [table.schema.columns.index(c) for c in plan.columns]
            actual = Counter(
                tuple(row[i] for i in at) for row in table.rows_uncounted()
            )
            if actual != expected:
                self.fail(f"view {name!r} differs from recomputation {label}")
        spent = perf_counter() - started
        slices += ref.slices(BOUNDARY_SLICES)
        self.recompute_s.append(spent / hostref.factor(slices))


def _run_rounds(engine, batches, checks: _Checks, label: str, ref: hostref.HostRef,
                ref_every: int, maintain=None, on_round=None):
    """The closed loop, a reference slice before every *ref_every*-th round.

    Returns one (log seconds, round seconds, modifications, accesses)
    sample per completed round — a round that raises is counted as failed
    and skipped — and one (samples completed so far, seconds) pair per
    reference slice."""
    maintain = maintain or engine.maintain
    samples: list[tuple[float, float, int, int]] = []
    slices: list[tuple[int, float]] = []
    for i, batch in enumerate(batches):
        if i % ref_every == 0:
            slices.append((len(samples), ref.slice()))
        checks.attempted += 1
        try:
            t0 = perf_counter()
            log_batch(engine.log, batch)
            t1 = perf_counter()
            reports = maintain()
            t2 = perf_counter()
        except Exception as exc:  # a failed round must not end the run
            checks.fail(f"{label} round {i} raised {type(exc).__name__}: {exc}")
            continue
        accesses = sum(report.total_cost for report in reports.values())
        samples.append((t1 - t0, t2 - t1, len(batch), accesses))
        if on_round is not None:
            on_round(reports)
    return samples, slices


def block_factors(n_samples: int, slices: list[tuple[int, float]]):
    """(block index of every sample, host factor of every block)."""
    blocks = max(1, min(BLOCKS, n_samples // 10))
    block_of = [i * blocks // n_samples for i in range(n_samples)]
    inside: list[list[float]] = [[] for _ in range(blocks)]
    for position, seconds in slices:
        inside[block_of[min(position, n_samples - 1)]].append(seconds)
    whole_run = hostref.factor([seconds for _, seconds in slices])
    return block_of, [hostref.factor(s) if s else whole_run for s in inside]


def quiet_blocks(factors: list[float]) -> set[int]:
    """Indices of the blocks the gated timings are read from."""
    by_factor = sorted(range(len(factors)), key=factors.__getitem__)
    limit = factors[by_factor[0]] * (1 + QUIET_TOLERANCE)
    chosen = [b for b in by_factor if factors[b] <= limit]
    return set(chosen if len(chosen) >= MIN_QUIET_BLOCKS else by_factor[:MIN_QUIET_BLOCKS])


class _TraceTotals:
    """Counts read off the MaintenanceReports of the traced rounds."""

    def __init__(self) -> None:
        self.storage = {"lookups": 0, "reads": 0, "writes": 0}
        self.phase = dict.fromkeys(PHASES, 0)
        self.view_rounds = 0
        self.parallel_view_rounds = 0
        self.worker_busy_s = 0.0
        self.worker_max_s = 0.0
        self.skews: list[float] = []

    def add(self, reports: dict) -> None:
        for report in reports.values():
            self.view_rounds += 1
            for phase, counts in report.phase_counts.items():
                if phase == "__total__":
                    self.storage["lookups"] += counts.index_lookups
                    self.storage["reads"] += counts.tuple_reads
                    self.storage["writes"] += counts.tuple_writes
                elif phase in self.phase:
                    self.phase[phase] += counts.total
            if getattr(report, "parallel", False):
                self.parallel_view_rounds += 1
            wall = getattr(report, "shard_wall_hist", None)
            if wall is not None and wall.count:
                self.worker_busy_s += wall.total
                self.worker_max_s += wall.max
            shard_costs = [r.total_cost for r in getattr(report, "shard_reports", ())]
            if shard_costs and sum(shard_costs):
                self.skews.append(max(shard_costs) * len(shard_costs) / sum(shard_costs))


def _close(engine) -> None:
    close = getattr(engine, "close", None)
    if close is not None:
        close()


class _SetUpClock:
    """Raw and host-normalised seconds of one set-up.  Every step is
    divided by the factor of the slices taken right before and right
    after it: a step can last seconds, and the host drifts meanwhile."""

    def __init__(self, ref: hostref.HostRef) -> None:
        self.ref = ref
        self.raw_s = 0.0
        self.normalised_s = 0.0

    def step(self, fn, *args):
        slices = self.ref.slices(BOUNDARY_SLICES)
        started = perf_counter()
        result = fn(*args)
        spent = perf_counter() - started
        slices += self.ref.slices(BOUNDARY_SLICES)
        self.add(spent, slices)
        return result

    def add(self, seconds: float, slices: list[float]) -> None:
        self.raw_s += seconds
        self.normalised_s += seconds / hostref.factor(slices)


def run_workload(
    workload: Workload, seed: int, trace: bool, spans_path: Optional[str] = None
) -> dict:
    """One full run of *workload* (already sized); returns the result doc."""
    run_started = perf_counter()
    checks = _Checks()
    ref = hostref.HostRef()
    n_warm, n_timed = workload.warmup_rounds, workload.rounds

    # -- set-up, SETUPS times over: database, engine, views, warm-up (lazy
    #    compile and the worker-pool boot land here).  Input generation is
    #    the benchmark's own cost and is not charged to the program.
    batches = digest = engine = db = None
    clocks: list[_SetUpClock] = []
    try:
        for _ in range(SETUPS):
            if engine is not None:
                _close(engine)
                engine = db = None
                gc.collect()
            clock = _SetUpClock(ref)
            db = clock.step(workload.build_database, seed)
            if batches is None:
                # The stream always includes the traced rounds, so the
                # digest does not depend on --trace.
                batches = workload.generate_rounds(
                    db, seed, n_warm + n_timed + workload.traced_rounds
                )
                digest = input_digest(batches)
            engine = clock.step(workload.make_engine, db)
            plans = clock.step(workload.view_plans, db, seed)
            for name, plan in plans.items():
                clock.step(engine.define_view, name, plan)
            warm, slices = _run_rounds(
                engine, batches[:n_warm], checks, "warm-up", ref, workload.ref_every
            )
            clock.add(
                sum(log_s + round_s for log_s, round_s, _, _ in warm),
                [seconds for _, seconds in slices],
            )
            clocks.append(clock)

        checks.checkpoint("after warm-up", engine, plans, ref)

        # -- timed rounds, no probes
        gen2_before = gc.get_stats()[2]["collections"]
        timed, timed_slices = _run_rounds(
            engine, batches[n_warm:n_warm + n_timed], checks, "timed",
            ref, workload.ref_every,
        )
        gen2 = gc.get_stats()[2]["collections"] - gen2_before
        checks.checkpoint("after the timed rounds", engine, plans, ref)
        if not timed:
            raise RuntimeError(f"no timed round completed: {checks.failures}")

        traced = None
        if trace:
            traced = _traced_rounds(
                engine, batches[n_warm + n_timed:], checks, plans, spans_path,
                ref, workload.ref_every,
            )
    finally:
        if engine is not None:
            _close(engine)

    log_s, round_s, mods, accesses = (list(column) for column in zip(*timed))
    block_of, factors = block_factors(len(timed), timed_slices)
    # Host-normalised samples: each divided by its block's factor.
    n_log = [s / factors[b] for s, b in zip(log_s, block_of)]
    n_round = [s / factors[b] for s, b in zip(round_s, block_of)]
    block_mods = [0] * len(factors)
    block_busy = [0.0] * len(factors)
    for b, m, logged, maintained in zip(block_of, mods, n_log, n_round):
        block_mods[b] += m
        block_busy[b] += logged + maintained
    quiet = quiet_blocks(factors)
    in_quiet = [b in quiet for b in block_of]
    # The tail percentiles need every sample; the medians use the quiet ones.
    ordered = sorted(n_round)
    p50_ms = statistics.median(compress(n_round, in_quiet)) * 1e3
    # ru_maxrss of RUSAGE_CHILDREN is the largest waited-for child, which
    # is why the workers are closed before this is read.
    peak_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    end_to_end = {
        "setup_s": statistics.median(c.normalised_s for c in clocks),
        "mods_per_s": statistics.median(
            block_mods[b] / block_busy[b] for b in quiet
        ),
        "round_ms_p50": p50_ms,
        "round_ms_p95": percentile(ordered, 0.95) * 1e3,
        "log_us_per_mod": statistics.median(
            s / m for s, m in compress(zip(n_log, mods), in_quiet)
        ) * 1e6,
        "accesses_per_mod": sum(accesses) / sum(mods),
        "peak_rss_mb": peak_kib / 1024,
        "failed_share": checks.failed / checks.attempted,
    }
    raw = {
        "host.ref_ms": statistics.median(s for _, s in timed_slices) * 1e3,
        "host.factor": statistics.median(factors),
        "raw.setup_s": statistics.median(c.raw_s for c in clocks),
        "raw.mods_per_s": sum(mods) / (sum(log_s) + sum(round_s)),
        "raw.round_ms_p50": statistics.median(round_s) * 1e3,
        "raw.log_us_per_mod": statistics.median(
            s / m for s, m in zip(log_s, mods)
        ) * 1e6,
    }
    diagnostics = {
        "round_samples": len(round_s),
        "blocks": len(factors),
        "quiet_blocks": len(quiet),
        "host_factor_min": min(factors),
        "host_factor_max": max(factors),
        "block_factors": factors,
    }
    if len(round_s) >= 1000:
        diagnostics["round_ms_p99"] = percentile(ordered, 0.99) * 1e3

    result = {
        "workload": workload.name,
        "seed": seed,
        "rounds": {
            "warmup": n_warm,
            "timed": n_timed,
            "traced": workload.traced_rounds if trace else 0,
        },
        "modifications": sum(mods),
        "input_digest": digest,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "end_to_end": end_to_end,
        "raw": raw,
        "diagnostics": diagnostics,
    }
    if traced is not None:
        layers, share_table, missing = traced
        recompute_ms = statistics.mean(checks.recompute_s) * 1e3
        untraced_ms = statistics.mean(n_round) * 1e3
        layers.update({
            "baseline.recompute_ms": recompute_ms,
            "baseline.recompute_over_round": recompute_ms / p50_ms,
            "gc.gen2_collections": gen2,
            "wall_us_per_access": sum(n_round) / sum(accesses) * 1e6,
            "trace.overhead_share":
                (layers["engine.round_ms"] - untraced_ms) / untraced_ms,
            "probes_missing": len(missing),
            **raw,
        })
        result.update(
            layers=layers, share_table=share_table, probes_missing=missing
        )
    diagnostics["run_wall_s"] = perf_counter() - run_started
    return result


def _traced_rounds(engine, batches, checks: _Checks, plans, spans_path,
                   ref: hostref.HostRef, ref_every: int):
    """Install the probes, run the traced rounds, reduce spans to layers.

    All per-round values are means over the traced rounds; every time is
    divided by the host factor of the slices taken between them.
    """
    tracer = probes.Tracer()
    totals = _TraceTotals()
    gc_pause = [0.0, 0.0]          # [total seconds, start of the open pause]

    def on_gc(phase: str, _info: dict) -> None:
        if not tracer.in_span:      # a collection inside a reference slice
            return
        if phase == "start":
            gc_pause[1] = perf_counter()
        else:
            gc_pause[0] += perf_counter() - gc_pause[1]

    def traced_maintain():
        with tracer.span(probes.ROUND):
            return engine.maintain()

    with probes.installed(tracer) as missing:
        gc.callbacks.append(on_gc)
        try:
            samples, slices = _run_rounds(
                engine, batches, checks, "traced", ref, ref_every,
                maintain=traced_maintain, on_round=totals.add,
            )
        finally:
            gc.callbacks.remove(on_gc)
    checks.checkpoint("after the traced rounds", engine, plans, ref)
    if spans_path is not None:
        tracer.write_jsonl(spans_path)
    n = len(samples)
    if n == 0:
        raise RuntimeError(f"no traced round completed: {checks.failures}")

    inside, outside = tracer.layer_totals()
    host = hostref.factor([seconds for _, seconds in slices])
    for bucket in (*inside.values(), *outside.values()):
        bucket["ms"] /= host
        bucket["self_ms"] /= host
    gone = {
        layer for layer, targets in probes.layers_of().items()
        if all(target in missing for target in targets)
    }

    def per_round(layer: str, field: str) -> Optional[float]:
        if layer in gone:
            return None
        return inside.get(layer, {}).get(field, 0) / n

    def per_call_us(layer: str) -> Optional[float]:
        if layer in gone:
            return None
        bucket = outside.get(layer)
        return bucket["ms"] * 1e3 / bucket["calls"] if bucket else 0.0

    def both(a: Optional[float], b: Optional[float]) -> Optional[float]:
        return None if a is None or b is None else a + b

    round_ms = inside[probes.ROUND]["ms"] / n
    self_ms = inside[probes.ROUND]["self_ms"] / n
    layers = {
        "engine.round_ms": round_ms,
        "engine.self_ms": self_ms,
        "engine.self_share": self_ms / round_ms,
        "engine.prestate_ms": per_round("engine.prestate", "ms"),
        "storage.copy_ms": per_round("storage.copy", "self_ms"),
        "storage.copy_calls": per_round("storage.copy", "calls"),
        "storage.copy_rows": per_round("storage.copy", "work"),
        "modlog.populate_ms": per_round("modlog.populate", "self_ms"),
        "modlog.populate_calls": per_round("modlog.populate", "calls"),
        "modlog.idiff_rows": per_round("modlog.populate", "work"),
        "script.exec_ms": per_round("script.exec", "ms"),
        "script.compute_ms": per_round("script.exec", "self_ms"),
        "apply.ms": per_round("apply", "self_ms"),
        "apply.calls": per_round("apply", "calls"),
        "apply.rows": per_round("apply", "work"),
        **{f"storage.{kind}": total / n for kind, total in totals.storage.items()},
        **{f"phase.{phase}": totals.phase[phase] / n for phase in PHASES},
        "obs.finish_ms": per_round("obs.finish", "self_ms"),
        "obs.metric_lookups": per_round("obs.metric_lookup", "calls"),
        "obs.metric_lookup_ms": per_round("obs.metric_lookup", "self_ms"),
        "modlog.log_insert_us": per_call_us("modlog.log_insert"),
        "modlog.log_update_us": per_call_us("modlog.log_update"),
        "modlog.log_delete_us": per_call_us("modlog.log_delete"),
        "shard.split_ms": per_round("shard.split", "self_ms"),
        "wire.encode_ms": per_round("wire.encode", "self_ms"),
        "wire.decode_ms": per_round("wire.decode", "self_ms"),
        "wire.bytes": both(per_round("wire.encode", "work"),
                           per_round("wire.decode", "work")),
        "pool.begin_round_ms": per_round("pool.begin_round", "self_ms"),
        "pool.exec_wait_ms": per_round("pool.exec_wait", "self_ms"),
        "pool.apply_writes_ms": per_round("pool.apply_writes", "self_ms"),
        "shard.worker_busy_ms": totals.worker_busy_s * 1e3 / host / n,
        "shard.worker_max_ms": totals.worker_max_s * 1e3 / host / n,
        "shard.skew": statistics.mean(totals.skews) if totals.skews else 0.0,
        "shard.replay_ms": per_round("shard.replay", "self_ms"),
        "shard.parallel_share": totals.parallel_view_rounds / totals.view_rounds,
        "gc.pause_ms": gc_pause[0] * 1e3 / host / n,
    }

    # By construction the self times under a round add up to the round.
    share_table = []
    listed = set()
    for label, members in SHARE_ROWS:
        listed.update(members)
        ms = sum(inside.get(m, {}).get("self_ms", 0.0) for m in members) / n
        share_table.append({"layer": label, "ms": ms, "share": ms / round_ms})
    accounted = sum(row["ms"] for row in share_table)
    unlisted = [layer for layer in inside if layer not in listed]
    if unlisted or not math.isclose(accounted, round_ms, rel_tol=1e-6):
        raise AssertionError(
            f"layer self times sum to {accounted:.6f} ms, the round is "
            f"{round_ms:.6f} ms (layers outside the share table: {unlisted})"
        )
    return layers, share_table, missing
