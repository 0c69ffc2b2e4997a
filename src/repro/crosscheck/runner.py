"""Run one crosscheck case: every strategy against the recompute oracle.

The oracle is :func:`repro.algebra.evaluate_plan` — the same from-scratch
evaluator :class:`repro.baselines.recompute.RecomputeEngine` swaps in,
applied after every batch to a private database that receives the same
modification stream.  Each maintenance strategy then runs on its *own*
fresh database; after every batch its view table must equal the oracle's
multiset exactly, and the engine must pass every invariant in
:mod:`repro.crosscheck.invariants`.

A divergence names the strategy, the batch and what went wrong; the
shrinker and the regression corpus both consume this structure.
"""

from __future__ import annotations

import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from ..baselines import TupleIvmEngine
from ..core import IdIvmEngine
from ..obs import metrics
from ..core.idinfer import annotate_plan
from ..core.modlog import ModificationLog
from ..core.sharded import ShardedEngine
from ..algebra.evaluate import evaluate_plan
from .invariants import check_engine_state
from .spec import apply_modification, build_database, build_plan

#: Every maintenance strategy under test, in reporting order.
STRATEGY_FACTORIES: dict[str, Callable] = {
    # The two interpreter strategies keep the reference executor under
    # differential test against "compiled" (the engine's default).
    "eager": lambda db: IdIvmEngine(db, optimize=False, exec_backend="interp"),
    "minimized": lambda db: IdIvmEngine(db, optimize=True, exec_backend="interp"),
    "compiled": lambda db: IdIvmEngine(db, exec_backend="compiled"),
    "tuple": TupleIvmEngine,
    # Sharded strategies run with the dynamic race detector on: any
    # overlapping per-shard write-sets become a "race" divergence (see
    # run_strategy) — one more claim the fuzzer differentially checks.
    "sharded1": lambda db: ShardedEngine(db, shards=1, race_check=True),
    "sharded2": lambda db: ShardedEngine(db, shards=2, race_check=True),
    "sharded4": lambda db: ShardedEngine(db, shards=4, race_check=True),
}

ALL_STRATEGIES = tuple(STRATEGY_FACTORIES)


@dataclass
class Divergence:
    """One way one strategy disagreed with the oracle (or itself)."""

    strategy: str
    batch: int  # -1: view definition / initial state
    kind: str  # "view_mismatch" | "invariant" | "exception" |
    #          # "oracle_error" | "analysis" | "cost" | "drift" |
    #          # "race" | "fingerprint"
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        where = "setup" if self.batch < 0 else f"batch {self.batch}"
        return f"[{self.strategy} @ {where}] {self.kind}: {self.detail}"


@dataclass
class CaseResult:
    """Outcome of one case across all requested strategies."""

    divergences: list[Divergence] = field(default_factory=list)
    #: every static-analyzer diagnostic (rendered) plus tolerance-level
    #: COST503 reconciliation deviations and COST504 sustained-drift
    #: alerts, informational; error-severity analyzer findings also
    #: land in ``divergences`` as "analysis"
    diagnostics: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _tail(exc: BaseException) -> str:
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
    return lines[-1].strip() + (
        f"  (at {traceback.extract_tb(exc.__traceback__)[-1].name})"
        if exc.__traceback__ is not None
        else ""
    )


def _multiset_detail(expected: Counter, actual: Counter) -> str:
    missing = list((expected - actual).elements())[:4]
    extra = list((actual - expected).elements())[:4]
    parts = []
    if missing:
        parts.append(f"missing={missing!r}")
    if extra:
        parts.append(f"extra={extra!r}")
    return " ".join(parts) or "multisets differ"


def oracle_states(case: Mapping) -> list[Counter]:
    """Expected view multisets after each batch (full recomputation).

    Raises whatever the evaluator raises — the caller classifies an
    oracle failure as ``oracle_error`` (the case is unusable as a
    differential test, but a *crashing* oracle is still a finding: the
    shared expression/algebra layer blew up).
    """
    db = build_database(case)
    plan = annotate_plan(build_plan(case["plan"], db))
    log = ModificationLog(db)
    states = []
    for batch in case["batches"]:
        for op in batch:
            apply_modification(log, op)
        log.take()
        states.append(Counter(evaluate_plan(plan, db).rows))
    return states


def run_strategy(
    case: Mapping,
    strategy: str,
    expected: Sequence[Counter],
    diag_sink: Optional[list] = None,
) -> Optional[Divergence]:
    """Run one strategy over the case; return its first divergence."""
    factory = STRATEGY_FACTORIES[strategy]
    try:
        db = build_database(case)
        plan = build_plan(case["plan"], db)
        engine = factory(db)
        view = engine.define_view("V", plan)
    except Exception as exc:  # noqa: BLE001 - the fuzzer reports, never raises
        return Divergence(strategy, -1, "exception", _tail(exc))
    for bi, batch in enumerate(case["batches"]):
        try:
            for op in batch:
                apply_modification(engine.log, op)
            report = engine.maintain()["V"]
        except Exception as exc:  # noqa: BLE001
            return Divergence(strategy, bi, "exception", _tail(exc))
        actual = Counter(view.table.rows_uncounted())
        if actual != expected[bi]:
            return Divergence(
                strategy, bi, "view_mismatch", _multiset_detail(expected[bi], actual)
            )
        try:
            problems = check_engine_state(view, db, report)
        except Exception as exc:  # noqa: BLE001
            return Divergence(strategy, bi, "exception", _tail(exc))
        if problems:
            return Divergence(strategy, bi, "invariant", "; ".join(problems[:3]))
        overlaps = getattr(report, "race_overlaps", None)
        if overlaps:
            shown = "; ".join(
                f"{tag} key {key!r} by shards {list(shards)}"
                for tag, key, shards in overlaps[:3]
            )
            return Divergence(
                strategy,
                bi,
                "race",
                f"{len(overlaps)} overlapping per-shard write(s): {shown}",
            )
        cost_divergence = _reconcile_cost(report, strategy, bi, diag_sink)
        if cost_divergence is not None:
            return cost_divergence
    drift_divergence = _check_drift(
        engine, strategy, len(case["batches"]) - 1, diag_sink
    )
    if drift_divergence is not None:
        return drift_divergence
    return None


#: A measured count this far above the symbolic prediction is a fuzz
#: divergence (not just a tolerance warning): the S2 counters report
#: work the inferred upper bound cannot possibly explain.
_COST_HARD_FACTOR = 3.0
_COST_HARD_SLACK = 50.0


def _reconcile_cost(
    report, strategy: str, batch_index: int, diag_sink: Optional[list]
) -> Optional[Divergence]:
    """COST503 reconciliation as one more differential check.

    Within-tolerance rounds are silent; tolerance-exceeding deviations
    are recorded as informational diagnostics; only measured counts the
    upper-bound model cannot remotely explain become divergences (the
    fuzzer must not cry wolf on estimate noise).
    """
    try:
        from ..analysis.cost import reconcile_report

        deviations = reconcile_report(report)
    except Exception:  # noqa: BLE001 - reconciliation must never kill a case
        return None
    if not deviations:
        return None
    metrics.counter("crosscheck.cost_deviations").inc(len(deviations))
    if diag_sink is not None:
        diag_sink.extend(
            f"COST503 [{strategy} @ batch {batch_index}] {d.render()}"
            for d in deviations
        )
    egregious = [
        d
        for d in deviations
        if d.measured > _COST_HARD_FACTOR * d.predicted + _COST_HARD_SLACK
    ]
    if egregious:
        return Divergence(
            strategy, batch_index, "cost", egregious[0].render()
        )
    return None


#: A sustained observed/predicted EWMA above this is a fuzz divergence:
#: across the whole batch stream, the upper-bound cost model cannot
#: explain the measured work even after smoothing out per-round noise.
_DRIFT_HARD_RATIO = 3.0


def _check_drift(
    engine, strategy: str, batch_index: int, diag_sink: Optional[list]
) -> Optional[Divergence]:
    """COST504 sustained-drift check over the completed case.

    Alerts are informational (the monitor flags *any* miscalibration,
    and over-prediction is expected for an upper-bound model); only a
    sustained *under*-prediction beyond :data:`_DRIFT_HARD_RATIO`
    diverges, mirroring the hard-factor rule in :func:`_reconcile_cost`.
    """
    monitor = getattr(engine, "drift", None)
    if monitor is None:  # baseline engines carry no drift monitor
        return None
    try:
        alerts = monitor.alerts()
    except Exception:  # noqa: BLE001 - telemetry must never kill a case
        return None
    if diag_sink is not None:
        diag_sink.extend(
            f"COST504 [{strategy}] {alert.render()}" for alert in alerts
        )
    egregious = [
        alert
        for alert in alerts
        if alert.kind == "under_predicted" and alert.ewma > _DRIFT_HARD_RATIO
    ]
    if egregious:
        return Divergence(strategy, batch_index, "drift", egregious[0].render())
    return None


def analyze_case(case: Mapping):
    """Static analysis of the case's generated plan (own database)."""
    from ..analysis import analyze_generated
    from ..core.generator import ScriptGenerator
    from ..core.schema_gen import generate_base_schemas

    db = build_database(case)
    generator = ScriptGenerator("V", build_plan(case["plan"], db))
    generated = generator.generate(generate_base_schemas(generator.plan, db))
    return analyze_generated(generated, db=db)


def fingerprint_check(case: Mapping) -> Optional[str]:
    """Twin-generation fingerprint determinism check.

    Builds the case's database and generates its ∆-script twice, fully
    independently, and compares the exact (syntactic) fingerprints of
    the two generated plans.  The generator is supposed to be a pure
    function of (plan, statistics); a mismatch means some ambient state
    (hash ordering, caching, RNG) leaked into plan or script structure —
    exactly the bug class the incremental analysis cache cannot survive.
    Returns a detail string on mismatch, None when the twins agree.
    """
    from ..analysis import generated_fingerprint
    from ..core.generator import ScriptGenerator
    from ..core.schema_gen import generate_base_schemas

    prints = []
    for _ in range(2):
        db = build_database(case)
        generator = ScriptGenerator("V", build_plan(case["plan"], db))
        generated = generator.generate(
            generate_base_schemas(generator.plan, db)
        )
        prints.append(generated_fingerprint(generated, db, alpha=False))
    if prints[0] != prints[1]:
        return f"twin generations fingerprint {prints[0]} != {prints[1]}"
    return None


def run_case(
    case: Mapping, strategies: Sequence[str] = ALL_STRATEGIES
) -> CaseResult:
    """Differential-check one case across *strategies*.

    The static analyzer runs first, as one more cross-check: a crash is
    an ``exception`` divergence, an error-severity diagnostic on a plan
    the generator was happy to emit is an ``analysis`` divergence —
    either the generator produced a hazard or the analyzer cried wolf,
    and both are findings.  Twin generations that disagree on their
    exact fingerprint are a ``fingerprint`` divergence: nondeterminism
    in the generator that would silently poison the analysis cache.
    """
    result = CaseResult()
    try:
        report = analyze_case(case)
    except Exception as exc:  # noqa: BLE001
        result.divergences.append(
            Divergence("analyzer", -1, "exception", _tail(exc))
        )
    else:
        result.diagnostics = [d.render() for d in report.diagnostics]
        for diag in report.errors:
            result.divergences.append(
                Divergence(
                    "analyzer", -1, "analysis", diag.render().splitlines()[0]
                )
            )
        try:
            mismatch = fingerprint_check(case)
        except Exception as exc:  # noqa: BLE001
            result.divergences.append(
                Divergence("analyzer", -1, "exception", _tail(exc))
            )
        else:
            if mismatch is not None:
                result.divergences.append(
                    Divergence("analyzer", -1, "fingerprint", mismatch)
                )
    try:
        expected = oracle_states(case)
    except Exception as exc:  # noqa: BLE001
        result.divergences.append(
            Divergence("oracle", -1, "oracle_error", _tail(exc))
        )
        return result
    for strategy in strategies:
        divergence = run_strategy(
            case, strategy, expected, diag_sink=result.diagnostics
        )
        if divergence is not None:
            result.divergences.append(divergence)
    return result
