"""Run one crosscheck case: every strategy against the recompute oracle.

The oracle is :func:`repro.algebra.evaluate_plan` — the interpretive
from-scratch evaluator — applied after every batch to a private database
that receives the same modification stream; beside it, the plan's
generated operators (:class:`repro.core.compile.LoweredPlan`, what
definitions and :class:`repro.baselines.recompute.RecomputeEngine` run)
must agree with it in rows and per-phase counts.  Before any round, the
view is defined twice through the engines' one definition pipeline
(:func:`repro.analysis.cost.lint_definition`): the twins must have one
exact fingerprint, and the analyzer's report on the script that ships
must hold no error.

Each strategy then runs on its *own* fresh database, through one loop
over the views it defines (:func:`run_strategy`): after every batch each
view must equal the oracle's multiset exactly, every cursor must be at
the log head, and the engine must pass every invariant in
:mod:`repro.crosscheck.invariants`.  Two strategies add one step each:
``faults`` first runs every round with a failure injected after a seeded
counted write, which must leave every written table as it was (a view is
always some past version of its query, never a mix); ``shared`` defines
the plan as ``V`` and ``V2`` on one engine, so that ``V2`` binds every
statement ``V`` computed (:mod:`repro.core.share`), and checks both
views' counts against a solo engine.

A divergence names the strategy, the batch and what went wrong; the
shrinker and the regression corpus both consume this structure.
"""

from __future__ import annotations

import random
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from ..baselines import TupleIvmEngine
from ..core import IdIvmEngine
from ..core.compile import LoweredPlan
from ..obs import metrics, recording
from ..core.idinfer import annotate_plan
from ..core.modlog import ModificationLog
from ..core.engine import HostedView
from ..core.sharded import ShardedEngine
from ..algebra import project_columns
from ..algebra.evaluate import evaluate_plan
from ..analysis import AnalysisReport, cost, generated_fingerprint
from ..storage import AccessCounts
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
    # Each round fails once after a counted write, then is retried.
    "faults": lambda db: IdIvmEngine(db, exec_backend="compiled"),
    # The plan defined twice — the twin binds what the first computed —
    # and a π over it, answered from the first's table.
    "shared": lambda db: IdIvmEngine(db, exec_backend="compiled"),
}

ALL_STRATEGIES = tuple(STRATEGY_FACTORIES)


@dataclass
class Divergence:
    """One way one strategy disagreed with the oracle (or itself)."""

    strategy: str
    batch: int  # -1: view definition / initial state
    kind: str  # "view_mismatch" | "invariant" | "exception" |
    #          # "oracle_error" | "analysis" | "cost" | "drift" |
    #          # "race" | "fingerprint" | "plan_eval" | "rollback"
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


def oracle_states(
    case: Mapping, plan_eval: Optional[list] = None
) -> list[Counter]:
    """Expected view multisets after each batch (full recomputation).

    Raises whatever the evaluator raises — the caller classifies an
    oracle failure as ``oracle_error`` (the case is unusable as a
    differential test, but a *crashing* oracle is still a finding: the
    shared expression/algebra layer blew up).  With a *plan_eval* list,
    the plan's generated operators run after every batch too, and each
    batch where their columns, rows or per-phase counts differ from the
    oracle's — or where they raise — appends a ``plan_eval``
    :class:`Divergence`.
    """
    db = build_database(case)
    plan = annotate_plan(build_plan(case["plan"], db))
    lowered = LoweredPlan(plan) if plan_eval is not None else None
    log = ModificationLog(db)
    states = []
    for bi, batch in enumerate(case["batches"]):
        for op in batch:
            apply_modification(log, op)
        log.take()
        db.counters.reset()
        expected = evaluate_plan(plan, db)
        states.append(Counter(expected.rows))
        if lowered is None:
            continue
        counts = db.counters.as_dict()
        db.counters.reset()
        try:
            actual = lowered.evaluate(plan, db)
        except Exception as exc:  # noqa: BLE001 - the fuzzer reports, never raises
            plan_eval.append(Divergence("generated", bi, "plan_eval", _tail(exc)))
            continue
        if actual.columns != expected.columns:
            detail = f"columns {actual.columns} != {expected.columns}"
        elif Counter(actual.rows) != states[-1]:
            detail = _multiset_detail(states[-1], Counter(actual.rows))
        elif db.counters.as_dict() != counts:
            detail = f"counts {db.counters.as_dict()} != {counts}"
        else:
            continue
        plan_eval.append(Divergence("generated", bi, "plan_eval", detail))
    return states


class InjectedFault(RuntimeError):
    """The failure the ``faults`` strategy raises inside a round."""


#: A ``faults`` round raises once its k-th tuple write is charged, k in
#: 1..FAULT_MAX_WRITE.  A round with fewer writes completes, so k stays
#: small: most fuzzed rounds write a handful of rows or none.
FAULT_MAX_WRITE = 4


@contextmanager
def _failing_write(counters, k: int):
    """Raise :class:`InjectedFault` right after *counters* charge the
    *k*-th tuple write of the block."""
    real = counters.count_tuple_write
    written = 0

    def count_tuple_write(n: int = 1) -> None:
        nonlocal written
        real(n)
        written += n
        if written >= k:
            raise InjectedFault(f"injected after tuple write {written}")

    counters.count_tuple_write = count_tuple_write
    try:
        yield
    finally:
        vars(counters).pop("count_tuple_write", None)


def _faulty_round(engine, views, batch_index: int, batch) -> Optional[Divergence]:
    """Run the round of *batch* with a failure injected after a seeded
    counted write; a round that fails must leave each table *views*
    write as it was before the round."""
    k = random.Random(f"{batch_index}:{batch!r}").randint(1, FAULT_MAX_WRITE)
    tables = [table for view in views for table in view.written_tables]
    before = [Counter(t.rows_uncounted()) for t in tables]
    try:
        with _failing_write(engine.db.counters, k):
            engine.maintain()
    except InjectedFault:
        for table, rows in zip(tables, before):
            after = Counter(table.rows_uncounted())
            if after != rows:
                return Divergence(
                    "faults", batch_index, "rollback",
                    f"{table.name} half applied after a failure at write {k}: "
                    + _multiset_detail(rows, after),
                )
    return None


def run_strategy(
    case: Mapping,
    strategy: str,
    expected: Sequence[Counter],
    diag_sink: Optional[list] = None,
) -> Optional[Divergence]:
    """Run one strategy over the case; return its first divergence.

    One loop for every strategy: after every batch, every view the
    strategy defines passes :func:`_check_view`.  Two strategies add a
    step: ``faults`` fails each round once before the round that counts
    (:func:`_faulty_round`), and ``shared`` checks its views' counts
    against a solo engine (:func:`_shared_counts`) and its π twin ``V3``
    — its columns reversed — against ``V``'s oracle projected."""
    factory = STRATEGY_FACTORIES[strategy]
    shared = strategy == "shared"
    try:
        db = build_database(case)
        engine = factory(db)
        views = [
            engine.define_view(name, build_plan(case["plan"], db))
            for name in (("V", "V2") if shared else ("V",))
        ]
        if shared:
            plan = build_plan(case["plan"], db)
            views.append(engine.define_view("V3", project_columns(plan, plan.columns[::-1])))
            solo_db = build_database(case)
            solo = factory(solo_db)
            solo.define_view("V", build_plan(case["plan"], solo_db))
    except Exception as exc:  # noqa: BLE001 - the fuzzer reports, never raises
        return Divergence(strategy, -1, "exception", _tail(exc))
    if shared and getattr(views[2], "host", None) is not views[0]:
        return Divergence(
            strategy, -1, "invariant", "V3, a π over V, is not answered from V's table"
        )
    # (a V that is a π over a cache it keeps answers V2 from that cache)
    twin_shares = shared and not isinstance(views[1], HostedView)
    if twin_shares and set(views[1].script._shared) != set(views[1].share_keys):
        return Divergence(
            strategy, -1, "invariant",
            f"V2 shares statements {sorted(views[1].script._shared)} of the "
            f"eligible {sorted(views[1].share_keys)}",
        )
    for bi, batch in enumerate(case["batches"]):
        try:
            for op in batch:
                apply_modification(engine.log, op)
                if shared:
                    apply_modification(solo.log, op)
            if strategy == "faults":
                half_applied = _faulty_round(engine, views, bi, batch)
                if half_applied is not None:
                    return half_applied
            alone = solo.maintain()["V"] if shared else None
            # A shared round is traced: V's statement spans price what V2 reused.
            with recording() if shared else nullcontext() as recorder:
                reports = engine.maintain()
        except Exception as exc:  # noqa: BLE001
            return Divergence(strategy, bi, "exception", _tail(exc))
        behind = {n: c for n, c in engine.log.cursors.items() if c != engine.log.position}
        if behind:
            return Divergence(
                strategy, bi, "invariant", f"cursors {behind} behind the log head "
                f"{engine.log.position} after a complete round",
            )
        for view in views:
            divergence = _check_view(
                strategy, bi, view, db, reports[view.name],
                _projected(expected[bi], views[0], view), diag_sink,
            )
            if divergence is not None:
                return divergence
        if shared:
            divergence = _shared_counts(bi, reports, alone, recorder)
            if divergence is not None:
                return divergence
    return _check_drift(engine, strategy, len(case["batches"]) - 1, diag_sink)


def _projected(rows: Counter, of, view) -> Counter:
    """*rows* of view *of* projected onto the columns of *view*, a π over
    it (or itself)."""
    if view is of:
        return rows
    at = [of.table.schema.columns.index(c) for c in view.table.schema.columns]
    projected: Counter = Counter()
    for row, n in rows.items():
        projected[tuple(row[i] for i in at)] += n
    return projected


def _check_view(
    strategy: str, bi: int, view, db, report, expected: Counter, diag_sink: Optional[list]
) -> Optional[Divergence]:
    """The checks every view of every strategy passes after a round:
    the oracle multiset, the engine invariants, no racing shard writes
    and COST503 reconciliation."""
    actual = Counter(view.table.rows_uncounted())
    if actual != expected:
        return Divergence(
            strategy, bi, "view_mismatch",
            f"{view.name}: " + _multiset_detail(expected, actual),
        )
    try:
        problems = check_engine_state(view, db, report)
    except Exception as exc:  # noqa: BLE001
        return Divergence(strategy, bi, "exception", _tail(exc))
    if problems:
        return Divergence(strategy, bi, "invariant", f"{view.name}: " + "; ".join(problems[:3]))
    if isinstance(view, HostedView) and (report.host != view.host.name or report.phase_counts):
        return Divergence(
            strategy, bi, "cost", f"{view.name}, hosted by {view.host.name}, reports host "
            f"{report.host!r} and counts {_phases(report.phase_counts)}",
        )
    overlaps = getattr(report, "race_overlaps", None)
    if overlaps:
        shown = "; ".join(
            f"{tag} key {key!r} by shards {list(shards)}"
            for tag, key, shards in overlaps[:3]
        )
        return Divergence(
            strategy, bi, "race",
            f"{len(overlaps)} overlapping per-shard write(s): {shown}",
        )
    return _reconcile_cost(report, strategy, bi, diag_sink)


def _phases(phase_counts) -> dict:
    """*phase_counts* as plain dicts, the phases that counted nothing left out."""
    return {
        phase: counts.as_dict() for phase, counts in phase_counts.items()
        if any(counts.as_dict().values())
    }


def _shared_counts(bi: int, reports, alone, recorder) -> Optional[Divergence]:
    """The ``shared`` strategy's count check: the lender ``V`` counts
    exactly what *alone* (``V`` on a solo engine) counted, and ``V2``
    what ``V`` counted less the statements it reused, priced from
    ``V``'s traced statement spans of the same names."""
    lender, borrower = reports["V"], reports["V2"]
    if _phases(lender.phase_counts) != _phases(alone.phase_counts):
        return Divergence(
            "shared", bi, "cost",
            f"lender V counts {_phases(lender.phase_counts)} != solo V "
            f"{_phases(alone.phase_counts)}",
        )
    if borrower.host is not None:
        return None  # a hosted V2 costs nothing (checked with every view)
    reused = {name for name, _lender in borrower.reused}
    owed = dict(lender.phase_counts)
    for view_span in recorder.find(kind="view", name="view:V"):
        for span in view_span.walk():
            if span.kind == "stmt" and span.attrs.get("stmt") in reused:
                for phase in (span.attrs["phase"], "__total__"):
                    owed[phase] = owed.get(phase, AccessCounts()) - span.counts
    if _phases(borrower.phase_counts) != _phases(owed):
        return Divergence(
            "shared", bi, "cost",
            f"V2 counts {_phases(borrower.phase_counts)} != V's less its "
            f"{len(reused)} reused statement(s) {_phases(owed)}",
        )
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
        deviations = cost.reconcile_report(report)
    except Exception as exc:  # noqa: BLE001
        return Divergence(strategy, batch_index, "exception", _tail(exc))
    if not deviations:
        return None
    metrics.counter("crosscheck.cost_deviations").inc(len(deviations))
    if diag_sink is not None:
        diag_sink.extend(f"COST503 [{strategy} @ batch {batch_index}] {d.render()}"
                         for d in deviations)
    for d in deviations:
        if d.measured > _COST_HARD_FACTOR * d.predicted + _COST_HARD_SLACK:
            return Divergence(strategy, batch_index, "cost", d.render())
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
    try:
        alerts = engine.drift.alerts()
    except Exception as exc:  # noqa: BLE001
        return Divergence(strategy, batch_index, "exception", _tail(exc))
    if diag_sink is not None:
        diag_sink.extend(f"COST504 [{strategy}] {alert.render()}" for alert in alerts)
    for alert in alerts:
        if alert.kind == "under_predicted" and alert.ewma > _DRIFT_HARD_RATIO:
            return Divergence(strategy, batch_index, "drift", alert.render())
    return None


def _define(case: Mapping):
    """``(generated, report, db)``: the case's view ``V`` defined as the
    engines define it (:func:`repro.analysis.cost.lint_definition` —
    the script the ``compiled`` strategy ships) and the analyzer's
    report on it, on a database of its own."""
    db = build_database(case)
    generated, report = cost.lint_definition("V", build_plan(case["plan"], db), db)
    return generated, report, db


def analyze_case(case: Mapping) -> AnalysisReport:
    """Static analysis of the script the case's view ships."""
    return _define(case)[1]


def fingerprint_check(case: Mapping) -> tuple[AnalysisReport, Optional[str]]:
    """Twin-definition fingerprint determinism check.

    Defines the case's view twice, fully independently — the first
    through :func:`repro.analysis.cost.lint_definition`, the twin through
    :func:`repro.analysis.cost.define_alone`, the same pipeline without
    the analyzer — and compares the exact (syntactic) fingerprints of
    the two shipped scripts.
    Definition is supposed to be a pure function of (plan, statistics);
    a mismatch means some ambient state (hash ordering, caching, RNG)
    leaked into plan or script structure — exactly the bug class the
    incremental analysis cache cannot survive.  Returns the analyzer's
    report on the first twin and a detail string on mismatch (None when
    the twins agree).
    """
    generated, report, db = _define(case)
    twin_db = build_database(case)
    twin, _ = cost.define_alone("V", build_plan(case["plan"], twin_db), twin_db)
    first = generated_fingerprint(generated, db, alpha=False)
    second = generated_fingerprint(twin, twin_db, alpha=False)
    mismatch = f"twin definitions fingerprint {first} != {second}" if first != second else None
    return report, mismatch


def run_case(
    case: Mapping, strategies: Sequence[str] = ALL_STRATEGIES
) -> CaseResult:
    """Differential-check one case across *strategies*.

    The static analyzer runs first, as one more cross-check, on the
    script the view ships: a crash is an ``exception`` divergence, an
    error-severity diagnostic on a script the pipeline was happy to
    ship is an ``analysis`` divergence — either the generator produced
    a hazard or the analyzer cried wolf, and both are findings.  Twin
    definitions that disagree on their exact fingerprint are a
    ``fingerprint`` divergence: nondeterminism in the pipeline that
    would silently poison the analysis cache.
    """
    result = CaseResult()
    try:
        report, mismatch = fingerprint_check(case)
    except Exception as exc:  # noqa: BLE001
        result.divergences.append(
            Divergence("analyzer", -1, "exception", _tail(exc))
        )
    else:
        result.diagnostics = [d.render() for d in report.diagnostics]
        result.divergences += [
            Divergence("analyzer", -1, "analysis", d.render().splitlines()[0])
            for d in report.errors
        ]
        if mismatch is not None:
            result.divergences.append(Divergence("analyzer", -1, "fingerprint", mismatch))
    try:
        expected = oracle_states(case, plan_eval=result.divergences)
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
