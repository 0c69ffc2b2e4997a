"""Cost-drift monitoring: EWMA of predicted-vs-observed access ratios.

PR 5's symbolic cost model predicts, per maintenance round and phase,
how many index lookups / tuple reads / tuple writes each view's
∆-script will incur.  The COST503 reconciliation checks a *single*
round against a one-sided tolerance; this module watches the ratio
*over time*: per view and per cost metric, an exponentially weighted
moving average of ``observed / predicted`` (both summed over the four
script phases).

A calibrated model hovers near 1.0.  Sustained deviation is *drift*:

* ratio **below** ``LOW`` — the model persistently over-predicts.  This
  is the signature of the negative-benefit caches COST502 flags
  statically (the model charges cache bookkeeping the workload never
  exercises), now confirmed by live counters.
* ratio **above** ``HIGH`` — observed work exceeds the predicted upper
  bound round after round; the model misses an access path (the chronic
  form of COST503).

Alerts surface through three channels: :meth:`DriftMonitor.alerts` for
programmatic use (``repro top``, the serve endpoint), the COST504
informational diagnostic (`repro lint --cost`), and a crosscheck hook.

OpenIVM (PAPERS.md, 2404.16486) uses exactly this maintenance-cost
feedback loop to re-choose strategies; ROADMAP item 2's target-lag
scheduler is the intended consumer here.
"""

from __future__ import annotations

from typing import Any, Optional

#: The CostVector metrics the PR 5 reconciliation compares (and we track).
DRIFT_METRICS = ("index_lookups", "tuple_reads", "tuple_writes")

#: Laplace-style smoothing added to both sides of the ratio so empty
#: rounds and zero predictions stay finite and well-behaved.
_SMOOTHING = 1.0

#: EWMA smoothing factor (weight of the newest round).
ALPHA = 0.3
#: Rounds of evidence required before a ratio can alert — a single
#: unlucky batch is variance, not drift.
MIN_ROUNDS = 3
#: Alert thresholds on the EWMA ratio, deliberately asymmetric: the
#: model is a documented upper bound, so mild over-prediction is
#: expected and only a sustained EWMA below ``LOW`` (less than ~80% of
#: predicted work materializing) counts as drift, while *any* sustained
#: under-prediction beyond COST503's per-round tolerance is suspicious.
LOW = 0.8
HIGH = 1.25
#: (view, metric) series whose per-round predicted *and* observed counts
#: are both below this are ignored — ratios over a handful of accesses
#: are noise.
MIN_VOLUME = 8.0


class DriftState:
    """EWMA state for one (view, metric) ratio series."""

    __slots__ = ("view", "metric", "ewma", "rounds", "last_ratio",
                 "observed_total", "predicted_total")

    def __init__(self, view: str, metric: str):
        self.view = view
        self.metric = metric
        self.ewma: Optional[float] = None
        self.rounds = 0
        self.last_ratio: Optional[float] = None
        self.observed_total = 0.0
        self.predicted_total = 0.0

    def update(self, ratio: float) -> None:
        self.last_ratio = ratio
        self.rounds += 1
        if self.ewma is None:
            self.ewma = ratio
        else:
            self.ewma = ALPHA * ratio + (1.0 - ALPHA) * self.ewma

    def as_dict(self) -> dict[str, Any]:
        return {
            "ewma": self.ewma,
            "rounds": self.rounds,
            "last_ratio": self.last_ratio,
            "observed_total": self.observed_total,
            "predicted_total": self.predicted_total,
        }


class DriftAlert:
    """One sustained predicted-vs-observed deviation."""

    __slots__ = ("view", "metric", "ewma", "rounds", "kind")

    def __init__(self, view: str, metric: str, ewma: float, rounds: int, kind: str):
        self.view = view
        self.metric = metric
        self.ewma = ewma
        self.rounds = rounds
        #: ``"over_predicted"`` (ewma < LOW) or ``"under_predicted"``.
        self.kind = kind

    def render(self) -> str:
        direction = (
            "over-predicts" if self.kind == "over_predicted" else "under-predicts"
        )
        return (
            f"{self.view}/{self.metric}: model {direction} "
            f"(observed/predicted EWMA {self.ewma:.2f} over {self.rounds} rounds)"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "view": self.view,
            "metric": self.metric,
            "ewma": self.ewma,
            "rounds": self.rounds,
            "kind": self.kind,
        }


class DriftMonitor:
    """Per-view EWMA drift tracker over maintenance reports, with the
    thresholds of this module (:data:`ALPHA`, :data:`MIN_ROUNDS`,
    :data:`LOW` / :data:`HIGH`, :data:`MIN_VOLUME`)."""

    def __init__(self):
        self._states: dict[tuple[str, str], DriftState] = {}
        from ..analysis.cost import SCRIPT_PHASES  # deferred: it imports obs
        #: the phases both sides are summed over
        self._phases: tuple[str, ...] = SCRIPT_PHASES
        #: view -> (its last prediction, that prediction summed per metric):
        #: a memoised prediction comes back as the same mapping, summed once
        self._forecasts: dict[str, tuple[Any, tuple[float, ...]]] = {}

    # ------------------------------------------------------------------
    def update_from_report(self, report: object) -> None:
        """Fold a ``MaintenanceReport``'s ``predicted_counts`` against its
        ``phase_counts`` (read in place) into the EWMAs, each summed over
        the script phases left to right, as ``sum()`` did before Python
        3.12; a report without a prediction contributes nothing."""
        predicted = getattr(report, "predicted_counts", None)
        if not predicted:
            return
        view = report.view_name  # type: ignore[attr-defined]
        forecast = self._forecasts.get(view)
        if forecast is None or forecast[0] is not predicted:
            phases = [c for c in map(predicted.get, self._phases) if c is not None]
            sums = []
            for metric in DRIFT_METRICS:
                p = 0.0
                for predicted_counts in phases:
                    p += predicted_counts.get(metric, 0.0)
                sums.append(p)
            forecast = self._forecasts[view] = (predicted, tuple(sums))
        lookups = reads = writes = 0.0
        for counts in map(report.phase_counts.get, self._phases):  # type: ignore[attr-defined]
            if counts is not None:
                lookups += counts.index_lookups
                reads += counts.tuple_reads
                writes += counts.tuple_writes
        for metric, p, o in zip(DRIFT_METRICS, forecast[1], (lookups, reads, writes)):
            if p < MIN_VOLUME and o < MIN_VOLUME:
                continue
            state = self._states.get((view, metric))
            if state is None:
                state = DriftState(view, metric)
                self._states[(view, metric)] = state
            state.observed_total += o
            state.predicted_total += p
            state.update((o + _SMOOTHING) / (p + _SMOOTHING))

    # ------------------------------------------------------------------
    def states(self) -> list[DriftState]:
        return [self._states[k] for k in sorted(self._states)]

    def ratio(self, view: str, metric: str) -> Optional[float]:
        state = self._states.get((view, metric))
        return state.ewma if state is not None else None

    def alerts(self) -> list[DriftAlert]:
        """Every (view, metric) whose EWMA sits outside [LOW, HIGH] with
        at least :data:`MIN_ROUNDS` rounds of evidence."""
        out: list[DriftAlert] = []
        for state in self.states():
            if state.rounds < MIN_ROUNDS or state.ewma is None:
                continue
            if state.ewma < LOW:
                out.append(
                    DriftAlert(
                        state.view, state.metric, state.ewma, state.rounds,
                        "over_predicted",
                    )
                )
            elif state.ewma > HIGH:
                out.append(
                    DriftAlert(
                        state.view, state.metric, state.ewma, state.rounds,
                        "under_predicted",
                    )
                )
        return out

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready state: per view, per metric EWMA + active alerts."""
        views: dict[str, dict[str, Any]] = {}
        for state in self.states():
            views.setdefault(state.view, {})[state.metric] = state.as_dict()
        return {
            "views": views,
            "alerts": [alert.as_dict() for alert in self.alerts()],
            "thresholds": {
                "low": LOW,
                "high": HIGH,
                "alpha": ALPHA,
                "min_rounds": MIN_ROUNDS,
                "min_volume": MIN_VOLUME,
            },
        }
