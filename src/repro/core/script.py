"""∆-scripts: the executable output of the 4-pass generator (Section 4).

A ∆-script is an ordered list of steps:

* :class:`ComputeDiffStep` — evaluate a diff-query IR tree and bind the
  result to a name (the queries of Figure 7);
* :class:`ApplyDiffStep` — APPLY a named diff to a materialized target
  (a cache or the view), capturing the ``UPDATE ... RETURNING``
  expansion;
* :class:`MarkCacheUpdatedStep` — record that a cache now holds the
  post-state (subview references switch from recompute to cache read);
* aggregate steps (:mod:`repro.core.rules.aggregate`) — the blocking
  rules of Tables 7, 9, 11, 12.

Steps carry a *phase* label so the harness can attribute access counts to
the paper's Figure 12 cost components (cache update / view diff
computation / view update).
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from typing import Callable, Optional

from ..errors import ScriptError
from ..obs import metrics
from ..obs import spans as obs
from ..storage import CounterSet
from .apply import apply_diff
from .diffs import Diff, DiffSchema
from .ir import IrNode
from .ir_exec import IrContext, run_ir

PHASE_CACHE_DIFF = "cache_diff"
PHASE_CACHE_UPDATE = "cache_update"
PHASE_VIEW_DIFF = "view_diff"
PHASE_VIEW_UPDATE = "view_update"


class Step:
    """Base class for ∆-script steps."""

    phase: str = PHASE_VIEW_DIFF

    def run(self, ctx: IrContext) -> Optional[int]:
        """Execute the statement; returns the number of rows of the diff
        it computed or applied, ``None`` where it has no single diff."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class ComputeDiffStep(Step):
    """``name := <IR>`` — compute a diff and bind it in the environment."""

    def __init__(self, name: str, schema: DiffSchema, ir: IrNode, phase: str):
        self.name = name
        self.schema = schema
        self.ir = ir
        self.phase = phase

    def run(self, ctx: IrContext) -> int:
        relation = run_ir(self.ir, ctx)
        diff = ctx.diffs[self.name] = Diff.from_relation(self.schema, relation)
        return len(diff.rows)

    def describe(self) -> str:
        return f"{self.name} := {self.schema!r}\n{self.ir.pretty(1)}"


class ApplyDiffStep(Step):
    """``APPLY name`` against a cache or the view (Section 2 DML)."""

    def __init__(
        self,
        diff_name: str,
        target_node_id: int,
        target_label: str,
        phase: str,
        returning_name: Optional[str] = None,
    ):
        self.diff_name = diff_name
        self.target_node_id = target_node_id
        self.target_label = target_label
        self.phase = phase
        self.returning_name = returning_name

    def run(self, ctx: IrContext) -> int:
        diff = ctx.diffs.get(self.diff_name)
        if diff is None:
            raise ScriptError(f"diff {self.diff_name!r} was never computed")
        table = ctx.caches.get(self.target_node_id)
        if table is None:
            raise ScriptError(
                f"no materialization registered for node {self.target_node_id}"
            )
        applied = apply_diff(table, diff)
        if self.returning_name is not None:
            ctx.expansions[self.returning_name] = applied
        return len(diff.rows)

    def describe(self) -> str:
        tail = f" RETURNING {self.returning_name}" if self.returning_name else ""
        return f"APPLY {self.diff_name} TO {self.target_label}{tail}"


class MarkCacheUpdatedStep(Step):
    """Flip a cache's state to post (all its diffs have been applied)."""

    def __init__(self, node_id: int, label: str):
        self.node_id = node_id
        self.label = label
        self.phase = PHASE_CACHE_UPDATE

    def run(self, ctx: IrContext) -> None:
        ctx.mark_cache_updated(self.node_id)

    def describe(self) -> str:
        return f"-- {self.label} is now post-state"


class DeltaScript:
    """An ordered ∆-script plus the metadata needed to execute it.

    One per view: the generator stores it on the view's
    :class:`~repro.core.generator.GeneratedPlan`, and the router, the
    analysis passes, the cost walker and the executor all read that
    object.  What differs between the execution backends is executor
    state hung on it — the kernels :func:`repro.core.compile.bind_kernels`
    lowered from its compute steps — never a second script.
    """

    def __init__(self, steps: list[Step], view_node_id: int):
        self.steps = steps
        self.view_node_id = view_node_id
        #: step index -> ``kernel(ctx) -> diff rows``, the lowered form
        #: of that compute step; a step without one interprets its IR.
        self._kernels: dict[int, Callable[[IrContext], int]] = {}
        self._exec_plan: Optional[list] = None

    def bind_kernels(self, kernels: dict[int, Callable[[IrContext], int]]) -> None:
        """Replace the bound kernels (``{}`` unbinds: every step then
        interprets) and drop the exec plan resolved from the old ones."""
        self._kernels = kernels
        self._exec_plan = None

    def exec_plan(self) -> list:
        """Per-step ``(run, phase)`` pairs, bound once — the one place
        that decides what runs for a step: its bound kernel, else the
        step's own ``run`` (for a compute step, ``run_ir`` over its IR).

        Scripts are immutable after construction and re-executed every
        round, so the attribute lookups of the hot loop are resolved
        here a single time.
        """
        plan = self._exec_plan
        if plan is None:
            kernels = self._kernels
            plan = self._exec_plan = [
                (kernels.get(i, step.run), step.phase)
                for i, step in enumerate(self.steps)
            ]
        return plan

    def __getstate__(self) -> dict:
        # Kernels are closures and the exec plan holds them beside bound
        # methods — process local and unpicklable.  Whoever unpickles
        # the script re-binds (a shard worker does at boot); until then
        # it interprets.
        state = self.__dict__.copy()
        state["_kernels"] = {}
        state["_exec_plan"] = None
        return state

    def describe(self) -> str:
        """Human-readable rendering (the Figure 7 shape)."""
        lines = []
        for i, step in enumerate(self.steps, start=1):
            lines.append(f"{i:3d}. [{step.phase}] {step.describe()}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.steps)


def execute_script(
    script: DeltaScript, ctx: IrContext, counters: CounterSet
) -> dict[str, Diff]:
    """Run every step under its phase label; returns the diff environment.

    Steps of one phase are contiguous, so the counter phase (a generator
    context manager) is entered once per phase run, not once per
    statement — a 500-step script stops paying ~500 context switches per
    round.  With a recorder installed the phase run is also a ``phase:``
    span and every statement a ``stmt[i]`` span.  The phase span's
    access-count delta is that of the phase's counter *bucket*, so
    per-phase sums over a round's phase spans reconcile with the
    engine's ``MaintenanceReport.phase_counts``.
    """
    recorder = obs.current_recorder()
    observe = metrics.histogram("script.stmt_diff_rows").observe
    stack = ExitStack()
    open_phase: Optional[str] = None
    phase_started = 0.0
    try:
        for i, (run, phase) in enumerate(script.exec_plan(), start=1):
            if phase != open_phase:
                now = time.perf_counter()
                if open_phase is not None:
                    _observe_phase_seconds(open_phase, now - phase_started)
                stack.close()
                stack = ExitStack()
                if recorder is not None:
                    stack.enter_context(
                        recorder.span(
                            f"phase:{phase}",
                            kind="phase",
                            counters=counters,
                            phase_of=phase,
                            phase=phase,
                        )
                    )
                stack.enter_context(counters.phase(phase))
                open_phase = phase
                phase_started = now
            if recorder is None:
                diff_rows = run(ctx)
            else:
                step = script.steps[i - 1]
                with recorder.span(
                    f"stmt[{i}]",
                    kind="stmt",
                    counters=counters,
                    phase=phase,
                    step=type(step).__name__,
                    stmt=(
                        step.name
                        if isinstance(step, ComputeDiffStep)
                        else step.describe().splitlines()[0]
                    ),
                ) as sp:
                    diff_rows = run(ctx)
                    if diff_rows is not None:
                        sp.set(diff_rows=diff_rows)
            if diff_rows is not None:
                observe(diff_rows)
    finally:
        stack.close()
        if open_phase is not None:
            _observe_phase_seconds(open_phase, time.perf_counter() - phase_started)
    return ctx.diffs


def _observe_phase_seconds(phase: str, seconds: float) -> None:
    """Latency of one contiguous phase run (safe from shard workers)."""
    metrics.loghist(f"script.phase_seconds.{phase}", unit="seconds").observe(seconds)
