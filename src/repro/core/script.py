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

A script covers every modification class of every base table (Section 5)
and a round touches few of them, so a round runs a *live slice* of its
script: :func:`step_liveness` closes each step's driving inputs over the
def-use graph down to the base i-diff instances that can make it do
anything, and :meth:`DeltaScript.live_plan` keeps, per set of non-empty
instances, the steps that set reaches plus the shared empties the
skipped ones would have bound.  A round's cost follows the statements
its modifications reach, not the length of the script.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, NamedTuple, Optional, Sequence

from ..algebra.plan import base_tables
from ..errors import ScriptError
from ..obs import metrics
from ..obs import spans as obs
from ..storage import CounterSet, Table
from .apply import AppliedChanges, apply_diff
from .diffs import Diff, DiffSchema
from .ir import IrNode, pre_state_reads
from .ir_exec import IrContext, driving_sources, run_ir

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

    # -- the liveness contract (what lets a round skip the statement) --
    def reads(self) -> Optional[Sequence[tuple[str, str]]]:
        """The inputs that *drive* the statement, as ``("diff" |
        "expansion", name)`` pairs: with every one of them empty ``run``
        makes no counted access, writes no table and binds only empties.
        ``None``: it reads something unconditionally and always runs."""
        return None

    def binds(self) -> Sequence[tuple[str, str]]:
        """What ``run`` binds in ``ctx.diffs`` / ``ctx.expansions``, in
        the same ``(space, name)`` form."""
        return ()

    def idle(self, ctx: IrContext) -> Optional[int]:
        """What ``run`` binds and returns over empty driving inputs,
        without the run: called once per live slice, on the environment
        every round of that slice then shares."""
        raise NotImplementedError

    def pre_tables(self) -> frozenset[str]:
        """The base tables ``run`` may read in ``ctx.db_pre``, the only
        ones an engine replicates (another raises on the round).  None
        by default."""
        return frozenset()

    def bind_tables(self, caches, operator_caches, readers) -> None:
        """Resolve what the statement binds of the view's *caches* and
        *operator_caches* (by node id), once they exist and ahead of its
        first run (:class:`~repro.core.engine.MaterializedView` calls
        it), and the view's *readers* (``core.compile.SubviewReaders``)
        of what it reads of subviews (:meth:`subview_reads`): nothing by
        default."""

    def subview_reads(self) -> Sequence[tuple]:
        """The subview reads ``run`` makes itself, as reader keys
        ``(node, state, binding columns or None, cached)``: what
        :meth:`bind_tables` generates their readers for.  None by
        default — a compute step's reads are its kernel's."""
        return ()

    #: ``settle(ctx)``: what a skipped statement must still do at its
    #: script position (a γ step's cache mark); ``None``: nothing.
    settle: Optional[Callable[[IrContext], None]] = None

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

    def reads(self) -> Optional[list[tuple[str, str]]]:
        names = driving_sources(self.ir)
        return None if names is None else [("diff", name) for name in names]

    def binds(self) -> list[tuple[str, str]]:
        return [("diff", self.name)]

    def pre_tables(self) -> frozenset[str]:
        return frozenset().union(*(base_tables(read.node) for read in pre_state_reads(self.ir)))

    def idle(self, ctx: IrContext) -> int:
        ctx.diffs[self.name] = Diff.trusted(self.schema, [])
        return 0

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

    def _operands(self, ctx: IrContext) -> tuple[Table, Diff]:
        diff = ctx.diffs.get(self.diff_name)
        if diff is None:
            raise ScriptError(f"diff {self.diff_name!r} was never computed")
        table = ctx.caches.get(self.target_node_id)
        if table is None:
            raise ScriptError(
                f"no materialization registered for node {self.target_node_id}"
            )
        return table, diff

    def run(self, ctx: IrContext) -> int:
        table, diff = self._operands(ctx)
        name = self.returning_name
        applied = apply_diff(table, diff, name is not None)
        if name is not None:
            ctx.expansions[name] = applied
        return len(diff.rows)

    def reads(self) -> list[tuple[str, str]]:
        return [("diff", self.diff_name)]

    def binds(self) -> list[tuple[str, str]]:
        if self.returning_name is None:
            return []
        return [("expansion", self.returning_name)]

    def idle(self, ctx: IrContext) -> int:
        if self.returning_name is not None:
            table, diff = self._operands(ctx)
            ctx.expansions[self.returning_name] = AppliedChanges.of(
                diff.schema, table.schema, []
            )
        return 0

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


def step_liveness(steps: Sequence[Step]) -> list[Optional[frozenset[str]]]:
    """Per step, the *leaf* diff names — names no step binds: the base
    i-diff instances — that can make it do anything; ``None``: always
    live.

    The closure of every step's driving inputs (:meth:`Step.reads`) over
    the script's def-use graph, in script order: a step is driven by the
    leaves driving whatever bound its inputs.  A step stays always live
    when it reads something unconditionally, reads a name bound only
    later or an expansion nothing binds, or binds a name that is bound
    twice — everything a slice cannot prove idle runs, so counts cannot
    move and a malformed script still raises on the round.
    """
    times_bound = Counter(key for step in steps for key in step.binds())
    reach: dict[tuple[str, str], Optional[frozenset[str]]] = {}
    liveness: list[Optional[frozenset[str]]] = []
    for step in steps:
        reads = step.reads()
        live: Optional[frozenset[str]] = None
        if reads is not None and all(times_bound[key] == 1 for key in step.binds()):
            leaves: set[str] = set()
            for key in reads:
                space, name = key
                if key in reach:
                    driven_by = reach[key]
                elif key in times_bound or space != "diff":
                    driven_by = None
                else:
                    driven_by = frozenset((name,))
                if driven_by is None:
                    break
                leaves |= driven_by
            else:
                live = frozenset(leaves)
        liveness.append(live)
        for key in step.binds():
            reach[key] = live
    return liveness


class LiveSlice(NamedTuple):
    """What one round of a script runs, for one set of non-empty base
    instances — and what it leaves in place of the rest."""

    #: ``(script index, run, phase)`` of every live statement, in script
    #: order; phase ``None`` marks a skipped statement's ``settle``.
    steps: list[tuple[int, Callable[[IrContext], Optional[int]], Optional[str]]]
    #: the empties the skipped statements would have bound, shared by
    #: every round of the slice (nothing mutates a diff's rows)
    idle_diffs: dict[str, Diff]
    idle_expansions: dict[str, AppliedChanges]
    #: ``{name: 0}`` over ``idle_diffs``, for ``IrContext.diff_sizes``
    idle_sizes: dict[str, int]
    #: diff names the live statements bind
    binds: tuple[str, ...]
    #: statements skipped, and how many of them report a diff-row count
    skipped: int
    skipped_counted: int


#: Live slices memoised per script; a workload sees a handful of masks
#: (one per combination of modified tables), an adversarial one gets the
#: memo dropped and rebuilt.
SLICE_MEMO_MAX = 64


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
        self._liveness: Optional[list[Optional[frozenset[str]]]] = None
        self._leaves: frozenset[str] = frozenset()
        self._slices: dict[frozenset[str], LiveSlice] = {}
        #: the view's subview readers (``core.compile.readers_of``)
        self.readers = None

    def bind_kernels(self, kernels: dict[int, Callable[[IrContext], int]]) -> None:
        """Replace the bound kernels (``{}`` unbinds: every step then
        interprets) and drop the exec plan and the live slices resolved
        from the old ones.  Liveness is closed here, at bind time, so no
        round pays for it."""
        self._kernels = kernels
        self._exec_plan = None
        self._slices = {}
        self.liveness()

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

    # ------------------------------------------------------------------
    # live slices: a round runs what its non-empty instances can reach
    # ------------------------------------------------------------------
    def liveness(self) -> list[Optional[frozenset[str]]]:
        """:func:`step_liveness` of the steps, closed once."""
        liveness = self._liveness
        if liveness is None:
            liveness = self._liveness = step_liveness(self.steps)
            self._leaves = frozenset().union(*(live for live in liveness if live))
        return liveness

    def leaves(self) -> frozenset[str]:
        """Every name some step is driven by and no step binds: the base
        i-diff instances the script reads.  As a mask, the full plan."""
        self.liveness()
        return self._leaves

    def live_mask(self, diffs: dict[str, Diff]) -> frozenset[str]:
        """The leaves that can make a step run this round: the non-empty
        instances of *diffs* — and any leaf missing from it, so the step
        that reads it runs and raises."""
        get = diffs.get
        return frozenset(
            name for name in self.leaves()
            if (diff := get(name)) is None or diff.rows
        )

    def reached(self, mask: frozenset[str]) -> list[bool]:
        """Per step, whether a round whose non-empty leaves are *mask*
        runs it: an always-live step, or one a name of *mask* drives."""
        return [
            live is None or not live.isdisjoint(mask) for live in self.liveness()
        ]

    def live_plan(self, mask: frozenset[str], ctx: IrContext) -> LiveSlice:
        """The slice of :meth:`exec_plan` that *mask* reaches, memoised
        per mask.  *ctx* supplies the table schemas the idle bindings of
        a new slice are built from (the same for every round of a view);
        its environment is not touched."""
        live = self._slices.get(mask)
        if live is None:
            if len(self._slices) >= SLICE_MEMO_MAX:
                self._slices.clear()
            live = self._slices[mask] = self._slice(mask, ctx)
        return live

    def _slice(self, mask: frozenset[str], ctx: IrContext) -> LiveSlice:
        env = IrContext(ctx.db_pre, ctx.db_post, diffs=ctx.diffs, caches=ctx.caches)
        env.operator_caches = ctx.operator_caches
        steps, binds, skipped, skipped_counted = [], [], 0, 0
        plan = zip(self.steps, self.exec_plan(), self.reached(mask))
        for i, (step, (run, phase), reached) in enumerate(plan, start=1):
            if reached:
                steps.append((i, run, phase))
                binds.extend(n for space, n in step.binds() if space == "diff")
                continue
            skipped += 1
            if step.idle(env) is not None:
                skipped_counted += 1
            if step.settle is not None:
                steps.append((i, step.settle, None))
        idle_diffs = {n: d for n, d in env.diffs.items() if n not in ctx.diffs}
        return LiveSlice(
            steps, idle_diffs, env.expansions, dict.fromkeys(idle_diffs, 0),
            tuple(binds), skipped, skipped_counted,
        )

    def __getstate__(self) -> dict:
        # Kernels and readers are generated functions, and the exec plan
        # and the live slices hold them beside bound methods — process
        # local and unpicklable.
        # Whoever unpickles the script re-binds (a shard worker does at
        # boot); until then it interprets.
        state = self.__dict__.copy()
        state["_kernels"] = {}
        state["_exec_plan"] = None
        state["_slices"] = {}
        state["readers"] = None
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
    """Run the round's live slice of *script*, every statement under its
    phase label; returns the diff environment.

    The statements the round's non-empty instances cannot reach are not
    run (:meth:`DeltaScript.live_plan`): the names they would have bound
    are in the environment as shared empties, ``ctx.diff_sizes`` carries
    their zeros, and ``script.stmt_diff_rows`` receives their zero
    observations in one call — a reader of the round cannot tell.

    Steps of one phase are contiguous, so the counter phase is entered
    once per phase run that holds a live statement, not once per
    statement.  With a recorder installed the phase run is also a
    ``phase:`` span and every live statement a ``stmt[i]`` span, *i* its
    script index.  The phase span's access-count delta is that of the
    phase's counter *bucket*, so per-phase sums over a round's phase
    spans reconcile with the engine's ``MaintenanceReport.phase_counts``.
    The statements' diff-row counts are observed once per distinct value.
    """
    recorder = obs.current_recorder()
    diffs = ctx.diffs
    live = script.live_plan(script.live_mask(diffs), ctx)
    sizes = {name: len(diff.rows) for name, diff in diffs.items()}
    sizes.update(live.idle_sizes)
    diffs.update(live.idle_diffs)
    ctx.expansions.update(live.idle_expansions)
    _STMTS_SKIPPED().inc(live.skipped)
    # diff rows -> how many statements reported that many
    diff_rows_seen = {0: live.skipped_counted} if live.skipped_counted else {}
    scope = span = None  # the open phase run's counter phase and span
    open_phase: Optional[str] = None
    phase_started = 0.0
    try:
        for i, run, phase in live.steps:
            if phase is None:  # a skipped γ step's cache mark
                run(ctx)
                continue
            if phase != open_phase:
                now = time.perf_counter()
                if open_phase is not None:
                    _close_phase(scope, span, open_phase, now - phase_started)
                if recorder is not None:
                    span = recorder.span(f"phase:{phase}", kind="phase",
                                         counters=counters, phase_of=phase, phase=phase)
                    span.__enter__()
                scope = counters.phase(phase)
                scope.__enter__()
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
                diff_rows_seen[diff_rows] = diff_rows_seen.get(diff_rows, 0) + 1
    finally:
        if open_phase is not None:
            _close_phase(scope, span, open_phase, time.perf_counter() - phase_started)
        observe = _STMT_DIFF_ROWS().observe
        for diff_rows, times in diff_rows_seen.items():
            observe(diff_rows, times)
    for name in live.binds:
        sizes[name] = len(diffs[name].rows)
    ctx.diff_sizes = sizes
    return diffs


_STMT_DIFF_ROWS = metrics.Handle("histogram", "script.stmt_diff_rows")
_STMTS_SKIPPED = metrics.Handle("counter", "script.stmts_skipped")
#: ``script.phase_seconds.<phase>``, one handle per phase met
_PHASE_SECONDS: dict[str, metrics.Handle] = {}


def _close_phase(scope, span, phase: str, seconds: float) -> None:
    """Leave a phase run (counter phase, then span); observe its latency."""
    scope.__exit__(None, None, None)
    if span is not None:
        span.__exit__(None, None, None)
    handle = _PHASE_SECONDS.get(phase)
    if handle is None:
        handle = _PHASE_SECONDS[phase] = metrics.Handle(
            "loghist", f"script.phase_seconds.{phase}", "seconds"
        )
    handle().observe(seconds)
