"""Outside-in layer probes: timing wrappers around public callables.

The benchmark adds no tracing inside ``src/``.  A *probe* wraps one
callable of ``repro`` (resolved by name when the probes are installed)
and records a span — layer name, start, end, parent span — in memory.  A
layer's *self* time is its spans' duration minus the part their child
spans cover, so the self times of everything under a round add up to
the round by construction.

Probes are rebound in every loaded ``repro.*`` module that holds the
callable under any name (``sharded``, ``workers``, ``tuple_ivm`` and
``sdbt`` import ``_reconstruct_pre`` by name, for instance).  A probe
whose target no longer exists is reported in ``missing`` and never fails
the run: later PRs may rename or delete the callables, and the
benchmark must keep running across them.
"""

from __future__ import annotations

import functools
import importlib
import json
import pickle
import sys
import types
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator, Optional

#: Root span of one traced maintenance round (recorded by the harness
#: around ``engine.maintain()``, not by a probe).
ROUND = "engine.round"

# Span record layout (a list, mutated in place while the span is open).
LAYER, START, END, PARENT, WORK = range(5)


@dataclass(frozen=True)
class ProbeSpec:
    layer: str                 # span name; several probes may share one
    module: str                # dotted module holding the target
    attr: str                  # "function" or "Class.method"
    work: Optional[Callable] = None   # (args, result) -> int work count

    @property
    def target(self) -> str:
        return f"{self.module}:{self.attr}"


def _table_rows(args, _result) -> int:
    return sum(len(table) for table in args[0].tables.values())


def _diff_rows(_args, result) -> int:
    return sum(len(diff) for diff in result.values())


def _applied_rows(args, _result) -> int:
    return len(args[1])


def _encoded_bytes(_args, result) -> int:
    return len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))


def _decoded_bytes(args, _result) -> int:
    return len(pickle.dumps(args[0], pickle.HIGHEST_PROTOCOL))


#: Layers are this repo's modules.  Work counters run after the span has
#: ended, so their own cost lands in the caller's self time.
PROBES: tuple[ProbeSpec, ...] = (
    ProbeSpec("engine.prestate", "repro.core.engine", "_reconstruct_pre"),
    ProbeSpec("storage.copy", "repro.storage.database", "Database.copy", _table_rows),
    ProbeSpec("modlog.populate", "repro.core.modlog", "populate_instances", _diff_rows),
    ProbeSpec("script.exec", "repro.core.script", "execute_script"),
    ProbeSpec("apply", "repro.core.script", "apply_diff", _applied_rows),
    ProbeSpec("obs.finish", "repro.obs.freshness", "FreshnessTracker.note_maintained"),
    ProbeSpec("obs.finish", "repro.obs.drift", "DriftMonitor.update_from_report"),
    ProbeSpec("obs.finish", "repro.costmodel.symbolic",
              "ScriptCostModel.predict_from_diff_sizes"),
    ProbeSpec("obs.metric_lookup", "repro.obs.metrics", "counter"),
    ProbeSpec("obs.metric_lookup", "repro.obs.metrics", "gauge"),
    ProbeSpec("obs.metric_lookup", "repro.obs.metrics", "histogram"),
    ProbeSpec("obs.metric_lookup", "repro.obs.metrics", "loghist"),
    ProbeSpec("modlog.log_insert", "repro.core.modlog", "ModificationLog.insert"),
    ProbeSpec("modlog.log_update", "repro.core.modlog", "ModificationLog.update"),
    ProbeSpec("modlog.log_delete", "repro.core.modlog", "ModificationLog.delete"),
    ProbeSpec("shard.split", "repro.shard.router", "split_instances"),
    ProbeSpec("wire.encode", "repro.core.wire", "encode_instances", _encoded_bytes),
    ProbeSpec("wire.encode", "repro.core.wire", "encode_log_batch", _encoded_bytes),
    ProbeSpec("wire.encode", "repro.core.wire", "encode_writeset", _encoded_bytes),
    ProbeSpec("wire.decode", "repro.core.wire", "decode_counters", _decoded_bytes),
    ProbeSpec("wire.decode", "repro.core.wire", "decode_writeset", _decoded_bytes),
    ProbeSpec("pool.begin_round", "repro.shard.workers", "ProcessShardPool.begin_round"),
    ProbeSpec("pool.exec_wait", "repro.shard.workers", "ProcessShardPool.exec_view"),
    ProbeSpec("pool.apply_writes", "repro.shard.workers", "ProcessShardPool.apply_writes"),
    ProbeSpec("shard.replay", "repro.storage.table", "Table.replay_writes"),
)


class Tracer:
    """In-memory span store; single-threaded (the coordinator is)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @property
    def in_span(self) -> bool:
        return bool(self._stack)

    def wrap(self, layer: str, fn: Callable, work: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        # Same bookkeeping as span(), inlined: a generator-based context
        # manager would more than double the cost of every probed call.
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if work is not None:
                record[WORK] = work(args, result)
            return result

        return probe

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        record = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        try:
            yield
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------
    def layer_totals(self) -> tuple[dict[str, dict[str, float]], dict[str, dict[str, float]]]:
        """Per-layer ``{"ms", "self_ms", "calls", "work"}`` sums, split into
        (spans under a round root, spans outside any round)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        in_round = [False] * len(spans)
        for i, record in enumerate(spans):
            parent = record[PARENT]
            if parent >= 0:
                child_time[parent] += record[END] - record[START]
                in_round[i] = in_round[parent]
            else:
                in_round[i] = record[LAYER] == ROUND
        inside: dict[str, dict[str, float]] = {}
        outside: dict[str, dict[str, float]] = {}
        for i, record in enumerate(spans):
            bucket = (inside if in_round[i] else outside).setdefault(
                record[LAYER], {"ms": 0.0, "self_ms": 0.0, "calls": 0, "work": 0}
            )
            duration = record[END] - record[START]
            bucket["ms"] += duration * 1e3
            bucket["self_ms"] += (duration - child_time[i]) * 1e3
            bucket["calls"] += 1
            bucket["work"] += record[WORK]
        return inside, outside

    def write_jsonl(self, path: str) -> None:
        """One span per line; times are seconds since the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as out:
            for i, record in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i,
                    "name": record[LAYER],
                    "start": record[START] - origin,
                    "end": record[END] - origin,
                    "parent": record[PARENT],
                    "work": record[WORK],
                }) + "\n")


def _resolve(spec: ProbeSpec):
    """(owner, attribute name, original callable), or None when the
    module, class or attribute is gone."""
    try:
        owner = importlib.import_module(spec.module)
    except ImportError:
        return None
    *path, name = spec.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(name)
    if not isinstance(original, types.FunctionType):
        return None
    return owner, name, original


def _holders(original: Callable) -> list[tuple[object, str]]:
    """Every (loaded repro module, name) bound to *original*."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                found.append((module, name))
    return found


@contextmanager
def installed(tracer: Tracer, specs: tuple[ProbeSpec, ...] = PROBES) -> Iterator[list[str]]:
    """Install *specs* for the duration of the block; yields the targets
    that did not resolve.  Every binding is restored on exit."""
    patched: list[tuple[object, str, Callable]] = []
    missing: list[str] = []
    try:
        for spec in specs:
            resolved = _resolve(spec)
            if resolved is None:
                missing.append(spec.target)
                continue
            owner, name, original = resolved
            wrapper = tracer.wrap(spec.layer, original, spec.work)
            if isinstance(owner, types.ModuleType):
                bindings = _holders(original)
            else:
                bindings = [(owner, name)]
            for holder, bound_name in bindings:
                setattr(holder, bound_name, wrapper)
                patched.append((holder, bound_name, original))
        yield missing
    finally:
        for holder, bound_name, original in reversed(patched):
            setattr(holder, bound_name, original)


def layers_of(specs: tuple[ProbeSpec, ...] = PROBES) -> dict[str, list[str]]:
    """layer -> its probe targets, in declaration order."""
    out: dict[str, list[str]] = {}
    for spec in specs:
        out.setdefault(spec.layer, []).append(spec.target)
    return out
