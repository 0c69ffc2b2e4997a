"""Hierarchical timed spans with access-count deltas.

A :class:`Span` measures one unit of work: a maintenance round, a
∆-script phase, a single statement, or one plan/IR operator.  Spans nest
through a :mod:`contextvars` *current span*, so the recorder reconstructs
the full tree even across helper-function boundaries, and each span can
snapshot the active :class:`~repro.storage.counters.CounterSet` on entry
and exit to attribute an exact :class:`AccessCounts` delta to itself
(cumulative: a parent's delta includes its children's).

The default state is a **null recorder**: :func:`current_recorder`
returns ``None`` and every instrumentation site must fall through after
a single global read.  Install a :class:`SpanRecorder` with
:func:`recording` to capture a trace::

    with recording() as rec:
        engine.maintain()
    write_trace(rec, "trace.jsonl")
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, ContextManager, Iterator, Optional

from ..storage import AccessCounts, CounterSet


class Span:
    """One timed, optionally access-counted unit of work."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "kind",
        "attrs",
        "start",
        "end",
        "counts",
        "children",
        "_counters",
        "_counts_at_entry",
        "_phase_of",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        kind: str,
        attrs: dict[str, Any],
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.attrs = attrs
        self.start: float = 0.0
        self.end: float = 0.0
        #: Access-count delta over the span's extent (cumulative), or
        #: ``None`` when the span was opened without a counter set.
        self.counts: Optional[AccessCounts] = None
        self.children: list[Span] = []
        self._counters: Optional[CounterSet] = None
        self._counts_at_entry: Optional[AccessCounts] = None
        self._phase_of: Optional[str] = None

    @property
    def duration(self) -> float:
        """Wall seconds between entry and exit."""
        return self.end - self.start

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes; usable during or after the span."""
        self.attrs.update(attrs)

    def self_counts(self) -> Optional[AccessCounts]:
        """This span's delta minus its counted children's (exclusive cost)."""
        if self.counts is None:
            return None
        own = self.counts.copy()
        for child in self.children:
            if child.counts is not None:
                own = own - child.counts
        return own

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-serializable record (children referenced by id)."""
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
            "counts": self.counts.as_dict() if self.counts is not None else None,
        }

    def tree_dict(self) -> dict[str, Any]:
        """Nested JSON-serializable tree rooted at this span."""
        record = self.as_dict()
        record["children"] = [child.tree_dict() for child in self.children]
        return record

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"Span({self.name!r}, kind={self.kind!r}, id={self.span_id})"


#: Innermost open span of the current logical context (None at top level).
_current_span: ContextVar[Optional[Span]] = ContextVar(
    "repro_obs_current_span", default=None
)

#: The process-wide active recorder; ``None`` disables all tracing.
_recorder: Optional["SpanRecorder"] = None


class SpanRecorder:
    """Collects a forest of spans in creation order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self.epoch = time.perf_counter()
        self._next_id = 0

    @contextmanager
    def span(
        self,
        name: str,
        kind: str = "span",
        counters: Optional[CounterSet] = None,
        phase_of: Optional[str] = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open a child of the current span (a root if none is open).

        With *counters*, the span's ``counts`` is the delta of the grand
        total over its extent (cumulative).  With *phase_of* as well,
        ``counts`` is instead the delta of that phase's *bucket*: the
        accesses the counter set attributed to the phase while the span
        was open.  Bucket deltas are disjoint across phases even when
        phase scopes nest or re-enter, which is what makes per-phase
        span sums reconcile exactly with the engine's phase totals.
        """
        parent = _current_span.get()
        self._next_id += 1
        sp = Span(
            self._next_id,
            parent.span_id if parent is not None else None,
            name,
            kind,
            attrs,
        )
        if parent is not None:
            parent.children.append(sp)
        else:
            self.roots.append(sp)
        self.spans.append(sp)
        if counters is not None:
            sp._counters = counters
            sp._phase_of = phase_of
            if phase_of is not None:
                bucket = counters.phases.get(phase_of)
                sp._counts_at_entry = (
                    bucket.copy() if bucket is not None else AccessCounts()
                )
            else:
                sp._counts_at_entry = counters.total.copy()
        token = _current_span.set(sp)
        sp.start = time.perf_counter() - self.epoch
        try:
            yield sp
        finally:
            sp.end = time.perf_counter() - self.epoch
            if sp._counters is not None:
                if sp._phase_of is not None:
                    bucket = sp._counters.phases.get(sp._phase_of)
                    current = bucket if bucket is not None else AccessCounts()
                    sp.counts = current - sp._counts_at_entry
                else:
                    sp.counts = sp._counters.total - sp._counts_at_entry
                sp._counters = None
                sp._counts_at_entry = None
                sp._phase_of = None
            _current_span.reset(token)

    def find(self, *, kind: Optional[str] = None, name: Optional[str] = None) -> list[Span]:
        """All recorded spans matching the given kind and/or name."""
        out = []
        for sp in self.spans:
            if kind is not None and sp.kind != kind:
                continue
            if name is not None and sp.name != name:
                continue
            out.append(sp)
        return out


def enabled() -> bool:
    """True when a recorder is installed (the hot-path fast check)."""
    return _recorder is not None


def current_recorder() -> Optional[SpanRecorder]:
    """The active recorder, or ``None`` when tracing is off."""
    return _recorder


def current_span() -> Optional[Span]:
    """The innermost open span of this context, if any."""
    return _current_span.get()


@contextmanager
def recording(recorder: Optional[SpanRecorder] = None) -> Iterator[SpanRecorder]:
    """Install *recorder* (a fresh one by default) for the block.

    Nested recordings stack: the previous recorder is restored on exit.
    """
    global _recorder
    rec = recorder if recorder is not None else SpanRecorder()
    previous = _recorder
    _recorder = rec
    try:
        yield rec
    finally:
        _recorder = previous


class _NullSpan:
    """The shared do-nothing span of disabled tracing — and its own
    context manager, so an untraced ``with span(...)`` allocates nothing."""

    __slots__ = ()
    counts = None
    children: tuple = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(
    name: str,
    kind: str = "span",
    counters: Optional[CounterSet] = None,
    phase_of: Optional[str] = None,
    **attrs: Any,
) -> ContextManager[Any]:
    """Module-level span helper: the one null span while tracing is off."""
    rec = _recorder
    if rec is None:
        return _NULL_SPAN
    return rec.span(name, kind=kind, counters=counters, phase_of=phase_of, **attrs)
