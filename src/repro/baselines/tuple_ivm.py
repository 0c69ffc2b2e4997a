"""Tuple-based IVM — the paper's baseline (Section 7: "produced using our
implementation of idIVM with tuple-based diff propagation rules").

It is exactly that: :class:`~repro.core.engine.IdIvmEngine` — one
∆-script generator, one executor, one APPLY — generating with the t-diff
rules of :mod:`repro.core.rules.tdiff` and placing no cache.
"""

from __future__ import annotations

from ..core.engine import IdIvmEngine
from ..core.rules.tdiff import TUPLE_RULES
from ..storage import Database


class TupleIvmEngine(IdIvmEngine):
    """Counterpart of :class:`IdIvmEngine` using t-diffs: the same
    maintenance round and executor, tuple-based propagation rules."""

    rules = TUPLE_RULES

    def __init__(self, db: Database):
        super().__init__(db, cache_policy="never")
