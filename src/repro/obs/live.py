"""A self-contained live maintenance loop for serve/top demos.

``python -m repro.obs.serve`` and ``python -m repro top`` need an engine
that is actually *doing* something.  :class:`DemoLoop` provides one: a
BSMA database with a configurable set of views, maintained by an
:class:`~repro.core.IdIvmEngine` — the engine every benchmark measures —
on a background thread that logs a seeded batch of user updates and
runs a maintenance round every ``interval`` seconds.  Rounds use
``round_seed = round index``, so two demo loops with the same
parameters replay the same modification stream — only the wall-clock
telemetry differs.

The loop is deliberately single-threaded on the engine side (one
background thread does both logging and maintenance), matching the
engine's concurrency contract: one thread writes the engine's state,
and the ``serve`` handler threads only read it.
"""

from __future__ import annotations

import threading
import traceback
from typing import Optional, Sequence

from ..core import IdIvmEngine
from ..workloads import BsmaConfig, build_bsma_database, log_user_updates
from ..workloads.bsma import BSMA_QUERIES

#: Default views for the demo loop: small enough to define in a couple
#: of seconds, varied enough to exercise the COST502/COST504 drift
#: story (Q7, Q18).
DEFAULT_VIEWS = ("Q7", "Q10", "Q15", "Q18")


class DemoLoop:
    """A BSMA engine plus a background log-and-maintain loop."""

    def __init__(
        self,
        users: int = 120,
        updates: int = 24,
        interval: float = 0.5,
        views: Optional[Sequence[str]] = None,
    ):
        self.config = BsmaConfig(
            n_users=users,
            friends_per_user=5,
            n_tweets=max(2 * users, 60),
        )
        self.interval = interval
        self.updates = updates
        self.view_names = tuple(views) if views else DEFAULT_VIEWS
        unknown = [v for v in self.view_names if v not in BSMA_QUERIES]
        if unknown:
            raise ValueError(
                f"unknown BSMA views {unknown}; choose from {sorted(BSMA_QUERIES)}"
            )
        self.db = build_bsma_database(self.config)
        self.engine = IdIvmEngine(self.db)
        for name in self.view_names:
            self.engine.define_view(name, BSMA_QUERIES[name](self.db, self.config))
        self.rounds_run = 0
        self.last_error: Optional[str] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def run_round(self) -> None:
        """Log one seeded update batch and maintain every view."""
        log_user_updates(
            self.engine, self.db, self.config, self.updates,
            round_seed=self.rounds_run,
        )
        self.engine.maintain()
        self.rounds_run += 1

    def start(self) -> None:
        """Run rounds on a daemon thread until :meth:`stop`."""
        if self._thread is not None:
            return

        def loop() -> None:
            while not self._stop.is_set():
                try:
                    self.run_round()
                except Exception:
                    # A dead loop must be *visible*: record the failure so
                    # /healthz can report unhealthy instead of silently
                    # serving ever-staler metrics.
                    self.last_error = traceback.format_exc()
                    return
                self._stop.wait(self.interval)

        self._thread = threading.Thread(
            target=loop, name="repro-demo-loop", daemon=True
        )
        self._thread.start()

    @property
    def healthy(self) -> bool:
        """False once the loop thread has died (crash or silent exit).

        A loop that was never started, or that was deliberately stopped,
        is still healthy; only an *unrequested* death is a failure.
        """
        if self.last_error is not None:
            return False
        if self._thread is None or self._stop.is_set():
            return True
        return self._thread.is_alive()

    def stop(self, timeout: float = 10.0) -> None:
        """Signal the loop and join it (bounded)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
