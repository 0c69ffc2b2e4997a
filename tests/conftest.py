"""Shared fixtures: the paper's running example (Figures 1-2)."""

from collections import Counter

import pytest

from repro.algebra import evaluate_plan, natural_join, scan, where
from repro.core.engine import _reconstruct_pre
from repro.expr import col, lit
from repro.storage import Database


@pytest.fixture
def running_example_db() -> Database:
    """The exact instance of Figure 2 (initial database instance DB)."""
    db = Database()
    db.create_table("devices", ("did", "category"), ("did",))
    db.create_table("parts", ("pid", "price"), ("pid",))
    db.create_table("devices_parts", ("did", "pid"), ("did", "pid"))
    db.table("devices").load(
        [("D1", "phone"), ("D2", "phone"), ("D3", "tablet")]
    )
    db.table("parts").load([("P1", 10), ("P2", 20)])
    db.table("devices_parts").load(
        [("D1", "P1"), ("D2", "P1"), ("D1", "P2")]
    )
    db.add_foreign_key("devices_parts", ("did",), "devices")
    db.add_foreign_key("devices_parts", ("pid",), "parts")
    return db


def build_view_v(db: Database):
    """Figure 1b: SELECT did, pid, price FROM parts NATURAL JOIN
    devices_parts NATURAL JOIN devices WHERE category = 'phone'."""
    joined = natural_join(
        natural_join(scan(db, "parts"), scan(db, "devices_parts")),
        scan(db, "devices"),
    )
    filtered = where(joined, col("category").eq(lit("phone")))
    from repro.algebra import project_columns

    return project_columns(filtered, ("did", "pid", "price"))


def build_view_v_prime(db: Database):
    """Figure 5b: the aggregate extension (total part cost per device)."""
    from repro.algebra import group_by

    joined = natural_join(
        natural_join(scan(db, "parts"), scan(db, "devices_parts")),
        scan(db, "devices"),
    )
    filtered = where(joined, col("category").eq(lit("phone")))
    return group_by(filtered, ("did",), [("sum", col("price"), "cost")])


def unhosted(flat):
    """*flat* — a π over a σ-join, the paper's V — with a residual σ that
    keeps every row: a σ chain with a residual filter is never answered
    from another view's cache (``repro.core.share.Hosting``), so beside
    V′ it keeps its own state, as V did before views were hosted."""
    from repro.algebra import project_columns

    return project_columns(where(flat.child, col("price").ge(lit(0))), flat.columns)


def view_bag(engine, name: str):
    """View *name*'s rows as a bag, in its plan's column order."""
    view = engine.views[name]
    at = [view.table.schema.columns.index(c) for c in view.plan.columns]
    return Counter(tuple(row[i] for i in at) for row in view.table.rows_uncounted())


def assert_views_at_their_cursors(engine, db: Database) -> None:
    """Each view equals its recomputation as of its own log cursor: over
    the live database with the log after that cursor taken back."""
    log = engine.log
    for name, view in engine.views.items():
        as_of = _reconstruct_pre(db, log.since(log.cursors[name]))
        assert view_bag(engine, name) == Counter(evaluate_plan(view.plan, as_of).rows), name


@pytest.fixture(autouse=True)
def _scoped_metrics():
    """Every test observes into a private metrics registry.

    The process-default registry is shared state: without this, metric
    assertions depend on which test ran first (an earlier engine round
    leaves its counts behind).  ``metrics.scoped()`` swaps in a fresh
    registry per test and restores the previous one on exit.
    """
    from repro.obs import metrics

    with metrics.scoped() as registry:
        yield registry


@pytest.fixture
def view_v(running_example_db):
    return build_view_v(running_example_db)


@pytest.fixture
def view_v_prime(running_example_db):
    return build_view_v_prime(running_example_db)


# ----------------------------------------------------------------------
# hypothesis profiles.  The default is deterministic — tier-1 is a gate,
# so it draws the same examples every run and cannot fail on how long
# input generation took on a slow machine.  Random seeds live in the
# nightly deep fuzz: HYPOTHESIS_PROFILE=stress.
# ----------------------------------------------------------------------
import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "tier1",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "stress",
    max_examples=1200,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE") or "tier1")


@pytest.fixture
def unpriceable_alternatives(monkeypatch) -> list:
    """Every unminimized alternative the cost pass builds (COST501's)
    cannot be priced: ``infer_script_cost`` raises on it.  The list
    holds the alternatives built."""
    import repro.analysis.cost as cost_mod

    real_alternative, real_infer = cost_mod._alternative, cost_mod.infer_script_cost
    built: list = []

    def alternative(generated, optimize, *args, **kwargs):
        alt = real_alternative(generated, optimize, *args, **kwargs)
        if not optimize:
            built.append(alt)
        return alt

    def infer(generated, *args, **kwargs):
        if any(generated is alt for alt in built):
            raise cost_mod.CostInferenceError("no statistics")
        return real_infer(generated, *args, **kwargs)

    monkeypatch.setattr(cost_mod, "_alternative", alternative)
    monkeypatch.setattr(cost_mod, "infer_script_cost", infer)
    return built
