"""Definition time is one evaluation of the plan, and a script is priced
once.

``MaintenanceEngine.define_view`` creates one
:class:`repro.analysis.cost.PlanStats` and everything that needs a
sub-plan's rows or statistics — script selection, the view, its caches
and operator caches, the cost model — reads it.  Pinned here: *how
often* the evaluator runs, by call count; that a memoised definition is
indistinguishable from an un-memoised one; that nothing of it survives
the call; what it keeps; and that a failed script selection is counted
instead of vanishing.  And the one definition pipeline
(:func:`repro.analysis.cost.define_script`): how often the cost walker
runs for a definition and for ``repro lint``, that the model selection
computed is the one the view keeps, that all six engine classes define
through one ``define_view``, and that a failed lint alternative is
counted.
"""

from __future__ import annotations

import weakref
from collections import Counter

import pytest

import repro.algebra.evaluate as evaluate_mod
import repro.analysis.cost as cost_mod
from repro.algebra.evaluate import evaluate_plan
from repro.algebra.plan import GroupBy, Join
from repro.algebra.relation import Relation
from repro.analysis import analyze_generated
from repro.analysis.cost import PlanStats, infer_script_cost
from repro.baselines import RecomputeEngine, SdbtEngine, TupleIvmEngine
from repro.core import EagerIvmEngine, IdIvmEngine, ShardedEngine
from repro.core.engine import MaintenanceEngine
from repro.core.idinfer import annotate_plan
from repro.errors import ScriptError
from repro.obs import SpanRecorder, metrics, recording
from repro.obs.serve import render_prometheus
from repro.obs.trace import validate_trace, write_trace
from repro.workloads import (
    BSMA_QUERIES,
    BsmaConfig,
    DevicesConfig,
    apply_price_updates,
    build_aggregate_view,
    build_bsma_database,
    build_devices_database,
    build_flat_view,
    log_user_updates,
)

DEV_CONFIG = DevicesConfig(n_parts=80, n_devices=80, diff_size=24)
BSMA_CONFIG = BsmaConfig(n_users=80, n_tweets=600)

#: view name -> (database builder, plan builder, config): the ten
#: shipped views.
VIEWS = {
    "V": (build_devices_database, build_flat_view, DEV_CONFIG),
    "Vagg": (build_devices_database, build_aggregate_view, DEV_CONFIG),
    **{
        name: (build_bsma_database, build, BSMA_CONFIG)
        for name, build in BSMA_QUERIES.items()
    },
}


def _define(name, engine_cls=IdIvmEngine, **engine_args):
    build_db, build_plan, config = VIEWS[name]
    db = build_db(config)
    engine = engine_cls(db, **engine_args)
    return db, engine, engine.define_view(name, build_plan(db, config))


@pytest.fixture
def operator_evaluations(monkeypatch):
    """Evaluations per sub-plan, counted at the evaluator's operator
    dispatch.  A sub-plan is a plan node: ids are preorder, so the
    re-annotated copy cost selection prices carries the same ones."""
    calls: Counter = Counter()
    dispatch = evaluate_mod._evaluate_plan

    def spy(node, db, *rest):
        calls[node.node_id, node.label()] += 1
        return dispatch(node, db, *rest)

    monkeypatch.setattr(evaluate_mod, "_evaluate_plan", spy)
    return calls


@pytest.fixture
def unmemoised(monkeypatch):
    """Every evaluation and every statistic of a definition computed
    from scratch: what ``define_view`` did before it shared anything."""
    monkeypatch.setattr(PlanStats, "lookup", lambda self, node: None)
    monkeypatch.setattr(
        PlanStats, "_stat", lambda self, name, node, cols, compute: compute(self.rows(node))
    )


def _fingerprintable(view):
    """Everything a definition produces, as comparable values."""
    return {
        "script": view.describe_script(),
        "estimates": dict(view.cost_model.estimates),
        "caches": {n: sorted(map(repr, t.rows_uncounted())) for n, t in view.caches.items()},
        "opcaches": {
            n: sorted(map(repr, t.rows_uncounted()))
            for n, t in view.operator_caches.items()
        },
    }


# ----------------------------------------------------------------------
# (a) call counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cost_select", [True, False])
@pytest.mark.parametrize("name", sorted(VIEWS))
def test_each_distinct_subplan_is_evaluated_at_most_once(
    name, cost_select, operator_evaluations
):
    _db, _engine, view = _define(name, cost_select=cost_select)
    assert operator_evaluations, "the spy saw no evaluation"
    assert max(operator_evaluations.values()) == 1, operator_evaluations
    assert sum(operator_evaluations.values()) <= sum(1 for _ in view.plan.walk())


@pytest.mark.parametrize("engine_cls", [TupleIvmEngine, SdbtEngine])
def test_the_baselines_define_the_same_way(engine_cls, operator_evaluations):
    _db, _engine, view = _define("Vagg", engine_cls)
    nodes = sum(1 for _ in view.plan.walk())
    relaxed = sum(
        sum(1 for _ in plan.walk()) for plan in getattr(view, "relaxed", {}).values()
    )
    assert max(operator_evaluations.values()) == 1, operator_evaluations
    assert sum(operator_evaluations.values()) <= nodes + relaxed


def test_nested_aggregates_are_evaluated_once(running_example_db, operator_evaluations):
    """An inner γ has an output cache, an intermediate cache and an
    operator cache of its own under the outer γ's: the innermost-first
    request order covers them all."""
    from repro.algebra import group_by, natural_join, scan
    from repro.expr import col

    db = running_example_db
    inner = group_by(
        natural_join(scan(db, "parts"), scan(db, "devices_parts")),
        ("did",),
        [("sum", col("price"), "cost")],
    )
    outer = group_by(
        natural_join(inner, scan(db, "devices")),
        ("category",),
        [("sum", col("cost"), "total")],
    )
    for engine_cls in (IdIvmEngine, TupleIvmEngine):
        operator_evaluations.clear()
        view = engine_cls(db).define_view("nested", outer)
        assert max(operator_evaluations.values()) == 1, operator_evaluations
        assert view.table.as_set() == set(evaluate_plan(view.plan, db).rows)


# ----------------------------------------------------------------------
# (b) a memoised definition is an un-memoised one
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(VIEWS))
def test_definition_equals_the_unmemoised_definition(name, request):
    _db, _engine, view = _define(name)
    shared = _fingerprintable(view)
    request.getfixturevalue("unmemoised")
    _db, _engine, reference = _define(name)
    assert shared == _fingerprintable(reference)


# ----------------------------------------------------------------------
# (c) nothing survives the call
# ----------------------------------------------------------------------
def _holds_evaluation(obj, depth=3) -> bool:
    if isinstance(obj, (Relation, PlanStats)):
        return True
    if depth == 0:
        return False
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple, set)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    return any(_holds_evaluation(child, depth - 1) for child in children)


def test_the_definition_object_dies_with_the_call(monkeypatch):
    born = []
    init = PlanStats.__init__

    def tracking_init(self, db):
        init(self, db)
        born.append(weakref.ref(self))

    monkeypatch.setattr(PlanStats, "__init__", tracking_init)
    _db, engine, view = _define("Vagg")
    assert len(born) == 1, "one statistics object per definition"
    assert born[0]() is None
    for holder in (engine, view, view.generated, vars(evaluate_mod), vars(cost_mod)):
        assert not _holds_evaluation(holder), holder


def test_a_later_definition_reads_the_database_not_an_earlier_one():
    """B shares every sub-plan with A but is defined after the data
    moved on: it equals its recomputation."""
    db = build_devices_database(DEV_CONFIG)
    engine = IdIvmEngine(db)
    first = engine.define_view("A", build_aggregate_view(db, DEV_CONFIG))
    apply_price_updates(engine, db, DEV_CONFIG)
    engine.log.delete("devices_parts", db.table("devices_parts").rows_uncounted()[0])
    engine.maintain()
    second = engine.define_view("B", build_aggregate_view(db, DEV_CONFIG))
    recomputed = set(evaluate_plan(second.plan, db).rows)
    assert second.table.as_set() == recomputed == first.table.as_set()
    for node_id, cache in second.caches.items():
        assert cache.as_set() == first.caches[node_id].as_set()


# ----------------------------------------------------------------------
# (d) footprint
# ----------------------------------------------------------------------
def test_only_requested_nodes_are_kept():
    db = build_devices_database(DEV_CONFIG)
    plan = annotate_plan(build_aggregate_view(db, DEV_CONFIG))
    assert isinstance(plan, GroupBy)
    stats = PlanStats(db)
    # A definition's shape: the γ's input (cache + opcache), then the view.
    below = stats.rows(plan.child)
    top = stats.rows(plan)
    assert stats.lookup(plan) is top and stats.lookup(plan.child) is below
    interior = [n for n in plan.child.walk() if n is not plan.child]
    assert any(isinstance(n, Join) for n in interior)
    assert all(stats.lookup(node) is None for node in interior)
    assert sum(isinstance(v, Relation) for v in stats._memo.values()) == 2
    # The un-memoised reference never consults or fills anything.
    before = (stats.evaluations, stats.hits, len(stats._memo))
    assert set(evaluate_plan(plan, db).rows) == set(top.rows)
    assert (stats.evaluations, stats.hits, len(stats._memo)) == before


def test_a_reannotated_copy_hits_the_same_entries():
    """Cost selection's cache-free candidate re-annotates the plan: new
    node objects, same exact fingerprints."""
    db = build_devices_database(DEV_CONFIG)
    plan = build_aggregate_view(db, DEV_CONFIG)
    stats = PlanStats(db)
    rows = stats.rows(annotate_plan(plan))
    evaluated = stats.evaluations
    assert stats.rows(annotate_plan(plan)) is rows
    assert stats.evaluations == evaluated


# ----------------------------------------------------------------------
# (e) the two-positional entry points
# ----------------------------------------------------------------------
def test_two_positionals_keep_working():
    db, _engine, view = _define("Vagg")
    model = infer_script_cost(view.generated, db)
    assert model.estimates == view.cost_model.estimates
    assert infer_script_cost(view.generated, db, 4.0).estimates != {}
    assert set(evaluate_plan(view.plan, db).rows) == view.table.as_set()


# ----------------------------------------------------------------------
# a failed script selection is counted
# ----------------------------------------------------------------------
class TestCostSelectFallback:
    @staticmethod
    def _break_selection(monkeypatch):
        """Pricing fails on the cache-free candidate only (the second
        inference of a definition): the requested script and its model,
        priced first, are healthy."""
        real = cost_mod.infer_script_cost
        calls = []

        def flaky(generated, db, *args, **kwargs):
            calls.append(generated)
            if len(calls) == 2:
                raise ZeroDivisionError("no statistics")
            return real(generated, db, *args, **kwargs)

        monkeypatch.setattr(cost_mod, "infer_script_cost", flaky)

    def test_fallback_is_counted_per_view(self, monkeypatch):
        self._break_selection(monkeypatch)
        _db, _engine, view = _define("Vagg")
        assert metrics.counter("engine.cost_select_fallbacks.Vagg").value == 1
        assert view.cost_model is not None
        assert 'repro_engine_cost_select_fallbacks{view="Vagg"} 1' in render_prometheus()

    def test_strict_engine_refuses(self, monkeypatch):
        self._break_selection(monkeypatch)
        with pytest.raises(ZeroDivisionError):
            _define("Vagg", strict=True)

    @pytest.mark.parametrize("name", sorted(VIEWS))
    def test_shipped_views_count_nothing(self, name):
        _define(name)
        assert not [n for n in metrics.registry().names() if "fallbacks" in n]

    def test_explain_prints_the_line_only_when_it_happened(self, monkeypatch, capsys):
        from repro.cli import main

        argv = [
            "explain",
            "--sql",
            "SELECT did, SUM(price) AS cost FROM parts NATURAL JOIN devices_parts "
            "GROUP BY did",
        ]
        assert main(argv) == 0
        assert "cost_select_fallbacks" not in capsys.readouterr().out
        self._break_selection(monkeypatch)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "script not cost-selected (" in out and "cost_select_fallbacks" in out


# ----------------------------------------------------------------------
# definition is visible
# ----------------------------------------------------------------------
def test_define_view_span_and_histogram(tmp_path):
    recorder = SpanRecorder()
    with recording(recorder):
        _db, engine, view = _define("Vagg")
        apply_price_updates(engine, engine.db, DEV_CONFIG)
        engine.maintain()
    (span,) = recorder.find(kind="engine", name="define_view")
    assert span.attrs["view"] == "Vagg"
    nodes = sum(1 for _ in view.plan.walk())
    assert 0 < span.attrs["plan_evaluations"] <= nodes
    assert span.attrs["memo_hits"] > 0
    operators = recorder.find(kind="plan_op")
    assert len(operators) == span.attrs["plan_evaluations"]
    assert all(op.parent_id is not None for op in operators)
    write_trace(recorder, str(tmp_path / "define.jsonl"))
    assert validate_trace(str(tmp_path / "define.jsonl")) == []
    hist = metrics.loghist("view.define_seconds.Vagg", unit="seconds")
    assert hist.count == 1
    assert 'repro_view_define_seconds_count{view="Vagg"} 1' in render_prometheus()


def test_bsma_definitions_are_visible_too():
    db = build_bsma_database(BSMA_CONFIG)
    engine = IdIvmEngine(db)
    for name, build in BSMA_QUERIES.items():
        engine.define_view(name, build(db, BSMA_CONFIG))
    log_user_updates(engine, db, BSMA_CONFIG)
    engine.maintain()
    for name in BSMA_QUERIES:
        assert metrics.loghist(f"view.define_seconds.{name}", unit="seconds").count == 1


# ----------------------------------------------------------------------
# a script is priced once: the one definition pipeline
# ----------------------------------------------------------------------
@pytest.fixture
def walks(monkeypatch):
    """Cost-walker runs — one per pricing of one script — by view."""
    calls: Counter = Counter()
    walk = cost_mod._CostWalker.walk

    def spy(self):
        calls[self.model.view_name] += 1
        return walk(self)

    monkeypatch.setattr(cost_mod._CostWalker, "walk", spy)
    return calls


@pytest.mark.parametrize("cost_select, per_view", [(True, 2), (False, 1)])
def test_a_definition_prices_each_script_once(cost_select, per_view, walks):
    """The requested script and, under cost selection, its cache-free
    candidate — once each; the model the view keeps is the one selection
    computed (devices ``V`` + ``Vagg`` 6 → 4, the eight BSMA views
    24 → 16 runs)."""
    db = build_devices_database(DEV_CONFIG)
    engine = IdIvmEngine(db, cost_select=cost_select)
    for name in ("V", "Vagg"):
        engine.define_view(name, VIEWS[name][1](db, DEV_CONFIG))
    db = build_bsma_database(BSMA_CONFIG)
    engine = IdIvmEngine(db, cost_select=cost_select)
    for name, build in BSMA_QUERIES.items():
        engine.define_view(name, build(db, BSMA_CONFIG))
    assert walks == {name: per_view for name in VIEWS}


def test_lint_prices_from_one_statistics_object_per_view(walks, monkeypatch):
    """``repro lint`` defines through the same pipeline, and its cost and
    sharing passes read the model that travels with the script: 56 → ≤ 38
    walker runs, 46 → 10 ``PlanStats`` over the ten shipped views."""
    from repro.cli import _lint_view_entry, lint_targets

    born = []
    init = PlanStats.__init__

    def tracking_init(self, db):
        init(self, db)
        born.append(self)

    monkeypatch.setattr(PlanStats, "__init__", tracking_init)
    targets = list(lint_targets())
    for label, plan, db in targets:
        _lint_view_entry(label, plan, db, None)
    assert len(targets) == len(born) == 10
    # Selection prices two scripts per view; the lint adds only the
    # COST501/COST502 alternatives, never the shipped script again.
    assert sum(walks.values()) <= 38


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_the_view_keeps_the_model_selection_computed(name):
    db, _engine, view = _define(name)
    assert view.cost_model is view.generated.cost_model
    assert view.cost_model.estimates == infer_script_cost(view.generated, db).estimates


ENGINE_CLASSES = (
    IdIvmEngine, ShardedEngine, EagerIvmEngine, TupleIvmEngine, SdbtEngine,
    RecomputeEngine,
)


@pytest.mark.parametrize("engine_cls", ENGINE_CLASSES, ids=lambda c: c.__name__)
def test_every_engine_defines_through_one_define_view(engine_cls):
    """Duplicate names, the span and the histogram: the same for all six
    classes, since only ``MaintenanceEngine.define_view`` exists (plus
    the sharded engine's pool-closing override)."""
    owners = [c for c in engine_cls.__mro__ if "define_view" in vars(c)]
    assert owners[-1] is MaintenanceEngine
    assert set(owners) <= {ShardedEngine, MaintenanceEngine}
    db = build_devices_database(DEV_CONFIG)
    engine = engine_cls(db)
    recorder = SpanRecorder()
    with recording(recorder):
        view = engine.define_view("Vagg", build_aggregate_view(db, DEV_CONFIG))
        with pytest.raises(ScriptError):
            engine.define_view("Vagg", build_aggregate_view(db, DEV_CONFIG))
    assert engine.views == {"Vagg": view}
    (span,) = recorder.find(kind="engine", name="define_view")
    assert span.attrs["view"] == "Vagg"
    assert span.attrs["plan_evaluations"] > 0
    assert metrics.loghist("view.define_seconds.Vagg", unit="seconds").count == 1


def test_a_failing_lint_alternative_is_counted(monkeypatch):
    """COST501's unminimized alternative cannot be priced: its lint is
    skipped and counted as a failed candidate pricing, never silent."""
    db, _engine, view = _define("Vagg")
    real, calls = cost_mod.infer_script_cost, []

    def flaky(generated, db, *args, **kwargs):
        calls.append(generated)
        if len(calls) == 1:
            raise ZeroDivisionError("no statistics")
        return real(generated, db, *args, **kwargs)

    monkeypatch.setattr(cost_mod, "infer_script_cost", flaky)
    report = analyze_generated(view.generated, db=db)
    assert metrics.counter("engine.cost_select_fallbacks.Vagg").value == 1
    assert not [d for d in report.diagnostics if d.rule_id in ("COST501", "COST502")]
    # the COST501 alternative, then COST502's; the shipped script is not
    # priced again
    assert len(calls) == 2
    assert all(generated is not view.generated for generated in calls)
