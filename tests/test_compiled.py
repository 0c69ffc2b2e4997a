"""Compiled ∆-script execution (:mod:`repro.core.compile`).

The backend's whole contract is *exactness*: a compiled closure must
produce the same rows AND the same per-phase access counts as the IR
interpreter, and a form the emitter cannot lower is an error when the
view is lowered, never a silent fallback to the interpreter.  These
tests pin that contract on the paper's devices workload, on every BSMA
view, and through both sharded execution backends.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.algebra.builder import scan
from repro.algebra.evaluate import aggregate_rows, evaluate_plan
from repro.algebra.plan import AggSpec, GroupBy
from repro.algebra.relation import Relation
from repro.baselines import TupleIvmEngine
from repro.core import IdIvmEngine, ShardedEngine
from repro.core.compile import bind_kernels, lower_group_pass, lower_step, readers_of
from repro.core.diffs import INSERT, UPDATE, Diff, DiffSchema
from repro.core.engine import EXEC_BACKENDS
from repro.core.ir import Compute, DiffSource, Filter
from repro.core.ir_exec import IrContext
from repro.core.script import ComputeDiffStep
from repro.errors import DiffError, UnknownColumnError
from repro.expr.ast import Call, Cmp, Col, Lit
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
from repro.workloads.devices import log_batch, mixed_modification_batch

DEV_CONFIG = DevicesConfig(n_parts=80, n_devices=80, diff_size=24)
BSMA_CONFIG = BsmaConfig(n_users=150)


def _phase_totals(report):
    """Zero-filtered per-phase counts (stale zero buckets dropped)."""
    return {
        name: counts.as_dict()
        for name, counts in report.phase_counts.items()
        if counts.total or counts.index_maintenance
    }


def _schema():
    return DiffSchema(INSERT, "t", ("k",), (), ("a", "b"))


# ----------------------------------------------------------------------
# backend selection + kernel binding
# ----------------------------------------------------------------------
def _is_compiled(script) -> bool:
    return bool(script._kernels)


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        db = build_devices_database(DEV_CONFIG)
        with pytest.raises(ValueError):
            IdIvmEngine(db, exec_backend="jit")
        assert set(EXEC_BACKENDS) == {"interp", "compiled"}

    def test_binder_rejects_unknown_backend(self):
        """A misspelt backend used to fall through to the interpreter
        without a word; the binder raises and leaves the script alone."""
        db = build_devices_database(DEV_CONFIG)
        view = IdIvmEngine(db).define_view("V", build_flat_view(db, DEV_CONFIG))
        kernels = view.script._kernels
        with pytest.raises(ValueError, match="complied"):
            bind_kernels(view.script, "complied")
        assert view.script._kernels is kernels

    def test_define_view_binds_kernels_on_the_stored_script(self):
        db = build_devices_database(DEV_CONFIG)
        engine = IdIvmEngine(db, exec_backend="compiled")
        view = engine.define_view("V", build_flat_view(db, DEV_CONFIG))
        # one script: what the analyses read is what the round executes
        assert view.script is view.generated.script
        assert _is_compiled(view.script)
        # "interp" is the same object with nothing bound
        assert bind_kernels(view.script, "interp") is view.script
        assert not _is_compiled(view.script)

    def test_interp_engine_skips_compilation(self):
        """Explicit ``"interp"`` executes the stored script as it is; the
        default compiles."""
        db = build_devices_database(DEV_CONFIG)
        engine = IdIvmEngine(db, exec_backend="interp")
        view = engine.define_view("V", build_flat_view(db, DEV_CONFIG))
        assert view.script is view.generated.script
        assert not _is_compiled(view.script)
        db = build_devices_database(DEV_CONFIG)
        engine = IdIvmEngine(db)
        assert engine.exec_backend == "compiled"
        view = engine.define_view("V", build_flat_view(db, DEV_CONFIG))
        assert view.script is view.generated.script
        assert _is_compiled(view.script)

    def test_bind_kernels_lowers_only_compute_steps(self):
        db = build_devices_database(DEV_CONFIG)
        engine = IdIvmEngine(db, exec_backend="interp")
        view = engine.define_view("V", build_aggregate_view(db, DEV_CONFIG))
        script = view.script
        steps = list(script.steps)
        interpreted = script.exec_plan()
        bind_kernels(script, "compiled")
        assert script.steps == steps  # no step is replaced or subclassed
        plan = script.exec_plan()
        assert plan is not interpreted and len(plan) == len(steps)
        lowered = 0
        for i, (step, (run, phase)) in enumerate(zip(steps, plan)):
            assert phase == step.phase
            if type(step) is ComputeDiffStep:
                assert run is script._kernels[i]
                lowered += 1
            else:
                assert i not in script._kernels
                assert run == step.run  # APPLY/aggregate steps run themselves
        assert lowered > 0


class TestIdentityStep:
    """``d2 := ∆[d1]`` with the same columns passes the validated rows on."""

    @staticmethod
    def _run(source: Diff) -> Diff:
        target = source.schema.rename_target("up")
        kernel = lower_step(
            ComputeDiffStep("d2", target, DiffSource("d1", target), "view_diff")
        )
        ctx = IrContext(None, None, diffs={"d1": source})
        assert kernel(ctx) == len(source)
        return ctx.diffs["d2"]

    def test_rebinds_rows_without_revalidating(self):
        source = Diff(_schema(), [(1, "x", 2), (2, "y", 3)])
        out = self._run(source)
        assert out.rows is source.rows and out.schema.target == "up"
        assert type(out) is Diff and len(out) == 2

    def test_other_ids_are_revalidated(self):
        # Same columns, but the source was deduplicated on (k, a), not (k,).
        loose = DiffSchema(INSERT, "t", ("k", "a__post"), (), ("b",))
        assert loose.columns == _schema().columns
        source = Diff(loose, [(1, "x", 2), (1, "y", 3)])
        kernel = lower_step(
            ComputeDiffStep("d2", _schema(), DiffSource("d1", _schema()), "view_diff")
        )
        ctx = IrContext(None, None, diffs={"d1": source})
        with pytest.raises(DiffError):
            kernel(ctx)


class TestTrustedAdoption:
    """A kernel adopts its rows unvalidated only when they are unique on
    the step's IDs by construction: row-wise over one source diff, every
    ID of that diff a bare column among the output's IDs."""

    SOURCE = DiffSchema(UPDATE, "t", ("k", "j"), ("a",), ("a",))

    def _kernel(self, out_schema, items, predicate=None):
        node = DiffSource("d1", self.SOURCE)
        if predicate is not None:
            node = Filter(node, predicate)
        step = ComputeDiffStep("d2", out_schema, Compute(node, items), "view_diff")
        kernel = lower_step(step)
        assert kernel is not step.run
        return kernel

    def _run(self, kernel, rows):
        ctx = IrContext(None, None, diffs={"d1": Diff(self.SOURCE, rows)})
        kernel(ctx)
        return ctx.diffs["d2"]

    def test_filter_and_rename_keeping_every_id_is_trusted(self):
        out = DiffSchema(UPDATE, "up", ("k", "jj"), ("a",), ("a",))
        kernel = self._kernel(
            out,
            [("k", Col("k")), ("jj", Col("j")), ("a__pre", Col("a__pre")),
             ("a__post", Col("a__post"))],
            Call("is_distinct", (Col("a__post"), Col("a__pre"))),
        )
        assert ".trusted(" in kernel.__source__
        rows = [(1, 1, 5, 6), (1, 2, 5, 5), (2, 1, None, 7)]
        assert self._run(kernel, rows).rows == [(1, 1, 5, 6), (2, 1, None, 7)]

    def test_dropping_an_id_column_still_validates(self):
        out = DiffSchema(UPDATE, "up", ("k",), ("a",), ("a",))
        items = [("k", Col("k")), ("a__pre", Col("a__pre")), ("a__post", Col("a__post"))]
        kernel = self._kernel(out, items)
        assert ".trusted(" not in kernel.__source__
        # equal rows merge, as the constructor merges them ...
        assert self._run(kernel, [(1, 1, 5, 6), (1, 2, 5, 6)]).rows == [(1, 5, 6)]
        # ... and conflicting ones on the remaining ID are refused
        with pytest.raises(DiffError):
            self._run(kernel, [(1, 1, 5, 6), (1, 2, 5, 7)])

    def test_computing_an_id_column_still_validates(self):
        out = DiffSchema(UPDATE, "up", ("k", "j"), ("a",), ("a",))
        items = [("k", Col("k")), ("j", Col("j") * 0), ("a__pre", Col("a__pre")),
                 ("a__post", Col("a__post"))]
        kernel = self._kernel(out, items)
        assert ".trusted(" not in kernel.__source__
        with pytest.raises(DiffError):
            self._run(kernel, [(1, 1, 5, 6), (1, 2, 5, 7)])

    def test_a_source_bound_with_other_ids_is_revalidated_at_run_time(self):
        out = DiffSchema(UPDATE, "up", ("k", "j"), ("a",), ("a",))
        items = [(c, Col(c)) for c in self.SOURCE.columns]
        kernel = self._kernel(out, items)
        loose = DiffSchema(UPDATE, "t", ("k", "j", "a__pre"), (), ("a",))
        # same columns, but deduplicated on (k, j, a__pre), not (k, j)
        assert loose.columns == self.SOURCE.columns
        ctx = IrContext(None, None, diffs={"d1": Diff(loose, [(1, 1, 5, 6), (1, 1, 4, 6)])})
        with pytest.raises(DiffError):
            kernel(ctx)


class TestExprFallback:
    """A form the emitter cannot lower — a malformed tree — raises when
    the view is lowered, the exception class the interpreter raises for
    it at run time: no generated step falls back to the interpreter."""

    def test_unknown_column_raises_at_lowering(self):
        schema = _schema()
        node = Filter(DiffSource("d1", schema), Cmp(">", Col("k"), Lit(1)))
        # Filter's constructor refuses an unknown column; a rewrite that
        # left a stale reference behind would look like this.
        node.predicate = Cmp(">", Col("nope"), Lit(1))
        step = ComputeDiffStep("d2", schema, node, "view_diff")
        with pytest.raises(UnknownColumnError, match="nope"):
            lower_step(step)
        source = Diff(schema, [(1, "x", 2)])
        with pytest.raises(UnknownColumnError, match="nope"):
            step.run(IrContext(None, None, diffs={"d1": source}))

    def test_a_stale_aggregate_argument_raises_at_lowering(self):
        db = build_devices_database(DEV_CONFIG)
        gnode = GroupBy(scan(db, "parts"), ("pid",), [AggSpec("sum", Col("price"), "total")])
        gnode.aggs[0].arg = Col("nope")  # left stale by a rewrite
        with pytest.raises(UnknownColumnError, match="nope"):
            lower_group_pass(gnode)
        parts = db.table("parts")
        rows = Relation(parts.schema.columns, parts.rows_uncounted())
        with pytest.raises(UnknownColumnError, match="nope"):
            aggregate_rows(rows, gnode.keys, gnode.aggs)

    def test_a_stale_view_fails_at_binding_as_the_interpreter_fails_in_a_round(self):
        db = build_devices_database(DEV_CONFIG)
        engine = IdIvmEngine(db, exec_backend="interp")
        view = engine.define_view("V", build_flat_view(db, DEV_CONFIG))
        # the price-update filter of the flat view, left stale
        (step,) = [s for s in view.script.steps if getattr(s, "name", None) == "d46_upd_n4"]
        (stale,) = [node for node in step.ir.walk() if isinstance(node, Filter)]
        stale.predicate = Call("is_distinct", (Col("nope"), Col("price__pre")))
        with pytest.raises(UnknownColumnError, match="nope"):
            bind_kernels(view.script, "compiled")
        assert not _is_compiled(view.script)  # nothing bound
        apply_price_updates(engine, db, DEV_CONFIG)
        with pytest.raises(UnknownColumnError, match="nope"):
            engine.maintain()

    def test_explain_compiled_prints_the_generated_source(self, capsys):
        from repro.cli import main

        sql = (
            "SELECT did, SUM(price) AS cost FROM parts NATURAL JOIN devices_parts "
            "NATURAL JOIN devices WHERE category = 'phone' GROUP BY did"
        )
        assert main(["explain", "--sql", sql]) == 0
        assert "def " not in capsys.readouterr().out
        assert main(["explain", "--sql", sql, "--compiled"]) == 0
        out = capsys.readouterr().out
        assert "<delta:d38_upd_n4>" in out and "def d38_upd_n4(ctx):" in out
        assert "if (r1[2] != r1[1])]" in out        # 3VL spelled inline
        # the γ pass: accumulation, then the queued write of live groups
        assert "<delta:gamma_n0>" in out and "def gamma_n0(changes):" in out
        assert "_update_many(('did',), ('cost',), queued, None, False)" in out


# ----------------------------------------------------------------------
# equivalence: devices
# ----------------------------------------------------------------------
def _run_devices(exec_backend, build_view, rounds=3, mixed=False, engine_cls=None):
    """*engine_cls* (default: an ``IdIvmEngine`` of *exec_backend*) defines
    the view; its script is then rebound to *exec_backend*."""
    db = build_devices_database(DEV_CONFIG)
    if engine_cls is None:
        engine = IdIvmEngine(db, exec_backend=exec_backend)
        view = engine.define_view("V", build_view(db, DEV_CONFIG))
    else:
        engine = engine_cls(db)
        view = engine.define_view("V", build_view(db, DEV_CONFIG))
        bind_kernels(view.script, exec_backend)
        assert _is_compiled(view.script) == (exec_backend == "compiled")
    out = []
    for r in range(rounds):
        if mixed:
            batch = mixed_modification_batch(
                db, DEV_CONFIG, updates=8, inserts=5, deletes=3, round_seed=r
            )
            log_batch(engine, batch)
        else:
            apply_price_updates(engine, db, DEV_CONFIG, round_seed=r)
        report = engine.maintain()["V"]
        out.append((sorted(view.table.rows_uncounted()), report))
    assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()
    return out


@pytest.mark.parametrize("mixed", [False, True], ids=["updates", "mixed"])
@pytest.mark.parametrize(
    "build_view", [build_flat_view, build_aggregate_view], ids=["flat", "agg"]
)
def test_devices_counts_match_interpreter_exactly(build_view, mixed):
    base = _run_devices("interp", build_view, mixed=mixed)
    compiled = _run_devices("compiled", build_view, mixed=mixed)
    for (rows_i, rep_i), (rows_c, rep_c) in zip(base, compiled):
        assert rows_c == rows_i
        assert _phase_totals(rep_c) == _phase_totals(rep_i)
        assert rep_c.total_cost == rep_i.total_cost


@pytest.mark.parametrize("mixed", [False, True], ids=["updates", "mixed"])
@pytest.mark.parametrize(
    "build_view", [build_flat_view, build_aggregate_view], ids=["flat", "agg"]
)
def test_tuple_devices_counts_match_interpreter_exactly(build_view, mixed):
    """The tuple rule set's scripts run on the same executor: its kernels
    count exactly what its interpreted statements do."""
    base = _run_devices("interp", build_view, mixed=mixed, engine_cls=TupleIvmEngine)
    compiled = _run_devices("compiled", build_view, mixed=mixed, engine_cls=TupleIvmEngine)
    for (rows_i, rep_i), (rows_c, rep_c) in zip(base, compiled):
        assert rows_c == rows_i
        assert _phase_totals(rep_c) == _phase_totals(rep_i)
        assert rep_c.total_cost == rep_i.total_cost


def test_compiled_report_reconciles_with_cost_model():
    # COST503 leg: the symbolic model's predictions must hold for the
    # compiled backend without any compiled-specific calibration.
    from repro.analysis.cost import reconcile_report

    for _rows, report in _run_devices("compiled", build_flat_view):
        assert report.predicted_counts is not None
        assert reconcile_report(report) == []


# ----------------------------------------------------------------------
# equivalence: every BSMA view
# ----------------------------------------------------------------------
def _run_bsma(engine_factory, rounds=3, exec_backend=None):
    """With *exec_backend*, every view's script is rebound to it."""
    db = build_bsma_database(BSMA_CONFIG)
    engine = engine_factory(db)
    try:
        views = {
            name: engine.define_view(name, build(db, BSMA_CONFIG))
            for name, build in BSMA_QUERIES.items()
        }
        if exec_backend is not None:
            for view in views.values():
                bind_kernels(view.script, exec_backend)
        out = []
        for r in range(rounds):
            log_user_updates(engine, db, BSMA_CONFIG, 20, round_seed=r)
            reports = engine.maintain()
            out.append(
                {
                    name: (
                        sorted(view.table.rows_uncounted()),
                        _phase_totals(reports[name]),
                    )
                    for name, view in views.items()
                }
            )
        for view in views.values():
            assert view.table.as_set() == evaluate_plan(view.plan, db).as_set()
        return out
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


def _interp_engine(db):
    return IdIvmEngine(db, exec_backend="interp")


@pytest.fixture(scope="module")
def interp_reference():
    """Three seeded interpreter rounds over all BSMA views — the one
    reference every leg below compares against (round *r* is seeded by
    *r*, so the sharded legs' two rounds are its first two)."""
    return _run_bsma(_interp_engine, rounds=3)


def test_bsma_views_counts_match_interpreter_exactly(interp_reference):
    base = interp_reference
    compiled = _run_bsma(lambda db: IdIvmEngine(db, exec_backend="compiled"))
    assert set(base[0]) == set(BSMA_QUERIES)
    for round_b, round_c in zip(base, compiled):
        for name in round_b:
            rows_b, counts_b = round_b[name]
            rows_c, counts_c = round_c[name]
            assert rows_c == rows_b, name
            assert counts_c == counts_b, name


def test_tuple_bsma_views_counts_match_interpreter_exactly():
    """Every BSMA view under the tuple rule set: its kernels count
    exactly what its interpreted statements do."""
    base = _run_bsma(TupleIvmEngine, exec_backend="interp")
    compiled = _run_bsma(TupleIvmEngine, exec_backend="compiled")
    assert set(base[0]) == set(BSMA_QUERIES)
    for round_b, round_c in zip(base, compiled):
        for name in round_b:
            rows_b, counts_b = round_b[name]
            rows_c, counts_c = round_c[name]
            assert rows_c == rows_b, name
            assert counts_c == counts_b, name


# ----------------------------------------------------------------------
# equivalence: through both shard backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shard_backend", ["inline", "process"])
def test_sharded_compiled_matches_interpreter(shard_backend, interp_reference):
    base = interp_reference[:2]
    sharded = _run_bsma(
        lambda db: ShardedEngine(
            db, shards=2, backend=shard_backend, exec_backend="compiled"
        ),
        rounds=2,
    )
    for round_b, round_s in zip(base, sharded):
        for name in round_b:
            rows_b, counts_b = round_b[name]
            rows_s, counts_s = round_s[name]
            assert rows_s == rows_b, name
            assert counts_s == counts_b, name


class TestSubviewFallbacks:
    """Every subview read a round makes — a kernel's, a γ rule's, a tuple
    rule's — goes through the view's generated reader: on the compiled
    backend the interpreter's ``IrContext.resolve_subview`` is never
    called."""

    @staticmethod
    def _interpreted_reads(monkeypatch) -> list:
        """The calls to ``IrContext.resolve_subview`` from here on."""
        calls = []
        real = IrContext.resolve_subview

        def spy(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(IrContext, "resolve_subview", spy)
        return calls

    def _e2e_rounds(self, name: str, rounds: int, monkeypatch) -> list[int]:
        """Per steady round of e2e workload *name* (smoke scale, seed 1):
        the subview reads that went through the interpreter."""
        import sys
        from pathlib import Path

        e2e = str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e")
        if e2e not in sys.path:
            sys.path.insert(0, e2e)
        from loadgen import log_batch as log_e2e_batch
        from workloads import FANOUT, WORKLOADS

        workload = WORKLOADS[name].sized(20, True)
        config = DevicesConfig(
            n_parts=workload.n_rows, n_devices=workload.n_rows,
            diff_size=workload.batch.updates, fanout=FANOUT, seed=1,
        )
        db = build_devices_database(config)
        engine = IdIvmEngine(db)
        engine.define_view("V", build_flat_view(db, config))
        engine.define_view("Vagg", build_aggregate_view(db, config))
        interpreted = self._interpreted_reads(monkeypatch)
        per_round = []
        for batch in workload.generate_rounds(db, 1, 3 + rounds):
            before = len(interpreted)
            log_e2e_batch(engine.log, batch)
            engine.maintain()
            per_round.append(len(interpreted) - before)
        return per_round[3:]

    def test_churn_reads_no_subview_through_the_interpreter(self, monkeypatch):
        # the six reads that went to the interpreter before the readers
        # were generated: π over devices four times, π over devices_parts twice
        assert self._e2e_rounds("devices_churn_m98", 4, monkeypatch) == [0] * 4

    def test_bigdiff_reads_none(self, monkeypatch):
        assert self._e2e_rounds("devices_bigdiff_d400", 2, monkeypatch) == [0, 0]

    @pytest.mark.parametrize("engine_cls", [IdIvmEngine, TupleIvmEngine], ids=["id", "tuple"])
    def test_no_shipped_view_reads_through_the_interpreter(self, engine_cls, monkeypatch):
        interpreted = self._interpreted_reads(monkeypatch)
        views = []
        # one engine per devices view: beside Vagg, V is answered from its cache
        for name, build in (("V", build_flat_view), ("Vagg", build_aggregate_view)):
            db = build_devices_database(DEV_CONFIG)
            engine = engine_cls(db)
            views.append(engine.define_view(name, build(db, DEV_CONFIG)))
            log_batch(engine, mixed_modification_batch(db, DEV_CONFIG, updates=8, inserts=5, deletes=3))
            engine.maintain()
        db = build_bsma_database(BSMA_CONFIG)
        engine = engine_cls(db)
        for name, make in sorted(BSMA_QUERIES.items()):
            engine.define_view(name, make(db, BSMA_CONFIG))
        views += engine.views.values()
        log_user_updates(engine, db, BSMA_CONFIG, 5, round_seed=0)
        engine.maintain()
        assert len(views) == 10
        assert interpreted == []
        reads = Counter()
        for view in views:
            built = set(readers_of(view.script).built)
            rules = {
                (node.node_id, state, tuple(attrs) if attrs else None, cached)
                for step in view.script.steps
                for node, state, attrs, cached in step.subview_reads()
            }
            assert rules <= built, view.name
            reads["kernels"] += len(built - rules)
            reads["rules"] += len(rules)
        # the ID rules probe in kernels (the shipped γ nodes read their
        # child's cache expansions, so their γ steps probe nothing), the
        # tuple rules in their join steps
        if engine_cls is TupleIvmEngine:
            assert reads["rules"] > 0 and reads["kernels"] == 0
        else:
            assert reads["kernels"] > 0 and reads["rules"] == 0
