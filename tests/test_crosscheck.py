"""Unit tests for the differential fuzzer itself.

The fuzzer is test infrastructure, so it gets its own tests: generation
must be deterministic and self-consistent, the spec layer must round-trip
through JSON, the runner must hold all strategies to the oracle, and the
shrinker must minimize while preserving the failure property.
"""

from __future__ import annotations

import json

import pytest

from repro.crosscheck import (
    ALL_STRATEGIES,
    CaseGenerator,
    build_database,
    build_plan,
    case_label,
    corpus_files,
    expr_from_spec,
    expr_to_spec,
    generate_case,
    load_corpus_case,
    plan_tables,
    run_case,
    save_corpus_case,
    shrink_case,
)
from repro.expr import And, InList, Not, Or, col, lit


class TestGeneration:
    def test_same_seed_same_case(self):
        assert generate_case(7, 3) == generate_case(7, 3)

    def test_different_index_different_case(self):
        cases = [generate_case(0, i) for i in range(6)]
        assert len({json.dumps(c, sort_keys=True) for c in cases}) > 1

    def test_cases_are_independent_of_generation_order(self):
        """Case N must not depend on cases 0..N-1 having been generated."""
        assert generate_case(2, 5) == CaseGenerator(2 * 1_000_003 + 5).generate()

    def test_case_is_pure_json(self):
        case = generate_case(1, 0)
        assert case == json.loads(json.dumps(case))

    def test_generated_specs_build(self):
        for i in range(10):
            case = generate_case(4, i)
            db = build_database(case)
            plan = build_plan(case["plan"], db)
            assert plan_tables(case["plan"]) <= set(db.tables)
            assert plan.columns


class TestExprSpecRoundTrip:
    @pytest.mark.parametrize(
        "expr",
        [
            col("a").eq(lit(3)),
            Not(col("a").lt(col("b"))),
            And([col("a").gt(lit(0)), col("b").ne(lit("x"))]),
            Or([col("a").le(lit(None)), col("b").ge(lit(2))]),
            InList(col("a"), (1, None, "x")),
        ],
    )
    def test_round_trip(self, expr):
        assert expr_from_spec(expr_to_spec(expr)) == expr

    def test_spec_survives_json(self):
        spec = expr_to_spec(And([col("a").eq(lit(1)), Not(col("b").lt(lit(2)))]))
        assert expr_from_spec(json.loads(json.dumps(spec))) == expr_from_spec(spec)


def one_batch_case() -> dict:
    """One table scanned as the view, one batch inserting one row."""
    return {
        "version": 1,
        "tables": [
            {"name": "t0", "columns": ["k", "c0"], "key": ["k"],
             "rows": [[0, 1]]},
        ],
        "foreign_keys": [],
        "plan": {"op": "scan", "table": "t0", "alias": "s0"},
        "batches": [[{"op": "insert", "table": "t0", "row": [1, 2]}]],
    }


class TestRunner:
    def test_generated_cases_are_clean(self):
        """A handful of the seed-0 stream, all strategies vs the oracle
        (the 100-case sweep is the CLI / CI job; this is the smoke)."""
        for i in range(6):
            result = run_case(generate_case(0, i))
            assert result.ok, "\n".join(str(d) for d in result.divergences)

    def test_divergence_reported_for_wrong_view(self):
        """A case whose 'view' rows are tampered with must diverge."""
        case = one_batch_case()
        clean = run_case(case)
        assert clean.ok
        # Same case, but the stream deletes a row the oracle keeps: the
        # runner builds both sides from the spec, so corrupt the spec for
        # one side only by checking a strategy against the *wrong* oracle.
        from repro.crosscheck.runner import oracle_states, run_strategy

        expected = oracle_states(case)
        expected[0][(99, 99)] += 1  # a row no engine will produce
        divergence = run_strategy(case, ALL_STRATEGIES[0], expected)
        assert divergence is not None
        assert divergence.kind == "view_mismatch"


    def test_faults_strategy_reports_a_half_applied_round(self, monkeypatch):
        """The ``faults`` strategy is clean on a case whose round writes,
        and reports the round once a rollback keeps its writes."""
        from repro.crosscheck.runner import oracle_states, run_strategy
        from repro.storage import Table

        case = one_batch_case()
        assert "faults" in ALL_STRATEGIES
        expected = oracle_states(case)
        assert run_strategy(case, "faults", expected) is None
        real_end = Table.end_journal
        monkeypatch.setattr(
            Table, "end_journal",
            lambda self, commit=True, write_set=False: real_end(self, True, write_set),
        )
        divergence = run_strategy(case, "faults", expected)
        assert divergence is not None and divergence.kind == "rollback"

    @pytest.mark.parametrize("index", [14, 15, 33, 75, 85])
    def test_the_analyzer_checks_the_script_the_engine_ships(self, monkeypatch, index):
        """On these seed-0 cases cost selection ships the cache-free
        script: the analyzer must see that script, not the generator's
        unselected one."""
        import repro.analysis
        from repro.core import IdIvmEngine
        from repro.crosscheck.runner import analyze_case

        analyzed = []
        real = repro.analysis.analyze_generated

        def spy(generated, *args, **kwargs):
            analyzed.append(generated.script.describe())
            return real(generated, *args, **kwargs)

        monkeypatch.setattr(repro.analysis, "analyze_generated", spy)
        case = generate_case(0, index)
        analyze_case(case)
        db = build_database(case)
        view = IdIvmEngine(db, exec_backend="compiled").define_view(
            "V", build_plan(case["plan"], db)
        )
        assert analyzed == [view.script.describe()]

    def test_an_alternative_that_cannot_be_priced_is_an_analyzer_exception(
        self, unpriceable_alternatives
    ):
        """The lint prices COST501's unminimized alternative; when that
        raises, the case reports it, and the strategies still run."""
        result = run_case(generate_case(0, 0), strategies=("compiled",))
        assert unpriceable_alternatives
        assert [(d.strategy, d.kind) for d in result.divergences] == [
            ("analyzer", "exception")
        ]
        assert "CostInferenceError" in result.divergences[0].detail

    def test_shared_strategy_checks_every_cursor(self, monkeypatch):
        """``shared`` holds both of its views to the log head: a round
        that leaves ``V2``'s cursor behind is an invariant divergence."""
        from repro.core.modlog import ModificationLog
        from repro.crosscheck.runner import oracle_states, run_strategy

        case = one_batch_case()
        expected = oracle_states(case)
        assert run_strategy(case, "shared", expected) is None
        real = ModificationLog.advance

        def advance(self, name, position):
            if name != "V2" or name not in self.cursors:  # V2 is defined, never moved
                real(self, name, position)

        monkeypatch.setattr(ModificationLog, "advance", advance)
        divergence = run_strategy(case, "shared", expected)
        assert divergence is not None and divergence.kind == "invariant"
        assert "V2" in divergence.detail

    def test_a_failing_cost_reconciliation_is_reported(self, monkeypatch):
        from repro.analysis import cost
        from repro.crosscheck.runner import oracle_states, run_strategy

        def broken(report):
            raise RuntimeError("reconciliation broke")

        case = one_batch_case()
        expected = oracle_states(case)
        monkeypatch.setattr(cost, "reconcile_report", broken)
        divergence = run_strategy(case, "compiled", expected)
        assert divergence is not None and divergence.kind == "exception"
        assert (divergence.strategy, divergence.batch) == ("compiled", 0)
        assert "reconciliation broke" in divergence.detail

    def test_a_failing_drift_monitor_is_reported(self, monkeypatch):
        from repro.obs.drift import DriftMonitor
        from repro.crosscheck.runner import oracle_states, run_strategy

        def broken(self):
            raise RuntimeError("drift broke")

        case = one_batch_case()
        expected = oracle_states(case)
        monkeypatch.setattr(DriftMonitor, "alerts", broken)
        divergence = run_strategy(case, "compiled", expected)
        assert divergence is not None and divergence.kind == "exception"
        assert (divergence.strategy, divergence.batch) == ("compiled", 0)
        assert "drift broke" in divergence.detail


class TestShrinker:
    def _base_case(self):
        return generate_case(0, 2)

    def test_shrink_preserves_predicate(self):
        """With a synthetic failure property, shrinking keeps the
        property true while making the case strictly no larger."""
        case = self._base_case()

        def has_update(candidate):
            return any(
                mod["op"] == "update"
                for batch in candidate["batches"]
                for mod in batch
            )

        # CaseGenerator guarantees at least one update per case, so the
        # predicate is satisfiable for every seed — no skip needed.
        assert has_update(case)
        small = shrink_case(case, predicate=has_update)
        assert has_update(small)
        n_mods = sum(len(b) for b in small["batches"])
        assert n_mods == 1  # a single update is the minimal witness
        assert len(small["batches"]) == 1

    def test_shrink_drops_unused_tables(self):
        case = self._base_case()

        def nonempty(candidate):
            return bool(candidate["tables"])

        small = shrink_case(case, predicate=nonempty)
        # The plan shrinks to a bare scan and every unread table goes.
        assert len(small["tables"]) <= len(plan_tables(case["plan"]))

    def test_shrink_does_not_mutate_input(self):
        case = self._base_case()
        snapshot = json.loads(json.dumps(case))
        shrink_case(case, predicate=lambda c: True)
        assert case == snapshot

    def test_passing_case_returned_unchanged(self):
        case = generate_case(0, 0)
        result = run_case(case)
        assert result.ok
        assert shrink_case(case, result) == case


class TestCorpus:
    def test_save_load_round_trip(self, tmp_path):
        case = generate_case(0, 1)
        path = save_corpus_case(
            case, "Some Bug! (x)", directory=tmp_path,
            label="why", divergence="[eager @ 0] ...",
        )
        assert path.name == "some_bug_x.json"
        loaded = load_corpus_case(path)
        assert loaded["label"] == "why"
        assert {k: loaded[k] for k in case} == case
        assert corpus_files(tmp_path) == [path]

    def test_missing_directory_is_empty_corpus(self, tmp_path):
        assert corpus_files(tmp_path / "nope") == []

    def test_checked_in_corpus_loads(self):
        for path in corpus_files():
            case = load_corpus_case(path)
            assert case_label(case)
