"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Initial view" in out
        assert "APPLY" in out
        assert "maintenance cost" in out


class TestExplain:
    def test_explain_shows_plan_and_script(self, capsys):
        code = main(
            ["explain", "--sql", "SELECT pid, price FROM parts WHERE price > 15"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SCAN parts" in out
        assert "ids:" in out
        assert "∆-script" in out

    def test_no_minimize_flag_keeps_probes(self, capsys):
        sql = "SELECT pid, price FROM parts WHERE price > 15"
        main(["explain", "--sql", sql])
        minimized = capsys.readouterr().out
        main(["explain", "--sql", sql, "--no-minimize"])
        naive = capsys.readouterr().out
        assert naive.count("Subview") > minimized.count("Subview")

    def test_explain_names_the_pre_state_tables(self, capsys):
        main(["explain", "--sql", "SELECT pid, price FROM parts WHERE price > 15"])
        assert "\nInput_pre: none\n" in capsys.readouterr().out
        sql = (
            "SELECT a.did, b.did AS did2 FROM devices a JOIN devices b "
            "ON a.category = b.category WHERE a.did < b.did"
        )
        main(["explain", "--sql", sql])
        assert "\nInput_pre: devices\n" in capsys.readouterr().out

    def test_explain_counts_the_statements_shared_with_another_view(self, capsys):
        flat = (
            "SELECT did, pid, price FROM parts NATURAL JOIN devices_parts "
            "NATURAL JOIN devices WHERE category = 'phone'"
        )
        agg = (
            "SELECT did, SUM(price) AS cost FROM parts NATURAL JOIN devices_parts "
            "NATURAL JOIN devices WHERE category = 'phone' GROUP BY did"
        )
        count = agg.replace("SUM(price) AS cost", "COUNT(*) AS n")
        assert main(["explain", "--sql", agg, "--also", count, "--also", "SELECT did FROM devices",
                     "--also", flat]) == 0
        out = capsys.readouterr().out
        assert "\n-- 41 statements shared with V2: a round computes them once\n" in out
        assert "\n-- 0 statements shared with V3: a round computes them once\n" in out
        # the flat view is π over V's σ-join cache: V's round maintains it
        assert "\n-- V4 is a projection of V's cache V__in_n1: a round maintains it with V\n" in out
        main(["explain", "--sql", agg])
        assert "statements shared" not in capsys.readouterr().out
        # defined first, the flat view is answered from the aggregate's cache
        assert main(["explain", "--sql", flat, "--also", agg]) == 0
        out = capsys.readouterr().out
        assert "-- V is a projection of V2's cache V2__in_n1" in out
        assert "-- generated ∆-script" not in out

    def test_bad_sql_raises(self):
        from repro.errors import SqlError

        with pytest.raises(SqlError):
            main(["explain", "--sql", "SELECT FROM WHERE"])


class TestSweep:
    def test_sweep_prints_table(self, capsys):
        code = main(
            ["sweep", "--param", "f", "--values", "4", "--parts", "80"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "idIVM" in out

    def test_join_sweep_disables_selection(self, capsys):
        code = main(
            ["sweep", "--param", "j", "--values", "2,3", "--parts", "60"]
        )
        assert code == 0
        lines = [
            l for l in capsys.readouterr().out.splitlines() if l[:1].isdigit()
        ]
        assert len(lines) == 2

    def test_unknown_param_rejected(self, capsys):
        assert main(["sweep", "--param", "zzz", "--values", "1"]) != 0
        assert "usage" in capsys.readouterr().err


class TestBsma:
    def test_bsma_small(self, capsys):
        code = main(["bsma", "--users", "120", "--updates", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Q10" in out
        assert "speedup" in out


class TestLint:
    @pytest.mark.parametrize(
        "argv, ignored",
        [
            (["--catalog", "--catalog-views", "5", "--cost"], "--cost has no effect with --catalog"),
            (["--catalog", "--catalog-views", "5", "--verbose"], "--verbose has no effect with --catalog"),
            (["--catalog-views", "5"], "--catalog-views has no effect without --catalog"),
            (["--json", "--verbose"], "--verbose has no effect with --json"),
        ],
        ids=["cost-with-catalog", "verbose-with-catalog", "catalog-views-alone", "verbose-with-json"],
    )
    def test_a_flag_the_mode_never_reads_is_rejected(self, capsys, argv, ignored):
        assert main(["lint", *argv]) == 2
        captured = capsys.readouterr()
        assert ignored in captured.err
        assert captured.out == ""


class TestUsage:
    """No/unknown command prints usage and exits non-zero, consistently."""

    def test_missing_command_rejected(self, capsys):
        code = main([])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage" in err
        assert "command is required" in err

    def test_unknown_command_rejected(self, capsys):
        code = main(["frobnicate"])
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out


class TestAnalyze:
    def test_explain_analyze_prints_actuals(self, capsys):
        code = main(
            [
                "explain",
                "--analyze",
                "--sql",
                "SELECT did, SUM(price) AS cost FROM parts NATURAL JOIN "
                "devices_parts NATURAL JOIN devices WHERE category = 'phone' "
                "GROUP BY did",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "actual rows=" in out
        assert "lookups=" in out and "reads=" in out and "writes=" in out


class TestTrace:
    def test_demo_trace_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.obs import load_trace, phase_totals, validate_trace

        path = tmp_path / "trace.jsonl"
        assert main(["demo", "--trace", str(path)]) == 0
        assert validate_trace(str(path)) == []
        records = load_trace(str(path))
        kinds = {r["kind"] for r in records}
        assert {"engine", "view", "phase", "stmt"} <= kinds
        # Per-phase sums over phase spans must match what the engine
        # reported into the view span's attrs (exact reconciliation).
        totals = phase_totals(records)
        view_spans = [r for r in records if r["kind"] == "view"]
        assert view_spans
        reported = view_spans[0]["attrs"]["phase_counts"]
        for phase, counts in reported.items():
            assert totals.get(phase, None) is not None or counts["total"] == 0
            if phase in totals:
                assert totals[phase].as_dict() == counts

    def test_sweep_trace_reconciles_per_round(self, tmp_path, capsys):
        from repro.obs import load_trace, phase_totals, validate_trace

        path = tmp_path / "sweep.jsonl"
        code = main(
            [
                "sweep", "--param", "d", "--values", "100,200",
                "--parts", "200", "--trace", str(path),
            ]
        )
        assert code == 0
        assert validate_trace(str(path)) == []
        records = load_trace(str(path))
        by_id = {r["span_id"]: r for r in records}

        def subtree(root_id):
            out = []
            stack = [root_id]
            while stack:
                sid = stack.pop()
                out.append(by_id[sid])
                stack.extend(
                    r["span_id"] for r in records if r["parent_id"] == sid
                )
            return out

        maintains = [r for r in records if r["name"] == "maintain"]
        assert len(maintains) == 4  # 2 systems x 2 sweep values
        for round_span in maintains:
            spans = subtree(round_span["span_id"])
            totals = phase_totals(spans)
            view_spans = [r for r in spans if r["kind"] == "view"]
            assert len(view_spans) == 1
            reported = view_spans[0]["attrs"]["phase_counts"]
            for phase, counts in reported.items():
                got = totals.get(phase)
                assert (
                    got.as_dict() == counts
                    if got is not None
                    else counts["total"] == 0
                ), (phase, counts)
