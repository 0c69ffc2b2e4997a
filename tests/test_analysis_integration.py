"""Integration points of the static analyzer: the definition gate,
the ``repro lint`` CLI, the crosscheck runner wiring, the diagnostic
model, and the schema metadata it all rests on."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.algebra import scan, where
from repro.analysis import AnalysisContext, RULES, analyze_plan, pass_names, run_passes
from repro.analysis.cost import lint_definition
from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.cli import main
from repro.core.engine import IdIvmEngine
from repro.errors import SchemaError
from repro.expr import Cmp, Col, Lit
from repro.storage import Database
from repro.storage.schema import TableSchema


def make_db() -> Database:
    db = Database()
    db.create_table(
        "t", ("k", "a"), ("k",), nullable=("a",), types={"k": "int", "a": "int"}
    )
    db.table("t").load([(1, 5), (2, None)])
    return db


# ----------------------------------------------------------------------
# the analyzer gate: lint_definition, the pipeline an engine defines with
# ----------------------------------------------------------------------
class TestAnalyzerGate:
    def test_lint_definition_reports_non_boolean_filter(self):
        """σ(a) is a TC102 error: the truthiness filter silently drops
        rows under 3VL.  The report on the script an engine would ship
        names it (``repro lint`` exits 1, the fuzzer diverges)."""
        db = make_db()
        generated, report = lint_definition("V", where(scan(db, "t"), Col("a")), db)
        assert generated.view_name == "V"
        assert "TC102" in {d.rule_id for d in report.errors}

    def test_default_engine_accepts_the_same_view(self):
        db = make_db()
        engine = IdIvmEngine(db)
        view = engine.define_view("V", where(scan(db, "t"), Col("a")))
        assert view is engine.views["V"]

    def test_lint_definition_passes_clean_view(self):
        db = make_db()
        _generated, report = lint_definition(
            "V", where(scan(db, "t"), Cmp(">", Col("a"), Lit(0))), db
        )
        assert not report.has_errors()


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------
class TestLintCommand:
    def test_lint_shipped_workloads_is_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "devices/flat" in out
        assert "bsma/Q7" in out
        assert "0 error(s)" in out.splitlines()[-1]

    def test_lint_json_output(self, capsys):
        assert main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        views = {entry["view"] for entry in payload["views"]}
        # one entry per view: there is one ∆-script to analyze, whatever
        # backend executes it.
        assert "devices/aggregate" in views and len(views) == 10
        assert len(payload["views"]) == 10
        assert not any("[compiled]" in label for label in views)
        for entry in payload["views"]:
            for diag in entry["diagnostics"]:
                assert diag["severity"] in ("warning", "info")

    def test_lint_verbose_shows_info_diagnostics(self, capsys):
        main(["lint", "--verbose"])
        assert "SHARE703" in capsys.readouterr().out
        main(["lint"])
        assert "SHARE703" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# lint output determinism under PYTHONHASHSEED
# ----------------------------------------------------------------------
# ``repro lint --json`` is diffed in CI (uploaded as an artifact) and
# consumed by tooling, so its bytes must not depend on the hash seed.
# The analyzer walks sets (anchor candidates, footprint tables, schema
# column sets); an unsorted iteration anywhere would reorder
# diagnostics between runs.  Same idiom as tests/test_wire.py.
_LINT_CHILD = r"""
import io, hashlib, sys
from contextlib import redirect_stdout
from repro.cli import main
buf = io.StringIO()
with redirect_stdout(buf):
    status = main(["lint", "--json"])
assert status == 0, buf.getvalue()
sys.stdout.write(hashlib.sha256(buf.getvalue().encode()).hexdigest())
"""

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _lint_digest(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _LINT_CHILD],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestLintDeterminism:
    def test_lint_json_bytes_stable_across_hash_seeds(self):
        digests = {_lint_digest(seed) for seed in ("0", "4242")}
        assert len(digests) == 1, "lint --json bytes depend on PYTHONHASHSEED"

    def test_report_orders_diagnostics_deterministically(self):
        report = AnalysisReport()
        report.add("TC102", "n0", "boom")
        report.add("RACE604", "step 2 (γ n0)", "b")
        report.add("RACE604", "step 1 (APPLY d)", "a")
        report.add("COST504", "z-loc", "zzz")
        rules = [d.rule_id for d in report.sorted_diagnostics()]
        assert rules == ["COST504", "RACE604", "RACE604", "TC102"]
        locs = [d.location for d in report.sorted_diagnostics()[1:3]]
        assert locs == ["step 1 (APPLY d)", "step 2 (γ n0)"]


# ----------------------------------------------------------------------
# the crosscheck runner
# ----------------------------------------------------------------------
class TestCrosscheckWiring:
    def test_run_case_collects_diagnostics(self):
        from repro.crosscheck import generate_case, run_case

        result = run_case(generate_case(0, 0))
        assert result.divergences == []
        assert isinstance(result.diagnostics, list)

    def test_analysis_error_is_a_divergence(self):
        """A case whose generated plan carries an error diagnostic must
        surface as an ``analysis`` divergence, not pass silently."""
        from repro.crosscheck import run_case

        case = {
            "version": 1,
            "tables": [
                {
                    "name": "t0",
                    "columns": ["k", "c0"],
                    "key": ["k"],
                    "rows": [[0, 1], [1, 0]],
                    "nullable": [],
                    "types": {"k": "int", "c0": "int"},
                }
            ],
            "plan": {
                "op": "select",
                "child": {"op": "scan", "table": "t0"},
                "predicate": ["col", "c0"],
            },
            "batches": [[{"op": "insert", "table": "t0", "row": [2, 1]}]],
        }
        result = run_case(case)
        analysis = [d for d in result.divergences if d.kind == "analysis"]
        assert analysis and analysis[0].strategy == "analyzer"
        assert "TC102" in analysis[0].detail


# ----------------------------------------------------------------------
# the diagnostic model and registry
# ----------------------------------------------------------------------
class TestDiagnosticModel:
    def test_severity_is_fixed_per_rule(self):
        report = AnalysisReport()
        report.add("TC102", "n0", "boom")
        [diag] = report.diagnostics
        assert diag.severity == RULES["TC102"].severity == "error"

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(KeyError):
            AnalysisReport().add("TC999", "n0", "boom")

    def test_render_and_json_carry_hint(self):
        diag = Diagnostic("SC307", "warning", "step 3", "msg", hint="wrap it")
        assert "hint: wrap it" in diag.render()
        assert diag.to_json()["hint"] == "wrap it"
        assert "hint" not in Diagnostic("SC307", "warning", "s", "m").to_json()

    def test_has_errors_tracks_severity(self):
        report = AnalysisReport()
        report.add("COST504", "t", "drifting")
        assert not report.has_errors()
        report.add("KEY201", "n1", "not a key")
        assert report.has_errors()
        assert len(report.errors) == 1 and len(report.warnings) == 0

    def test_pass_registry_is_ordered_and_guarded(self):
        assert pass_names() == (
            "typecheck",
            "keys",
            "script",
            "cost",
        )
        db = make_db()
        ctx = AnalysisContext(plan=scan(db, "t"))
        with pytest.raises(ValueError):
            run_passes(ctx, ["nonexistent"])

    def test_analyze_plan_annotates_unannotated_input(self):
        db = make_db()
        report = analyze_plan(where(scan(db, "t"), Cmp(">", Col("a"), Lit(0))))
        assert report.diagnostics == []


# ----------------------------------------------------------------------
# schema metadata the analyzer rests on
# ----------------------------------------------------------------------
class TestSchemaMetadata:
    def test_default_nullability_is_all_non_key(self):
        schema = TableSchema("t", ("k", "a", "b"), ("k",))
        assert schema.nullable == frozenset({"a", "b"})
        assert schema.is_nullable("a") and not schema.is_nullable("k")

    def test_unknown_nullable_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", ("k", "a"), ("k",), nullable=("zz",))

    def test_key_column_cannot_be_nullable(self):
        with pytest.raises(SchemaError):
            TableSchema("t", ("k", "a"), ("k",), nullable=("k",))

    def test_unknown_type_name_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", ("k", "a"), ("k",), types={"a": "decimal"})

    def test_type_for_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", ("k", "a"), ("k",), types={"zz": "int"})

    def test_rename_preserves_metadata(self):
        schema = TableSchema(
            "t", ("k", "a"), ("k",), nullable=("a",), types={"a": "int"}
        )
        renamed = schema.rename("t2")
        assert renamed.nullable == frozenset({"a"})
        assert renamed.column_type("a") == "int"
