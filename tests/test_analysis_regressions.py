"""Satellite: every pre-fix bug class in tests/regressions/ must map to
its analyzer diagnostic.

Each corpus case pinned a real divergence the fuzzer found.  The fixes
live in the engine, so replaying the case is clean — these tests instead
demonstrate that the *static* analyzer recognizes each bug class, either
directly on the case (where the hazard is structural: mixed-type
comparisons, NULL join keys) or on a de-fixed / seeded variant
reconstructing the pre-fix shape (the σ update-split and the min/max
cache placement, whose fixes changed the generated output).  That the
min/max cases always broadcast on a sharded engine is checked where it
happens, on their rounds (tests/test_sharded.py).
"""

from __future__ import annotations

import pytest

from repro.analysis import AnalysisContext, run_passes
from repro.core.generator import ScriptGenerator
from repro.core.rules.aggregate import AssociativeAggregateStep
from repro.core.schema_gen import generate_base_schemas
from repro.core.ir import Filter
from repro.core.script import ComputeDiffStep
from repro.algebra.plan import GroupBy
from repro.crosscheck.corpus import DEFAULT_CORPUS_DIR, corpus_files, load_corpus_case
from repro.crosscheck.runner import analyze_case
from repro.crosscheck.spec import build_database, build_plan
from repro.expr import And, Arith, Call, Cmp, Not, Or


def case_named(name: str) -> dict:
    return load_corpus_case(DEFAULT_CORPUS_DIR / f"{name}.json")


def generated_for(case):
    db = build_database(case)
    generator = ScriptGenerator("V", build_plan(case["plan"], db))
    return generator.generate(generate_base_schemas(generator.plan, db)), db


def context_for(generated) -> AnalysisContext:
    return AnalysisContext(
        plan=generated.plan,
        script=generated.script,
        base_schemas=list(generated.base_schemas),
        generated=generated,
    )


def test_corpus_is_present():
    names = {p.stem for p in corpus_files()}
    assert {
        "mixed_type_cmp",
        "null_join",
        "select_split",
        "min_extremum",
        "gamma_expansion",
    } <= names


def test_every_corpus_case_analyzes_clean_of_errors():
    """Post-fix, the analyzer agrees with the engine: no error-severity
    diagnostics on any shipped reproducer."""
    for path in corpus_files():
        report = analyze_case(load_corpus_case(path))
        assert report.errors == [], f"{path.stem}: {report.render()}"


def test_mixed_type_cmp_yields_tc101():
    report = analyze_case(case_named("mixed_type_cmp"))
    assert any(d.rule_id == "TC101" for d in report.diagnostics)


def test_null_join_yields_sc307():
    report = analyze_case(case_named("null_join"))
    assert any(d.rule_id == "SC307" for d in report.diagnostics)


def _defix(expr):
    """Undo the σ update-split fix: Not(is_true(φ)) back to plain Not(φ)."""
    if isinstance(expr, Not):
        if isinstance(expr.item, Call) and expr.item.func == "is_true":
            return Not(_defix(expr.item.args[0]))
        return Not(_defix(expr.item))
    if isinstance(expr, And):
        return And([_defix(i) for i in expr.items])
    if isinstance(expr, Or):
        return Or([_defix(i) for i in expr.items])
    if isinstance(expr, Call):
        return Call(expr.func, tuple(_defix(a) for a in expr.args))
    if isinstance(expr, Cmp):
        return Cmp(expr.op, _defix(expr.left), _defix(expr.right))
    if isinstance(expr, Arith):
        return Arith(expr.op, _defix(expr.left), _defix(expr.right))
    return expr


def test_select_split_defixed_yields_tc103():
    """The shipped script (post-fix) is TC103-clean; rewriting its split
    complements back to plain Not reconstructs the pre-fix bug and the
    analyzer must catch it."""
    case = case_named("select_split")
    generated, db = generated_for(case)
    clean = run_passes(context_for(generated), ["typecheck"])
    assert not any(d.rule_id == "TC103" for d in clean.diagnostics)

    rewritten = 0
    for step in generated.script.steps:
        if not isinstance(step, ComputeDiffStep):
            continue
        for node in step.ir.walk():
            if isinstance(node, Filter):
                defixed = _defix(node.predicate)
                if repr(defixed) != repr(node.predicate):
                    node.predicate = defixed
                    rewritten += 1
    assert rewritten, "expected at least one is_true-wrapped complement"
    report = run_passes(context_for(generated), ["typecheck"])
    assert any(
        d.rule_id == "TC103" and d.severity == "error" for d in report.diagnostics
    )


@pytest.mark.parametrize("name", ["min_extremum", "gamma_expansion"])
def test_min_gamma_cases_would_flag_associative_cache(name):
    """Seeding the pre-fix placement — an associative delta step over the
    min γ — must produce SC306; the shipped general-rule script is clean."""
    case = case_named(name)
    generated, db = generated_for(case)
    assert not any(
        d.rule_id == "SC306"
        for d in run_passes(context_for(generated), ["script"]).diagnostics
    )
    gnode = next(
        n for n in generated.plan.walk()
        if isinstance(n, GroupBy) and any(a.func in ("min", "max") for a in n.aggs)
    )
    bad_step = AssociativeAggregateStep(gnode, [], "opc", "g", "cache_diff")
    generated.script.steps.append(bad_step)
    report = run_passes(context_for(generated), ["script"])
    assert any(d.rule_id == "SC306" for d in report.diagnostics)
