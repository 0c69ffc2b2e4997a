"""Property-based tests for the expression layer.

The evaluator must agree with plain Python semantics on random
expressions, and the static analyses (column extraction, renaming,
conjunct splitting) must commute with evaluation.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.expr import (
    And,
    Arith,
    Cmp,
    Not,
    Or,
    all_of,
    col,
    columns_of,
    conjuncts_of,
    evaluate,
    lit,
    matches,
    rename_columns,
)

COLUMNS = ("a", "b", "c")
POSITIONS = {name: i for i, name in enumerate(COLUMNS)}

values = st.integers(min_value=-50, max_value=50)
rows = st.tuples(values, values, values)


def _arith(children):
    return st.builds(Arith, st.sampled_from(["+", "-", "*"]), children, children)


def _connective(children):
    pairs = st.lists(children, min_size=2, max_size=3)
    return st.one_of(
        st.builds(Not, children), st.builds(And, pairs), st.builds(Or, pairs)
    )


def arith_exprs():
    """Arithmetic over columns and small literals, at most 8 leaves."""
    leaves = st.one_of(st.sampled_from(COLUMNS).map(col), values.map(lit))
    return st.recursive(leaves, _arith, max_leaves=8)


def bool_exprs():
    """Comparisons of arithmetic under AND / OR / NOT, at most 6
    comparisons.  ``st.recursive`` bounds the tree by leaf count, so
    generation time does not depend on how deep a draw happens to go."""
    comparisons = st.builds(
        Cmp,
        st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        arith_exprs(),
        arith_exprs(),
    )
    return st.recursive(comparisons, _connective, max_leaves=6)


def python_eval(expr, row):
    """Reference implementation over non-NULL integer rows."""
    from repro.expr import And as AndN, Arith, Cmp, Col, Lit, Not as NotN, Or as OrN

    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Col):
        return row[POSITIONS[expr.name]]
    if isinstance(expr, Arith):
        left, right = python_eval(expr.left, row), python_eval(expr.right, row)
        return {"+": left + right, "-": left - right, "*": left * right}[expr.op]
    if isinstance(expr, Cmp):
        left, right = python_eval(expr.left, row), python_eval(expr.right, row)
        return {
            "=": left == right, "<>": left != right, "<": left < right,
            "<=": left <= right, ">": left > right, ">=": left >= right,
        }[expr.op]
    if isinstance(expr, AndN):
        return all(python_eval(i, row) for i in expr.items)
    if isinstance(expr, OrN):
        return any(python_eval(i, row) for i in expr.items)
    if isinstance(expr, NotN):
        return not python_eval(expr.item, row)
    raise TypeError(expr)


@given(expr=arith_exprs(), row=rows)
def test_arithmetic_matches_python(expr, row):
    assert evaluate(expr, POSITIONS, row) == python_eval(expr, row)


@given(expr=bool_exprs(), row=rows)
def test_booleans_match_python(expr, row):
    assert bool(evaluate(expr, POSITIONS, row)) == bool(python_eval(expr, row))


@given(expr=bool_exprs(), row=rows)
def test_matches_equals_evaluate_on_total_rows(expr, row):
    """Without NULLs, matches() is just truth of evaluate()."""
    assert matches(expr, POSITIONS, row) == bool(evaluate(expr, POSITIONS, row))


@given(expr=bool_exprs())
def test_columns_of_is_sound(expr):
    """Evaluation never needs a column outside columns_of(expr)."""
    needed = columns_of(expr)
    positions = {name: POSITIONS[name] for name in needed}
    row = (1, 2, 3)
    # Restricting the namespace to the reported columns must not raise.
    evaluate(expr, positions, row)


@given(expr=bool_exprs(), row=rows)
def test_rename_commutes_with_evaluation(expr, row):
    mapping = {"a": "x", "b": "y", "c": "z"}
    renamed = rename_columns(expr, mapping)
    renamed_positions = {mapping[name]: i for name, i in POSITIONS.items()}
    assert evaluate(expr, POSITIONS, row) == evaluate(
        renamed, renamed_positions, row
    )


@given(parts=st.lists(bool_exprs(), min_size=1, max_size=4), row=rows)
def test_conjuncts_partition_conjunction(parts, row):
    conjunction = all_of(*parts)
    pieces = conjuncts_of(conjunction)
    direct = matches(conjunction, POSITIONS, row)
    split = all(matches(p, POSITIONS, row) for p in pieces)
    assert direct == split


# ----------------------------------------------------------------------
# the emitted source (repro.core.compile) against the evaluator
# ----------------------------------------------------------------------
def _mixed_exprs():
    """Any expression form over columns and literals of mixed types,
    NULL included: comparisons between unordered types, arithmetic that
    raises, IN lists holding NULL, NULL-tolerant and plain calls."""
    from repro.expr.ast import Call, InList

    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([0.5, 2.0, "", "x"])
    )
    leaves = st.one_of(st.sampled_from(COLUMNS).map(col), scalars.map(lit))

    def grow(children):
        some = st.lists(children, min_size=1, max_size=3)
        return st.one_of(
            st.builds(Arith, st.sampled_from(["+", "-", "*", "/"]), children, children),
            st.builds(
                Cmp, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), children, children
            ),
            st.builds(Not, children),
            st.builds(And, some.map(tuple)),
            st.builds(Or, some.map(tuple)),
            st.builds(InList, children, st.lists(scalars, max_size=3).map(tuple)),
            st.builds(lambda a, b: Call("is_distinct", (a, b)), children, children),
            st.builds(lambda a: Call("is_true", (a,)), children),
            st.builds(lambda a: Call("abs", (a,)), children),
            st.builds(lambda args: Call("coalesce", tuple(args)), some),
            st.builds(lambda args: Call("concat", tuple(args)), some),
            st.builds(lambda a, b: Call("greatest", (a, b)), children, children),
        )

    return st.recursive(leaves, grow, max_leaves=8), st.tuples(scalars, scalars, scalars)


def _outcome(thunk):
    """``("value", v)`` — with *v*'s type, so ``1`` is not ``True`` — or
    ``("raised", type)``."""
    try:
        value = thunk()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raised", type(exc)
    return "value", type(value), value


_MIXED_EXPRS, _MIXED_ROWS = _mixed_exprs()


@given(expr=_MIXED_EXPRS, row=_MIXED_ROWS)
def test_emitted_source_evaluates_like_the_evaluator(expr, row):
    """One function per expression, as a kernel holds it: the value form
    is ``evaluate``, the filter-boundary form is ``evaluate(...) is
    True`` (it may decide, by short-circuit, before reaching an operand
    that raises — never the other way round)."""
    from repro.core.compile import _Source

    src = _Source("probe")
    cols = {name: f"r[{i}]" for name, i in POSITIONS.items()}
    src.emit(f"value = lambda: {src.value(expr, cols)}")
    src.emit(f"truth = lambda: {src.truth(expr, cols)}")
    src.emit("return value, truth")
    value, truth = src.build("r")(row)
    expected = _outcome(lambda: evaluate(expr, POSITIONS, row))
    assert _outcome(value) == expected, src.lines
    at_boundary = _outcome(truth)
    if expected[0] == "value":
        assert at_boundary == ("value", bool, expected[2] is True), src.lines
    else:
        assert at_boundary in (expected, ("value", bool, False), ("value", bool, True))
