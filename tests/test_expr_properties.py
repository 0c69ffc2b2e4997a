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
