"""Semantic plan/∆-script fingerprints (repro.analysis.fingerprint).

The contract under test: fingerprints are *semantic* — invariant under
attribute renaming, commutative-operand order and conjunct order — yet
*distinct* under any change of meaning, and the bytes are stable across
processes and ``PYTHONHASHSEED`` values (the same discipline
tests/test_wire.py enforces for the shard wire format).  Exact mode
(``alpha=False``) is the syntactic variant that keys the analysis
cache: it must additionally distinguish renamings.
"""

from __future__ import annotations

import os
import subprocess
import sys
from datetime import date, datetime
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import UnionAll, equi_join, group_by, rename, scan, where
from repro.analysis import (
    generated_fingerprint,
    plan_fingerprint,
    plan_fingerprints,
    script_fingerprint,
)
from repro.expr import Cmp, col, lit
from repro.expr.ast import And
from repro.storage import Database


def make_db() -> Database:
    db = Database()
    db.create_table(
        "t",
        ("k", "a", "b"),
        ("k",),
        types={"k": "int", "a": "int", "b": "int"},
    )
    db.create_table(
        "u", ("j", "c"), ("j",), types={"j": "int", "c": "int"}
    )
    db.table("t").load([(1, 5, 7), (2, 6, 8)])
    db.table("u").load([(1, 9)])
    return db


# ----------------------------------------------------------------------
# invariances (directed)
# ----------------------------------------------------------------------
class TestInvariance:
    def test_rename_invariant_alpha_distinct_exact(self):
        """Identical structure under different attribute names: the
        alpha fingerprints agree, the exact (cache-key) ones differ."""
        db = make_db()
        original = where(
            rename(scan(db, "t"), {}), Cmp(">", col("a"), lit(5))
        )
        renamed = where(
            rename(scan(db, "t"), {"a": "alpha", "b": "beta"}),
            Cmp(">", col("alpha"), lit(5)),
        )
        assert plan_fingerprint(original, db) == plan_fingerprint(renamed, db)
        assert plan_fingerprint(original, db, alpha=False) != plan_fingerprint(
            renamed, db, alpha=False
        )

    def test_join_operand_order_invariant(self):
        db = make_db()
        ab = equi_join(scan(db, "t"), scan(db, "u"), [("k", "j")])
        ba = equi_join(scan(db, "u"), scan(db, "t"), [("j", "k")])
        assert plan_fingerprint(ab, db) == plan_fingerprint(ba, db)

    def test_union_operand_order_invariant(self):
        db = make_db()
        lo = where(scan(db, "t"), Cmp("<", col("a"), lit(6)))
        hi = where(scan(db, "t"), Cmp(">=", col("a"), lit(6)))
        assert plan_fingerprint(UnionAll(lo, hi, "br"), db) == plan_fingerprint(
            UnionAll(hi, lo, "br"), db
        )

    def test_union_of_twin_branches_differs_from_single_branch(self):
        """σ(T) ∪ σ(T) with *identical* branches must not collapse into
        anything resembling one branch — the bag has twice the rows."""
        db = make_db()
        half = where(scan(db, "t"), Cmp("<", col("a"), lit(6)))
        twin = UnionAll(half, where(scan(db, "t"), Cmp("<", col("a"), lit(6))), "br")
        other = UnionAll(half, where(scan(db, "t"), Cmp("<", col("a"), lit(7))), "br")
        assert plan_fingerprint(twin, db) != plan_fingerprint(other, db)

    def test_comparison_flip_invariant(self):
        db = make_db()
        gt = where(scan(db, "t"), Cmp(">", col("a"), lit(5)))
        lt = where(scan(db, "t"), Cmp("<", lit(5), col("a")))
        assert plan_fingerprint(gt, db) == plan_fingerprint(lt, db)

    def test_equality_operand_order_invariant(self):
        db = make_db()
        one = where(scan(db, "t"), Cmp("=", col("a"), col("b")))
        two = where(scan(db, "t"), Cmp("=", col("b"), col("a")))
        assert plan_fingerprint(one, db) == plan_fingerprint(two, db)


# ----------------------------------------------------------------------
# distinctness (directed)
# ----------------------------------------------------------------------
class TestDistinctness:
    def test_constant_change_changes_fingerprint(self):
        db = make_db()
        five = where(scan(db, "t"), Cmp(">", col("a"), lit(5)))
        six = where(scan(db, "t"), Cmp(">", col("a"), lit(6)))
        assert plan_fingerprint(five, db) != plan_fingerprint(six, db)

    def test_literal_type_changes_fingerprint(self):
        """``Decimal`` and date literals get type-tagged documents: equal
        values of different types are different literals."""
        db = make_db()
        values = (
            5, 5.0, "5", Decimal("5"), Decimal("5.0"),
            date(2015, 5, 31), datetime(2015, 5, 31),
        )
        fps = {
            plan_fingerprint(where(scan(db, "t"), Cmp(">", col("a"), lit(v))), db, alpha=alpha)
            for v in values for alpha in (True, False)
        }
        assert len(fps) == 2 * len(values)

    def test_operator_change_changes_fingerprint(self):
        db = make_db()
        gt = where(scan(db, "t"), Cmp(">", col("a"), lit(5)))
        ge = where(scan(db, "t"), Cmp(">=", col("a"), lit(5)))
        assert plan_fingerprint(gt, db) != plan_fingerprint(ge, db)

    def test_column_change_changes_fingerprint(self):
        db = make_db()
        on_a = where(scan(db, "t"), Cmp(">", col("a"), lit(5)))
        on_b = where(scan(db, "t"), Cmp(">", col("b"), lit(5)))
        assert plan_fingerprint(on_a, db) != plan_fingerprint(on_b, db)

    def test_aggregate_change_changes_fingerprint(self):
        db = make_db()
        cnt = group_by(scan(db, "t"), ("k",), [("count", None, "x")])
        tot = group_by(scan(db, "t"), ("k",), [("sum", col("a"), "x")])
        assert plan_fingerprint(cnt, db) != plan_fingerprint(tot, db)

    def test_select_is_not_its_child(self):
        db = make_db()
        bare = scan(db, "t")
        assert plan_fingerprint(bare, db) != plan_fingerprint(
            where(bare, Cmp(">", col("a"), lit(5))), db
        )


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------
_COLUMNS = ("a", "b")
_OPS = ("<", "<=", ">", ">=", "=", "<>")

conjuncts = st.lists(
    st.tuples(
        st.sampled_from(_COLUMNS),
        st.sampled_from(_OPS),
        st.integers(min_value=-3, max_value=9),
    ),
    min_size=1,
    max_size=5,
    unique=True,
)

fresh_names = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6
    ).filter(lambda s: s not in ("k", "a", "b")),
    min_size=2,
    max_size=2,
    unique=True,
)


def _predicate(parts):
    return And([Cmp(op, col(c), lit(v)) for c, op, v in parts])


@settings(max_examples=40, deadline=None)
@given(parts=conjuncts, shuffled=st.randoms())
def test_conjunct_order_is_irrelevant(parts, shuffled):
    db = make_db()
    reordered = list(parts)
    shuffled.shuffle(reordered)
    base = where(scan(db, "t"), _predicate(parts))
    permuted = where(scan(db, "t"), _predicate(reordered))
    assert plan_fingerprint(base, db) == plan_fingerprint(permuted, db)


@settings(max_examples=40, deadline=None)
@given(parts=conjuncts, names=fresh_names)
def test_renaming_is_irrelevant_in_alpha_mode(parts, names):
    db = make_db()
    mapping = dict(zip(_COLUMNS, names))
    base = where(rename(scan(db, "t"), {}), _predicate(parts))
    renamed = where(
        rename(scan(db, "t"), mapping),
        And([Cmp(op, col(mapping[c]), lit(v)) for c, op, v in parts]),
    )
    assert plan_fingerprint(base, db) == plan_fingerprint(renamed, db)
    if any(mapping[c] != c for c in _COLUMNS):
        assert plan_fingerprint(base, db, alpha=False) != plan_fingerprint(
            renamed, db, alpha=False
        )


@settings(max_examples=40, deadline=None)
@given(
    parts=st.tuples(
        st.sampled_from(_COLUMNS),
        st.sampled_from(_OPS),
        st.integers(min_value=-3, max_value=9),
    ),
    other=st.tuples(
        st.sampled_from(_COLUMNS),
        st.sampled_from(_OPS),
        st.integers(min_value=-3, max_value=9),
    ),
)
def test_distinct_predicates_distinct_fingerprints(parts, other):
    """Semantic distinctness on single comparisons, modulo the one
    legitimate identification: the canonicalizer's operator flip and
    operand sort (a > 5 ≡ 5 < a, a = b ≡ b = a)."""
    db = make_db()
    if parts == other:
        return
    c1, op1, v1 = parts
    c2, op2, v2 = other
    fp1 = plan_fingerprint(where(scan(db, "t"), Cmp(op1, col(c1), lit(v1))), db)
    fp2 = plan_fingerprint(where(scan(db, "t"), Cmp(op2, col(c2), lit(v2))), db)
    assert fp1 != fp2


# ----------------------------------------------------------------------
# ∆-script fingerprints
# ----------------------------------------------------------------------
def _generate(db, label, plan):
    from repro.analysis.cost import PlanStats, define_script

    return define_script(label, plan, PlanStats(db))


class TestScriptFingerprint:
    def test_twin_generations_agree_exactly(self):
        prints = []
        for _ in range(2):
            db = make_db()
            plan = group_by(
                equi_join(scan(db, "t"), scan(db, "u"), [("k", "j")]),
                ("b",),
                [("count", None, "n")],
            )
            generated = _generate(db, "V", plan)
            prints.append(generated_fingerprint(generated, db, alpha=False))
        assert prints[0] == prints[1]

    def test_view_label_does_not_leak_into_fingerprint(self):
        db = make_db()
        plan = where(scan(db, "t"), Cmp(">", col("a"), lit(5)))
        g1 = _generate(db, "V", plan)
        g2 = _generate(
            db, "completely_different", where(
                scan(db, "t"), Cmp(">", col("a"), lit(5))
            )
        )
        assert generated_fingerprint(g1, db) == generated_fingerprint(g2, db)

    def test_script_change_changes_fingerprint(self):
        db = make_db()
        g1 = _generate(db, "V", where(scan(db, "t"), Cmp(">", col("a"), lit(5))))
        g2 = _generate(db, "V", where(scan(db, "t"), Cmp(">", col("a"), lit(6))))
        assert generated_fingerprint(g1, db) != generated_fingerprint(g2, db)


# ----------------------------------------------------------------------
# per-node fingerprints
# ----------------------------------------------------------------------
class TestNodeFingerprints:
    def test_shared_subtrees_share_fingerprints_across_plans(self):
        db = make_db()
        sub1 = equi_join(scan(db, "t"), scan(db, "u"), [("k", "j")])
        sub2 = equi_join(scan(db, "t"), scan(db, "u"), [("k", "j")])
        p1 = group_by(sub1, ("b",), [("count", None, "n")])
        p2 = group_by(sub2, ("c",), [("sum", col("a"), "s")])
        from repro.core.idinfer import annotate_plan

        p1, p2 = annotate_plan(p1), annotate_plan(p2)
        fp1 = plan_fingerprints(p1, db)
        fp2 = plan_fingerprints(p2, db)
        assert fp1[p1.child.node_id] == fp2[p2.child.node_id]
        assert fp1[p1.node_id] != fp2[p2.node_id]


# ----------------------------------------------------------------------
# byte stability across processes and hash seeds
# ----------------------------------------------------------------------
# Fingerprints key a *persisted* cache (`repro lint --cache-dir`) shared between
# runs, so a fingerprint computed today under one PYTHONHASHSEED must
# equal the one computed tomorrow under another.  Same subprocess-matrix
# idiom as tests/test_wire.py and TestLintDeterminism.
_FP_CHILD = r"""
import sys
from repro.analysis import generated_fingerprint, plan_fingerprint
from repro.analysis.cost import PlanStats, define_script
from repro.catalog import CatalogConfig, build_catalog_database, catalog_views

config = CatalogConfig(n_views=10, n_overlap_groups=2, group_size=2,
                       n_duplicates=1, n_subsumed=1)
db = build_catalog_database(config)
out = []
for label, plan in catalog_views(db, config):
    out.append(plan_fingerprint(plan, db))
    out.append(plan_fingerprint(plan, db, alpha=False))
label, plan = catalog_views(db, config)[0]
generated = define_script(label, plan, PlanStats(db))
out.append(generated_fingerprint(generated, db, alpha=False))
sys.stdout.write("\n".join(out))
"""

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _child_fingerprints(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _FP_CHILD],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestHashSeedStability:
    def test_fingerprints_stable_across_hash_seeds(self):
        outputs = {_child_fingerprints(seed) for seed in ("0", "4242", "77")}
        assert len(outputs) == 1, "fingerprints depend on PYTHONHASHSEED"

    def test_in_process_matches_subprocess(self):
        """The parent's fingerprints equal a child's: no per-process
        state (id()-based ordering, interning) leaks into the bytes."""
        from repro.catalog import (
            CatalogConfig,
            build_catalog_database,
            catalog_views,
        )

        config = CatalogConfig(
            n_views=10,
            n_overlap_groups=2,
            group_size=2,
            n_duplicates=1,
            n_subsumed=1,
        )
        db = build_catalog_database(config)
        local = []
        for label, plan in catalog_views(db, config):
            local.append(plan_fingerprint(plan, db))
            local.append(plan_fingerprint(plan, db, alpha=False))
        child = _child_fingerprints("303").splitlines()
        assert child[: len(local)] == local
