"""Unit tests for the predicate expression algebra."""

import pickle

import pytest

from repro.sql.expr import (
    FALSE,
    TRUE,
    And,
    Column,
    Comparison,
    DomainConstraint,
    InList,
    Literal,
    Not,
    Or,
    analyze_conjunction,
    column,
    conjoin,
    eq,
    ge,
    gt,
    implies,
    in_list,
    le,
    lit,
    lt,
    ne,
    normalize_conjunction,
    restriction_overlaps,
    satisfiable,
)

C = column("t", "a")
D = column("t", "b")
E = column("s", "a")


class TestBasics:
    def test_column_identity(self):
        assert column("t", "a") == Column("t", "a")
        assert C != D

    def test_literal_sql_escaping(self):
        assert Literal("O'Neil").sql() == "'O''Neil'"

    def test_comparison_requires_known_op(self):
        with pytest.raises(ValueError):
            Comparison("~", C, lit(3))

    def test_eq_normalizes_literal_to_right(self):
        cmp = eq(5, C)
        assert cmp.left == C and cmp.right == Literal(5)
        assert cmp.op == "="

    def test_flip_preserves_semantics(self):
        cmp = lt(5, C)  # 5 < a  ->  a > 5
        assert cmp.op == ">"
        assert cmp.evaluate({C: 6}) is True
        assert cmp.evaluate({C: 4}) is False

    def test_column_column_ordering(self):
        cmp = eq(E, C).normalized()
        # s.a < t.a lexicographically, so s.a stays left.
        assert cmp.left == E

    def test_is_join(self):
        assert eq(C, E).is_join
        assert not eq(C, D).is_join  # same table
        assert not eq(C, 3).is_join

    def test_tables(self):
        assert eq(C, E).tables() == frozenset({"t", "s"})

    def test_rename_tables(self):
        renamed = eq(C, E).rename_tables({"t": "x"})
        assert renamed.tables() == frozenset({"x", "s"})

    def test_in_list_simplifies_singleton(self):
        assert in_list(C, [5]).simplify() == eq(C, 5)

    def test_in_list_empty_is_false(self):
        assert InList(C, frozenset()).simplify() is FALSE

    def test_in_list_evaluate(self):
        pred = in_list(C, [1, 2, 3])
        assert pred.evaluate({C: 2})
        assert not pred.evaluate({C: 9})


class TestEvaluation:
    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("=", 5, True),
            ("!=", 5, False),
            ("<", 6, True),
            ("<=", 5, True),
            (">", 4, True),
            (">=", 6, False),
        ],
    )
    def test_comparison_ops(self, op, value, expected):
        assert Comparison(op, C, lit(value)).evaluate({C: 5}) is expected

    def test_and_or_not(self):
        pred = (eq(C, 1) | eq(C, 2)) & ~eq(D, 9)
        assert pred.evaluate({C: 1, D: 0})
        assert not pred.evaluate({C: 1, D: 9})
        assert not pred.evaluate({C: 3, D: 0})

    def test_true_false(self):
        assert TRUE.evaluate({}) is True
        assert FALSE.evaluate({}) is False


class TestSimplify:
    def test_constant_folding(self):
        assert eq(3, 3).simplify() is TRUE
        assert eq(3, 4).simplify() is FALSE

    def test_same_column_tautology(self):
        assert Comparison("=", C, C).simplify() is TRUE
        assert Comparison("<", C, C).simplify() is FALSE

    def test_and_contradiction_same_column(self):
        pred = eq(C, "x") & eq(C, "y")
        assert pred.simplify() is FALSE

    def test_and_absorbs_true(self):
        assert (TRUE & eq(C, 1)).simplify() == eq(C, 1)

    def test_or_absorbs_false(self):
        assert (FALSE | eq(C, 1)).simplify() == eq(C, 1)

    def test_or_short_circuit_true(self):
        assert (TRUE | eq(C, 1)).simplify() is TRUE

    def test_range_contradiction(self):
        pred = gt(C, 10) & lt(C, 5)
        assert pred.simplify() is FALSE

    def test_integer_open_interval_empty(self):
        pred = gt(C, 3) & lt(C, 4)
        assert pred.simplify() is FALSE

    def test_in_list_intersection_contradiction(self):
        pred = in_list(C, [1, 2]) & in_list(C, [3, 4])
        assert pred.simplify() is FALSE

    def test_not_not(self):
        assert Not(Not(eq(C, 1))).simplify() == eq(C, 1)

    def test_not_pushes_through_comparison(self):
        assert Not(lt(C, 5)).simplify() == ge(C, 5)

    def test_deduplicates_conjuncts(self):
        pred = And((eq(C, 1), eq(C, 1)))
        assert pred.simplify() == eq(C, 1)

    def test_satisfiable_and_survives(self):
        pred = ge(C, 1) & le(C, 10) & ne(C, 5)
        assert pred.simplify() is not FALSE


class TestConjoin:
    def test_flattens_nested_ands(self):
        pred = conjoin([eq(C, 1) & eq(D, 2), eq(E, 3)])
        assert len(pred.conjuncts()) == 3

    def test_false_short_circuit(self):
        assert conjoin([eq(C, 1), FALSE]) is FALSE

    def test_empty_is_true(self):
        assert conjoin([]) is TRUE

    def test_single(self):
        assert conjoin([eq(C, 1)]) == eq(C, 1)


class TestDomainConstraint:
    def test_equality_becomes_allowed_set(self):
        c = DomainConstraint.from_comparison("=", 5)
        assert c.admits(5) and not c.admits(6)

    def test_interval(self):
        c = DomainConstraint.from_comparison(">=", 3).intersect(
            DomainConstraint.from_comparison("<", 7)
        )
        assert c.admits(3) and c.admits(6)
        assert not c.admits(7) and not c.admits(2)

    def test_excluded(self):
        c = DomainConstraint.from_comparison("!=", 4)
        assert c.admits(3) and not c.admits(4)

    def test_is_empty_for_disjoint_sets(self):
        c = DomainConstraint(allowed=frozenset({1})).intersect(
            DomainConstraint(allowed=frozenset({2}))
        )
        assert c.is_empty()

    def test_subsumes_interval(self):
        wide = DomainConstraint.from_comparison(">=", 0).intersect(
            DomainConstraint.from_comparison("<=", 100)
        )
        narrow = DomainConstraint.from_comparison(">=", 10).intersect(
            DomainConstraint.from_comparison("<=", 20)
        )
        assert wide.subsumes(narrow)
        assert not narrow.subsumes(wide)

    def test_subsumes_sets(self):
        big = DomainConstraint(allowed=frozenset({1, 2, 3}))
        small = DomainConstraint(allowed=frozenset({2}))
        assert big.subsumes(small)
        assert not small.subsumes(big)

    def test_incomparable_types_do_not_crash(self):
        c = DomainConstraint.from_comparison(">", 5)
        assert not c.admits("abc")

    def test_to_expr_round_trip(self):
        c = DomainConstraint.from_comparison(">=", 3).intersect(
            DomainConstraint.from_comparison("<", 7)
        )
        expr = c.to_expr(C)
        assert expr.evaluate({C: 5})
        assert not expr.evaluate({C: 8})


class TestAnalyzeConjunction:
    def test_splits_columns_and_residual(self):
        join = eq(C, E)
        constraints, residual, ok = analyze_conjunction(
            [eq(C, 5), lt(D, 3), join]
        )
        assert ok
        assert set(constraints) == {C, D}
        assert residual == (join,)

    def test_merges_same_column(self):
        constraints, _, ok = analyze_conjunction([ge(C, 1), le(C, 10)])
        assert ok
        assert constraints[C].admits(5)
        assert not constraints[C].admits(11)


class TestImplies:
    def test_equality_implies_in_list(self):
        assert implies(eq(C, "x"), in_list(C, ["x", "y"]))

    def test_in_list_does_not_imply_equality(self):
        assert not implies(in_list(C, ["x", "y"]), eq(C, "x"))

    def test_narrow_range_implies_wide(self):
        assert implies(ge(C, 10) & lt(C, 20), ge(C, 0))

    def test_unrelated_columns(self):
        assert not implies(eq(C, 1), eq(D, 1))

    def test_false_implies_anything(self):
        assert implies(FALSE, eq(C, 1))

    def test_anything_implies_true(self):
        assert implies(eq(C, 1), TRUE)

    def test_join_conjunct_syntactic(self):
        join = eq(C, E)
        assert implies(join & eq(C, 1), join)
        assert not implies(eq(C, 1), join)


class TestSatisfiable:
    def test_or_of_ranges_contradiction(self):
        # The bug that motivated bounded-DNF satisfiability: a fragment
        # restriction AND an OR of complementary ranges.
        fragment = ge(C, 200) & lt(C, 400)
        complement = lt(C, 200) | (ge(C, 400) & lt(C, 600)) | ge(C, 600)
        assert not satisfiable(fragment & complement)

    def test_or_with_live_branch(self):
        pred = ge(C, 200) & (lt(C, 100) | gt(C, 300))
        assert satisfiable(pred)

    def test_plain_satisfiable(self):
        assert satisfiable(eq(C, 1) & eq(D, 2))

    def test_restriction_overlaps(self):
        assert not restriction_overlaps(eq(C, "a"), eq(C, "b"))
        assert restriction_overlaps(eq(C, "a"), eq(D, "b"))


class TestNormalizeConjunction:
    def test_merges_in_list_with_equality(self):
        # The paper's rewrite example: office IN (Corfu, Myconos) AND
        # office = Myconos simplifies to office = Myconos.
        office = column("customer", "office")
        pred = in_list(office, ["Corfu", "Myconos"]) & eq(office, "Myconos")
        assert normalize_conjunction(pred) == eq(office, "Myconos")

    def test_detects_contradiction(self):
        pred = in_list(C, [1, 2]) & eq(C, 3)
        assert normalize_conjunction(pred) is FALSE

    def test_keeps_joins(self):
        join = eq(C, E)
        result = normalize_conjunction(join & eq(C, 5))
        assert join in result.conjuncts()

    def test_true_stays_true(self):
        assert normalize_conjunction(TRUE) is TRUE


class TestSql:
    def test_round_trip_shapes(self):
        pred = (eq(C, 1) & in_list(D, [1, 2])) | gt(E, 0)
        text = pred.sql()
        assert "OR" in text and "AND" in text and "IN" in text


# ----------------------------------------------------------------------
# Memo and pickle hygiene (copies of plan expressions stay correct)
# ----------------------------------------------------------------------
def test_expr_hash_memo_and_pickle_hygiene():
    comparison = Comparison("=", Column("a", "x"), Literal(3))
    assert hash(comparison) == hash(comparison)
    assert "_hash_memo" in comparison.__dict__
    conj = And((comparison, Comparison("=", Column("a", "y"), Column("b", "y"))))
    assert conj.columns() is conj.columns()  # memoized frozenset
    restored = pickle.loads(pickle.dumps(conj))
    # Memos are process-local (string hashes are salted per process) and
    # must not travel; they repopulate on first use.
    assert "_hash_memo" not in restored.__dict__
    assert "_columns_memo" not in restored.__dict__
    assert restored == conj and hash(restored) == hash(conj)


def test_bool_singletons_survive_pickle():
    assert pickle.loads(pickle.dumps(TRUE)) is TRUE
    assert pickle.loads(pickle.dumps(FALSE)) is FALSE
