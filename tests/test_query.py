"""Unit tests for the SPJ query model."""

import pickle

import pytest

from repro.sql import (
    Aggregate,
    RelationRef,
    SPJQuery,
    Star,
    column,
    conjoin,
    eq,
    in_list,
)
from repro.sql.expr import FALSE, TRUE, ge, lt


def chain(n=3, cat=None):
    refs = tuple(RelationRef.of(f"R{i}", f"r{i}") for i in range(n))
    conjuncts = [
        eq(column(f"r{i}", "ref0"), column(f"r{i+1}", "id"))
        for i in range(n - 1)
    ]
    if cat is not None:
        conjuncts.append(eq(column("r0", "cat"), cat))
    return SPJQuery(relations=refs, predicate=conjoin(conjuncts))


class TestValidation:
    def test_needs_relations(self):
        with pytest.raises(ValueError):
            SPJQuery(relations=())

    def test_duplicate_aliases(self):
        with pytest.raises(ValueError):
            SPJQuery(
                relations=(RelationRef.of("r", "x"), RelationRef.of("s", "x"))
            )

    def test_predicate_alias_must_exist(self):
        with pytest.raises(ValueError):
            SPJQuery(
                relations=(RelationRef.of("r"),),
                predicate=eq(column("zzz", "a"), 1),
            )

    def test_projection_alias_must_exist(self):
        with pytest.raises(ValueError):
            SPJQuery(
                relations=(RelationRef.of("r"),),
                projections=(column("zzz", "a"),),
            )

    def test_group_by_alias_must_exist(self):
        with pytest.raises(ValueError):
            SPJQuery(
                relations=(RelationRef.of("r"),),
                group_by=(column("zzz", "a"),),
            )

    def test_aggregate_validation(self):
        with pytest.raises(ValueError):
            Aggregate("median", column("r", "a"))
        with pytest.raises(ValueError):
            Aggregate("sum", None)
        # COUNT(*) is fine
        Aggregate("count", None)


class TestStructure:
    def test_join_and_selection_conjuncts(self):
        q = chain(3, cat=5)
        assert len(q.join_conjuncts()) == 2
        assert len(q.selection_conjuncts()) == 1
        assert q.selection_on("r0") == eq(column("r0", "cat"), 5)
        assert q.selection_on("r1") is TRUE

    def test_aliases(self):
        assert chain(3).aliases == frozenset({"r0", "r1", "r2"})

    def test_relation_for(self):
        q = chain(2)
        assert q.relation_for("r1").name == "R1"
        with pytest.raises(KeyError):
            q.relation_for("zzz")

    def test_has_aggregates(self):
        q = chain(2)
        assert not q.has_aggregates
        agg = q.with_projections(
            [column("r0", "part"), Aggregate("sum", column("r0", "val"))]
        )
        assert agg.has_aggregates


class TestDerivation:
    def test_restrict_adds_conjunct(self):
        q = chain(2).restrict(eq(column("r0", "part"), 1))
        assert eq(column("r0", "part"), 1) in q.predicate.conjuncts()

    def test_subquery_on_keeps_internal_conjuncts(self):
        q = chain(3, cat=5)
        sub = q.subquery_on(["r0", "r1"])
        assert sub.aliases == frozenset({"r0", "r1"})
        # keeps the r0-r1 join and the cat selection, drops the r1-r2 join
        assert len(sub.join_conjuncts()) == 1
        assert eq(column("r0", "cat"), 5) in sub.predicate.conjuncts()

    def test_subquery_on_single_relation(self):
        sub = chain(3, cat=5).subquery_on(["r2"])
        assert sub.aliases == frozenset({"r2"})
        assert sub.predicate is TRUE

    def test_subquery_on_bad_subset(self):
        assert chain(2).subquery_on(["zzz"]) is None
        assert chain(2).subquery_on([]) is None

    def test_subquery_is_star(self):
        assert chain(3).subquery_on(["r0"]).is_star

    def test_order_helpers(self):
        q = chain(2).with_order([column("r0", "id")])
        assert q.order_by
        assert not q.without_order().order_by


class TestCanonical:
    def test_order_insensitive_key(self):
        refs = (RelationRef.of("R0", "a"), RelationRef.of("R1", "b"))
        p1 = conjoin([eq(column("a", "ref0"), column("b", "id")),
                      eq(column("a", "cat"), 1)])
        p2 = conjoin([eq(column("a", "cat"), 1),
                      eq(column("b", "id"), column("a", "ref0"))])
        q1 = SPJQuery(relations=refs, predicate=p1)
        q2 = SPJQuery(relations=tuple(reversed(refs)), predicate=p2)
        assert q1.key() == q2.key()

    def test_different_predicates_different_keys(self):
        q1 = chain(2, cat=1)
        q2 = chain(2, cat=2)
        assert q1.key() != q2.key()

    def test_canonical_idempotent(self):
        q = chain(3, cat=5)
        assert q.canonical().canonical() == q.canonical()


class TestRendering:
    def test_sql_contains_clauses(self):
        q = chain(2, cat=1).with_projections(
            [column("r0", "part"), Aggregate("sum", column("r0", "val"), "t")]
        )
        q = SPJQuery(
            relations=q.relations,
            predicate=q.predicate,
            projections=q.projections,
            group_by=(column("r0", "part"),),
            order_by=(column("r0", "part"),),
        )
        text = q.sql()
        assert "SELECT" in text and "FROM" in text and "WHERE" in text
        assert "GROUP BY" in text and "ORDER BY" in text
        assert "SUM(r0.val) AS t" in text

    def test_unsatisfiable_flag(self):
        q = chain(1).restrict(
            conjoin([ge(column("r0", "id"), 10), lt(column("r0", "id"), 5)])
        )
        assert q.is_unsatisfiable

    def test_output_columns_needs_schemas_for_star(self):
        with pytest.raises(ValueError):
            chain(2).output_columns()


def test_query_key_memoized():
    query = SPJQuery(
        relations=(RelationRef("R0", "r0"), RelationRef("R1", "r1")),
        predicate=eq(column("r0", "x"), column("r1", "x")),
    )
    assert query.key() is query.key()
    restored = pickle.loads(pickle.dumps(query))
    assert "_key_memo" not in restored.__dict__
    assert restored.key() == query.key()
