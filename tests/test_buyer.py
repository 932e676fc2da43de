"""Unit tests for the buyer plan generator and predicates analyser."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.optimizer import reference
from repro.sql import RelationRef, SPJQuery, column, eq, in_list
from repro.trading import AnswerProperties, BuyerPlanGenerator, Offer
from repro.trading.buyer import (
    FINAL,
    RAW,
    BuyerPredicatesAnalyser,
    _CoverageLayout,
    _PartnerIndex,
)
from repro.workload import chain_query
from tests.conftest import make_federation


@pytest.fixture(scope="module")
def world():
    catalog, nodes, estimator, model, builder = make_federation(
        nodes=8, n_relations=3, fragments=4, replicas=1, seed=3
    )
    return catalog, builder


def offer(
    query,
    coverage,
    time=1.0,
    rows=100.0,
    seller="s1",
    exact=False,
    money=0.0,
    request=None,
):
    return Offer(
        seller=seller,
        query=query,
        coverage={a: frozenset(f) for a, f in coverage.items()},
        properties=AnswerProperties(total_time=time, rows=rows, money=money),
        exact_projections=exact,
        request_key=(request or query).key(),
    )


FRAGMENTS = frozenset(range(8))


def union_check(a, b, oriented=False):
    """Pack rectangles *a* and *b* (fragments 0-7) and ask the partner
    index whether *a* unions with *b*: ``(partners, a | b, layout)``."""
    aliases = sorted(set(a) | set(b))
    layout = _CoverageLayout(aliases, {alias: FRAGMENTS for alias in aliases})
    packed_a, packed_b = layout.pack(a), layout.pack(b)
    index = _PartnerIndex({(packed_b, RAW): "b"}, layout.fields, layout.required)
    return (
        index.partners(packed_a, RAW, oriented),
        packed_a | packed_b,
        layout,
    )


class TestUnionCoverage:
    """The packed union predicate, as the partner index answers it."""

    def test_merges_single_differing_alias(self):
        partners, merged, layout = union_check(
            {"a": {0}, "b": {1}}, {"a": {1}, "b": {1}}
        )
        assert partners == ["b"]
        assert merged == layout.pack({"a": {0, 1}, "b": {1}})

    def test_rejects_two_differences(self):
        partners, _merged, _layout = union_check(
            {"a": {0}, "b": {0}}, {"a": {1}, "b": {1}}
        )
        assert partners == []

    def test_rejects_overlap(self):
        assert union_check({"a": {0, 1}}, {"a": {1, 2}})[0] == []

    def test_rejects_identical(self):
        assert union_check({"a": {0}}, {"a": {0}})[0] == []

    def test_rejects_different_aliases(self):
        assert union_check({"a": {0}}, {"b": {0}})[0] == []
        assert union_check({"a": {0}, "b": {0}}, {"a": {0}})[0] == []

    def test_canonical_orientation(self):
        assert union_check({"a": {0}}, {"a": {1}}, oriented=True)[0] == ["b"]
        assert union_check({"a": {1}}, {"a": {0}}, oriented=True)[0] == []

    def test_rejects_other_form(self):
        layout = _CoverageLayout(["a"], {"a": FRAGMENTS})
        index = _PartnerIndex(
            {(layout.pack({"a": {1}}), FINAL): "b"}, layout.fields,
            layout.required,
        )
        assert index.partners(layout.pack({"a": {0}}), RAW, False) == []

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_agrees_with_reference(self, data):
        aliases = [f"a{i}" for i in range(data.draw(st.integers(1, 6)))]
        fragments = st.frozensets(st.integers(0, 7), min_size=1)
        a = {alias: data.draw(fragments) for alias in aliases}
        if data.draw(st.booleans()):
            # Mostly one differing alias, so unions actually happen.
            b = dict(a)
            b[data.draw(st.sampled_from(aliases))] = data.draw(fragments)
        else:
            others = data.draw(
                st.lists(st.sampled_from(aliases), min_size=1, unique=True)
            )
            b = {alias: data.draw(fragments) for alias in others}
        expected = reference._union_coverage(a, b)
        partners, merged, layout = union_check(a, b)
        assert (partners == ["b"]) == (expected is not None)
        if expected is not None:
            differing, rectangle = expected
            assert merged == layout.pack(rectangle)
            oriented = union_check(a, b, oriented=True)[0]
            assert (oriented == ["b"]) == (
                min(a[differing]) < min(b[differing])
            )


class TestIsComplete:
    def test_complete(self):
        required = {"a": frozenset({0, 1}), "b": frozenset({0})}
        layout = _CoverageLayout(["a", "b"], required)
        only_a = 0b01  # alias bit mask of {"a"}
        assert layout.pack({"a": {0, 1}}) == layout.target(only_a)
        assert layout.pack({"a": {0}}) != layout.target(only_a)
        assert layout.pack(required) == layout.target(0b11)


class TestPlanGeneration:
    def test_single_full_offer(self, world):
        catalog, builder = world
        query = chain_query(2)
        full_coverage = {
            "r0": catalog.scheme("R0").fragment_ids,
            "r1": catalog.scheme("R1").fragment_ids,
        }
        generator = BuyerPlanGenerator(builder, "client")
        result = generator.generate(
            query, [offer(query, full_coverage, time=2.0)]
        )
        assert result.found
        assert result.best.properties.total_time >= 2.0

    def test_fragment_union_assembly(self, world):
        catalog, builder = world
        query = chain_query(1)
        sub = query
        frags = sorted(catalog.scheme("R0").fragment_ids)
        offers = [
            offer(sub, {"r0": {f}}, time=0.5, seller=f"s{f}") for f in frags
        ]
        generator = BuyerPlanGenerator(builder, "client")
        result = generator.generate(query, offers)
        assert result.found
        # all four purchases appear
        assert len(result.best.purchased()) == len(frags)

    def test_join_of_partial_offers(self, world):
        catalog, builder = world
        query = chain_query(2)
        r0 = query.subquery_on(["r0"])
        r1 = query.subquery_on(["r1"])
        offers = [
            offer(r0, {"r0": catalog.scheme("R0").fragment_ids}, time=0.5),
            offer(r1, {"r1": catalog.scheme("R1").fragment_ids}, time=0.5),
        ]
        generator = BuyerPlanGenerator(builder, "client")
        result = generator.generate(query, offers)
        assert result.found

    def test_incomplete_coverage_fails(self, world):
        catalog, builder = world
        query = chain_query(1)
        result = BuyerPlanGenerator(builder, "client").generate(
            query, [offer(query, {"r0": {0}})]
        )
        assert not result.found

    def test_selection_shrinks_required(self, world):
        catalog, builder = world
        query = chain_query(1).restrict(eq(column("r0", "part"), 2))
        generator = BuyerPlanGenerator(builder, "client")
        required = generator.required_coverage(query)
        assert required["r0"] == frozenset({2})
        result = generator.generate(
            query, [offer(query, {"r0": {2}}, time=0.1)]
        )
        assert result.found

    def test_cheaper_replica_wins(self, world):
        catalog, builder = world
        query = chain_query(1)
        frags = catalog.scheme("R0").fragment_ids
        cheap = offer(query, {"r0": frags}, time=0.5, seller="cheap")
        pricey = offer(query, {"r0": frags}, time=5.0, seller="pricey")
        result = BuyerPlanGenerator(builder, "client").generate(
            query, [pricey, cheap]
        )
        sellers = {p.seller for p in result.best.purchased()}
        assert sellers == {"cheap"}

    def test_exact_final_offer_skips_reaggregation(self, world):
        catalog, builder = world
        query = chain_query(2, aggregate=True)
        coverage = {
            "r0": catalog.scheme("R0").fragment_ids,
            "r1": catalog.scheme("R1").fragment_ids,
        }
        final = offer(query, coverage, time=1.0, exact=True)
        result = BuyerPlanGenerator(builder, "client").generate(query, [final])
        assert result.found
        from repro.optimizer.plans import Purchased

        assert isinstance(result.best.plan, Purchased)

    def test_union_of_final_partial_aggregates(self, world):
        catalog, builder = world
        query = chain_query(2, aggregate=True)
        r1_full = catalog.scheme("R1").fragment_ids
        parts = [
            offer(query, {"r0": {f}, "r1": r1_full}, time=0.5,
                  seller=f"s{f}", exact=True)
            for f in sorted(catalog.scheme("R0").fragment_ids)
        ]
        result = BuyerPlanGenerator(builder, "client").generate(query, parts)
        assert result.found
        from repro.optimizer.plans import GroupAgg

        # no re-aggregation on top of exact partial aggregates
        assert not isinstance(result.best.plan, GroupAgg)

    def test_money_accumulates(self, world):
        catalog, builder = world
        query = chain_query(1)
        frags = sorted(catalog.scheme("R0").fragment_ids)
        offers = [
            offer(query, {"r0": {f}}, time=0.5, money=1.0, seller=f"s{f}")
            for f in frags
        ]
        result = BuyerPlanGenerator(builder, "client").generate(query, offers)
        assert result.best.properties.money == pytest.approx(len(frags))

    def test_idp_mode_still_finds_plans(self, world):
        catalog, builder = world
        query = chain_query(3)
        offers = []
        for alias, rel in (("r0", "R0"), ("r1", "R1"), ("r2", "R2")):
            sub = query.subquery_on([alias])
            offers.append(
                offer(sub, {alias: catalog.scheme(rel).fragment_ids},
                      time=0.5, seller=f"s-{alias}")
            )
        result = BuyerPlanGenerator(builder, "client", mode="idp").generate(
            query, offers
        )
        assert result.found

    def test_bad_mode_rejected(self, world):
        _, builder = world
        with pytest.raises(ValueError):
            BuyerPlanGenerator(builder, "client", mode="magic")

    def test_exact_flag_is_relative_to_request_not_original(self, world):
        """Regression: an offer answering a derived SELECT * sub-query is
        'exact' for ITS request but must seed a RAW entry for the
        original aggregate — otherwise final partial aggregates union
        with raw fragment rows and the executed answer is garbage."""
        catalog, builder = world
        query = chain_query(1, aggregate=True)  # GROUP BY r0.part
        frags = sorted(catalog.scheme("R0").fragment_ids)
        # a final partial aggregate for fragment 0
        final_part = offer(
            query.restrict(eq(column("r0", "part"), frags[0])),
            {"r0": {frags[0]}},
            time=0.5,
            exact=True,
            request=query,
        )
        # 'exact' SELECT * answers for the other fragments (their own
        # request was the derived single-relation part)
        raw_parts = [
            offer(
                query.subquery_on(["r0"]).restrict(
                    eq(column("r0", "part"), f)
                ),
                {"r0": {f}},
                time=0.5,
                exact=True,  # exact w.r.t. the derived SELECT * request
                seller=f"s{f}",
                request=query,
            )
            for f in frags[1:]
        ]
        result = BuyerPlanGenerator(builder, "client").generate(
            query, [final_part] + raw_parts
        )
        if result.found:
            from repro.optimizer.plans import Purchased

            star_flags = {
                leaf.query.is_star
                for leaf in result.best.plan.leaves()
                if isinstance(leaf, Purchased)
            }
            # never mixes final-shaped and raw answers in one plan
            assert len(star_flags) == 1

    def test_candidates_sorted_by_value(self, world):
        catalog, builder = world
        query = chain_query(1)
        frags = catalog.scheme("R0").fragment_ids
        offers = [
            offer(query, {"r0": frags}, time=1.0, seller="a"),
            offer(query, {"r0": frags}, time=2.0, seller="b"),
        ]
        result = BuyerPlanGenerator(builder, "client").generate(query, offers)
        values = [c.value for c in result.candidates]
        assert values == sorted(values)


class TestPredicatesAnalyser:
    def test_complement_queries(self, world):
        catalog, builder = world
        query = chain_query(1)
        generator = BuyerPlanGenerator(builder, "client")
        required = generator.required_coverage(query)
        analyser = BuyerPredicatesAnalyser(catalog.schemes)
        partial = offer(query, {"r0": {0}})
        derived = analyser.derive(query, [partial], required)
        # asks for the missing fragments {1,2,3}
        assert any(
            "part" in q.predicate.sql() and "r0" in q.sql() for q in derived
        )

    def test_per_relation_parts(self, world):
        catalog, builder = world
        query = chain_query(3)
        generator = BuyerPlanGenerator(builder, "client")
        required = generator.required_coverage(query)
        analyser = BuyerPredicatesAnalyser(catalog.schemes)
        derived = analyser.derive(query, [], required)
        assert len(derived) == 3  # one per relation

    def test_overlap_deconfliction(self, world):
        catalog, builder = world
        query = chain_query(1)
        generator = BuyerPlanGenerator(builder, "client")
        required = generator.required_coverage(query)
        analyser = BuyerPredicatesAnalyser(catalog.schemes)
        o1 = offer(query, {"r0": {0, 1}}, seller="a")
        o2 = offer(query, {"r0": {1, 2}}, seller="b")
        derived = analyser.derive(query, [o1, o2], required)
        keys = {q.key() for q in derived}
        assert len(keys) == len(derived)
        assert derived  # difference queries emitted

    def test_sort_variant(self, world):
        catalog, builder = world
        query = chain_query(2).with_order([column("r0", "id")])
        generator = BuyerPlanGenerator(builder, "client")
        required = generator.required_coverage(query)
        analyser = BuyerPredicatesAnalyser(catalog.schemes)
        derived = analyser.derive(query, [], required)
        assert any(not q.order_by for q in derived)

    def test_no_duplicates(self, world):
        catalog, builder = world
        query = chain_query(2)
        generator = BuyerPlanGenerator(builder, "client")
        required = generator.required_coverage(query)
        analyser = BuyerPredicatesAnalyser(catalog.schemes)
        o1 = offer(query.subquery_on(["r0"]), {"r0": {0}}, seller="a")
        o2 = offer(query.subquery_on(["r0"]), {"r0": {0}}, seller="b")
        derived = analyser.derive(query, [o1, o2], required)
        keys = [q.key() for q in derived]
        assert len(keys) == len(set(keys))
