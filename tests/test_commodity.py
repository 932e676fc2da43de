"""Unit tests for commodities (offers, RFBs) and valuations."""

import pickle

import pytest

from repro.sql import RelationRef, SPJQuery
from repro.trading import AnswerProperties, Offer, RequestForBids, commodity
from repro.trading.contracts import Contract
from repro.trading.valuation import WeightedValuation
from repro.workload import chain_query


def props(**kwargs):
    defaults = dict(total_time=1.0, rows=100.0)
    defaults.update(kwargs)
    return AnswerProperties(**defaults)


def query():
    return SPJQuery(relations=(RelationRef.of("R0", "r0"),))


class TestAnswerProperties:
    def test_validation(self):
        with pytest.raises(ValueError):
            props(total_time=-1)
        with pytest.raises(ValueError):
            props(rows=-1)
        with pytest.raises(ValueError):
            props(freshness=1.5)
        with pytest.raises(ValueError):
            props(completeness=-0.1)

    def test_with_money(self):
        assert props().with_money(3.0).money == 3.0

    def test_scaled_time(self):
        scaled = props(total_time=2.0, first_row_time=1.0).scaled_time(1.5)
        assert scaled.total_time == 3.0
        assert scaled.first_row_time == 1.5


class TestOffer:
    def test_offer_ids_unique(self):
        q = query()
        o1 = Offer("s", q, {"r0": frozenset({0})}, props(), True, q.key())
        o2 = Offer("s", q, {"r0": frozenset({0})}, props(), True, q.key())
        assert o1.offer_id != o2.offer_id

    def test_aliases(self):
        q = query()
        o = Offer("s", q, {"r0": frozenset({0})}, props(), True, q.key())
        assert o.aliases == frozenset({"r0"})

    def test_describe(self):
        q = query()
        o = Offer("s", q, {"r0": frozenset({0, 1})}, props(), True, q.key())
        assert "r0:[0, 1]" in o.describe()


class TestRequestForBids:
    def test_reservation_lookup(self):
        q = query()
        rfb = RequestForBids("b", (q,), {q.key(): 5.0})
        assert rfb.reservation_for(q) == 5.0
        other = SPJQuery(relations=(RelationRef.of("R1", "r1"),))
        assert rfb.reservation_for(other) is None


class TestValuation:
    def test_time_only_default(self):
        v = WeightedValuation()
        assert v(props(total_time=2.0, money=100.0)) == 2.0

    def test_money_weight(self):
        v = WeightedValuation(money_weight=0.5)
        assert v(props(total_time=2.0, money=10.0)) == 7.0

    def test_staleness_penalty(self):
        v = WeightedValuation(staleness_penalty=10.0)
        assert v(props(freshness=0.8)) == pytest.approx(1.0 + 2.0)

    def test_incompleteness_penalty(self):
        v = WeightedValuation(incompleteness_penalty=4.0)
        assert v(props(completeness=0.5)) == pytest.approx(1.0 + 2.0)

    def test_first_row_weight(self):
        v = WeightedValuation(first_row_weight=1.0)
        assert v(props(first_row_time=0.5)) == pytest.approx(1.5)


class TestContract:
    def test_surplus(self):
        q = query()
        offer = Offer(
            "s", q, {"r0": frozenset({0})}, props(money=5.0), True, q.key(),
            true_cost=3.0,
        )
        contract = Contract("b", offer, offer.properties)
        assert contract.surplus == pytest.approx(2.0)
        assert contract.seller == "s"
        assert "buys" in contract.describe()


def test_offer_coverage_key_cached_and_shared():
    query = chain_query(2, selection_cat=3)
    offer = commodity.Offer(
        seller="node1",
        query=query,
        coverage={"r1": frozenset((1, 0)), "r0": frozenset((2,))},
        properties=commodity.AnswerProperties(total_time=1.0, rows=10),
        exact_projections=False,
        request_key=query.key(),
    )
    key = offer.coverage_key()
    assert key == (("r0", (2,)), ("r1", (0, 1)))
    assert offer.coverage_key() is key  # memoized
    assert commodity.coverage_key(offer.coverage) == key
    assert offer.dedupe_key() == (
        offer.request_key, offer.query.key(), key, False
    )
    # Memo must not ship across pickling (PYTHONHASHSEED hygiene rule).
    assert "_coverage_key_memo" not in pickle.loads(
        pickle.dumps(offer)
    ).__dict__
