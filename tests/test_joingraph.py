"""Equivalence tests: the bitmask :class:`JoinGraph` vs the original
frozenset-based enumeration helpers and optimizer loops.

The frozenset code (kept verbatim in :mod:`repro.optimizer.reference` and
as the reference helpers in :mod:`repro.optimizer.dp`) is the executable
specification; these tests assert the bitmask rewrite matches it exactly
— same connectivity verdicts, same conjunct order, same enumeration
order, and byte-identical plans out of DP, IDP, and the buyer generator.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.optimizer import JoinGraph
from repro.optimizer.dp import (
    DynamicProgrammingOptimizer,
    connecting_conjuncts,
    subset_connected,
)
from repro.optimizer.idp import IDPOptimizer
from repro.optimizer.reference import (
    ReferenceDynamicProgrammingOptimizer,
    ReferenceIDPOptimizer,
    reference_buyer_generate,
)
from repro.sql import column
from repro.sql.expr import Comparison, Or
from repro.trading import BuyerPlanGenerator, RequestForBids, SellerAgent
from repro.trading.valuation import WeightedValuation
from repro.workload import chain_query, star_query

from tests.conftest import make_federation


# ----------------------------------------------------------------------
# Random join-graph generation (plain `random`, fixed seeds).
# ----------------------------------------------------------------------
def random_graph(rng: random.Random):
    """Random aliases + conjuncts, including the awkward cases.

    Mixes binary equi-join edges, selections (single-table conjuncts,
    which the graph must ignore), conjuncts referencing aliases outside
    the universe (ditto), and OR-hyperedges spanning 3+ aliases (which
    connect all their aliases at once but only when fully contained).
    """
    n = rng.randint(1, 10)
    aliases = [f"r{i}" for i in range(n)]
    conjuncts = []
    for _ in range(rng.randint(0, 2 * n)):
        kind = rng.random()
        if kind < 0.6 and n >= 2:  # binary join edge
            a, b = rng.sample(aliases, 2)
            conjuncts.append(Comparison("=", column(a, "id"), column(b, "ref")))
        elif kind < 0.75:  # selection: ignored by the join graph
            a = rng.choice(aliases)
            conjuncts.append(Comparison(">", column(a, "v"), column(a, "w")))
        elif kind < 0.9 and n >= 3:  # OR hyperedge over 3 aliases
            a, b, c = rng.sample(aliases, 3)
            conjuncts.append(
                Or(
                    (
                        Comparison("=", column(a, "id"), column(b, "ref")),
                        Comparison("=", column(b, "id"), column(c, "ref")),
                    )
                )
            )
        else:  # references an alias outside the universe: ignored
            a = rng.choice(aliases)
            conjuncts.append(
                Comparison("=", column(a, "id"), column("zz", "ref"))
            )
    return aliases, conjuncts


def all_subsets(aliases):
    for size in range(len(aliases) + 1):
        for combo in combinations(sorted(aliases), size):
            yield frozenset(combo)


@pytest.mark.parametrize("seed", range(25))
def test_connected_matches_subset_connected(seed):
    rng = random.Random(seed)
    aliases, conjuncts = random_graph(rng)
    graph = JoinGraph(aliases, conjuncts)
    for subset in all_subsets(aliases):
        mask = graph.mask_of(subset)
        assert graph.connected(mask) == subset_connected(subset, conjuncts), (
            subset,
            [c.sql() for c in conjuncts],
        )
        assert graph.aliases_of(mask) == subset


@pytest.mark.parametrize("seed", range(25))
def test_connecting_matches_connecting_conjuncts(seed):
    rng = random.Random(seed + 1000)
    aliases, conjuncts = random_graph(rng)
    graph = JoinGraph(aliases, conjuncts)
    for subset in all_subsets(aliases):
        if not subset:
            continue
        for left in all_subsets(subset):
            if not left or left == subset:
                continue
            right = subset - left
            expected = connecting_conjuncts(conjuncts, left, right)
            got = graph.connecting(graph.mask_of(left), graph.mask_of(right))
            assert got == expected  # identity and order


@pytest.mark.parametrize("seed", range(25))
def test_subsets_by_size_matches_filtered_combinations(seed):
    rng = random.Random(seed + 2000)
    aliases, conjuncts = random_graph(rng)
    graph = JoinGraph(aliases, conjuncts)
    members = sorted(aliases)
    for connected_only in (True, False):
        by_size = graph.subsets_by_size(connected_only=connected_only)
        assert sorted(by_size) == list(range(2, len(members) + 1))
        for size, bucket in by_size.items():
            expected = [
                frozenset(combo)
                for combo in combinations(members, size)
                if not connected_only
                or subset_connected(frozenset(combo), conjuncts)
            ]
            assert [graph.aliases_of(m) for m in bucket] == expected


@pytest.mark.parametrize("seed", range(25))
def test_splits_match_original_nested_loop_order(seed):
    rng = random.Random(seed + 3000)
    aliases, conjuncts = random_graph(rng)
    graph = JoinGraph(aliases, conjuncts)
    for subset in all_subsets(aliases):
        size = len(subset)
        if size < 2:
            continue
        members = sorted(subset)
        anchor = members[0]
        expected = []
        for split_size in range(1, size // 2 + 1):
            for left_combo in combinations(members, split_size):
                left = frozenset(left_combo)
                if size == 2 * split_size and anchor not in left:
                    continue
                expected.append((left, subset - left))
        got = [
            (graph.aliases_of(left), graph.aliases_of(right))
            for left, right in graph.splits(graph.mask_of(subset))
        ]
        assert got == expected


def test_mask_roundtrip_and_members():
    graph = JoinGraph(["b", "a", "c", "a"], [])
    assert graph.aliases == ("a", "b", "c")
    assert graph.mask_of(("a", "c")) == 0b101
    assert graph.members(0b101) == ("a", "c")
    assert graph.bits(0b1101) == (0, 2, 3)
    assert graph.full_mask == 0b111


# ----------------------------------------------------------------------
# Optimizer byte-identity: bitmask DP/IDP vs the reference loops.
# ----------------------------------------------------------------------
def _queries():
    qs = [chain_query(n) for n in (2, 3, 5, 7)]
    qs.append(star_query(4))
    qs.append(chain_query(4, aggregate=True))
    return qs


def _assert_same_result(result, expected):
    assert result.enumerated == expected.enumerated
    got_best = {s: p for s, p in result.best.items()}
    assert list(got_best) == list(expected.best)  # same key *order* too
    for subset, plan in expected.best.items():
        assert got_best[subset].explain() == plan.explain()
        assert got_best[subset].response_time() == plan.response_time()
    if expected.plan is None:
        assert result.plan is None
    else:
        assert result.plan.explain() == expected.plan.explain()
        assert result.plan.response_time() == expected.plan.response_time()


def test_dp_byte_identical_to_reference():
    catalog, nodes, _est, _model, builder = make_federation(n_relations=8)
    site = nodes[0]
    new = DynamicProgrammingOptimizer(builder)
    ref = ReferenceDynamicProgrammingOptimizer(builder)
    for query in _queries():
        _assert_same_result(
            new.optimize(query, site), ref.optimize(query, site)
        )


@pytest.mark.parametrize("k,m", [(2, 5), (3, 2)])
def test_idp_byte_identical_to_reference(k, m):
    catalog, nodes, _est, _model, builder = make_federation(n_relations=8)
    site = nodes[0]
    new = IDPOptimizer(builder, k=k, m=m)
    ref = ReferenceIDPOptimizer(builder, k=k, m=m)
    for query in _queries():
        _assert_same_result(
            new.optimize(query, site), ref.optimize(query, site)
        )


# ----------------------------------------------------------------------
# Buyer plan-generation byte-identity over real seller offers.
# ----------------------------------------------------------------------
def _gather_offers(catalog, nodes, builder, query, stale=False):
    """Every seller's offers for *query*; with *stale*, seller ``i``
    serves data of freshness ``1 - 0.1 i`` so freshness ranks entries."""
    rfb = RequestForBids(buyer="client", queries=(query,), round_number=1)
    offers = []
    sellers = [node for node in nodes if node != "client"]
    for i, node in enumerate(sellers):
        freshness = 1.0 - 0.1 * i if stale else 1.0
        agent = SellerAgent(catalog.local(node), builder, freshness=freshness)
        node_offers, _work = agent.prepare_offers(rfb)
        offers.extend(node_offers)
    return offers


def _assert_same_generation(got, expected):
    assert got.enumerated == expected.enumerated
    assert len(got.candidates) == len(expected.candidates)
    for g, e in zip(got.candidates, expected.candidates):
        assert g.value.hex() == e.value.hex()
        assert g.plan.explain() == e.plan.explain()
        for name in ("total_time", "rows", "money", "freshness"):
            assert getattr(g.properties, name).hex() == getattr(
                e.properties, name
            ).hex(), name
    if expected.best is None:
        assert got.best is None
    else:
        assert got.best.value == expected.best.value
        assert got.best.plan.explain() == expected.best.plan.explain()


#: (queries, generator keyword arguments, stale sellers).  The aggregate
#: case ships exact partial aggregates, so FINAL entries and their
#: unions are exercised; the weighted case ranks entries by money and
#: freshness rather than time alone.
BUYER_CASES = {
    "spj": ((chain_query(3), chain_query(5), star_query(3)), {}, False),
    "aggregate": (
        (chain_query(1, aggregate=True), chain_query(3, aggregate=True)),
        {},
        False,
    ),
    "weighted": (
        (chain_query(3), chain_query(4), star_query(3)),
        {
            "valuation": WeightedValuation(
                money_weight=1.0, staleness_penalty=0.5
            )
        },
        True,
    ),
}


@pytest.mark.parametrize("mode", ["dp", "idp"])
def test_buyer_generate_byte_identical_to_reference(mode):
    catalog, nodes, _est, _model, builder = make_federation(
        nodes=6, n_relations=6
    )
    for queries, kwargs, stale in BUYER_CASES.values():
        for query in queries:
            offers = _gather_offers(catalog, nodes, builder, query, stale)
            generator = BuyerPlanGenerator(
                builder, "client", mode=mode, **kwargs
            )
            _assert_same_generation(
                generator.generate(query, offers),
                reference_buyer_generate(generator, query, offers),
            )
