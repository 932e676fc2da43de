"""The seller node: partial query constructor, cost estimator, and
seller predicates analyser (Sections 3.4–3.5).

On receiving an RFB the seller:

1. **rewrites** each requested query to its local holdings (dropping
   non-local relations, restricting extents to local fragments),
2. runs its **local optimizer** — the modified dynamic programming
   algorithm — obtaining a precise plan/cost for the rewritten query *and*
   the optimal 2-way, 3-way, ... partial results, each of which becomes
   an additional offered query,
3. lets the **predicates analyser** search its materialized views for
   cheap ways to answer the request (exact match, filter, or rollup of a
   finer-grained aggregate view),
4. asks its **strategy** to price every candidate offer (competitive
   sellers may shade or decline).

The returned ``work_seconds`` is the simulated local optimization effort
(enumerated plans × per-plan cost), which the network simulator charges
to the seller's compute timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.catalog.catalog import LocalCatalog
from repro.cost.model import NodeCapabilities
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optimizer.dp import DPResult, DynamicProgrammingOptimizer
from repro.optimizer.plans import Plan, PlanBuilder
from repro.sql.expr import TRUE
from repro.sql.query import SPJQuery
from repro.sql.rewrite import RewrittenQuery, rewrite_query
from repro.sql.views import match_view
from repro.trading.cache import OfferCache
from repro.trading.commodity import (
    AnswerProperties,
    Offer,
    RequestForBids,
    coverage_label,
)
from repro.trading.strategy import (
    CooperativeSellerStrategy,
    SellerContext,
    SellerStrategy,
)

__all__ = ["SellerAgent"]

#: Simulated seconds of optimizer work per enumerated (sub-)plan.
DEFAULT_SECONDS_PER_PLAN = 5e-5
#: Simulated seconds per view-match attempt.
SECONDS_PER_VIEW_MATCH = 2e-5


class SellerAgent:
    """One autonomous selling node.

    Parameters
    ----------
    local:
        The node's local catalog (schemas, schemes, held fragments, views).
    builder:
        Plan factory whose capabilities map includes this node.
    strategy:
        Pricing strategy (cooperative by default).
    offer_partials:
        Include the modified-DP partial results as extra offers
        (disabling this reduces message size but starves the buyer plan
        generator — an ablation the benchmarks exercise).
    max_partial_size:
        Cap on the relation-subset size of exported partials.
    offer_fragment_granularity:
        Additionally offer each locally held fragment of each relation as
        its own single-fragment commodity.  Overlapping holdings across
        sellers (node A holds {0,1}, node B holds {1,2}) often admit no
        *disjoint* exact cover at held-set granularity; per-fragment
        offers make round-one assembly the common case.
    join_capable:
        Autonomy also means heterogeneous *query capabilities* (paper
        §1): a node that cannot evaluate joins (a thin store, a
        key-value façade) only ever offers single-relation parts.
    use_views:
        Enable the seller predicates analyser (materialized views).
    subcontractor:
        Optional :class:`~repro.trading.subcontract.Subcontractor` — the
        extension Section 3.5 sketches and defers: a seller missing some
        of the requested data may *purchase* it from third nodes and
        offer the combined (e.g. pre-joined) answer itself.
    offer_cache:
        A shared :class:`~repro.trading.cache.OfferCache`; by default the
        agent creates a private one.  Pass ``use_offer_cache=False`` to
        disable caching entirely (every request re-optimizes).
    """

    def __init__(
        self,
        local: LocalCatalog,
        builder: PlanBuilder,
        strategy: SellerStrategy | None = None,
        optimizer: DynamicProgrammingOptimizer | None = None,
        offer_partials: bool = True,
        max_partial_size: int | None = 3,
        offer_fragment_granularity: bool = True,
        join_capable: bool = True,
        use_views: bool = True,
        seconds_per_plan: float = DEFAULT_SECONDS_PER_PLAN,
        subcontractor=None,
        freshness: float = 1.0,
        offer_cache: OfferCache | None = None,
        use_offer_cache: bool = True,
    ):
        self.node = local.node
        self.local = local
        self.builder = builder
        self.strategy = strategy or CooperativeSellerStrategy()
        self.optimizer = optimizer or DynamicProgrammingOptimizer(builder)
        self.offer_partials = offer_partials
        self.max_partial_size = max_partial_size
        self.offer_fragment_granularity = offer_fragment_granularity
        self.join_capable = join_capable
        self.use_views = use_views
        self.seconds_per_plan = seconds_per_plan
        self.subcontractor = subcontractor
        if not (0.0 <= freshness <= 1.0):
            raise ValueError("freshness must be in [0, 1]")
        self.freshness = freshness
        if offer_cache is not None:
            self.offer_cache: OfferCache | None = offer_cache
        else:
            self.offer_cache = OfferCache() if use_offer_cache else None
        #: Observability hook; the trader attaches its network tracer.
        self.tracer: Tracer = NULL_TRACER
        #: Cache lineage of the most recent :meth:`optimize_cached` call
        #: ("hit" / "miss" / "none"), read by the decision-ledger
        #: instrumentation right after the call.
        self._last_cache_lineage: str = "none"
        #: Nominal optimizer effort accumulated for the query currently
        #: being priced: ``enumerated × seconds_per_plan`` summed over
        #: the :meth:`optimize_cached` calls it triggered.  Unlike the
        #: *charged* work (which shrinks to ``hit_work_fraction`` on an
        #: offer-cache hit, so shared-cache interleaving makes it racy
        #: across sessions), the nominal effort is a pure function of
        #: the query and the seller's catalog — the deterministic
        #: per-offer ``effort`` the decision ledger records.
        self._nominal_effort: float = 0.0

    # ------------------------------------------------------------------
    def prepare_offers(
        self, rfb: RequestForBids
    ) -> tuple[list[Offer], float]:
        """All offers for *rfb*, plus the simulated optimization effort."""
        tracer = self.tracer
        if not tracer.enabled:
            return self._prepare(rfb)
        with tracer.span(
            "seller.prepare_offers", "trading", site=self.node,
            round=rfb.round_number, queries=len(rfb.queries),
        ) as span:
            offers, work = self._prepare(rfb)
            span.set(offers=len(offers), work=work)
            return offers, work

    def _prepare(self, rfb: RequestForBids) -> tuple[list[Offer], float]:
        offers: list[Offer] = []
        work = 0.0
        lineage: dict[str, str] = {}
        efforts: dict[str, float] = {}
        for query in rfb.queries:
            self._last_cache_lineage = "none"
            self._nominal_effort = 0.0
            new_offers, query_work = self._offers_for(
                query, rfb.reservation_for(query), rfb.round_number
            )
            lineage[query.key()] = self._last_cache_lineage
            efforts[query.key()] = self._nominal_effort
            offers.extend(new_offers)
            work += query_work
        deduped = _dedupe(offers)
        tracer = self.tracer
        if tracer.enabled:
            # Decision-ledger provenance: one pricing record per offer
            # that survives dedupe, carrying the optimization lineage
            # (offer-cache hit vs fresh DP) of the request it answers.
            # An interned RFB (MQO epoch prepass) additionally stamps
            # the amortization factor: this price is shared by that
            # many buyer sessions and charged once in aggregate.
            for offer in deduped:
                shared = rfb.shared_count_for(offer.request_key)
                tracer.event(
                    "ledger.priced", "decision", site=self.node,
                    cause=tracer.cause,
                    offer=offer.offer_id,
                    seller=offer.seller,
                    request=offer.request_key,
                    query=offer.query.key(),
                    coverage=coverage_label(offer.coverage_key()),
                    exact=offer.exact_projections,
                    money=offer.properties.money,
                    total_time=offer.properties.total_time,
                    cache=lineage.get(offer.request_key, "none"),
                    effort=round(
                        efforts.get(offer.request_key, 0.0), 12
                    ),
                    round=rfb.round_number,
                    **({"shared": shared} if shared else {}),
                )
        return deduped, work

    # ------------------------------------------------------------------
    def optimize_cached(
        self,
        query: SPJQuery,
        coverage: Mapping[str, frozenset[int]],
    ) -> tuple[DPResult, float]:
        """Local optimization through the offer/pricing cache.

        Returns the (possibly cached) :class:`DPResult` and the simulated
        optimization effort to charge: the full ``enumerated ×
        seconds_per_plan`` on a miss, the cache's ``hit_work_fraction``
        of it on a hit.  The key includes this node's current
        capabilities, so load/capability changes invalidate naturally and
        a hit is always exactly what re-optimizing would have produced.
        """
        cache = self.offer_cache
        if cache is None:
            self._last_cache_lineage = "none"
            result = self.optimizer.optimize(
                query, self.node, coverage=dict(coverage)
            )
            nominal = result.enumerated * self.seconds_per_plan
            self._nominal_effort += nominal
            return result, nominal
        key = cache.key_for(
            query,
            coverage,
            self.node,
            self.builder.caps(self.node),
            self.optimizer.name,
        )
        cached = cache.lookup(key)
        if cached is not None:
            self._last_cache_lineage = "hit"
            # Nominal effort is cache-independent: ``enumerated`` is the
            # same whether the result was recomputed or replayed.
            self._nominal_effort += cached.enumerated * self.seconds_per_plan
            work = (
                cached.enumerated
                * self.seconds_per_plan
                * cache.hit_work_fraction
            )
            return cached, work
        self._last_cache_lineage = "miss"
        result = self.optimizer.optimize(
            query, self.node, coverage=dict(coverage)
        )
        cache.store(key, result)
        nominal = result.enumerated * self.seconds_per_plan
        self._nominal_effort += nominal
        return result, nominal

    # ------------------------------------------------------------------
    def _offers_for(
        self,
        query: SPJQuery,
        reservation: float | None,
        round_number: int,
    ) -> tuple[list[Offer], float]:
        caps = self.builder.caps(self.node)
        ctx = SellerContext(
            query_key=query.key(),
            reservation=reservation,
            round_number=round_number,
            caps=caps,
        )
        offers: list[Offer] = []
        work = 0.0

        rewritten = rewrite_query(
            query, self.local.schemas, self.local.schemes, self.local.held
        )
        if rewritten is not None:
            result, opt_work = self.optimize_cached(
                rewritten.query, rewritten.coverage
            )
            work += opt_work
            if result.plan is not None:
                offers.extend(
                    self._plan_offers(query, rewritten, result, ctx)
                )

        if self.use_views:
            view_offers, view_work = self._view_offers(query, ctx)
            offers.extend(view_offers)
            work += view_work

        if self.subcontractor is not None:
            sub_offers, sub_work = self.subcontractor.augment(
                self, query, rewritten, ctx
            )
            offers.extend(sub_offers)
            work += sub_work
        return offers, work

    def _plan_offers(
        self,
        request: SPJQuery,
        rewritten: RewrittenQuery,
        result: DPResult,
        ctx: SellerContext,
    ) -> list[Offer]:
        offers: list[Offer] = []
        full_aliases = frozenset(rewritten.query.aliases)
        if self.join_capable or len(full_aliases) == 1:
            full_offer = self._offer_from_plan(
                request,
                rewritten.query,
                result.plan,
                dict(rewritten.coverage),
                rewritten.exact_projections,
                ctx,
            )
            if full_offer is not None:
                offers.append(full_offer)
        if not self.offer_partials:
            return offers
        for subset, plan in sorted(
            result.best.items(), key=lambda kv: sorted(kv[0])
        ):
            if subset == full_aliases:
                continue
            if (
                self.max_partial_size is not None
                and len(subset) > self.max_partial_size
            ):
                continue
            if not self.join_capable and len(subset) > 1:
                continue
            sub_query = rewritten.query.subquery_on(subset)
            if sub_query is None:
                continue
            coverage = {
                alias: rewritten.coverage[alias] for alias in subset
            }
            offer = self._offer_from_plan(
                request, sub_query, plan, coverage, False, ctx
            )
            if offer is not None:
                offers.append(offer)
        if self.offer_fragment_granularity:
            offers.extend(self._fragment_offers(request, rewritten, ctx))
        return offers

    def _fragment_offers(
        self,
        request: SPJQuery,
        rewritten: RewrittenQuery,
        ctx: SellerContext,
    ) -> list[Offer]:
        """Single-fragment commodities for every held fragment."""
        from repro.sql.expr import conjoin, implies, normalize_conjunction

        offers: list[Offer] = []
        alias_to_relation = {
            r.alias: r.name for r in rewritten.query.relations
        }
        for alias, fragment_ids in sorted(rewritten.coverage.items()):
            if len(fragment_ids) < 2:
                continue  # the held-set partial already is one fragment
            ref = rewritten.query.relation_for(alias)
            scheme = self.local.schemes[ref.name]
            base = request.subquery_on((alias,))
            if base is None:
                continue
            selection = request.selection_on(alias)
            for fid in sorted(fragment_ids):
                restriction = scheme.fragment(fid).restriction_for(alias)
                scan_selection = conjoin(
                    [
                        c
                        for c in selection.conjuncts()
                        if not implies(restriction, c)
                    ]
                )
                plan = self.builder.scan(
                    ref, (fid,), scan_selection, self.node, alias_to_relation
                )
                sub_query = SPJQuery(
                    relations=base.relations,
                    predicate=normalize_conjunction(
                        conjoin([base.predicate, restriction])
                    ),
                )
                offer = self._offer_from_plan(
                    request,
                    sub_query,
                    plan,
                    {alias: frozenset((fid,))},
                    False,
                    ctx,
                )
                if offer is not None:
                    offers.append(offer)
        return offers

    def _offer_from_plan(
        self,
        request: SPJQuery,
        offered_query: SPJQuery,
        plan: Plan | None,
        coverage: Mapping[str, frozenset[int]],
        exact: bool,
        ctx: SellerContext,
    ) -> Offer | None:
        if plan is None:
            return None
        rows = plan.rows
        execute = plan.response_time()
        ship = self.builder.cost_model.transfer(rows)
        total = execute + ship
        properties = AnswerProperties(
            total_time=total,
            rows=rows,
            first_row_time=execute + self.builder.cost_model.network.latency,
            rows_per_second=rows / ship if ship > 0 else rows,
            freshness=self.freshness,
        )
        priced = self.strategy.price(properties, execute, ctx)
        if priced is None:
            return None
        return Offer(
            seller=self.node,
            query=offered_query,
            coverage=dict(coverage),
            properties=priced,
            exact_projections=exact,
            request_key=request.key(),
            true_cost=execute,
        )

    # -- seller predicates analyser ---------------------------------------
    def _view_offers(
        self, query: SPJQuery, ctx: SellerContext
    ) -> tuple[list[Offer], float]:
        offers: list[Offer] = []
        work = 0.0
        for view in self.local.views:
            work += SECONDS_PER_VIEW_MATCH
            match = match_view(query, view, self.local.schemas)
            if match is None:
                continue
            caps = ctx.caps
            model = self.builder.cost_model
            rows_out = self.builder.estimator.query_rows(query)
            execute = model.scan(view.row_count, caps)
            if match.residual is not TRUE:
                execute += model.cpu_pass(view.row_count, caps)
            if match.needs_rollup:
                execute += model.cpu_pass(view.row_count, caps)
            ship = model.transfer(rows_out)
            properties = AnswerProperties(
                total_time=execute + ship,
                rows=rows_out,
                first_row_time=execute + model.network.latency,
                rows_per_second=rows_out / ship if ship > 0 else rows_out,
                freshness=min(self.freshness, view.freshness),
            )
            priced = self.strategy.price(properties, execute, ctx)
            if priced is None:
                continue
            coverage = {
                ref.alias: self.local.schemes[ref.name].fragment_ids
                for ref in query.relations
            }
            offers.append(
                Offer(
                    seller=self.node,
                    query=query,
                    coverage=coverage,
                    properties=priced,
                    exact_projections=True,
                    request_key=query.key(),
                    true_cost=execute,
                )
            )
        return offers, work

    def record_outcomes(self, won_keys: Iterable[str], lost_keys: Iterable[str]) -> None:
        for key in won_keys:
            self.strategy.record_outcome(key, True)
        for key in lost_keys:
            self.strategy.record_outcome(key, False)


def _dedupe(offers: list[Offer]) -> list[Offer]:
    """Keep one offer per (request, query, coverage): cheapest total time."""
    best: dict[tuple, Offer] = {}
    for offer in offers:
        key = offer.dedupe_key()
        current = best.get(key)
        if (
            current is None
            or offer.properties.total_time < current.properties.total_time
        ):
            best[key] = offer
    return list(best.values())
