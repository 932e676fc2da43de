"""The buyer node: plan generator and predicates analyser (§3.6–3.7).

**Plan generation** is an answering-queries-using-views problem: combine
purchased query-answers (each covering a subset of the query's relations
restricted to a set of horizontal fragments) into a plan computing the
original query.  Full generality is NP-complete; like the paper we search
the *fragment-aligned* space with dynamic programming:

* an **entry** is a plan producing the rows of an alias subset ``S``
  restricted to a fragment *rectangle* (one fragment set per alias);
* two entries over disjoint subsets **join** (the original query's
  connecting conjuncts apply);
* two entries over the same subset **union** when their rectangles agree
  everywhere except one alias, where they are disjoint — join distributes
  over union, so the result is the rectangle with that alias's fragment
  sets merged;
* an entry is **final** when its rows are already the query's answer
  shape (a seller shipped the original projections — e.g. fragment-
  aligned partial aggregates); raw entries get the buyer's own
  aggregation/sort glue on top.

The buyer-side DP can also run in IDP-M(2, m) mode ("after evaluating all
2-way join sub-plans, it keeps the best five of them"), the paper's
scalable variant.

**The predicates analyser** enriches the next round's query set Q: it
asks the market for the *complements* of partially covered relations,
de-overlaps redundant offers (the paper's union-redundancy example), and
emits sort-free variants of ORDER BY queries.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count
from typing import Iterable, Mapping, Sequence

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.plans import Plan, PlanBuilder, Purchased
from repro.sql.expr import Expr, TRUE, conjoin, restriction_overlaps
from repro.sql.query import Aggregate, SPJQuery
from repro.sql.schema import PartitionScheme
from repro.trading.commodity import (
    AnswerProperties,
    CoverageKey,
    Offer,
    coverage_key as _coverage_key,
)
from repro.trading.valuation import Valuation, WeightedValuation

__all__ = [
    "BuyerPlanGenerator",
    "BuyerPredicatesAnalyser",
    "CandidatePlan",
    "PlanGenResult",
]

RAW = "raw"
FINAL = "final"


@dataclass
class _Entry:
    plan: Plan
    coverage: dict[str, frozenset[int]]
    form: str  # RAW or FINAL
    complete: bool = False  # covers every required fragment of its aliases
    _key_memo: tuple[CoverageKey, str] | None = None

    def key(self) -> tuple[CoverageKey, str]:
        # Coverage dicts are never mutated after construction (merges
        # build fresh dicts), so the sorted key is computed once.
        if self._key_memo is None:
            self._key_memo = (_coverage_key(self.coverage), self.form)
        return self._key_memo


@dataclass(frozen=True)
class CandidatePlan:
    """A complete execution plan for the original query."""

    plan: Plan
    properties: AnswerProperties
    value: float

    def purchased(self) -> tuple[Purchased, ...]:
        return tuple(
            leaf for leaf in self.plan.leaves() if isinstance(leaf, Purchased)
        )


@dataclass
class PlanGenResult:
    """Outcome of one plan-generation pass."""

    best: CandidatePlan | None
    candidates: list[CandidatePlan] = field(default_factory=list)
    enumerated: int = 0

    @property
    def found(self) -> bool:
        return self.best is not None


class BuyerPlanGenerator:
    """Combines winning offers into candidate execution plans."""

    def __init__(
        self,
        builder: PlanBuilder,
        buyer_site: str,
        valuation: Valuation | None = None,
        mode: str = "dp",
        idp_m: int = 5,
        max_entries_per_subset: int = 32,
        max_join_fanin: int = 12,
        union_budget: int = 400,
        seconds_per_plan: float = 5e-5,
    ):
        if mode not in ("dp", "idp"):
            raise ValueError("mode must be 'dp' or 'idp'")
        self.builder = builder
        self.buyer_site = buyer_site
        self.valuation = valuation or WeightedValuation()
        self.mode = mode
        self.idp_m = idp_m
        self.max_entries_per_subset = max_entries_per_subset
        self.max_join_fanin = max_join_fanin
        self.union_budget = union_budget
        self.seconds_per_plan = seconds_per_plan
        #: Observability hook; the trader attaches its network tracer.
        self.tracer: Tracer = NULL_TRACER

    # ------------------------------------------------------------------
    def required_coverage(self, query: SPJQuery) -> dict[str, frozenset[int]]:
        """Fragments per alias that the answer must draw from.

        Fragments provably disjoint from the query's own selection are
        not required (no seller will—or need—cover them).
        """
        required: dict[str, frozenset[int]] = {}
        for ref in query.relations:
            scheme = self.builder.schemes[ref.name]
            selection = query.selection_on(ref.alias)
            required[ref.alias] = frozenset(
                fragment.fragment_id
                for fragment in scheme.fragments
                if restriction_overlaps(
                    selection, fragment.restriction_for(ref.alias)
                )
            )
        return required

    # ------------------------------------------------------------------
    def generate(self, query: SPJQuery, offers: Sequence[Offer]) -> PlanGenResult:
        tracer = self.tracer
        if not tracer.enabled:
            return self._generate(query, offers)
        with tracer.span(
            "buyer.plangen", "trading", site=self.buyer_site,
            mode=self.mode, offers=len(offers),
        ) as span:
            result = self._generate(query, offers)
            span.set(
                enumerated=result.enumerated,
                candidates=len(result.candidates),
                found=result.found,
            )
            return result

    def _generate(
        self, query: SPJQuery, offers: Sequence[Offer]
    ) -> PlanGenResult:
        aliases = frozenset(query.aliases)
        alias_to_relation = {r.alias: r.name for r in query.relations}
        required = self.required_coverage(query)
        if any(not fids for fids in required.values()):
            return PlanGenResult(best=None)  # unsatisfiable selection
        conjuncts = query.predicate.conjuncts()
        graph = JoinGraph(aliases, conjuncts)
        enumerated = 0

        # Seed entries from offers.  An entry is FINAL only when the
        # offered answer carries the *original* query's output shape —
        # `exact_projections` alone is relative to the offer's own
        # request, which for analyser-derived sub-queries is a SELECT *
        # part, not the original aggregate.
        needs_final_shape = (
            query.has_aggregates or query.group_by or query.distinct
        )
        subsets: dict[int, dict[tuple, _Entry]] = {}
        for offer in offers:
            if not offer.aliases or not offer.aliases <= aliases:
                continue
            coverage = {
                alias: frozenset(fids) & required[alias]
                for alias, fids in offer.coverage.items()
            }
            if any(not fids for fids in coverage.values()):
                continue
            form = RAW
            if (
                needs_final_shape
                and offer.exact_projections
                and offer.aliases == aliases
                and set(offer.query.projections) == set(query.projections)
                and set(offer.query.group_by) == set(query.group_by)
            ):
                form = FINAL
            plan = self.builder.purchased(
                offer.query,
                offer.seller,
                rows=offer.properties.rows,
                total_time=offer.properties.total_time,
                coverage=coverage,
                buyer_site=self.buyer_site,
                offer_id=offer.offer_id,
                money=offer.properties.money,
                freshness=offer.properties.freshness,
            )
            entry = _Entry(
                plan=plan,
                coverage=coverage,
                form=form,
                complete=_is_complete(coverage, required),
            )
            self._add_entry(subsets, graph.mask_of(offer.aliases), entry)
            enumerated += 1

        # Union closure at seed level.
        for subset in list(subsets):
            enumerated += self._union_closure(subsets, subset, query, required)

        # Join DP over alias subsets.  For connected queries, only
        # connected subsets are enumerated (cross-product avoidance); when
        # the query graph itself is disconnected, every subset is visited
        # and cross products are allowed where unavoidable.
        query_connected = graph.is_connected
        for size in range(2, graph.n + 1):
            for mask in graph.level_masks(
                size, connected_only=query_connected
            ):
                enumerated += self._level_block(
                    subsets, mask, graph, query, required,
                    alias_to_relation, query_connected,
                )
            if self.mode == "idp" and size == 2:
                self._idp_prune(subsets, size)

        # Assemble candidates at the full subset with full coverage.
        candidates: list[CandidatePlan] = []
        for entry in subsets.get(graph.full_mask, {}).values():
            if not entry.complete:
                continue
            plan = entry.plan
            if entry.form == RAW:
                plan = self._finish(query, plan, alias_to_relation)
            elif query.order_by:
                plan = self.builder.sort(
                    self.builder.collocate(plan, self.buyer_site),
                    query.order_by,
                )
            candidates.append(self._candidate(plan))
        candidates.sort(key=lambda c: c.value)
        best = candidates[0] if candidates else None
        return PlanGenResult(best=best, candidates=candidates, enumerated=enumerated)

    # ------------------------------------------------------------------
    def _level_block(
        self,
        subsets: dict[int, dict[tuple, _Entry]],
        mask: int,
        graph: JoinGraph,
        query: SPJQuery,
        required: Mapping[str, frozenset[int]],
        alias_to_relation: Mapping[str, str],
        query_connected: bool,
    ) -> int:
        """One mask's DP step: joins over splits, union closure, prune.

        Returns plans enumerated.
        """
        enumerated = 0
        allow_cross = not (query_connected or graph.connected(mask))
        for left, right in graph.splits(mask):
            left_entries = subsets.get(left)
            right_entries = subsets.get(right)
            if not left_entries or not right_entries:
                continue
            connecting = graph.connecting(left, right)
            if not connecting and not allow_cross:
                continue
            for le in self._join_participants(left_entries):
                for re_ in self._join_participants(right_entries):
                    joined = self.builder.join(
                        le.plan,
                        re_.plan,
                        connecting,
                        alias_to_relation,
                        site=self.buyer_site,
                    )
                    enumerated += 1
                    coverage = {**le.coverage, **re_.coverage}
                    entry = _Entry(
                        plan=joined,
                        coverage=coverage,
                        form=RAW,
                        complete=_is_complete(coverage, required),
                    )
                    self._add_entry(subsets, mask, entry)
        enumerated += self._union_closure(subsets, mask, query, required)
        self._prune(subsets, mask)
        return enumerated

    # ------------------------------------------------------------------
    def _candidate(self, plan: Plan) -> CandidatePlan:
        properties = _plan_properties(plan)
        return CandidatePlan(
            plan=plan, properties=properties, value=self.valuation(properties)
        )

    def _entry_score(self, entry: "_Entry") -> float:
        """Valuation-driven ranking of competing entries.

        Entries with identical coverage may come from different sellers
        (replicas) with different prices and freshness; ranking them
        under the buyer's own valuation keeps e.g. staleness-averse
        buyers from locking in cheap-but-stale purchases during plan
        generation."""
        return self.valuation(_plan_properties(entry.plan))

    def _finish(
        self,
        query: SPJQuery,
        plan: Plan,
        alias_to_relation: Mapping[str, str],
    ) -> Plan:
        plan = self.builder.collocate(plan, self.buyer_site)
        if query.has_aggregates or query.group_by:
            aggregates = tuple(
                p for p in query.projections if isinstance(p, Aggregate)
            )
            plan = self.builder.aggregate(
                plan,
                query.group_by,
                aggregates,
                alias_to_relation,
                site=self.buyer_site,
            )
        if query.order_by:
            plan = self.builder.sort(plan, query.order_by)
        return plan

    # ------------------------------------------------------------------
    # Bucket helpers.  *subsets* is keyed by alias-subset bitmask in the
    # production path (see JoinGraph); the helpers never inspect the key,
    # so the frozenset-keyed reference path reuses them unchanged.
    def _add_entry(
        self,
        subsets: dict[int, dict[tuple, _Entry]],
        subset: int,
        entry: _Entry,
    ) -> bool:
        bucket = subsets.setdefault(subset, {})
        key = entry.key()
        current = bucket.get(key)
        if current is None or self._entry_score(entry) < self._entry_score(
            current
        ):
            bucket[key] = entry
            return True
        return False

    def _join_participants(self, bucket: dict[tuple, _Entry]) -> list[_Entry]:
        """Raw entries worth joining: complete ones first, then cheapest."""
        raws = [e for e in bucket.values() if e.form == RAW]
        raws.sort(key=lambda e: (not e.complete, self._entry_score(e)))
        return raws[: self.max_join_fanin]

    def _union_closure(
        self,
        subsets: dict[int, dict[tuple, _Entry]],
        subset: int,
        query: SPJQuery,
        required: Mapping[str, frozenset[int]],
    ) -> int:
        """Bounded best-first merging of fragment-rectangle entries.

        Cheapest entries are expanded first, orientation is canonical
        (the side with the smaller minimum fragment on the differing
        alias is always the left operand) so each merged rectangle is
        built once, and the exploration budget caps worst-case work.  A
        greedy completion pass afterwards guarantees that a *complete*
        entry exists whenever the bucket's pieces can cover the required
        fragments at all.
        """
        bucket = subsets.get(subset)
        if not bucket or len(bucket) < 2:
            return 0
        enumerated = 0
        counter = count()
        heap: list[tuple[float, int, _Entry]] = [
            (self._entry_score(e), next(counter), e) for e in bucket.values()
        ]
        heapq.heapify(heap)
        pops = 0
        while heap and pops < self.union_budget:
            _cost, _seq, a = heapq.heappop(heap)
            if bucket.get(a.key()) is not a:
                continue  # evicted or superseded
            pops += 1
            for b in list(bucket.values()):
                if b is a or b.form != a.form:
                    continue
                merged = _union_coverage(a.coverage, b.coverage)
                if merged is None:
                    continue
                differing, coverage = merged
                if min(a.coverage[differing]) > min(b.coverage[differing]):
                    continue  # canonical orientation only
                entry = self._union_entry(a, b, coverage, query, required)
                enumerated += 1
                if self._add_entry(subsets, subset, entry):
                    heapq.heappush(
                        heap,
                        (self._entry_score(entry), next(counter), entry),
                    )
            if len(bucket) > self.max_entries_per_subset * 4:
                self._prune(subsets, subset, cap=self.max_entries_per_subset * 2)
                bucket = subsets[subset]
        enumerated += self._greedy_complete(subsets, subset, query, required)
        return enumerated

    def _union_entry(
        self,
        a: _Entry,
        b: _Entry,
        coverage: dict[str, frozenset[int]],
        query: SPJQuery,
        required: Mapping[str, frozenset[int]],
    ) -> _Entry:
        distinct = a.form == FINAL and query.distinct
        plan = self.builder.union(
            [a.plan, b.plan], self.buyer_site, distinct=distinct
        )
        return _Entry(
            plan=plan,
            coverage=coverage,
            form=a.form,
            complete=_is_complete(coverage, required),
        )

    def _greedy_complete(
        self,
        subsets: dict[int, dict[tuple, _Entry]],
        subset: int,
        query: SPJQuery,
        required: Mapping[str, frozenset[int]],
    ) -> int:
        """Ensure a complete entry exists per form when pieces allow it.

        Starting from each of the cheapest seeds, repeatedly merge the
        cheapest unionable entry until complete or stuck.
        """
        bucket = subsets.get(subset)
        if not bucket:
            return 0
        enumerated = 0
        for form in (RAW, FINAL):
            if any(e.complete for e in bucket.values() if e.form == form):
                continue
            pieces = sorted(
                (e for e in bucket.values() if e.form == form),
                key=self._entry_score,
            )
            if not pieces:
                continue
            for seed in pieces[:4]:
                current = seed
                stuck = False
                while not current.complete and not stuck:
                    stuck = True
                    for piece in pieces:
                        merged = _union_coverage(current.coverage, piece.coverage)
                        if merged is None:
                            continue
                        _differing, coverage = merged
                        current = self._union_entry(
                            current, piece, coverage, query, required
                        )
                        enumerated += 1
                        stuck = False
                        break
                if current.complete:
                    self._add_entry(subsets, subset, current)
                    break
        return enumerated

    def _prune(
        self,
        subsets: dict[int, dict[tuple, _Entry]],
        subset: int,
        cap: int | None = None,
    ) -> None:
        """Cap a bucket, protecting *complete* entries.

        Complete entries (full required coverage for their aliases) are
        the spine of every final plan: joins of complete entries stay
        complete, so keeping them guarantees the generator finds a plan
        whenever the offers cover the query at all.  Incomplete entries
        are building material; only the cheapest survive the cap.
        """
        cap = cap if cap is not None else self.max_entries_per_subset
        bucket = subsets.get(subset)
        if not bucket or len(bucket) <= cap:
            return
        complete = {k: e for k, e in bucket.items() if e.complete}
        incomplete = sorted(
            (item for item in bucket.items() if not item[1].complete),
            key=lambda kv: self._entry_score(kv[1]),
        )
        room = max(0, cap - len(complete))
        kept = dict(complete)
        kept.update(dict(incomplete[:room]))
        subsets[subset] = kept

    def _idp_prune(
        self,
        subsets: dict[int, dict[tuple, _Entry]],
        size: int,
    ) -> None:
        """IDP-M(2, m): keep only the best *m* two-way entries overall.

        Complete entries (full required coverage for their aliases) are
        exempt — Kossmann & Stocker's pruning assumes unpartitioned
        single-site tables where every sub-plan is trivially "complete";
        with horizontal fragments, discarding the coverage spine would
        make whole queries unanswerable rather than merely suboptimal.
        """
        level = [
            (subset, key, entry)
            for subset, bucket in subsets.items()
            if subset.bit_count() == size
            for key, entry in bucket.items()
            if not entry.complete
        ]
        if len(level) <= self.idp_m:
            return
        level.sort(key=lambda item: self._entry_score(item[2]))
        for subset, key, _entry in level[self.idp_m :]:
            del subsets[subset][key]


def _plan_properties(plan: Plan) -> AnswerProperties:
    """Aggregate a plan's answer properties: response time, purchased
    payments summed, freshness as the weakest purchased input."""
    money = 0.0
    freshness = 1.0
    for leaf in plan.leaves():
        if isinstance(leaf, Purchased):
            money += leaf.money
            freshness = min(freshness, leaf.freshness)
    return AnswerProperties(
        total_time=plan.response_time(),
        rows=plan.rows,
        money=money,
        freshness=freshness,
    )


def _is_complete(
    coverage: Mapping[str, frozenset[int]],
    required: Mapping[str, frozenset[int]],
) -> bool:
    """Does *coverage* include every required fragment of its aliases?"""
    return all(coverage[alias] >= required[alias] for alias in coverage)


def _union_coverage(
    a: Mapping[str, frozenset[int]],
    b: Mapping[str, frozenset[int]],
) -> tuple[str, dict[str, frozenset[int]]] | None:
    """``(differing_alias, merged_rectangle)`` if *a* and *b* differ on
    exactly one alias with disjoint fragment sets there; ``None``
    otherwise.  Join distributes over union only under this condition."""
    if a.keys() != b.keys():
        return None
    differing: str | None = None
    for alias in a:
        if a[alias] != b[alias]:
            if differing is not None:
                return None
            differing = alias
    if differing is None:
        return None  # identical rectangles: union would double-count
    if a[differing] & b[differing]:
        return None  # overlapping fragments: union would duplicate rows
    merged = dict(a)
    merged[differing] = a[differing] | b[differing]
    return differing, merged


class BuyerPredicatesAnalyser:
    """Derives the next round's query set Q (step B5/B6 of Figure 2)."""

    def __init__(self, schemes: Mapping[str, PartitionScheme]):
        self.schemes = schemes

    def derive(
        self,
        query: SPJQuery,
        offers: Sequence[Offer],
        required: Mapping[str, frozenset[int]],
    ) -> list[SPJQuery]:
        """New tradable queries suggested by the current market state."""
        derived: dict[str, SPJQuery] = {}

        def add(candidate: SPJQuery | None) -> None:
            if candidate is None or candidate.is_unsatisfiable:
                return
            derived.setdefault(candidate.key(), candidate)

        # 1. Complements: for each partially covered alias, ask for the
        #    missing fragments so other sellers can bid on them.
        for offer in offers:
            for alias, fids in offer.coverage.items():
                if alias not in required:
                    continue
                missing = required[alias] - fids
                if not missing or missing == required[alias]:
                    continue
                add(self._fragment_query(query, alias, missing))

        # 2. Per-relation parts: single-relation sub-queries of the
        #    original (lets fragment holders bid even when they returned
        #    nothing useful for the joins).
        if len(query.relations) > 1:
            for ref in query.relations:
                add(query.subquery_on((ref.alias,)))

        # 3. De-overlap redundant offers (the paper's union-redundancy
        #    example): two offers on the same aliases whose rectangles
        #    overlap on one alias spawn the difference queries.
        by_aliases: dict[frozenset[str], list[Offer]] = {}
        for offer in offers:
            by_aliases.setdefault(offer.aliases, []).append(offer)
        for group in by_aliases.values():
            for i, first in enumerate(group):
                for second in group[i + 1 :]:
                    for alias in first.coverage:
                        overlap = (
                            first.coverage[alias] & second.coverage[alias]
                        )
                        a_only = first.coverage[alias] - overlap
                        b_only = second.coverage[alias] - overlap
                        if not overlap or not (a_only or b_only):
                            continue
                        if a_only:
                            add(self._fragment_query(query, alias, a_only))
                        if b_only:
                            add(self._fragment_query(query, alias, b_only))

        # 4. Sort variants: trade the unsorted answer separately.
        if query.order_by:
            add(query.without_order())
        return list(derived.values())

    def _fragment_query(
        self, query: SPJQuery, alias: str, fragments: frozenset[int]
    ) -> SPJQuery | None:
        sub = query.subquery_on((alias,))
        if sub is None:
            return None
        ref = query.relation_for(alias)
        scheme = self.schemes[ref.name]
        restriction = scheme.restriction_for(alias, fragments)
        if restriction is TRUE:
            return sub
        return sub.restrict(restriction)
