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

**Data structures.**  Alias subsets are :class:`JoinGraph` bitmasks, and
a rectangle is one ``int`` too (:class:`_CoverageLayout`): alias ``i``
owns a fragment bit field at the alias's graph bit position.  An
entry's bucket key is ``(cov, form)``; a join's coverage is the OR of
its sides'; an entry is complete when ``cov`` equals the required
coverage on its aliases' fields.  Two entries union when ``a ^ b`` lies
in one alias field where both are non-empty and disjoint; canonical
orientation puts the side whose lowest set bit in that field is lower
on the left.  Union closure finds partners through a
:class:`_PartnerIndex` keyed by ``(form, cov with one field cleared)``
rather than by scanning bucket pairs.  Partners are visited in the
bucket's insertion order as it stood at each pop, which the strict
``<`` replacement and the heap sequence numbers depend on.  Entries are immutable, so each is scored
once; plan nodes memoize their leaves and purchased money/freshness.
The frozenset-based original lives on in
:func:`repro.optimizer.reference.reference_buyer_generate`, and tests
hold the two byte-identical.

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
from repro.trading.commodity import AnswerProperties, Offer
from repro.trading.valuation import Valuation, WeightedValuation

__all__ = [
    "BuyerPlanGenerator",
    "BuyerPredicatesAnalyser",
    "CandidatePlan",
    "PlanGenResult",
]

RAW = "raw"
FINAL = "final"


class _CoverageLayout:
    """One query's fragment rectangles packed into ints.

    Alias ``i`` (its :class:`JoinGraph` bit position) owns the bit field
    ``[i * width, (i + 1) * width)``, and fragment ``f`` of that alias
    is bit ``i * width + f``.  ``required`` is the packed required
    coverage of every alias.
    """

    __slots__ = ("fields", "required", "_offsets", "_fields_of", "_targets")

    def __init__(
        self,
        aliases: Sequence[str],
        required: Mapping[str, Iterable[int]],
    ):
        width = max(max(fids) for fids in required.values()) + 1
        self._offsets = {alias: i * width for i, alias in enumerate(aliases)}
        ones = (1 << width) - 1
        self.fields = tuple(ones << (i * width) for i in range(len(aliases)))
        self.required = self.pack(required)
        self._fields_of: dict[int, tuple[int, ...]] = {}
        self._targets: dict[int, int] = {}

    def pack(self, coverage: Mapping[str, Iterable[int]]) -> int:
        cov = 0
        offsets = self._offsets
        for alias, fids in coverage.items():
            offset = offsets[alias]
            for fid in fids:
                cov |= 1 << (offset + fid)
        return cov

    def fields_of(self, mask: int) -> tuple[int, ...]:
        """The bit fields of the aliases in alias-subset *mask*."""
        cached = self._fields_of.get(mask)
        if cached is None:
            cached = tuple(
                span for i, span in enumerate(self.fields) if mask >> i & 1
            )
            self._fields_of[mask] = cached
        return cached

    def target(self, mask: int) -> int:
        """The coverage a *complete* entry over *mask* has."""
        cached = self._targets.get(mask)
        if cached is None:
            span = 0
            for alias_field in self.fields_of(mask):
                span |= alias_field
            cached = self._targets[mask] = self.required & span
        return cached


class _Entry:
    """A plan over one alias subset's fragment rectangle.

    Immutable once built, so its valuation score is computed once.
    """

    __slots__ = ("plan", "cov", "form", "complete", "score", "key")

    def __init__(
        self, plan: Plan, cov: int, form: str, complete: bool, score: float
    ):
        self.plan = plan
        self.cov = cov  # packed coverage (see _CoverageLayout)
        self.form = form  # RAW or FINAL
        self.complete = complete  # covers every required fragment
        self.score = score
        self.key = (cov, form)


class _PartnerIndex:
    """Union partners of a bucket's entries, without a pair scan.

    Groups entry keys by ``(form, coverage with one alias field
    cleared)``: two entries are unionable exactly when they share a
    group and are disjoint on its cleared field.  A key joins only the
    groups of fields it does not yet cover completely (coverage there
    short of *target*'s): a complete field already holds every required
    fragment, so no rectangle is disjoint from it.  Keys are ranked in
    the order they were added, which callers make the bucket's insertion
    order (union closure) or score order (greedy completion).
    """

    __slots__ = ("entries", "_fields", "_rank", "_groups")

    def __init__(
        self,
        entries: dict[tuple, _Entry],
        fields: tuple[int, ...],
        target: int,
    ):
        self.entries = entries
        self._fields = tuple((span, target & span) for span in fields)
        self._rank: dict[tuple, int] = {}
        self._groups: dict[str, dict[int, list[tuple]]] = {RAW: {}, FINAL: {}}
        for key in entries:
            self.add(key)

    def add(self, key: tuple) -> None:
        """Index a key newly inserted into :attr:`entries`."""
        rank = self._rank
        if key in rank:
            return  # a replacement keeps its key's place
        rank[key] = len(rank)
        cov, form = key
        groups = self._groups[form]
        for span, complete in self._fields:
            if cov & span == complete:
                continue
            group = groups.get(cov & ~span)
            if group is None:
                groups[cov & ~span] = [key]
            else:
                group.append(key)

    def partners(self, cov: int, form: str, oriented: bool) -> list[_Entry]:
        """Entries of *form* unionable with rectangle *cov*, in rank order.

        A partner agrees with *cov* outside one alias field and, inside
        it, is non-empty and disjoint from *cov*: join distributes over
        union only then (identical rectangles would double-count rows,
        overlapping ones duplicate them).  The merged rectangle is
        ``cov | partner.cov``.  With *oriented*, only partners whose
        lowest fragment on that field lies above *cov*'s are returned:
        canonical orientation builds each merged rectangle once.
        """
        found = []
        rank = self._rank
        groups = self._groups[form]
        for span, complete in self._fields:
            own = cov & span
            if own == complete:
                continue
            low = own & -own
            for key in groups.get(cov & ~span, ()):
                other = key[0] & span
                if not other or other & own:
                    continue
                if oriented and other & -other < low:
                    continue
                found.append((rank[key], key))
        found.sort()
        entries = self.entries
        return [entries[key] for _rank, key in found]


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
        layout = _CoverageLayout(graph.aliases, required)
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
            mask = graph.mask_of(offer.aliases)
            cov = layout.pack(coverage)
            self._add_entry(
                subsets.setdefault(mask, {}),
                self._entry(plan, cov, form, cov == layout.target(mask)),
            )
            enumerated += 1

        # Union closure at seed level.
        for subset in list(subsets):
            enumerated += self._union_closure(subsets, subset, layout, query)

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
                    subsets, mask, graph, layout, query,
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
        layout: _CoverageLayout,
        query: SPJQuery,
        alias_to_relation: Mapping[str, str],
        query_connected: bool,
    ) -> int:
        """One mask's DP step: joins over splits, union closure, prune.

        Returns plans enumerated.
        """
        enumerated = 0
        allow_cross = not (query_connected or graph.connected(mask))
        builder = self.builder
        site = self.buyer_site
        bucket = subsets.setdefault(mask, {})
        for left, right in graph.splits(mask):
            left_entries = subsets.get(left)
            right_entries = subsets.get(right)
            if not left_entries or not right_entries:
                continue
            connecting = graph.connecting(left, right)
            if not connecting and not allow_cross:
                continue
            estimate = builder.join_estimate(connecting, alias_to_relation)
            rights = self._join_participants(right_entries)
            for le in self._join_participants(left_entries):
                for re_ in rights:
                    joined = builder.join_on(le.plan, re_.plan, estimate, site)
                    enumerated += 1
                    # Joined rectangles span disjoint aliases, so the
                    # join is complete exactly when both sides are.
                    self._add_entry(
                        bucket,
                        self._entry(
                            joined,
                            le.cov | re_.cov,
                            RAW,
                            le.complete and re_.complete,
                        ),
                    )
        enumerated += self._union_closure(subsets, mask, layout, query)
        self._prune(subsets, mask)
        return enumerated

    # ------------------------------------------------------------------
    def _candidate(self, plan: Plan) -> CandidatePlan:
        properties = _plan_properties(plan)
        return CandidatePlan(
            plan=plan, properties=properties, value=self.valuation(properties)
        )

    def _entry(
        self, plan: Plan, cov: int, form: str, complete: bool
    ) -> _Entry:
        """Build an entry scored under the buyer's valuation.

        Entries with identical coverage may come from different sellers
        (replicas) with different prices and freshness; ranking them
        under the buyer's own valuation keeps e.g. staleness-averse
        buyers from locking in cheap-but-stale purchases during plan
        generation."""
        score = self.valuation(_plan_properties(plan))
        return _Entry(plan, cov, form, complete, score)

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
    # Bucket helpers.  *subsets* maps an alias-subset bitmask (see
    # JoinGraph) to its bucket: entries keyed by ``(cov, form)`` in
    # insertion order, which every tie-break below depends on.
    @staticmethod
    def _add_entry(bucket: dict[tuple, _Entry], entry: _Entry) -> bool:
        key = entry.key
        current = bucket.get(key)
        if current is None or entry.score < current.score:
            bucket[key] = entry
            return True
        return False

    def _join_participants(self, bucket: dict[tuple, _Entry]) -> list[_Entry]:
        """Raw entries worth joining: complete ones first, then cheapest."""
        raws = [e for e in bucket.values() if e.form == RAW]
        raws.sort(key=lambda e: (not e.complete, e.score))
        return raws[: self.max_join_fanin]

    def _union_closure(
        self,
        subsets: dict[int, dict[tuple, _Entry]],
        subset: int,
        layout: _CoverageLayout,
        query: SPJQuery,
    ) -> int:
        """Bounded best-first merging of fragment-rectangle entries.

        Cheapest entries are expanded first, orientation is canonical
        (the side with the smaller minimum fragment on the differing
        alias is always the left operand) so each merged rectangle is
        built once, and the exploration budget caps worst-case work.
        Partners come from a :class:`_PartnerIndex`, snapshotted in
        bucket order at each pop.  A greedy completion pass afterwards
        guarantees that a *complete* entry exists whenever the bucket's
        pieces can cover the required fragments at all.
        """
        bucket = subsets.get(subset)
        if not bucket or len(bucket) < 2:
            return 0
        fields = layout.fields_of(subset)
        target = layout.target(subset)
        enumerated = 0
        counter = count()
        heap: list[tuple[float, int, _Entry]] = [
            (e.score, next(counter), e) for e in bucket.values()
        ]
        heapq.heapify(heap)
        index = _PartnerIndex(bucket, fields, target)
        pops = 0
        while heap and pops < self.union_budget:
            _cost, _seq, a = heapq.heappop(heap)
            if bucket.get(a.key) is not a:
                continue  # evicted or superseded
            pops += 1
            for b in index.partners(a.cov, a.form, oriented=True):
                entry = self._union_entry(a, b, query, target)
                enumerated += 1
                if self._add_entry(bucket, entry):
                    index.add(entry.key)
                    heapq.heappush(heap, (entry.score, next(counter), entry))
            if len(bucket) > self.max_entries_per_subset * 4:
                self._prune(subsets, subset, cap=self.max_entries_per_subset * 2)
                bucket = subsets[subset]
                index = _PartnerIndex(bucket, fields, target)
        enumerated += self._greedy_complete(bucket, fields, target, query)
        return enumerated

    def _union_entry(
        self, a: _Entry, b: _Entry, query: SPJQuery, target: int
    ) -> _Entry:
        distinct = a.form == FINAL and query.distinct
        plan = self.builder.union(
            [a.plan, b.plan], self.buyer_site, distinct=distinct
        )
        cov = a.cov | b.cov
        return self._entry(plan, cov, a.form, cov == target)

    def _greedy_complete(
        self,
        bucket: dict[tuple, _Entry],
        fields: tuple[int, ...],
        target: int,
        query: SPJQuery,
    ) -> int:
        """Ensure a complete entry exists per form when pieces allow it.

        Starting from each of the cheapest seeds, repeatedly merge the
        cheapest unionable entry until complete or stuck.
        """
        enumerated = 0
        for form in (RAW, FINAL):
            if any(e.complete for e in bucket.values() if e.form == form):
                continue
            pieces = sorted(
                (e for e in bucket.values() if e.form == form),
                key=lambda e: e.score,
            )
            if not pieces:
                continue
            index = _PartnerIndex({e.key: e for e in pieces}, fields, target)
            for seed in pieces[:4]:
                current = seed
                while not current.complete:
                    partners = index.partners(current.cov, form, oriented=False)
                    if not partners:
                        break
                    current = self._union_entry(
                        current, partners[0], query, target
                    )
                    enumerated += 1
                if current.complete:
                    self._add_entry(bucket, current)
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
            key=lambda kv: kv[1].score,
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
        level.sort(key=lambda item: item[2].score)
        for subset, key, _entry in level[self.idp_m :]:
            del subsets[subset][key]


def _plan_properties(plan: Plan) -> AnswerProperties:
    """Aggregate a plan's answer properties: response time, purchased
    payments summed, freshness as the weakest purchased input."""
    money, freshness = plan.purchase_totals()
    return AnswerProperties(
        total_time=plan.response_time(),
        rows=plan.rows,
        money=money,
        freshness=freshness,
    )


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
        # Many offers share a complement or difference: build each
        # fragment sub-query once per call (None results included).
        fragment_queries: dict[
            tuple[str, frozenset[int]], SPJQuery | None
        ] = {}

        def add(candidate: SPJQuery | None) -> None:
            if candidate is None or candidate.is_unsatisfiable:
                return
            derived.setdefault(candidate.key(), candidate)

        def add_fragments(alias: str, fragments: frozenset[int]) -> None:
            key = (alias, fragments)
            if key not in fragment_queries:
                fragment_queries[key] = self._fragment_query(
                    query, alias, fragments
                )
            add(fragment_queries[key])

        # 1. Complements: for each partially covered alias, ask for the
        #    missing fragments so other sellers can bid on them.
        for offer in offers:
            for alias, fids in offer.coverage.items():
                if alias not in required:
                    continue
                missing = required[alias] - fids
                if not missing or missing == required[alias]:
                    continue
                add_fragments(alias, missing)

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
                            add_fragments(alias, a_only)
                        if b_only:
                            add_fragments(alias, b_only)

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
