"""Reference (pre-bitmask) enumeration implementations.

These classes preserve, verbatim, the original frozenset-based DP/IDP
enumeration loops from before the :mod:`repro.optimizer.joingraph`
rewire.  They are the executable *specification* of the enumeration
order: property tests assert the bitmask implementations produce
byte-identical plans, and ``benchmarks/bench_wallclock.py`` measures the
speedup against them.  They are intentionally unoptimized — do not use
them outside tests and benchmarks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations, count
from typing import Mapping

from repro.optimizer.dp import (
    DPResult,
    DynamicProgrammingOptimizer,
    _plan_cost,
    connecting_conjuncts,
    subset_connected,
)
from repro.optimizer.greedy import greedy_join
from repro.optimizer.plans import Plan, PlanBuilder, Purchased
from repro.sql.expr import TRUE, conjoin, implies
from repro.sql.query import SPJQuery
from repro.trading.commodity import AnswerProperties, CoverageKey, coverage_key

__all__ = [
    "ReferenceDynamicProgrammingOptimizer",
    "ReferenceIDPOptimizer",
    "reference_buyer_generate",
]


class ReferenceDynamicProgrammingOptimizer(DynamicProgrammingOptimizer):
    """The original frozenset-per-subset System-R DP."""

    name = "dp-reference"

    # -- hook kept with the original (frozenset-keyed) signature ----------
    def reference_prune_level(
        self, level: int, best: dict[frozenset[str], Plan]
    ) -> None:
        """Called after each DP level; plain DP keeps everything."""

    def optimize(
        self,
        query: SPJQuery,
        site: str,
        coverage=None,
        finish: bool = True,
    ) -> DPResult:
        aliases = sorted(query.aliases)
        if len(aliases) > self.max_relations:
            raise ValueError(
                f"{len(aliases)}-relation query exceeds DP limit "
                f"{self.max_relations}; use IDP or greedy"
            )
        alias_to_relation = {r.alias: r.name for r in query.relations}
        conjuncts = query.predicate.conjuncts()
        best: dict[frozenset[str], Plan] = {}
        enumerated = 0

        # Level 1: fragment scans.
        for alias in aliases:
            ref = query.relation_for(alias)
            scheme = self.builder.schemes[ref.name]
            fragment_ids = (
                coverage.get(alias, scheme.fragment_ids)
                if coverage is not None
                else scheme.fragment_ids
            )
            restriction = scheme.restriction_for(alias, fragment_ids)
            selection_parts = [
                c
                for c in query.selection_on(alias).conjuncts()
                if restriction is TRUE or not implies(restriction, c)
            ]
            plan = self.builder.scan(
                ref,
                fragment_ids,
                conjoin(selection_parts),
                site,
                alias_to_relation,
            )
            best[frozenset((alias,))] = plan
            enumerated += 1

        # Levels 2..n: best join per subset.
        n = len(aliases)
        query_connected = subset_connected(frozenset(aliases), conjuncts)
        for size in range(2, n + 1):
            for combo in combinations(aliases, size):
                subset = frozenset(combo)
                if query_connected and not subset_connected(subset, conjuncts):
                    continue
                members = sorted(subset)
                anchor = members[0]
                splits: list[tuple[frozenset[str], frozenset[str]]] = []
                for split_size in range(1, size // 2 + 1):
                    for left_combo in combinations(members, split_size):
                        left = frozenset(left_combo)
                        right = subset - left
                        if size == 2 * split_size and anchor not in left:
                            continue
                        if left in best and right in best:
                            splits.append((left, right))
                candidates: list[Plan] = []
                for connected_pass in (True, False):
                    for left, right in splits:
                        connecting = connecting_conjuncts(
                            conjuncts, left, right
                        )
                        if bool(connecting) != connected_pass:
                            continue
                        joined = self.builder.join(
                            best[left],
                            best[right],
                            connecting,
                            alias_to_relation,
                            site=site,
                        )
                        enumerated += 1
                        candidates.append(joined)
                    if candidates:
                        break
                if candidates:
                    best[subset] = min(candidates, key=_plan_cost)
            self.reference_prune_level(size, best)

        full = best.get(frozenset(aliases))
        plan = self._finish(query, full, alias_to_relation) if finish else full
        return DPResult(plan=plan, best=best, enumerated=enumerated)


class ReferenceIDPOptimizer(ReferenceDynamicProgrammingOptimizer):
    """The original frozenset-keyed IDP-M(k, m)."""

    def __init__(
        self,
        builder: PlanBuilder,
        k: int = 2,
        m: int = 5,
        max_relations: int = 24,
    ):
        super().__init__(builder, max_relations=max_relations)
        if k < 2:
            raise ValueError("k must be at least 2")
        if m < 1:
            raise ValueError("m must be at least 1")
        self.k = k
        self.m = m
        self.name = f"idp-m({k},{m})-reference"

    def reference_prune_level(
        self, level: int, best: dict[frozenset[str], Plan]
    ) -> None:
        if level < 2 or level > self.k:
            return
        this_level = [s for s in best if len(s) == level]
        if len(this_level) <= self.m:
            return
        ranked = sorted(this_level, key=lambda s: _plan_cost(best[s]))
        for subset in ranked[self.m :]:
            del best[subset]

    def optimize(self, query, site, coverage=None, finish: bool = True):
        result = super().optimize(query, site, coverage, finish=False)
        aliases = frozenset(query.aliases)
        alias_to_relation = {r.alias: r.name for r in query.relations}
        if aliases not in result.best and len(aliases) > 1:
            parts = _maximal_disjoint_cover(result.best, aliases)
            plan, extra = greedy_join(
                parts,
                query.predicate.conjuncts(),
                alias_to_relation,
                self.builder,
                site,
            )
            result.enumerated += extra
            if plan is not None:
                result.best[aliases] = plan
        full = result.best.get(aliases)
        result.plan = (
            self._finish(query, full, alias_to_relation) if finish else full
        )
        return result


def _maximal_disjoint_cover(
    best: dict[frozenset[str], Plan], aliases: frozenset[str]
) -> dict[frozenset[str], Plan]:
    chosen: dict[frozenset[str], Plan] = {}
    covered: frozenset[str] = frozenset()
    for subset in sorted(
        best, key=lambda s: (-len(s), _plan_cost(best[s]))
    ):
        if subset <= aliases and not subset & covered:
            chosen[subset] = best[subset]
            covered |= subset
        if covered == aliases:
            break
    return chosen


# ----------------------------------------------------------------------
# The buyer plan generator before packed coverage: frozenset rectangles,
# pairwise union scans, and scores recomputed from a fresh leaf walk on
# every comparison.  Self-contained on purpose, so the byte-identity test
# also covers the helpers the production generator rewrote.
# ----------------------------------------------------------------------
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
        if self._key_memo is None:
            self._key_memo = (coverage_key(self.coverage), self.form)
        return self._key_memo


def _leaves(plan: Plan) -> list[Plan]:
    """Leaves left to right by a fresh walk (not :meth:`Plan.leaves`)."""
    if not plan.children:
        return [plan]
    out: list[Plan] = []
    for child in plan.children:
        out.extend(_leaves(child))
    return out


def _plan_properties(plan: Plan) -> AnswerProperties:
    money = 0.0
    freshness = 1.0
    for leaf in _leaves(plan):
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
    return all(coverage[alias] >= required[alias] for alias in coverage)


def _union_coverage(
    a: Mapping[str, frozenset[int]],
    b: Mapping[str, frozenset[int]],
) -> tuple[str, dict[str, frozenset[int]]] | None:
    """``(differing_alias, merged_rectangle)`` if *a* and *b* differ on
    exactly one alias with disjoint fragment sets there; ``None``
    otherwise."""
    if a.keys() != b.keys():
        return None
    differing: str | None = None
    for alias in a:
        if a[alias] != b[alias]:
            if differing is not None:
                return None
            differing = alias
    if differing is None:
        return None
    if a[differing] & b[differing]:
        return None
    merged = dict(a)
    merged[differing] = a[differing] | b[differing]
    return differing, merged


def reference_buyer_generate(generator, query, offers):
    """The frozenset-keyed buyer plan-generation DP.

    Reads only *generator*'s configuration (builder, site, valuation,
    mode and caps) plus its ``required_coverage`` and ``_finish``, and
    returns a :class:`repro.trading.buyer.PlanGenResult` for equivalence
    testing.
    """
    return _ReferenceBuyer(generator).generate(query, offers)


class _ReferenceBuyer:
    def __init__(self, generator):
        self.generator = generator
        self.builder = generator.builder
        self.buyer_site = generator.buyer_site
        self.valuation = generator.valuation
        self.mode = generator.mode
        self.idp_m = generator.idp_m
        self.max_entries_per_subset = generator.max_entries_per_subset
        self.max_join_fanin = generator.max_join_fanin
        self.union_budget = generator.union_budget

    def generate(self, query, offers):
        from repro.trading.buyer import CandidatePlan, PlanGenResult

        generator = self.generator
        aliases = frozenset(query.aliases)
        alias_to_relation = {r.alias: r.name for r in query.relations}
        required = generator.required_coverage(query)
        if any(not fids for fids in required.values()):
            return PlanGenResult(best=None)
        conjuncts = query.predicate.conjuncts()
        enumerated = 0

        needs_final_shape = (
            query.has_aggregates or query.group_by or query.distinct
        )
        subsets: dict[frozenset[str], dict[tuple, _Entry]] = {}
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
            self._add_entry(subsets, offer.aliases, entry)
            enumerated += 1

        for subset in list(subsets):
            enumerated += self._union_closure(subsets, subset, query, required)

        members = sorted(aliases)
        query_connected = subset_connected(aliases, conjuncts)
        for size in range(2, len(members) + 1):
            for combo in combinations(members, size):
                subset = frozenset(combo)
                connected = subset_connected(subset, conjuncts)
                if query_connected and not connected:
                    continue
                anchor = min(subset)
                allow_cross = not connected
                for split_size in range(1, size // 2 + 1):
                    for left_combo in combinations(sorted(subset), split_size):
                        left = frozenset(left_combo)
                        right = subset - left
                        if size == 2 * split_size and anchor not in left:
                            continue
                        left_entries = subsets.get(left)
                        right_entries = subsets.get(right)
                        if not left_entries or not right_entries:
                            continue
                        connecting = connecting_conjuncts(
                            conjuncts, left, right
                        )
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
                                self._add_entry(subsets, subset, entry)
                enumerated += self._union_closure(
                    subsets, subset, query, required
                )
                self._prune(subsets, subset)
            if self.mode == "idp" and size == 2:
                self._idp_prune(subsets, size)

        candidates = []
        for entry in subsets.get(aliases, {}).values():
            if not entry.complete:
                continue
            plan = entry.plan
            if entry.form == RAW:
                plan = generator._finish(query, plan, alias_to_relation)
            elif query.order_by:
                plan = self.builder.sort(
                    self.builder.collocate(plan, self.buyer_site),
                    query.order_by,
                )
            properties = _plan_properties(plan)
            candidates.append(
                CandidatePlan(
                    plan=plan,
                    properties=properties,
                    value=self.valuation(properties),
                )
            )
        candidates.sort(key=lambda c: c.value)
        best = candidates[0] if candidates else None
        return PlanGenResult(
            best=best, candidates=candidates, enumerated=enumerated
        )

    def _entry_score(self, entry: _Entry) -> float:
        return self.valuation(_plan_properties(entry.plan))

    def _add_entry(self, subsets, subset, entry: _Entry) -> bool:
        bucket = subsets.setdefault(subset, {})
        key = entry.key()
        current = bucket.get(key)
        if current is None or self._entry_score(entry) < self._entry_score(
            current
        ):
            bucket[key] = entry
            return True
        return False

    def _join_participants(self, bucket) -> list[_Entry]:
        raws = [e for e in bucket.values() if e.form == RAW]
        raws.sort(key=lambda e: (not e.complete, self._entry_score(e)))
        return raws[: self.max_join_fanin]

    def _union_closure(self, subsets, subset, query, required) -> int:
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
                self._prune(
                    subsets, subset, cap=self.max_entries_per_subset * 2
                )
                bucket = subsets[subset]
        enumerated += self._greedy_complete(subsets, subset, query, required)
        return enumerated

    def _union_entry(self, a, b, coverage, query, required) -> _Entry:
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

    def _greedy_complete(self, subsets, subset, query, required) -> int:
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
                        merged = _union_coverage(
                            current.coverage, piece.coverage
                        )
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

    def _prune(self, subsets, subset, cap: int | None = None) -> None:
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

    def _idp_prune(self, subsets, size: int) -> None:
        level = [
            (subset, key, entry)
            for subset, bucket in subsets.items()
            if len(subset) == size
            for key, entry in bucket.items()
            if not entry.complete
        ]
        if len(level) <= self.idp_m:
            return
        level.sort(key=lambda item: self._entry_score(item[2]))
        for subset, key, _entry in level[self.idp_m :]:
            del subsets[subset][key]
