"""Physical plan operators and the cost-annotated plan builder.

Every operator carries its estimated output cardinality, the site it runs
at, and its own operator time under the cost model.  Two cost views
matter:

* :meth:`Plan.response_time` — elapsed time until the full answer is
  available, assuming answers shipped from *other* sites arrive in
  parallel while same-site work serializes.  This is the paper's default
  valuation ("the total time required to execute and transmit the results
  back to the buyer").
* :meth:`Plan.work_time` — total resource-seconds consumed anywhere, the
  basis of monetary valuations.

Plans are immutable; construct them through :class:`PlanBuilder`, which
consults the cardinality estimator and cost model so that every node is
born with consistent estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

from repro.cost.estimator import CardinalityEstimator
from repro.cost.model import CostModel, NodeCapabilities
from repro.sql.expr import Column, Comparison, Expr, TRUE, conjoin
from repro.sql.query import Aggregate, SPJQuery
from repro.sql.schema import PartitionScheme, RelationRef

__all__ = [
    "Plan",
    "FragmentScan",
    "HashJoin",
    "NestedLoopJoin",
    "Union",
    "GroupAgg",
    "Sort",
    "Transfer",
    "Purchased",
    "JoinEstimate",
    "PlanBuilder",
]


@dataclass(frozen=True, slots=True)
class Plan:
    """Base class: a cost-annotated operator tree node."""

    rows: float
    site: str
    op_time: float
    # Memoized cost views (slots-compatible: declared as real fields,
    # excluded from init/repr/eq so plan identity is unaffected).
    _response_time: float | None = field(
        init=False, default=None, repr=False, compare=False
    )
    _work_time: float | None = field(
        init=False, default=None, repr=False, compare=False
    )
    _leaves: tuple["Plan", ...] | None = field(
        init=False, default=None, repr=False, compare=False
    )
    _purchase_totals: tuple[float, float] | None = field(
        init=False, default=None, repr=False, compare=False
    )

    @property
    def children(self) -> tuple["Plan", ...]:
        return ()

    # -- cost views ------------------------------------------------------
    def response_time(self) -> float:
        """Elapsed seconds until this operator's output is complete.

        Children are grouped by execution site: work at one site
        serializes (it competes for the same CPU/disk), while distinct
        sites proceed concurrently, so only the slowest site gates this
        operator.  Work co-located with this operator also serializes
        with it.  Plans are immutable, so the value is memoized.
        """
        cached = self._response_time
        if cached is not None:
            return cached
        per_site: dict[str, float] = {}
        for child in self.children:
            per_site[child.site] = per_site.get(child.site, 0.0) + (
                child.response_time()
            )
        local = per_site.pop(self.site, 0.0)
        remote = max(per_site.values(), default=0.0)
        value = self.op_time + max(local, remote)
        object.__setattr__(self, "_response_time", value)
        return value

    def work_time(self) -> float:
        """Total resource-seconds consumed across all sites (memoized)."""
        cached = self._work_time
        if cached is not None:
            return cached
        value = self.op_time + sum(c.work_time() for c in self.children)
        object.__setattr__(self, "_work_time", value)
        return value

    # -- structure ---------------------------------------------------------
    def aliases(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for child in self.children:
            out |= child.aliases()
        return out

    def operator_count(self) -> int:
        return 1 + sum(c.operator_count() for c in self.children)

    def leaves(self) -> tuple["Plan", ...]:
        """Leaf operators, left to right (memoized on inner nodes; a
        leaf is not, since caching ``(self,)`` would make it a cycle)."""
        cached = self._leaves
        if cached is not None:
            return cached
        children = self.children
        if not children:
            return (self,)
        out: list[Plan] = []
        for child in children:
            out.extend(child.leaves())
        value = tuple(out)
        object.__setattr__(self, "_leaves", value)
        return value

    def purchase_totals(self) -> tuple[float, float]:
        """``(money, freshness)`` over the :class:`Purchased` leaves.

        Money is folded left to right in leaf order with an explicit
        loop: ``sum()`` over floats is compensated from Python 3.12 on
        and would move the low bits.  Freshness is the weakest purchased
        input.  Memoized.
        """
        cached = self._purchase_totals
        if cached is not None:
            return cached
        money = 0.0
        freshness = 1.0
        for leaf in self.leaves():
            if isinstance(leaf, Purchased):
                money += leaf.money
                freshness = min(freshness, leaf.freshness)
        value = (money, freshness)
        object.__setattr__(self, "_purchase_totals", value)
        return value

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.describe()}"]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return (
            f"{type(self).__name__}"
            f"[site={self.site} rows={self.rows:.0f} t={self.op_time:.4f}s]"
        )


@dataclass(frozen=True, slots=True)
class FragmentScan(Plan):
    """Scan locally held fragments of one relation, applying a selection."""

    ref: RelationRef = field(default=None)  # type: ignore[assignment]
    fragment_ids: frozenset[int] = frozenset()
    predicate: Expr = TRUE

    def aliases(self) -> frozenset[str]:
        return frozenset((self.ref.alias,))

    def describe(self) -> str:
        frags = ",".join(str(f) for f in sorted(self.fragment_ids))
        pred = "" if self.predicate is TRUE else f" WHERE {self.predicate.sql()}"
        return (
            f"Scan {self.ref.name} AS {self.ref.alias} frags[{frags}]{pred}"
            f" [site={self.site} rows={self.rows:.0f} t={self.op_time:.4f}s]"
        )


@dataclass(frozen=True, slots=True)
class _Binary(Plan):
    left: Plan = field(default=None)  # type: ignore[assignment]
    right: Plan = field(default=None)  # type: ignore[assignment]
    condition: Expr = TRUE

    @property
    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        cond = "" if self.condition is TRUE else f" ON {self.condition.sql()}"
        return (
            f"{type(self).__name__}{cond}"
            f" [site={self.site} rows={self.rows:.0f} t={self.op_time:.4f}s]"
        )


@dataclass(frozen=True, slots=True)
class HashJoin(_Binary):
    """Equi-join via hashing; the workhorse join."""


@dataclass(frozen=True, slots=True)
class NestedLoopJoin(_Binary):
    """Fallback join for non-equi conditions and cross products."""


@dataclass(frozen=True, slots=True)
class Union(Plan):
    """Bag/set union of fragment-disjoint partial answers."""

    inputs: tuple[Plan, ...] = ()
    distinct: bool = False

    @property
    def children(self) -> tuple[Plan, ...]:
        return self.inputs

    def describe(self) -> str:
        kind = "UnionDistinct" if self.distinct else "UnionAll"
        return (
            f"{kind}({len(self.inputs)})"
            f" [site={self.site} rows={self.rows:.0f} t={self.op_time:.4f}s]"
        )


@dataclass(frozen=True, slots=True)
class GroupAgg(Plan):
    """Hash aggregation: GROUP BY + aggregates (or their re-aggregation)."""

    child: Plan = field(default=None)  # type: ignore[assignment]
    group_by: tuple[Column, ...] = ()
    aggregates: tuple[Aggregate, ...] = ()

    @property
    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def describe(self) -> str:
        keys = ", ".join(c.sql() for c in self.group_by) or "<scalar>"
        return (
            f"GroupAgg[{keys}]"
            f" [site={self.site} rows={self.rows:.0f} t={self.op_time:.4f}s]"
        )


@dataclass(frozen=True, slots=True)
class Sort(Plan):
    """Sort on the ORDER BY keys."""

    child: Plan = field(default=None)  # type: ignore[assignment]
    keys: tuple[Column, ...] = ()

    @property
    def children(self) -> tuple[Plan, ...]:
        return (self.child,)


@dataclass(frozen=True, slots=True)
class Transfer(Plan):
    """Ship a child's result from its (source) site to ``dest``.

    The node's ``site`` is the *source*: shipping serializes with the
    producer's work, while transfers from distinct sources to the same
    consumer overlap — mirroring how :class:`Purchased` deliveries
    behave, so traded plans and traditional plans are costed under the
    same physics.
    """

    child: Plan = field(default=None)  # type: ignore[assignment]
    dest: str = ""

    @property
    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return (
            f"Transfer {self.site} -> {self.dest}"
            f" [rows={self.rows:.0f} t={self.op_time:.4f}s]"
        )


@dataclass(frozen=True, slots=True)
class Purchased(Plan):
    """A query-answer bought from a seller during trading.

    ``op_time`` is the offered *total time* (seller-side execution plus
    shipping to the buyer) — a leaf from the buyer's perspective: what
    happens inside the seller is, in the paper's words, "no concern of
    Athens".  The node's ``site`` is the *seller* (so that purchases from
    different sellers overlap while purchases from the same one
    serialize), and ``delivered_at`` records where the answer lands;
    :meth:`PlanBuilder.collocate` therefore never re-ships it.
    """

    query: SPJQuery = field(default=None)  # type: ignore[assignment]
    seller: str = ""
    coverage: Mapping[str, frozenset[int]] = field(default_factory=dict)
    offer_id: int = -1
    delivered_at: str = ""
    money: float = 0.0  # charged amount from the offer
    freshness: float = 1.0  # offered data freshness

    def aliases(self) -> frozenset[str]:
        return frozenset(self.coverage)

    def describe(self) -> str:
        cov = "; ".join(
            f"{alias}:{sorted(fids)}" for alias, fids in sorted(self.coverage.items())
        )
        return (
            f"Purchased from {self.seller} offer#{self.offer_id} [{cov}]"
            f" [rows={self.rows:.0f} t={self.op_time:.4f}s]"
        )


class JoinEstimate(NamedTuple):
    """A split's join selectivity, whether it is an equi-join, and its
    condition (see :meth:`PlanBuilder.join_estimate`)."""

    selectivity: float
    equi: bool
    condition: Expr


class PlanBuilder:
    """Factory producing cost-annotated plans.

    Parameters
    ----------
    estimator:
        Cardinality estimator over the federation's statistics.
    cost_model:
        Operator/network cost model.
    capabilities:
        Per-site :class:`NodeCapabilities`; sites not present use
        *default_caps*.
    schemes:
        Partitioning scheme per relation (for fragment row counts).
    """

    def __init__(
        self,
        estimator: CardinalityEstimator,
        cost_model: CostModel,
        capabilities: Mapping[str, NodeCapabilities] | None = None,
        schemes: Mapping[str, PartitionScheme] | None = None,
        default_caps: NodeCapabilities | None = None,
    ):
        self.estimator = estimator
        self.cost_model = cost_model
        self.capabilities = dict(capabilities or {})
        self.schemes = dict(schemes or {})
        self.default_caps = default_caps or NodeCapabilities()

    def caps(self, site: str) -> NodeCapabilities:
        return self.capabilities.get(site, self.default_caps)

    # ------------------------------------------------------------------
    def scan(
        self,
        ref: RelationRef,
        fragment_ids: Iterable[int],
        selection: Expr,
        site: str,
        alias_to_relation: Mapping[str, str],
    ) -> FragmentScan:
        """Scan *fragment_ids* of *ref* at *site* applying *selection*.

        *selection* should NOT repeat the fragment restriction — fragment
        row counts come from the catalog directly.
        """
        scheme = self.schemes[ref.name]
        fragment_ids = frozenset(fragment_ids)
        rows_read = float(
            sum(scheme.fragment(fid).row_count for fid in fragment_ids)
        )
        selectivity = self.estimator.selectivity(selection, alias_to_relation)
        rows = rows_read * selectivity
        caps = self.caps(site)
        op_time = self.cost_model.scan(rows_read, caps)
        if selection is not TRUE:
            op_time += self.cost_model.cpu_pass(rows_read, caps)
        return FragmentScan(
            rows=rows,
            site=site,
            op_time=op_time,
            ref=ref,
            fragment_ids=fragment_ids,
            predicate=selection,
        )

    def join(
        self,
        left: Plan,
        right: Plan,
        conjuncts: Sequence[Expr],
        alias_to_relation: Mapping[str, str],
        site: str | None = None,
    ) -> Plan:
        """Join two sub-plans on *conjuncts* (empty = cross product).

        Children at other sites are wrapped in :class:`Transfer`.  Picks a
        hash join when an equi-join conjunct is available, otherwise a
        nested-loop join.
        """
        return self.join_on(
            left,
            right,
            self.join_estimate(conjuncts, alias_to_relation),
            site or left.site,
        )

    def join_estimate(
        self, conjuncts: Sequence[Expr], alias_to_relation: Mapping[str, str]
    ) -> JoinEstimate:
        """The input-independent part of a join on *conjuncts*.

        Callers joining many input pairs across the same split (the
        buyer DP) compute it once and pass it to :meth:`join_on`.
        """
        selectivity = 1.0
        equi = False
        for conjunct in conjuncts:
            if isinstance(conjunct, Comparison) and conjunct.is_join:
                selectivity *= self.estimator.join_selectivity(
                    conjunct, alias_to_relation
                )
                if conjunct.op == "=":
                    equi = True
            else:
                selectivity *= self.estimator.selectivity(
                    conjunct, alias_to_relation
                )
        return JoinEstimate(selectivity, equi, conjoin(conjuncts))

    def join_on(
        self, left: Plan, right: Plan, estimate: JoinEstimate, site: str
    ) -> Plan:
        """Join two sub-plans at *site* under a precomputed estimate."""
        left = self.collocate(left, site)
        right = self.collocate(right, site)
        selectivity, equi, condition = estimate
        rows = left.rows * right.rows * selectivity
        caps = self.caps(site)
        if equi:
            op_time = self.cost_model.hash_join(
                left.rows, right.rows, rows, caps
            )
            return HashJoin(
                rows=rows,
                site=site,
                op_time=op_time,
                left=left,
                right=right,
                condition=condition,
            )
        op_time = self.cost_model.nested_loop_join(left.rows, right.rows, caps)
        return NestedLoopJoin(
            rows=rows,
            site=site,
            op_time=op_time,
            left=left,
            right=right,
            condition=condition,
        )

    def union(
        self, inputs: Sequence[Plan], site: str, distinct: bool = False
    ) -> Plan:
        """Union partial answers at *site*."""
        if len(inputs) == 1:
            return self.collocate(inputs[0], site)
        placed = tuple(self.collocate(p, site) for p in inputs)
        rows = sum(p.rows for p in placed)
        caps = self.caps(site)
        op_time = self.cost_model.cpu_pass(rows, caps)
        if distinct:
            op_time += self.cost_model.sort(rows, caps)
        return Union(
            rows=rows,
            site=site,
            op_time=op_time,
            inputs=placed,
            distinct=distinct,
        )

    def aggregate(
        self,
        child: Plan,
        group_by: Sequence[Column],
        aggregates: Sequence[Aggregate],
        alias_to_relation: Mapping[str, str],
        site: str | None = None,
    ) -> GroupAgg:
        site = site or child.site
        child = self.collocate(child, site)
        if group_by:
            groups = 1.0
            for col in group_by:
                groups *= self.estimator.distinct_values(col, alias_to_relation)
            rows = min(child.rows, groups)
        else:
            rows = 1.0
        caps = self.caps(site)
        op_time = self.cost_model.cpu_pass(child.rows, caps)
        return GroupAgg(
            rows=rows,
            site=site,
            op_time=op_time,
            child=child,
            group_by=tuple(group_by),
            aggregates=tuple(aggregates),
        )

    def sort(self, child: Plan, keys: Sequence[Column]) -> Sort:
        caps = self.caps(child.site)
        return Sort(
            rows=child.rows,
            site=child.site,
            op_time=self.cost_model.sort(child.rows, caps),
            child=child,
            keys=tuple(keys),
        )

    def collocate(self, plan: Plan, site: str) -> Plan:
        """Wrap *plan* in a :class:`Transfer` if it runs elsewhere.

        Purchased answers whose delivery site is already *site* are left
        alone — their offered time includes shipping — as are results
        already in flight to *site* via an earlier Transfer.
        """
        if plan.site == site:
            return plan
        if isinstance(plan, Purchased) and plan.delivered_at == site:
            return plan
        if isinstance(plan, Transfer) and plan.dest == site:
            return plan
        source = plan.dest if isinstance(plan, Transfer) else plan.site
        return Transfer(
            rows=plan.rows,
            site=source,
            op_time=self.cost_model.transfer(plan.rows),
            child=plan,
            dest=site,
        )

    def purchased(
        self,
        query: SPJQuery,
        seller: str,
        rows: float,
        total_time: float,
        coverage: Mapping[str, frozenset[int]],
        buyer_site: str,
        offer_id: int = -1,
        money: float = 0.0,
        freshness: float = 1.0,
    ) -> Purchased:
        return Purchased(
            rows=rows,
            site=seller,
            op_time=total_time,
            query=query,
            seller=seller,
            coverage=dict(coverage),
            offer_id=offer_id,
            delivered_at=buyer_site,
            money=money,
            freshness=freshness,
        )
