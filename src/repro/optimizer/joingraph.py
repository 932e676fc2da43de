"""Bitmask join-graph enumeration core.

Every enumeration-heavy component — the seller's System-R DP (§3.4), IDP
(§3.6), the greedy fallback, the buyer plan generator and the distributed
DP baseline — needs the same three primitives over a query's join graph:

* *connectivity* of an alias subset (cross-product avoidance),
* the *connecting conjuncts* between two disjoint subsets,
* enumeration of the subsets/splits themselves.

The original implementation re-derived all of it per subset from
``frozenset[str]`` values: each ``subset_connected`` call rebuilt an
adjacency map and re-computed every conjunct's ``tables()`` frozenset,
and each split materialized fresh frozensets.  :class:`JoinGraph` interns
the query's aliases to bit positions once, pre-computes a bitmask per
join conjunct and a neighbor mask per alias, and answers all three
primitives over plain ``int`` masks with memoization.  Connected subsets
are enumerated directly, csg-style (Moerkotte & Neumann's
``EnumerateCsg``), instead of generating all ``combinations`` and
filtering.

Determinism contract — the orders observable by consumers are exactly the
orders the original frozenset code produced:

* ``subsets_by_size`` yields, per size, the same sequence as
  ``itertools.combinations(sorted(aliases), size)`` (lexicographic in the
  sorted-alias order), restricted to connected subsets when asked;
* ``splits`` yields ``(left, right)`` pairs in the original nested-loop
  order: ascending ``split_size``, ``combinations`` over the subset's
  members, symmetric splits halved by anchoring the subset's smallest
  member on the left;
* ``connecting`` preserves the conjuncts' original predicate order.

Because ``bool`` is deterministic and every cache is keyed on masks, two
runs over the same query produce bit-identical plans.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

from repro.sql.expr import Expr

__all__ = ["JoinGraph"]


class JoinGraph:
    """Interned, memoized view of one query's join graph.

    Parameters
    ----------
    aliases:
        The query's relation aliases (the *universe*).  Bit ``i``
        corresponds to the ``i``-th alias in sorted order.
    conjuncts:
        The query predicate's conjuncts.  Conjuncts referencing fewer
        than two universe aliases are ignored (selections); conjuncts
        referencing aliases outside the universe are ignored entirely
        (they can never be satisfied within it) — this mirrors the
        ``tables <= subset`` guards of the original helpers.
    """

    __slots__ = (
        "aliases",
        "n",
        "full_mask",
        "_index",
        "_join_conjuncts",
        "_neighbor_masks",
        "_hyper_masks",
        "_connected_cache",
        "_connecting_cache",
        "_aliases_cache",
        "_subsets_cache",
    )

    def __init__(self, aliases: Iterable[str], conjuncts: Sequence[Expr]):
        self.aliases: tuple[str, ...] = tuple(sorted(set(aliases)))
        self.n = len(self.aliases)
        self.full_mask = (1 << self.n) - 1
        self._index = {alias: i for i, alias in enumerate(self.aliases)}

        # (conjunct, mask) for join conjuncts fully inside the universe,
        # in original predicate order (connecting() output order).
        join_conjuncts: list[tuple[Expr, int]] = []
        neighbor = [0] * self.n
        hyper: list[int] = []
        for conjunct in conjuncts:
            tables = conjunct.tables()
            if len(tables) < 2:
                continue
            mask = 0
            for table in tables:
                i = self._index.get(table)
                if i is None:
                    mask = -1
                    break
                mask |= 1 << i
            if mask < 0:
                continue
            join_conjuncts.append((conjunct, mask))
            if mask.bit_count() == 2:
                # A binary edge: each endpoint neighbors the other.
                m = mask
                lo = m & -m
                hi = m ^ lo
                neighbor[lo.bit_length() - 1] |= hi
                neighbor[hi.bit_length() - 1] |= lo
            else:
                # A hyperedge (e.g. an OR spanning 3+ relations) only
                # exists inside subsets containing *all* its aliases.
                hyper.append(mask)
        self._join_conjuncts = tuple(join_conjuncts)
        self._neighbor_masks = neighbor
        self._hyper_masks = tuple(hyper)

        self._connected_cache: dict[int, bool] = {}
        self._connecting_cache: dict[tuple[int, int], tuple[Expr, ...]] = {}
        self._aliases_cache: dict[int, frozenset[str]] = {}
        self._subsets_cache: dict[bool, dict[int, tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    # Mask <-> alias conversions
    # ------------------------------------------------------------------
    def mask_of(self, aliases: Iterable[str]) -> int:
        """Bitmask of an alias collection (must be within the universe)."""
        mask = 0
        index = self._index
        for alias in aliases:
            mask |= 1 << index[alias]
        return mask

    def aliases_of(self, mask: int) -> frozenset[str]:
        """The frozenset of aliases a mask denotes (cached)."""
        cached = self._aliases_cache.get(mask)
        if cached is None:
            universe = self.aliases
            cached = frozenset(universe[i] for i in self.bits(mask))
            self._aliases_cache[mask] = cached
        return cached

    def members(self, mask: int) -> tuple[str, ...]:
        """The mask's aliases in sorted order."""
        universe = self.aliases
        return tuple(universe[i] for i in self.bits(mask))

    @staticmethod
    def bits(mask: int) -> tuple[int, ...]:
        """Set bit positions of *mask*, ascending."""
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    @property
    def is_connected(self) -> bool:
        """Is the whole query's join graph connected?"""
        return self.connected(self.full_mask)

    def connected(self, mask: int) -> bool:
        """Is the join graph induced on *mask* connected?

        Matches ``subset_connected``: only conjuncts whose aliases all lie
        within *mask* contribute edges; subsets of size <= 1 are
        connected.
        """
        cached = self._connected_cache.get(mask)
        if cached is not None:
            return cached
        result = self._connected(mask)
        self._connected_cache[mask] = result
        return result

    def _connected(self, mask: int) -> bool:
        if mask & (mask - 1) == 0:  # zero or one bit set
            return True
        neighbor = self._neighbor_masks
        reach = mask & -mask
        if not self._hyper_masks:
            frontier = reach
            while frontier:
                grown = 0
                m = frontier
                while m:
                    low = m & -m
                    grown |= neighbor[low.bit_length() - 1]
                    m ^= low
                frontier = grown & mask & ~reach
                reach |= frontier
            return reach == mask
        # Rare path: hyperedges connect all their aliases at once, but
        # only when fully contained in the subset.
        hyper = [h for h in self._hyper_masks if h & ~mask == 0]
        while True:
            frontier = reach
            while frontier:
                grown = 0
                m = frontier
                while m:
                    low = m & -m
                    grown |= neighbor[low.bit_length() - 1]
                    m ^= low
                frontier = grown & mask & ~reach
                reach |= frontier
            added = 0
            for h in hyper:
                if h & reach and h & ~reach:
                    added |= h
            if not added:
                return reach == mask
            reach |= added

    def connecting(self, left: int, right: int) -> tuple[Expr, ...]:
        """Join conjuncts between *left* and *right* (memoized).

        Matches ``connecting_conjuncts``: conjuncts fully inside
        ``left | right`` touching both sides, in predicate order.
        """
        key = (left, right)
        cached = self._connecting_cache.get(key)
        if cached is not None:
            return cached
        combined = left | right
        out = tuple(
            conjunct
            for conjunct, mask in self._join_conjuncts
            if mask & ~combined == 0 and mask & left and mask & right
        )
        self._connecting_cache[key] = out
        return out

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def subsets_by_size(
        self, connected_only: bool = True
    ) -> dict[int, tuple[int, ...]]:
        """Alias-subset masks of each size from 2 to n (cached).

        With ``connected_only`` (the cross-product-avoidance case) only
        connected subsets appear, enumerated csg-style — disconnected
        subsets are never materialized.  Each size bucket is ordered
        exactly as ``combinations(sorted_aliases, size)`` would order its
        surviving subsets.
        """
        cached = self._subsets_cache.get(connected_only)
        if cached is not None:
            return cached
        by_size: dict[int, list[int]] = {size: [] for size in range(2, self.n + 1)}
        if connected_only:
            for mask in self._enumerate_csg():
                size = mask.bit_count()
                if size >= 2:
                    by_size[size].append(mask)
            for bucket in by_size.values():
                bucket.sort(key=self.bits)
        else:
            indices = range(self.n)
            for size in range(2, self.n + 1):
                for combo in combinations(indices, size):
                    mask = 0
                    for i in combo:
                        mask |= 1 << i
                    by_size[size].append(mask)
        result = {size: tuple(bucket) for size, bucket in by_size.items()}
        self._subsets_cache[connected_only] = result
        return result

    def _enumerate_csg(self) -> Iterator[int]:
        """All connected subgraph masks (EnumerateCsg, any order).

        With hyperedges present, neighbor-mask expansion under-reports
        connectivity, so fall back to filtering all subsets through
        :meth:`connected` (still memoized and allocation-free).
        """
        if self._hyper_masks:
            for i in range(self.n):
                yield 1 << i
            indices = range(self.n)
            for size in range(2, self.n + 1):
                for combo in combinations(indices, size):
                    mask = 0
                    for i in combo:
                        mask |= 1 << i
                    if self.connected(mask):
                        yield mask
            return
        neighbor = self._neighbor_masks
        n = self.n

        def neighborhood(mask: int) -> int:
            grown = 0
            m = mask
            while m:
                low = m & -m
                grown |= neighbor[low.bit_length() - 1]
                m ^= low
            return grown & ~mask

        def recurse(subgraph: int, forbidden: int) -> Iterator[int]:
            hood = neighborhood(subgraph) & ~forbidden
            if not hood:
                return
            # Every non-empty subset of the neighborhood extends the csg.
            extensions = []
            sub = hood
            while sub:
                extensions.append(sub)
                sub = (sub - 1) & hood
            for ext in reversed(extensions):  # ascending, deterministic
                yield subgraph | ext
            blocked = forbidden | hood
            for ext in reversed(extensions):
                yield from recurse(subgraph | ext, blocked)

        for i in range(n - 1, -1, -1):
            start = 1 << i
            yield start
            # Forbid all smaller-indexed vertices: each csg is emitted
            # exactly once, from its minimum vertex.
            yield from recurse(start, (1 << i) - 1)

    def level_masks(
        self, size: int, connected_only: bool = True
    ) -> tuple[int, ...]:
        """The masks of one lattice level, in serial enumeration order.

        Thin accessor over :meth:`subsets_by_size` for the level-at-a-
        time DPs (sizes outside ``2..n`` are empty levels).
        """
        return self.subsets_by_size(connected_only).get(size, ())

    def splits(self, mask: int) -> Iterator[tuple[int, int]]:
        """Two-way partitions of *mask* in the original DP order.

        Ascending ``split_size`` from 1 to ``size // 2``; within a size,
        ``combinations`` order over the subset's sorted members; when both
        sides have equal size, only splits keeping the subset's smallest
        member on the left are yielded (symmetry halving).
        """
        members = self.bits(mask)
        size = len(members)
        anchor_bit = 1 << members[0]
        for split_size in range(1, size // 2 + 1):
            symmetric = size == 2 * split_size
            for combo in combinations(members, split_size):
                left = 0
                for i in combo:
                    left |= 1 << i
                if symmetric and not left & anchor_bit:
                    continue
                yield left, mask ^ left
