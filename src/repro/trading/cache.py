"""Seller-side offer/pricing cache.

Sellers re-price the same canonical subquery over and over: every bidding
round re-asks refined variants of round-one queries, repeated trades of
one query hit identical RFBs, and the experiment worlds sweep workloads
whose sub-queries overlap heavily.  The optimization a seller runs for a
given (canonical query, coverage, site) triple is deterministic, so its
:class:`~repro.optimizer.dp.DPResult` can be reused.

Simulated time stays honest: a cache hit is charged a configurable
fraction (:attr:`OfferCache.hit_work_fraction`) of the original simulated
optimization effort — a cached price still needs validating against
current statistics, but not a full re-enumeration.  The node's
:class:`~repro.cost.model.NodeCapabilities` are part of the key, so any
capability change (e.g. marketplace load feedback) is automatically a
miss and nothing stale is ever served.  Hit/miss counters follow the
``NetworkStats`` snapshot/delta idiom so callers can report per-trade
deltas.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.cost.model import NodeCapabilities
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sql.query import SPJQuery
from repro.trading.commodity import coverage_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.dp import DPResult

__all__ = [
    "CacheStats",
    "InternTable",
    "OfferCache",
    "DEFAULT_HIT_WORK_FRACTION",
]

#: Fraction of the original simulated optimization effort charged on a hit.
DEFAULT_HIT_WORK_FRACTION = 0.1

CacheKey = tuple[str, tuple[tuple[str, tuple[int, ...]], ...], str, NodeCapabilities, str]


@dataclass
class CacheStats:
    """Hit/miss counters, reportable as per-interval deltas.

    ``intern_hits`` counts the subset of hits served from entries pinned
    in an :class:`InternTable` — commodities priced once per MQO epoch
    and reused by later sharers.  Zero whenever no intern table is
    attached, so non-MQO accounting is unchanged.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    intern_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def add(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.intern_hits += other.intern_hits

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits, self.misses, self.evictions, self.intern_hits
        )

    def delta_since(self, earlier: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.evictions - earlier.evictions,
            self.intern_hits - earlier.intern_hits,
        )


class InternTable:
    """Cross-session registry of epoch-priced (interned) cache keys.

    The MQO epoch scheduler pins here every cache key its shared-pricing
    prepass stored, tagged with the epoch that priced it.  The owning
    :class:`OfferCache` consults the table on every hit (to count
    ``intern_hits``) and on eviction (pinned entries are evicted last,
    so a shared commodity stays warm for its sharers).  Session views
    share the one table.
    """

    def __init__(self):
        self._keys: dict[CacheKey, str] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)

    def pin(self, key: CacheKey, tag: str) -> None:
        """Mark *key* as an interned (epoch-priced) commodity."""
        with self._lock:
            self._keys[key] = tag

    def contains(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._keys

    def tag(self, key: CacheKey) -> str | None:
        with self._lock:
            return self._keys.get(key)


class OfferCache:
    """Deterministic memo of seller optimization results.

    Parameters
    ----------
    hit_work_fraction:
        Fraction of the original enumeration effort charged on a hit
        (1.0 disables the simulated-time benefit while still skipping
        real re-enumeration work).
    max_entries:
        FIFO capacity bound; the oldest entry is evicted when full.

    A cache may be private to one seller or shared by all sellers of a
    federation world; lookups are keyed by site, so sharing never mixes
    results across nodes — it only pools capacity and statistics.

    Concurrency: entry and counter mutations are guarded by a lock so
    broker sessions running on separate threads can share one cache
    without corrupting hit/miss stats or tearing the FIFO eviction.
    Single-session paths pay one uncontended acquire per lookup/store.
    For per-session accounting under sharing, take a
    :meth:`session_view` — same entries and lock, private stats/tracer.
    """

    def __init__(
        self,
        hit_work_fraction: float = DEFAULT_HIT_WORK_FRACTION,
        max_entries: int = 4096,
    ):
        if not 0.0 <= hit_work_fraction <= 1.0:
            raise ValueError("hit_work_fraction must be in [0, 1]")
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.hit_work_fraction = hit_work_fraction
        self.max_entries = max_entries
        self.stats = CacheStats()
        #: Observability hook (off by default; the trader attaches its
        #: network tracer).
        self.tracer: Tracer = NULL_TRACER
        #: Cross-session intern table (``None`` outside MQO epochs).
        #: Shared — like the entry dict — by session views, so intern-hit
        #: attribution survives every path.
        self.interns: InternTable | None = None
        self._entries: dict[CacheKey, "DPResult"] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def key_for(
        query: SPJQuery,
        coverage: Mapping[str, frozenset[int]],
        site: str,
        caps: NodeCapabilities,
        optimizer_name: str,
    ) -> CacheKey:
        """Canonical cache key for one local optimization request."""
        return (query.key(), coverage_key(coverage), site, caps, optimizer_name)

    def lookup(self, key: CacheKey) -> "DPResult | None":
        """The cached result for *key*, counting the hit or miss."""
        interned = False
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
                if self.interns is not None and self.interns.contains(key):
                    interned = True
                    self.stats.intern_hits += 1
        if result is None:
            if self.tracer.enabled:
                self.tracer.event(
                    "cache.miss", "cache", site=key[2], optimizer=key[4]
                )
        elif self.tracer.enabled:
            self.tracer.event(
                "cache.hit", "cache", site=key[2], optimizer=key[4],
                **({"interned": True} if interned else {}),
            )
        return result

    def store(self, key: CacheKey, result: "DPResult") -> None:
        evicted: CacheKey | None = None
        with self._lock:
            if key in self._entries:
                self._entries[key] = result
                return
            if len(self._entries) >= self.max_entries:
                # Interned (epoch-priced) entries are evicted last: a
                # shared commodity must stay warm for the sharers that
                # have not traded yet.  With no intern table this is
                # exactly the historical FIFO choice.
                evicted = next(
                    (
                        k
                        for k in self._entries
                        if self.interns is None
                        or not self.interns.contains(k)
                    ),
                    None,
                )
                if evicted is None:
                    evicted = next(iter(self._entries))
                del self._entries[evicted]
                self.stats.evictions += 1
            self._entries[key] = result
        if evicted is not None and self.tracer.enabled:
            self.tracer.event("cache.evict", "cache", site=evicted[2])

    def keys(self) -> list[CacheKey]:
        """The cached keys, in store order (the MQO epoch scheduler
        diffs this around its shared-pricing prepass to learn which
        keys to pin in the intern table)."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def session_view(self) -> "OfferCache":
        """A per-session facade over this cache.

        The view shares the entry dict, lock, capacity policy, and hit
        discount — results cached by any session serve every other —
        but keeps **private** :class:`CacheStats` and tracer, so each
        broker session reports only its own hits/misses and traces only
        its own cache events.  Views of views share the same base.
        """
        view = OfferCache.__new__(OfferCache)
        view.hit_work_fraction = self.hit_work_fraction
        view.max_entries = self.max_entries
        view.stats = CacheStats()
        view.tracer = NULL_TRACER
        view.interns = self.interns
        view._entries = self._entries
        view._lock = self._lock
        return view
