"""Per-site live statistics, aggregated from completed sessions.

The :class:`SiteStatsRegistry` is the substrate both open ROADMAP items
stand on: adaptive top-k RFB fanout needs learned per-site win rates,
price distributions, and latency; mid-execution re-trading needs a live
view of who is answering and at what price.  It consumes exactly what a
finished broker session already carries:

* the **decision ledger** for offer pricing, offered latency
  (``total_time``: the seller's promised execute+ship time), intake,
  awards, and settled prices;
* the session's **trace records** for RFB accounting the ledger omits:
  handled/answered counts from ``seller.compute`` spans and fanout
  sizes from ``rfb.fanout`` span args.

Only record *args* are read, never sim/wall timestamps, and every
accumulator is an integer count or a :class:`~repro.obs.live.sketch.
QuantileSketch` — so a registry built from any interleaving of the same
sessions snapshots to identical bytes.  ``snapshot()``/
``from_snapshot()`` round-trip exactly.

Pricing-effort accounting is **nominal**: the per-offer ``effort``
field the ledger stamps at ``ledger.priced`` time (enumerated plans ×
seconds-per-plan, independent of cache state).  The actual
``seller.compute`` span ``work`` is *not* used — with the broker's
shared cross-session offer cache, which session pays the pricing cost
depends on completion interleaving, so ``work`` is not run-to-run
deterministic under concurrency.  Nominal effort is, which is what
lets the :attr:`SiteStats.effort` sketch live in the byte-identity
snapshot.

When sessions carry a critical-path decomposition
(:mod:`repro.obs.critpath`), the registry also aggregates per-phase
critical-path latency sketches and each seller's compute seconds *on*
the critical path.  Those aggregates stay on the *operational* surface
(:meth:`SiteStatsRegistry.operational` /
:meth:`SiteStatsRegistry.critical_summary`, and the Prometheus
exposition) rather than the byte-identity snapshot: a session's
critical path attributes the compute that *actually* ran, and under
shared cross-session pricing which session pays a shared subquery is
an interleaving accident — exactly the raciness that disqualified raw
``work`` from the effort sketch.
"""

from __future__ import annotations

import json
import threading
from typing import Iterable, Mapping

from repro.obs.ledger import NegotiationLedger
from repro.obs.live.sketch import QuantileSketch
from repro.obs.tracer import TraceRecord

__all__ = ["SiteStats", "SiteStatsRegistry", "SITE_STATS_SCHEMA_VERSION"]

#: Bump when the snapshot shape changes.
SITE_STATS_SCHEMA_VERSION = 2  # v2: nominal per-offer effort sketch


class SiteStats:
    """One seller site's live accumulators."""

    __slots__ = (
        "wins",
        "losses",
        "offers_priced",
        "offers_received",
        "rfbs_handled",
        "rfbs_answered",
        "settled",
        "valuation",
        "latency",
        "effort",
        "critical_units",
    )

    def __init__(self) -> None:
        self.wins = 0            # awarded offers
        self.losses = 0          # offers received by the buyer, not awarded
        self.offers_priced = 0   # offers the seller priced (post-dedupe)
        self.offers_received = 0  # survived the network back to the buyer
        self.rfbs_handled = 0    # RFBs delivered to this seller
        self.rfbs_answered = 0   # RFBs answered with at least one offer
        self.settled = QuantileSketch()    # settled (Vickrey) prices
        self.valuation = QuantileSketch()  # buyer valuations of its offers
        self.latency = QuantileSketch()    # offered total time (sim s)
        #: Nominal per-offer pricing effort (sim s): enumerated plans ×
        #: seconds-per-plan as stamped at ``ledger.priced`` time, so it
        #: is cache-independent and deterministic.
        self.effort = QuantileSketch()
        #: Seller compute seconds attributed to session critical paths,
        #: kept as integer nano-units (like the sketch sums) so the
        #: total is exact and independent of the order sessions finish.
        self.critical_units = 0

    @property
    def critical_seconds(self) -> float:
        return self.critical_units / 1e9

    @property
    def win_rate(self) -> float:
        decided = self.wins + self.losses
        return self.wins / decided if decided else 0.0

    @property
    def response_rate(self) -> float:
        return self.rfbs_answered / self.rfbs_handled if self.rfbs_handled else 0.0

    def to_dict(self) -> dict:
        return {
            "wins": self.wins,
            "losses": self.losses,
            "win_rate": round(self.win_rate, 6),
            "offers_priced": self.offers_priced,
            "offers_received": self.offers_received,
            "rfbs_handled": self.rfbs_handled,
            "rfbs_answered": self.rfbs_answered,
            "response_rate": round(self.response_rate, 6),
            "settled": self.settled.to_dict(),
            "valuation": self.valuation.to_dict(),
            "latency": self.latency.to_dict(),
            "effort": self.effort.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SiteStats":
        stats = cls()
        stats.wins = int(payload.get("wins", 0))
        stats.losses = int(payload.get("losses", 0))
        stats.offers_priced = int(payload.get("offers_priced", 0))
        stats.offers_received = int(payload.get("offers_received", 0))
        stats.rfbs_handled = int(payload.get("rfbs_handled", 0))
        stats.rfbs_answered = int(payload.get("rfbs_answered", 0))
        stats.settled = QuantileSketch.from_dict(payload.get("settled") or {})
        stats.valuation = QuantileSketch.from_dict(payload.get("valuation") or {})
        stats.latency = QuantileSketch.from_dict(payload.get("latency") or {})
        stats.effort = QuantileSketch.from_dict(payload.get("effort") or {})
        return stats


class SiteStatsRegistry:
    """Thread-safe per-site aggregation over completed sessions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sites: dict[str, SiteStats] = {}
        self.sessions = 0
        self.rounds = 0
        self.rfb_fanout = 0     # total RFB messages broadcast (fanout sum)
        self.rfb_responded = 0  # sellers that answered, summed over rounds
        self.critical_sessions = 0  # sessions with a critical-path breakdown
        #: Per-phase critical-path seconds, one observation per session.
        self.phase_latency: dict[str, QuantileSketch] = {}

    def _site(self, name: str) -> SiteStats:
        stats = self._sites.get(name)
        if stats is None:
            stats = self._sites[name] = SiteStats()
        return stats

    # -- ingest --------------------------------------------------------
    def observe_session(
        self,
        ledger: NegotiationLedger | None,
        records: Iterable[TraceRecord] | None = None,
        critical_path: Mapping | None = None,
    ) -> None:
        """Fold one completed session's ledger + trace into the registry.

        Untraced sessions (``trace=false``) contribute nothing — the
        ledger only exists when tracing was on, which is the broker's
        default.  *critical_path* is the session telemetry's
        decomposition dict (``RunTelemetry.critical_path``), when one
        was computed.
        """
        if ledger is None:
            return
        with self._lock:
            self.sessions += 1
            self.rounds += len(ledger.rounds)
            for offer_id in sorted(ledger.offers):
                node = ledger.offers[offer_id]
                seller = node.get("seller")
                if not seller:
                    continue
                stats = self._site(seller)
                stats.offers_priced += 1
                total_time = node.get("total_time")
                if total_time is not None:
                    stats.latency.add(float(total_time))
                effort = node.get("effort")
                if effort is not None:
                    stats.effort.add(float(effort))
                if node.get("received"):
                    stats.offers_received += 1
                    value = node.get("value")
                    if value is not None:
                        stats.valuation.add(float(value))
                if node.get("awarded"):
                    stats.wins += 1
                    price = node.get("price")
                    if price is None:
                        price = node.get("money")
                    if price is not None:
                        stats.settled.add(float(price))
                elif node.get("received"):
                    stats.losses += 1
            if records is not None:
                self._observe_records(records)
            if critical_path is not None:
                self._observe_critical(critical_path)

    def _observe_records(self, records: Iterable[TraceRecord]) -> None:
        """Latency/fanout accounting from trace record *args* only."""
        for record in records:
            if record.kind != "span":
                continue
            args = record.args or {}
            if record.name == "seller.compute" and record.site:
                stats = self._site(record.site)
                stats.rfbs_handled += 1
                if args.get("offers"):
                    stats.rfbs_answered += 1
            elif record.name == "rfb.fanout":
                self.rfb_fanout += int(args.get("sellers", 0))
            elif record.name == "protocol.solicit":
                self.rfb_responded += int(args.get("responded", 0))

    def _observe_critical(self, decomposition: Mapping) -> None:
        """Fold one session's critical-path decomposition in."""
        phases = decomposition.get("phases") or {}
        if not phases:
            return
        self.critical_sessions += 1
        for phase in sorted(phases):
            sketch = self.phase_latency.get(phase)
            if sketch is None:
                sketch = self.phase_latency[phase] = QuantileSketch()
            sketch.add(float(phases[phase]))
        for site, seconds in (decomposition.get("sellers") or {}).items():
            self._site(site).critical_units += round(float(seconds) * 1e9)

    def merge(self, other: "SiteStatsRegistry") -> None:
        """Fold *other* in (e.g. per-shard registries); order-free."""
        with self._lock:
            self.sessions += other.sessions
            self.rounds += other.rounds
            self.rfb_fanout += other.rfb_fanout
            self.rfb_responded += other.rfb_responded
            self.critical_sessions += other.critical_sessions
            for phase, theirs_sketch in other.phase_latency.items():
                mine_sketch = self.phase_latency.get(phase)
                if mine_sketch is None:
                    mine_sketch = self.phase_latency[phase] = QuantileSketch()
                mine_sketch.merge(theirs_sketch)
            for name, theirs in other._sites.items():
                mine = self._site(name)
                mine.wins += theirs.wins
                mine.losses += theirs.losses
                mine.offers_priced += theirs.offers_priced
                mine.offers_received += theirs.offers_received
                mine.rfbs_handled += theirs.rfbs_handled
                mine.rfbs_answered += theirs.rfbs_answered
                mine.settled.merge(theirs.settled)
                mine.valuation.merge(theirs.valuation)
                mine.latency.merge(theirs.latency)
                mine.effort.merge(theirs.effort)
                mine.critical_units += theirs.critical_units

    # -- read ----------------------------------------------------------
    def sites(self) -> list[str]:
        with self._lock:
            return sorted(self._sites)

    def get(self, site: str) -> SiteStats | None:
        with self._lock:
            return self._sites.get(site)

    def snapshot(self) -> dict:
        """Deterministic plain-data snapshot (sorted sites, sketch dicts)."""
        with self._lock:
            return {
                "schema_version": SITE_STATS_SCHEMA_VERSION,
                "sessions": self.sessions,
                "rounds": self.rounds,
                "rfb_fanout": self.rfb_fanout,
                "rfb_responded": self.rfb_responded,
                "response_ratio": round(
                    self.rfb_responded / self.rfb_fanout, 6
                )
                if self.rfb_fanout
                else 0.0,
                "sites": {
                    name: self._sites[name].to_dict()
                    for name in sorted(self._sites)
                },
            }

    def operational(self) -> dict:
        """Headline effort scalars for the ``GET /sites`` payload
        (precomputed from the nominal-effort sketches), plus each
        site's seller-compute seconds on session critical paths.

        Critical-path attribution is *actual*, not nominal: under
        cross-session shared pricing, which session pays a shared
        subquery's compute depends on thread interleaving, so these
        figures (like wall-clock latencies) stay off the byte-identity
        snapshot surface."""
        with self._lock:
            return {
                name: {
                    "effort_mean_s": round(self._sites[name].effort.mean, 9),
                    "effort_p95_s": self._sites[name].effort.quantile(0.95),
                    "critical_seconds": round(
                        self._sites[name].critical_units / 1e9, 9
                    ),
                }
                for name in sorted(self._sites)
            }

    def critical_summary(self) -> dict:
        """Operational critical-path aggregates: session count and the
        per-phase latency sketches (one observation per session)."""
        with self._lock:
            return {
                "sessions": self.critical_sessions,
                "phases": {
                    phase: self.phase_latency[phase].to_dict()
                    for phase in sorted(self.phase_latency)
                },
            }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)

    @classmethod
    def from_snapshot(cls, payload: Mapping) -> "SiteStatsRegistry":
        """Restore a registry; ``restore(snapshot()).snapshot()`` is
        byte-identical to the original."""
        registry = cls()
        registry.sessions = int(payload.get("sessions", 0))
        registry.rounds = int(payload.get("rounds", 0))
        registry.rfb_fanout = int(payload.get("rfb_fanout", 0))
        registry.rfb_responded = int(payload.get("rfb_responded", 0))
        for name, stats in (payload.get("sites") or {}).items():
            registry._sites[name] = SiteStats.from_dict(stats)
        return registry
