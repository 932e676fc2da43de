"""Causal message DAG of one traced trading session.

When a tracer is attached, :meth:`repro.net.simulator.Network.send`
stamps every message with a monotone per-session Lamport id (``mid``)
and the id of the message or timeout whose handler issued the send
(``parent``).  Round deadlines mint their own causal ids too
(``round.timeout`` events), so re-issued RFBs descend from the timeout
that triggered them rather than from the original fanout.  This module
rebuilds the resulting causality graph from the trace:

    RFB fanout ──▶ delivery ──▶ seller compute ──▶ OFFER / NO_OFFER
         │                                             │
         └──(deadline fires)──▶ timeout ──▶ retry RFBs ┘ ...
    award step ──▶ AWARD / REJECT deliveries
    renegotiation ──▶ VOID notices

The DAG is **timestamp-free**: it is assembled from ``(kind, name,
args)`` only, sorted by causal id — the same contract as the
deterministic JSONL exporter and the negotiation ledger.  Under the broker's :class:`AsyncClock`
recorded timestamps are wall times, but the causal ids, per-delivery
transit delays (``lat``), booked compute seconds and armed deadlines
are all deterministic, so the DAG (and the critical path replayed from
it, :mod:`repro.obs.critpath`) is byte-identical across clock
implementations and repeated same-seed runs.

Build one from a live tracer or from a trace file::

    dag = CausalDag.from_records(tracer.records)
    dag = CausalDag.from_rows(load_trace("trace.jsonl"))
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.obs.tracer import NO_PARENT, TraceRecord

__all__ = ["CausalDag", "CAUSAL_SCHEMA_VERSION", "causal_events"]

#: Bump when the DAG's JSON shape changes.
CAUSAL_SCHEMA_VERSION = 1


def causal_events(
    records: Sequence[TraceRecord] | None = None,
    rows: Iterable[dict] | None = None,
) -> Iterator[tuple[str, str, str, dict]]:
    """Normalize a trace into ``(kind, name, site, args)`` tuples.

    Accepts live :class:`TraceRecord` rows or dict rows loaded by
    :func:`repro.obs.report.load_trace`.
    """
    if records is not None:
        for r in records:
            yield r.kind, r.name, r.site, r.args or {}
    if rows is not None:
        for row in rows:
            yield (
                row.get("kind", "event"),
                row.get("name", ""),
                row.get("site", ""),
                row.get("args") or {},
            )


def _node(mid: int, parent: int, kind: str, src: str) -> dict[str, Any]:
    """A fresh causal node with every field the builders may fill."""
    return {
        "mid": mid,
        "parent": parent,
        "kind": kind,          # message kind, or "timeout"
        "src": src,            # sender (messages) / buyer (timeouts)
        "dst": None,           # recipient; None for timeout nodes
        "bytes": None,
        "queries": None,       # RFB payload size (queries)
        "items": None,         # reply payload size (offers)
        "deliveries": [],      # [{copy, lat}] — one per surviving copy
        "computes": [],        # [{site, work, offers}] booked by this mid
        "faults": [],          # [{event, reason?}] injector verdicts
        "timeout": None,       # {responded, expected, retry?} for timeouts
    }


@dataclass
class CausalDag:
    """The reconstructed causal graph of one (resilient) negotiation.

    ``nodes`` maps causal id to its node dict; ``children`` is the
    derived adjacency (parent id → sorted child ids).  Ids are the
    network's Lamport counter, so iteration in id order is iteration in
    cause-before-effect order.
    """

    nodes: dict[int, dict] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[TraceRecord]) -> "CausalDag":
        return cls._build(causal_events(records=records))

    @classmethod
    def from_rows(cls, rows: Iterable[dict]) -> "CausalDag":
        return cls._build(causal_events(rows=rows))

    @classmethod
    def _build(
        cls, events: Iterator[tuple[str, str, str, dict]]
    ) -> "CausalDag":
        dag = cls()
        nodes = dag.nodes

        def node(mid: int) -> dict:
            entry = nodes.get(mid)
            if entry is None:
                entry = nodes[mid] = _node(mid, NO_PARENT, "?", "")
            return entry

        for kind, name, site, args in events:
            if name == "seller.compute":
                # seller.compute intervals carry cause=<delivering mid>.
                cause = args.get("cause")
                if cause is None or cause == NO_PARENT:
                    continue
                node(cause)["computes"].append(
                    {
                        "site": site,
                        "work": args.get("work", 0.0),
                        "offers": args.get("offers"),
                    }
                )
                continue
            mid = args.get("mid")
            if mid is None:
                continue
            if name == "msg.send":
                entry = node(mid)
                entry.update(
                    parent=args.get("parent", NO_PARENT),
                    kind=args.get("kind", "?"),
                    src=site,
                    dst=args.get("to"),
                    bytes=args.get("bytes"),
                    queries=args.get("queries"),
                    items=args.get("items"),
                )
            elif name == "msg.deliver":
                node(mid)["deliveries"].append(
                    {"copy": args.get("copy", 0), "lat": args.get("lat", 0.0)}
                )
            elif name == "round.timeout":
                entry = node(mid)
                entry.update(kind="timeout", src=site)
                entry["timeout"] = {
                    "responded": args.get("responded"),
                    "expected": args.get("expected"),
                    "retry": None,
                }
            elif name == "round.retry":
                entry = node(mid)
                if entry["timeout"] is None:
                    entry.update(kind="timeout", src=site)
                    entry["timeout"] = {"responded": None, "expected": None}
                entry["timeout"]["retry"] = args.get("attempt")
            elif name.startswith("fault."):
                fault = {"event": name.split(".", 1)[1]}
                if args.get("reason") is not None:
                    fault["reason"] = args["reason"]
                node(mid)["faults"].append(fault)
        for entry in nodes.values():
            entry["deliveries"].sort(key=lambda d: d["copy"])
        return dag

    # ------------------------------------------------------------------
    @property
    def children(self) -> dict[int, list[int]]:
        """Derived adjacency: parent id → child ids in id order."""
        out: dict[int, list[int]] = {}
        for mid in sorted(self.nodes):
            parent = self.nodes[mid]["parent"]
            if parent != NO_PARENT:
                out.setdefault(parent, []).append(mid)
        return out

    def roots(self) -> list[int]:
        """Causal roots (no parent message/timeout), in id order."""
        return [
            mid
            for mid in sorted(self.nodes)
            if self.nodes[mid]["parent"] == NO_PARENT
        ]

    def replies(self, mid: int) -> list[dict]:
        """Message nodes causally descending from *mid*, in id order."""
        return [
            self.nodes[child]
            for child in self.children.get(mid, [])
            if self.nodes[child]["kind"] != "timeout"
        ]

    def dropped(self, mid: int) -> bool:
        """Whether every copy of *mid* was lost in transit."""
        entry = self.nodes.get(mid)
        return entry is not None and entry["kind"] != "timeout" and not entry[
            "deliveries"
        ]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data form; JSON of this is the byte-identity surface."""
        nodes = [self.nodes[mid] for mid in sorted(self.nodes)]
        messages = [n for n in nodes if n["kind"] != "timeout"]
        return {
            "schema_version": CAUSAL_SCHEMA_VERSION,
            "nodes": nodes,
            "summary": {
                "nodes": len(nodes),
                "messages": len(messages),
                "timeouts": len(nodes) - len(messages),
                "deliveries": sum(len(n["deliveries"]) for n in nodes),
                "dropped": sum(
                    1 for n in messages if not n["deliveries"]
                ),
                "faults": sum(len(n["faults"]) for n in nodes),
                "roots": len(self.roots()),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def describe(self) -> str:
        s = self.to_dict()["summary"]
        return (
            f"causal dag: {s['messages']} messages, {s['timeouts']} "
            f"timeouts, {s['deliveries']} deliveries, {s['dropped']} "
            f"dropped, {s['faults']} fault verdict(s)"
        )
