"""Observability: tracing, metrics, provenance ledger, trace reports.

Zero-dependency and off by default.  Enable by attaching a
:class:`Tracer` to the network fabric::

    from repro.obs import Tracer
    tracer = Tracer()
    network.attach_tracer(tracer)
    result = trader.optimize(query)   # result.telemetry + result.ledger
    write_chrome_trace(tracer.records, "trace.json")
    print(explain(result).render())   # why each site won its commodity

The trader auto-wires the tracer into every layer it drives (protocol,
sellers, offer caches, plan generator), so one attach call
instruments the whole negotiation.  See ``docs/OBSERVABILITY.md`` for
the event schema, the span hierarchy, the decision-ledger model, and
the determinism/overhead contracts.
"""

from repro.obs.causal import CAUSAL_SCHEMA_VERSION, CausalDag, causal_events
from repro.obs.critpath import (
    CRITPATH_SCHEMA_VERSION,
    PHASES,
    CriticalPath,
)
from repro.obs.diff import TraceDiff, diff_json, diff_records, diff_rows
from repro.obs.explain import CommodityExplanation, Explanation, explain
from repro.obs.export import (
    chrome_trace_events,
    jsonl_lines,
    render_timeline,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.history import (
    DEFAULT_GATES,
    BenchHistory,
    Gate,
    check_drift,
    check_gates,
    render_check,
    run_envelope,
)
from repro.obs.ledger import CAT_DECISION, NegotiationLedger
from repro.obs.metrics import MetricsRegistry, RunTelemetry
from repro.obs.report import (
    load_trace,
    load_trace_dir,
    render_multi_report,
    render_report,
    summarize,
)
from repro.obs.tracer import NULL_TRACER, TraceRecord, Tracer

__all__ = [
    "CAT_DECISION",
    "CAUSAL_SCHEMA_VERSION",
    "CRITPATH_SCHEMA_VERSION",
    "BenchHistory",
    "CausalDag",
    "CommodityExplanation",
    "CriticalPath",
    "DEFAULT_GATES",
    "Explanation",
    "Gate",
    "PHASES",
    "MetricsRegistry",
    "NULL_TRACER",
    "NegotiationLedger",
    "RunTelemetry",
    "TraceDiff",
    "TraceRecord",
    "Tracer",
    "causal_events",
    "check_drift",
    "check_gates",
    "chrome_trace_events",
    "diff_json",
    "diff_records",
    "diff_rows",
    "explain",
    "jsonl_lines",
    "load_trace",
    "load_trace_dir",
    "render_check",
    "render_multi_report",
    "render_report",
    "render_timeline",
    "run_envelope",
    "summarize",
    "write_chrome_trace",
    "write_jsonl",
]
