"""Trace exporters: Chrome ``trace_event`` JSON, flat JSONL, ASCII timeline.

Three renderings of the same :class:`~repro.obs.tracer.TraceRecord`
list:

* :func:`write_chrome_trace` — a ``chrome://tracing`` / Perfetto
  loadable JSON file.  Timestamps are **simulated** microseconds (so
  the visual layout is deterministic); real wall-clock durations ride
  along in each event's ``args`` as ``wall_ms``.  Sites become named
  threads, so per-seller compute intervals line up as lanes.
* :func:`write_jsonl` — one JSON object per line.  In deterministic
  mode (the default) wall-clock fields are dropped and ids are
  re-sequenced — making traces from repeated same-seed runs of the same
  negotiation byte-identical.
* :func:`render_timeline` — a terminal view: one lane per site showing
  simulated busy intervals, with negotiation-round boundaries marked.
"""

from __future__ import annotations

import gzip
import io
import json
from contextlib import contextmanager
from typing import Iterable, Sequence, TextIO

from repro.obs.tracer import NO_PARENT, TraceRecord

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "jsonl_lines",
    "write_jsonl",
    "render_timeline",
]


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def chrome_trace_events(records: Sequence[TraceRecord]) -> list[dict]:
    """The ``traceEvents`` array for *records* (pid 1, one tid per site)."""
    sites = sorted({r.site for r in records if r.site})
    tids = {site: i + 1 for i, site in enumerate(sites)}
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "qt-negotiation (simulated time)"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "(coordinator)"},
        },
    ]
    for site in sites:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tids[site],
                "args": {"name": site},
            }
        )
    for record in records:
        tid = tids.get(record.site, 0)
        args = dict(record.args or {})
        if record.site:
            args["site"] = record.site
        args["wall_ms"] = round(record.wall_duration * 1e3, 6)
        base = {
            "name": record.name,
            "cat": record.cat,
            "pid": 1,
            "tid": tid,
            "ts": record.sim_start * 1e6,
            "args": args,
        }
        if record.kind == "span":
            base["ph"] = "X"
            base["dur"] = max(0.0, record.sim_duration) * 1e6
        elif record.kind == "gauge":
            base["ph"] = "C"
            base["args"] = {"value": (record.args or {}).get("value", 0)}
        else:
            base["ph"] = "i"
            base["s"] = "t"
        events.append(base)
    return events


@contextmanager
def _open_text_write(path: str):
    """Open *path* for text writing; ``.gz`` paths are gzip-compressed.

    The gzip header is written with a zero mtime and no embedded
    filename, so compressed deterministic traces are byte-identical
    across runs, not merely equal after decompression.
    """
    path = str(path)
    if path.endswith(".gz"):
        with open(path, "wb") as raw:
            with gzip.GzipFile(
                fileobj=raw, mode="wb", mtime=0, filename=""
            ) as gz:
                with io.TextIOWrapper(gz, encoding="utf-8") as fh:
                    yield fh
    else:
        with open(path, "w") as fh:
            yield fh


def write_chrome_trace(records: Sequence[TraceRecord], path: str) -> None:
    payload = {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ms",
    }
    with _open_text_write(path) as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def jsonl_lines(
    records: Sequence[TraceRecord], deterministic_only: bool = True
) -> Iterable[str]:
    """Serialized lines for *records*.

    Deterministic mode (default) keeps only simulated-time fields, then
    re-sequences ids positionally — the ids, parents, and every remaining
    byte are then identical across repeated same-seed runs of the same
    negotiation.
    """
    if deterministic_only:
        remap = {r.span_id: i for i, r in enumerate(records)}
        for i, record in enumerate(records):
            yield json.dumps(
                {
                    "seq": i,
                    "kind": record.kind,
                    "name": record.name,
                    "cat": record.cat,
                    "site": record.site,
                    "sim_start": record.sim_start,
                    "sim_end": record.sim_end,
                    "span_id": i,
                    "parent_id": remap.get(record.parent_id, NO_PARENT),
                    "args": record.args,
                },
                sort_keys=True,
            )
    else:
        for record in records:
            yield json.dumps(
                {
                    "seq": record.seq,
                    "kind": record.kind,
                    "name": record.name,
                    "cat": record.cat,
                    "site": record.site,
                    "sim_start": record.sim_start,
                    "sim_end": record.sim_end,
                    "span_id": record.span_id,
                    "parent_id": record.parent_id,
                    "args": record.args,
                    "wall_start": record.wall_start,
                    "wall_end": record.wall_end,
                },
                sort_keys=True,
            )


def write_jsonl(
    records: Sequence[TraceRecord],
    path_or_file: str | TextIO,
    deterministic_only: bool = True,
) -> None:
    if hasattr(path_or_file, "write"):
        for line in jsonl_lines(records, deterministic_only):
            path_or_file.write(line + "\n")
        return
    with _open_text_write(path_or_file) as fh:
        for line in jsonl_lines(records, deterministic_only):
            fh.write(line + "\n")


# ----------------------------------------------------------------------
# ASCII timeline
# ----------------------------------------------------------------------
def render_timeline(records: Sequence[TraceRecord], width: int = 64) -> str:
    """A terminal negotiation timeline over simulated time.

    One lane per site (plus a ``(coordinator)`` lane for unattributed
    spans), each showing where simulated busy intervals fall; a scale
    line marks negotiation-round starts with ``|``.
    """
    spans = [r for r in records if r.kind == "span"]
    if not spans:
        return "(empty trace: no spans recorded)"
    t0 = min(r.sim_start for r in spans)
    t1 = max(r.sim_end for r in spans)
    total = max(t1 - t0, 1e-12)

    def column(t: float) -> int:
        return min(width - 1, int((t - t0) / total * width))

    lanes: dict[str, list[str]] = {}
    for record in spans:
        lane = lanes.setdefault(record.site or "(coordinator)", [" "] * width)
        lo = column(record.sim_start)
        hi = max(lo, column(record.sim_end))
        for i in range(lo, hi + 1):
            lane[i] = "#" if lane[i] == " " else "%"

    scale = ["-"] * width
    rounds = [r for r in spans if r.name == "trade.round"]
    for record in rounds:
        scale[column(record.sim_start)] = "|"

    label_width = max(len(name) for name in lanes) if lanes else 0
    label_width = max(label_width, len("(coordinator)"))
    lines = [
        f"negotiation timeline — {total:.6f}s simulated "
        f"({len(rounds)} round(s), {len(spans)} spans)",
        f"{'':>{label_width}} +{''.join(scale)}+",
    ]
    ordered = sorted(name for name in lanes if name != "(coordinator)")
    if "(coordinator)" in lanes:
        ordered.insert(0, "(coordinator)")
    for name in ordered:
        lines.append(f"{name:>{label_width}} |{''.join(lanes[name])}|")
    lines.append(
        f"{'':>{label_width}} (#: one span, %: overlapping; |: round start)"
    )
    return "\n".join(lines)
