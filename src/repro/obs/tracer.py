"""Structured negotiation tracing: spans, events, gauges.

One :class:`Tracer` records a flat list of :class:`TraceRecord` rows —
spans (with a begin and an end), instant events, and gauge samples —
each carrying *both* clocks:

* **simulated time** (the discrete-event clock of the
  :class:`~repro.net.simulator.Network` the tracer is bound to), which
  is fully deterministic: two runs with the same seed produce the same
  simulated timestamps, sequence numbers, and span tree, regardless of
  host speed;
* **wall-clock time** (``time.perf_counter``), which profiles where the
  *real* CPU time goes and is of course machine-dependent.

Overhead contract
-----------------
Tracing is off by default.  Every instrumentation point in the hot
paths is guarded by ``if tracer.enabled:`` against the shared
:data:`NULL_TRACER` singleton, so a disabled tracer costs one attribute
load and one branch — nothing is allocated, no clock is read.  The
``benchmarks/bench_obs_overhead.py`` gate pins this below 5%.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["TraceRecord", "Tracer", "NULL_TRACER"]

#: ``parent_id`` of root records.
NO_PARENT = -1


@dataclass(slots=True)
class TraceRecord:
    """One trace row.

    ``kind`` is ``"span"`` (``sim_start``..``sim_end`` interval),
    ``"event"`` (instant; start == end), or ``"gauge"`` (instant sample;
    the value lives in ``args["value"]``).  ``span_id`` is the record's
    own id (== its sequence number at creation); ``parent_id`` is the
    enclosing span's id or ``-1``.
    """

    seq: int
    kind: str
    name: str
    cat: str
    site: str
    sim_start: float
    sim_end: float
    span_id: int
    parent_id: int
    args: dict[str, Any] | None
    wall_start: float
    wall_end: float

    @property
    def sim_duration(self) -> float:
        return self.sim_end - self.sim_start

    @property
    def wall_duration(self) -> float:
        return self.wall_end - self.wall_start


class _NullSpan:
    """The no-op context manager a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, **_args) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _SpanCtx:
    """Context manager closing one open span record."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: TraceRecord):
        self._tracer = tracer
        self.record = record

    def __enter__(self) -> "_SpanCtx":
        return self

    def set(self, **args) -> None:
        """Attach (or update) args on the span, e.g. outcomes at close."""
        if self.record.args is None:
            self.record.args = {}
        self.record.args.update(args)

    def __exit__(self, *_exc) -> bool:
        tracer = self._tracer
        record = self.record
        record.sim_end = tracer.sim_now()
        record.wall_end = time.perf_counter()
        stack = tracer._stack
        if stack and stack[-1] == record.span_id:
            stack.pop()
        return False


class Tracer:
    """Records spans/events/gauges; bindable to a simulated clock.

    Parameters
    ----------
    enabled:
        A disabled tracer never records and never reads a clock; all
        hot-path call sites additionally guard on :attr:`enabled`.
    sim:
        Optional simulated-clock source (any object with a ``now``
        attribute, e.g. :class:`~repro.net.simulator.Simulator`).
        Unbound tracers stamp simulated time ``0.0``.
    """

    __slots__ = ("enabled", "records", "_seq", "_stack", "_sim", "cause")

    def __init__(self, enabled: bool = True, sim=None):
        self.enabled = enabled
        self.records: list[TraceRecord] = []
        self._seq = 0
        self._stack: list[int] = []
        self._sim = sim
        #: Causal id of the message (or timeout) whose handler is
        #: currently executing — the ``parent`` stamped onto any message
        #: sent from inside that handler.  Maintained by
        #: :class:`~repro.net.simulator.Network` around handler
        #: dispatch; ``NO_PARENT`` outside any delivery.
        self.cause = NO_PARENT

    # ------------------------------------------------------------------
    def bind_sim(self, sim) -> "Tracer":
        """Bind the simulated clock (idempotent; rebinding is fine)."""
        self._sim = sim
        return self

    def sim_now(self) -> float:
        sim = self._sim
        return sim.now if sim is not None else 0.0

    def reset(self) -> None:
        self.records.clear()
        self._seq = 0
        self._stack.clear()
        self.cause = NO_PARENT

    # ------------------------------------------------------------------
    def span(self, name: str, cat: str, site: str = "", **args):
        """Open a nested span; close it via ``with`` (or ``__exit__``)."""
        if not self.enabled:
            return _NULL_SPAN
        now = self.sim_now()
        wall = time.perf_counter()
        seq = self._seq
        self._seq = seq + 1
        record = TraceRecord(
            seq, "span", name, cat, site, now, now, seq,
            self._stack[-1] if self._stack else NO_PARENT,
            args or None, wall, wall,
        )
        self.records.append(record)
        self._stack.append(seq)
        return _SpanCtx(self, record)

    def interval(
        self,
        name: str,
        cat: str,
        site: str,
        sim_start: float,
        sim_end: float,
        **args,
    ) -> None:
        """A span with an *explicit* simulated interval.

        Used for work booked on a node's compute timeline (the interval
        is known the moment the work is scheduled, e.g. a seller's
        optimization effort), which never coincides with the caller's
        wall-clock interval.
        """
        if not self.enabled:
            return
        wall = time.perf_counter()
        seq = self._seq
        self._seq = seq + 1
        self.records.append(
            TraceRecord(
                seq, "span", name, cat, site, sim_start, sim_end, seq,
                self._stack[-1] if self._stack else NO_PARENT,
                args or None, wall, wall,
            )
        )

    def event(self, name: str, cat: str, site: str = "", **args) -> None:
        """Record an instant event."""
        if not self.enabled:
            return
        now = self.sim_now()
        wall = time.perf_counter()
        seq = self._seq
        self._seq = seq + 1
        self.records.append(
            TraceRecord(
                seq, "event", name, cat, site, now, now, seq,
                self._stack[-1] if self._stack else NO_PARENT,
                args or None, wall, wall,
            )
        )

    def gauge(self, name: str, value, cat: str = "metrics", site: str = "") -> None:
        """Record one gauge sample (value kept in ``args['value']``)."""
        if not self.enabled:
            return
        now = self.sim_now()
        wall = time.perf_counter()
        seq = self._seq
        self._seq = seq + 1
        self.records.append(
            TraceRecord(
                seq, "gauge", name, cat, site, now, now, seq,
                self._stack[-1] if self._stack else NO_PARENT,
                {"value": value}, wall, wall,
            )
        )


#: Shared disabled tracer: the default value of every ``tracer``
#: attribute in the system, so hot paths can always branch on
#: ``tracer.enabled`` without a ``None`` check.
NULL_TRACER = Tracer(enabled=False)
